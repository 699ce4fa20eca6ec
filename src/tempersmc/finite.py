"""Finite-state models: the table-model assembler and the tempered chain.

Finite models carry exact kernel matrices alongside their samplers, so the
oracle can compute every flow quantity by matrix algebra while the particle
engine runs the same model stochastically.  ``table_model`` is the one
assembler: kernel matrices, a log-weight table and an initial vector, with
the table checked against its declared bound.  The tempered chain is built
through it, with lazy Metropolis kernels over a uniform proposal on the
other states, which are exactly invariant (reversible) for each tempered
law.  A finite model's per-particle statistic is the state label itself, so
its potentials and drift vectors are indexed by state.
"""

import numpy as np

from .fk_core import FKModel, InitialDistribution, KernelFamily, PotentialFamily, DriftSpec

__all__ = [
    "metropolis_matrix",
    "matrix_kernel_family",
    "table_model",
    "tempered_chain_model",
    "tempered_stationary",
    "drift_inputs_for_chain",
]

_ROW_TOL = 1e-12


def _inverse_cdf(u, columns):
    """Per uniform, the first index whose cumulative weight reaches it (clipped to the last).

    ``columns`` are the first m - 1 columns of the cumulative weights, each a
    scalar or one entry per uniform.  Cumulative weights do not decrease, so
    the index is the number of columns below its uniform, counted column by
    column; the last column is left out because the index stops at m - 1.
    """
    idx = np.zeros(u.shape, dtype=np.intp)
    for col in columns:
        idx += u > col
    return idx


def metropolis_matrix(log_weights, gamma, move_prob):
    """Lazy uniform-proposal Metropolis matrix targeting weights^gamma.

    From each state, propose one of the other m-1 states with total
    probability ``move_prob`` and accept by the tempered weight ratio; the
    matrix is reversible for the tempered law, hence exactly invariant.
    For a 1-d array of temperatures, the stack of their matrices.
    """
    logw = np.asarray(log_weights, dtype=float)
    m = logw.size
    if m < 2:
        raise ValueError("need at least two states")
    if not 0.0 < move_prob <= 1.0:
        raise ValueError("move_prob must lie in (0, 1]")
    gamma = np.asarray(gamma, dtype=float)[..., None, None]
    ratio = np.exp(np.minimum(0.0, gamma * (logw[None, :] - logw[:, None])))
    p = move_prob / (m - 1) * ratio
    diag = np.arange(m)
    p[..., diag, diag] = 0.0
    p[..., diag, diag] = 1.0 - p.sum(axis=-1)
    return p


def matrix_kernel_family(matrices):
    """Kernel family backed by explicit matrices, one per step k = 1..n."""
    mats = [np.asarray(a, dtype=float) for a in matrices]
    n = len(mats)
    m = mats[0].shape[0]
    for k, a in enumerate(mats, start=1):
        if a.shape != (m, m) or np.any(a < 0):
            raise ValueError(f"kernel matrix at step {k} is not a {m}x{m} nonnegative matrix")
        if np.max(np.abs(a.sum(axis=1) - 1.0)) > _ROW_TOL:
            raise ValueError(f"kernel matrix at step {k} has rows not summing to 1")
    # column j of step k's cumulative rows as one contiguous vector over the states
    cols = [np.cumsum(a, axis=1)[:, :-1].T.copy() for a in mats]

    def sample_batch(k, xs, stats, rng):
        u = rng.random(len(xs))
        xs = np.asarray(xs, dtype=int)
        new = _inverse_cdf(u, (col[xs] for col in cols[k - 1]))
        return new, new

    return KernelFamily(horizon=n, sample_batch=sample_batch, matrix=lambda k: mats[k - 1])


def _initial_from_weights(weights):
    w = np.asarray(weights, dtype=float)
    if not np.all(w >= 0) or not abs(w.sum() - 1.0) <= _ROW_TOL:  # NaN fails both
        raise ValueError("initial weights must be a probability vector")
    cum = np.cumsum(w)[:-1]

    def sample(size, rng):
        return _inverse_cdf(rng.random(size), cum)

    return InitialDistribution(sample=sample, weights=w)


def table_model(matrices, log_g_table, mu, log_g_max=None):
    """Assemble a finite model from kernel matrices, a log-weight table and mu.

    ``log_g_table`` has shape (n, m); entries must be finite (weights are
    strictly positive by construction).  The family bound defaults to the
    exact table maximum.
    """
    table = np.asarray(log_g_table, dtype=float)
    if not np.all(np.isfinite(table)):
        raise ValueError("potential table must be finite (weights strictly positive)")
    kernels = matrix_kernel_family(matrices)
    n = kernels.horizon
    m = kernels.matrix(1).shape[0]
    if table.shape != (n, m):
        raise ValueError(f"potential table has shape {table.shape}, expected ({n}, {m})")
    bound = float(table.max()) if log_g_max is None else float(log_g_max)
    if table.max() > bound + 1e-12:
        raise ValueError("potential table exceeds the declared upper bound")
    potentials = PotentialFamily(
        horizon=n, log_g=lambda k, x: table[k][np.asarray(x, dtype=int)], log_g_max=bound,
        statistic=lambda xs: xs,
    )
    return FKModel(
        horizon=n,
        kernels=kernels,
        potentials=potentials,
        initial=_initial_from_weights(mu),
        n_states=m,
    )


def tempered_stationary(log_weights, gamma):
    """Exact tempered probability vector weights^gamma / normalizer."""
    logw = gamma * np.asarray(log_weights, dtype=float)
    w = np.exp(logw - logw.max())
    return w / w.sum()


def tempered_chain_model(log_weights, schedule, n, move_prob, init):
    """Finite tempered chain: per-step weight increments + invariant Metropolis kernels.

    The step-k log weight is (gamma((k+1)/n) - gamma(k/n)) log w, bounded
    above by max(0, L/n max log w) for the schedule's Lipschitz constant L.
    ``init`` is the initial probability vector.
    """
    if n < 1:
        raise ValueError(f"horizon must be >= 1, got {n}")
    logw = np.asarray(log_weights, dtype=float)
    gammas = np.asarray(schedule(np.arange(n + 1) / n), dtype=float)
    matrices = list(metropolis_matrix(logw, gammas[1:], move_prob))
    log_g_max = max(0.0, schedule.lipschitz_const / n * float(logw.max()))
    return table_model(matrices, np.diff(gammas)[:, None] * logw, init, log_g_max=log_g_max)


def drift_inputs_for_chain(log_weights, gamma_floor, move_prob, beta, lam):
    """Drift and minorization inputs holding for every kernel of a tempered chain.

    V is the floor-tempered weight raised to -beta, normalized to 1 at the
    heaviest state.  The small set is the whole space, so the drift offset
    only needs to dominate the worst one-step growth of V over the
    temperature range; both constants are computed on a dense temperature
    grid with a small safety margin and then verified exactly per model by
    the audit.
    """
    logw = np.asarray(log_weights, dtype=float)
    m = logw.size
    v = np.exp(-beta * gamma_floor * (logw - logw.max()))
    p = metropolis_matrix(logw, np.linspace(gamma_floor, 1.0, 2001), move_prob)
    b = max(0.0, float(np.max(p @ v - lam * v)))
    min_entry = float(p.min())
    if min_entry <= 0:
        raise ValueError("chain kernels have zero entries; cannot minorize on the whole space")
    drift = DriftSpec(v=v, lam=lam, level_d=float(v.max()), b_d=max(1.05 * b, 1e-6))
    eps = 0.999 * m * min_entry
    nu = np.full(m, 1.0 / m)
    return drift, (eps, nu)
