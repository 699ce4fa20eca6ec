"""Finite-state models: the table-model assembler and the tempered chain.

A finite model is its arrays: an (n, m, m) kernel stack, an (n, m)
log-weight table and an initial vector, held on the model as one
``fk_core.FiniteArrays`` record.  ``table_model`` is the one assembler: it
checks the three arrays once, with the table against its declared bound,
and builds the record and the particle engine's samplers and potentials as
closures over those same arrays, so the oracle's matrix algebra and the
stochastic run read one set of values.  The tempered chain is built
through it, with lazy Metropolis kernels over a uniform proposal on the
other states, which are exactly invariant (reversible) for each tempered
law.

The particle engine runs a finite model as (R, m) batches of count
vectors over its m states (see ``particles``), drawing the initial batch
from mu itself, so the model has no initial sampler.  Its kernel draws
counts, not particles: row i of the next (R, m) counts is
Multinomial(N, normalize(w_i M[k])) from weights w, all rows in one
broadcast call.  It forms each row's mixture w_i M[k] by numpy's
vector-matrix product of that row alone (``weights[:, None] @ M``, one
gemv per row), so a row has the bits of a batch of one; the matrix-matrix
product ``weights @ M`` would round a row differently depending on the
rows around it.  A finite model's statistic is the state label itself, so
its potentials and drift vectors are indexed by state.  A chain's drift
vector is ``tempering.drift_function`` evaluated at its log weights.
"""

import numpy as np

from .fk_core import DriftSpec, FiniteArrays, FKModel, KernelFamily, PotentialFamily
from . import tempering

__all__ = [
    "metropolis_matrix",
    "table_model",
    "tempered_chain_model",
    "tempered_stationary",
    "drift_inputs_for_chain",
]

_ROW_TOL = 1e-12


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


def _checked_stack(matrices):
    """``matrices`` as an (n, m, m) float stack after checking that every row is a law."""
    mats = np.asarray(matrices, dtype=float)
    if mats.ndim != 3 or mats.shape[0] < 1 or mats.shape[1] != mats.shape[2]:
        raise ValueError(f"kernel matrices have shape {mats.shape}, not an (n, m, m) stack")
    m = mats.shape[1]
    negative = (mats < 0).any(axis=(1, 2))
    off_sum = ~(np.abs(mats.sum(axis=2) - 1.0).max(axis=1) <= _ROW_TOL)  # NaN is off too
    bad = np.flatnonzero(negative | off_sum)
    if bad.size:
        k = bad[0]
        if negative[k]:
            raise ValueError(f"kernel matrix at step {k + 1} is not a {m}x{m} nonnegative matrix")
        raise ValueError(f"kernel matrix at step {k + 1} has rows not summing to 1")
    return mats


def _probability_vector(weights, m):
    w = np.asarray(weights, dtype=float)
    if w.shape != (m,):
        raise ValueError(f"initial weights have shape {w.shape}, expected ({m},)")
    if not np.all(w >= 0) or not abs(w.sum() - 1.0) <= _ROW_TOL:  # NaN fails both
        raise ValueError("initial weights must be a probability vector")
    return w


def table_model(matrices, log_g_table, mu, log_g_max=None):
    """Assemble a finite model from kernel matrices, a log-weight table and mu.

    ``matrices`` is the (n, m, m) stack of kernels, row k-1 for step k, and
    ``log_g_table`` has shape (n, m); entries must be finite (weights are
    strictly positive by construction).  ``mu`` is a probability vector of
    m entries, the initial law.  The family bound defaults to the exact
    table maximum.  The checked arrays become the model's
    ``FiniteArrays``.  The kernel sampler works on count batches, by one
    call of ``rng``: ``sample_batch(k, w, N, rng)`` draws row i of its
    (R, m) result as Multinomial(N, normalize(w[i] M[k])) for (R, m)
    weights ``w``.
    """
    table = np.asarray(log_g_table, dtype=float)
    if not np.all(np.isfinite(table)):
        raise ValueError("potential table must be finite (weights strictly positive)")
    mats = _checked_stack(matrices)
    n, m = mats.shape[:2]
    if table.shape != (n, m):
        raise ValueError(f"potential table has shape {table.shape}, expected ({n}, {m})")
    bound = float(table.max()) if log_g_max is None else float(log_g_max)
    if table.max() > bound + 1e-12:
        raise ValueError("potential table exceeds the declared upper bound")
    mu = _probability_vector(mu, m)

    def sample_batch(k, weights, size, rng):
        p = (weights[:, None] @ mats[k - 1])[:, 0]
        p /= p.sum(axis=1, keepdims=True)
        return rng.multinomial(size, p)

    return FKModel(
        horizon=n,
        kernels=KernelFamily(sample_batch=sample_batch),
        potentials=PotentialFamily(log_g=lambda k, x: table[k][np.asarray(x, dtype=int)],
                                   log_g_max=bound, statistic=lambda xs: xs),
        finite=FiniteArrays(kernels=mats, log_g=table, mu=mu),
    )


def tempered_stationary(log_weights, gamma):
    """Exact tempered probability vector weights^gamma / normalizer."""
    logw = gamma * np.asarray(log_weights, dtype=float)
    w = np.exp(logw - logw.max())
    return w / w.sum()


def tempered_chain_model(log_weights, gammas, move_prob, init):
    """Finite tempered chain along a ladder: weight increments + invariant Metropolis kernels.

    The step-k log weight is (gamma_{k+1} - gamma_k) log w, bounded above
    by ``tempering.step_log_weight_bound`` at max log w, for a ladder that
    passed ``tempering.check_ladder``.  ``init`` is the initial probability
    vector.
    """
    logw = np.asarray(log_weights, dtype=float)
    matrices = metropolis_matrix(logw, gammas[1:], move_prob)
    log_g_max = tempering.step_log_weight_bound(gammas, float(logw.max()))
    return table_model(matrices, np.diff(gammas)[:, None] * logw, init, log_g_max=log_g_max)


def drift_inputs_for_chain(log_weights, gamma_floor, move_prob, beta, lam):
    """Drift and minorization inputs holding for every kernel of a tempered chain.

    V is ``tempering.drift_function`` at the log weights; one that
    overflows at some state is rejected, as no finite b covers it.  The
    small set is the whole space, so the offset b dominates the worst
    one-step growth of V over gamma in [gamma_floor, 1], and eps rests on
    the smallest entry.
    Both extremes lie at the ends: V falls as the log weight rises, and a
    larger gamma only lowers the chance of a move to lower weight (larger
    V); a move to equal or higher weight keeps move_prob/(m-1).  So every
    row of P_gamma V and off-diagonal entry is non-increasing in gamma, and
    every diagonal entry non-decreasing.  Both constants get a small safety
    margin and are then verified exactly per model by the audit.
    """
    logw = np.asarray(log_weights, dtype=float)
    m = logw.size
    v = tempering.drift_function(logw.max(), gamma_floor, beta)(logw)
    if not np.all(np.isfinite(v)):
        raise ValueError("drift function V overflows at a log weight; cannot certify the drift")
    p_floor, p_one = metropolis_matrix(logw, [gamma_floor, 1.0], move_prob)
    b = max(0.0, float(np.max(p_floor @ v - lam * v)))
    min_entry = min(float(p_floor.min()), float(p_one.min()))
    if min_entry <= 0:
        raise ValueError("chain kernels have zero entries; cannot minorize on the whole space")
    drift = DriftSpec(v=v, lam=lam, level_d=float(v.max()), b_d=max(1.05 * b, 1e-6))
    eps = 0.999 * m * min_entry
    nu = np.full(m, 1.0 / m)
    return drift, (eps, nu)
