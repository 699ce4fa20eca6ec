"""Exact computation of the model's deterministic objects on finite spaces.

Everything here is matrix algebra over enumerated state spaces: the
weighted transition operators, the normalized flow of measures, the
future-mass-twisted kernels S_k, the tilted drift/minorization data, and
exact weighted-total-variation norms.  These values are the ground truth
against which the particle sampler is tested.

The oracle reads a finite model's ``FiniteArrays`` record as it stands,
never its samplers or potential closures: the (n, m, m) kernel stack, row
k-1 being M[k], the (n, m) log-weight table, row k being log G[k], and the
initial vector mu; only the bound ``log_g_max`` comes from the potential
family.  Every per-step quantity is an array operation over them.  One
weighted stack, exp(log G[k-1] - shift)(x) * M[k](x, .), gives the
operators Q[k] (shift 0) and Q~[k] (shift log_g_max).  One backward sweep
over Q~, ``future_potential_mass``, yields every future-mass vector h_k,
and ``s_kernels`` builds the stack of every S_k from those rows at once;
the tilted drift/minorization data and their checks are columns over the
steps.  Only the chained products, which depend on one another, loop over
the steps.  ``flow_map`` (weighted operators) and ``flow_map_via_s``
(twisted kernels) transport a measure by two independent routes, so each
cross-checks the other; ``v_norm_distance`` and
``norm_const_lower_bound_check`` are the exact norm and normalizer-bound
checks those cross-checks read.

A step index is a plain ``int`` and a measure is a 1-d float array over
the enumerated states.  Every probability vector a caller hands in is
checked once, where it comes in; ``v_norm_distance`` takes signed arrays.

Chained products are accumulated in extended precision and the flow is
renormalized after every step, which keeps the algebraic identities tight
to ~1e-14 over dozens of steps.
"""

from dataclasses import dataclass
from typing import List

import numpy as np

__all__ = [
    "TiltedDriftObjects",
    "NormConstReport",
    "eta_exact",
    "flow_map",
    "s_kernels",
    "flow_map_via_s",
    "future_potential_mass",
    "tilted_drift_objects",
    "v_norm_distance",
    "norm_const_lower_bound_check",
]

_SUM_TOL = 1e-12
# slack for entrywise inequality checks: the math gives >=, floats can tie
_INEQ_SLACK = 1e-12


def _probability(w, name):
    """``w`` as a float array after checking that it is a probability vector."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or w.size == 0 or not np.all(np.isfinite(w)) or np.any(w < 0):
        raise ValueError(f"{name} must be a non-empty 1-d vector of finite weights >= 0")
    if abs(w.sum() - 1.0) > _SUM_TOL:
        raise ValueError(f"{name} sums to {w.sum()!r}, not 1 within {_SUM_TOL}")
    return w


def _arrays(model):
    """The model's ``FiniteArrays``; raises on a model without them."""
    if model.finite is None:
        raise ValueError("operation requires a finite model with exact kernel matrices")
    return model.finite


def _weighted_stack(model, shift):
    """Row k-1 is exp(log G[k-1] - shift)(x) * M[k](x, .): Q for shift 0, Q~ for log_g_max."""
    arrays = _arrays(model)
    return np.exp(arrays.log_g - shift)[:, :, None] * arrays.kernels


def _propagate(model, w, k, l):
    """w^T Q[k+1] ... Q[l], renormalized each step; returns a unit-sum vector."""
    q = _weighted_stack(model, 0.0)[k:l].astype(np.longdouble)
    v = np.asarray(w, dtype=np.longdouble)
    for j, q_j in enumerate(q, start=k + 1):
        v = v @ q_j
        tot = v.sum()
        if tot <= 0:
            raise ZeroDivisionError(
                f"flow normalizer vanished at step {j}; model is degenerate"
            )
        v = v / tot
    return np.asarray(v / v.sum(), dtype=float)


def eta_exact(model, k):
    """Exact normalized marginal at step k from the model's initial vector mu."""
    mu = _arrays(model).mu
    if not 0 <= k <= model.horizon:
        raise ValueError(f"step k={k} outside [0, {model.horizon}]")
    return _propagate(model, mu, 0, k)


def flow_map(model, eta, k, l):
    """Transport a measure from step k to step l through the normalized flow."""
    if not 0 <= k <= l <= model.horizon:
        raise ValueError(f"need 0 <= k <= l <= n, got k={k}, l={l}")
    return _propagate(model, _probability(eta, "eta"), k, l)


def future_potential_mass(model):
    """Expected product of normalized weights over steps k..n-1, per start state.

    Returns an (n+1, m) array whose row k is h_k = Q~[k+1] ... Q~[n] 1, all
    rows from one backward sweep.  Values lie in (0, 1]; row n is
    identically 1.
    """
    n = model.horizon
    q_tilde = _weighted_stack(model, model.potentials.log_g_max).astype(np.longdouble)
    h = np.ones((n + 1, q_tilde.shape[1]), dtype=np.longdouble)
    for j in range(n, 0, -1):
        h[j - 1] = q_tilde[j - 1] @ h[j]
    return h.astype(float)


def s_kernels(model, hs):
    """Markov kernels twisted by the future normalized weight mass, as an (n, m, m) stack.

    ``hs`` is ``future_potential_mass(model)``, so the backward sweep runs
    once for every step.  Row k-1 is S_k: row x of S_k is M[k](x, .) times
    h_k, renormalized.
    """
    raw = _arrays(model).kernels * hs[1:, None, :]
    return raw / raw.sum(axis=2, keepdims=True)


def flow_map_via_s(model, eta, k):
    """Transport from step k to the terminal step via the twisted kernels.

    Agrees with ``flow_map(model, eta, k, n)``; the two routes are kept as
    independent implementations so they can cross-check each other.
    """
    n = model.horizon
    if not 0 <= k <= n:
        raise ValueError(f"step k={k} outside [0, {n}]")
    hs = future_potential_mass(model)
    w = np.asarray(_probability(eta, "eta"), dtype=np.longdouble)
    w = w * hs[k].astype(np.longdouble)
    tot = w.sum()
    if tot <= 0:
        raise ZeroDivisionError("flow normalizer vanished; model is degenerate")
    w = w / tot
    for s_j in s_kernels(model, hs)[k:].astype(np.longdouble):
        w = w @ s_j
        w = w / w.sum()
    return np.asarray(w, dtype=float)


@dataclass
class TiltedDriftObjects:
    """Minorization/drift data for the twisted kernels at every step, plus checks.

    Every field but ``a2_failures`` is stacked over the steps: row k-1 is
    step k.  ``eps_nk``, ``b_nk``, ``b_nk_proof`` and ``a2_ok`` have shape
    (n,); ``nu_nk`` (the tilted minorizing probability vector), ``v_nk``,
    ``v_prev``, ``drift_ok`` and ``drift_ok_proof`` have shape (n, m);
    ``minor_ok`` has shape (n, |C|), one column per state of the small set.
    ``b_nk`` follows the printed indexing (offset divided by the step-(k-1)
    tilt mass); ``b_nk_proof`` divides by the step-k tilt mass, which is
    the constant the derivation actually produces.  The drift check is run
    against both.  ``a2_failures`` lists the model's failed preconditions,
    each once.
    """

    eps_nk: np.ndarray
    b_nk: np.ndarray
    nu_nk: np.ndarray
    v_nk: np.ndarray
    v_prev: np.ndarray
    b_nk_proof: np.ndarray
    minor_ok: np.ndarray
    drift_ok: np.ndarray
    drift_ok_proof: np.ndarray
    a2_ok: np.ndarray
    a2_failures: List[str]


def _drift_vector(drift, m):
    """The certified V as a float vector over the m states; anything else is refused."""
    v = np.asarray(drift.v)
    if v.shape != (m,):
        raise ValueError(f"drift vector has shape {v.shape}, expected ({m},)")
    return v.astype(float, copy=False)


def _small_set(drift, v):
    """Mask of the sub-level set {V <= level_d}, with slack for float ties."""
    return v <= drift.level_d * (1.0 + _INEQ_SLACK)


def _raw_drift_excess(mats, drift, v):
    """Per step, the worst excess of M[k] V over lam V + b_d 1_C, and whether it breaks drift."""
    gap = (np.matmul(mats, v) - (drift.lam * v + drift.b_d * _small_set(drift, v))).max(axis=1)
    return gap, gap > _INEQ_SLACK * max(1.0, drift.b_d)


def _check_a2(mats, drift, v, eps, nu_w):
    """Entrywise verification of the supplied drift and minorization inputs."""
    if np.any(v < 1.0 - _INEQ_SLACK):
        return ["drift function has entries below 1"]
    c_mask = _small_set(drift, v)
    worst = (mats[:, c_mask] - eps * nu_w).min(axis=(1, 2), initial=np.inf)
    minor_bad = worst < -_INEQ_SLACK
    excess, drift_bad = _raw_drift_excess(mats, drift, v)
    failures = []
    for i in np.flatnonzero(minor_bad | drift_bad):
        if minor_bad[i]:
            failures.append(f"minorization fails for kernel k={i + 1} (worst {worst[i]:.3e})")
        if drift_bad[i]:
            failures.append(f"drift fails for kernel k={i + 1} (worst +{excess[i]:.3e})")
    return failures


def tilted_drift_objects(model, drift, minorizer):
    """Build and verify the drift/minorization data for the twisted kernels.

    Returns one ``TiltedDriftObjects`` whose row k-1 holds step k, for
    k = 1..n, all built from a single backward sweep.  ``drift`` supplies
    (V, lam, level_d, b_d); ``minorizer`` is the pair (eps, nu) for the raw
    kernels on the sub-level set.  Inputs failing the entrywise
    preconditions yield rows with ``a2_ok`` false rather than an exception.
    """
    mats = _arrays(model).kernels
    eps, nu = minorizer
    if not eps > 0:
        raise ValueError(f"eps must be > 0, got {eps!r}")
    nu_w = _probability(nu, "nu")
    v = _drift_vector(drift, mats.shape[1])
    c_mask = _small_set(drift, v)

    failures = _check_a2(mats, drift, v, eps, nu_w)
    hs = future_potential_mass(model)
    # row by row, the same dot product as nu . h_k (a matrix-vector product rounds differently)
    mass = (hs[:, None, :] @ nu_w)[:, 0]
    eps_nk = eps * mass[1:]
    nu_nk = nu_w * hs[1:] / mass[1:, None]
    with np.errstate(over="ignore"):  # a tiny tilt coefficient leaves an infinite offset
        b_proof = drift.b_d / eps_nk
        b_printed = drift.b_d / (eps * mass[:-1])

    # V tilted at step j: V / M[j+1](h_{j+1}) for j < n, and V itself at j = n
    v_tilted = np.vstack([v / np.matmul(mats, hs[1:, :, None])[:, :, 0], v])
    v_nk, v_prev = v_tilted[1:], v_tilted[:-1]
    dips = np.any(v_nk < 1.0 - _INEQ_SLACK, axis=1)
    a2_ok = ~dips & (not failures)
    if dips.any():
        failures.append("tilted drift function dips below 1 (model inconsistent)")

    s = s_kernels(model, hs)
    minor_ok = (s[:, c_mask] - (eps_nk[:, None] * nu_nk)[:, None, :]).min(axis=2) >= -_INEQ_SLACK
    lhs = np.matmul(s, v_nk[:, :, None])[:, :, 0]
    scale = _INEQ_SLACK * np.maximum(1.0, np.abs(lhs))
    drift_ok = lhs <= drift.lam * v_prev + b_printed[:, None] * c_mask + scale
    drift_ok_proof = lhs <= drift.lam * v_prev + b_proof[:, None] * c_mask + scale
    return TiltedDriftObjects(
        eps_nk=eps_nk,
        b_nk=b_printed,
        nu_nk=nu_nk,
        v_nk=v_nk,
        v_prev=v_prev,
        b_nk_proof=b_proof,
        minor_ok=minor_ok,
        drift_ok=drift_ok,
        drift_ok_proof=drift_ok_proof,
        a2_ok=a2_ok,
        a2_failures=failures,
    )


def v_norm_distance(a, b, v, alpha=1.0):
    """Distance between two measures in the weighted total-variation norm.

    On a finite space the supremum over test functions dominated by
    ``v**alpha`` is attained by the sign pattern of the difference, so the
    result ``sum |a - b| * v**alpha`` is exact.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    v = np.asarray(v, dtype=float)
    if np.any(v < 1.0):
        raise ValueError("weight function must be >= 1 everywhere")
    diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return float(np.sum(np.abs(diff) * v**alpha))


@dataclass
class NormConstReport:
    """Exact per-step tilt masses against the assembled exponential lower bound.

    ``u_norm`` is the supremum over steps of the V-weighted supremum of the
    per-step energy U.
    """

    per_k: np.ndarray
    min_mass: float
    c_const: float
    bound: float
    mu_v: float
    u_norm: float
    a1_ok: bool
    drift_ok: bool
    ok: bool


def norm_const_lower_bound_check(model, drift, mu):
    """Check min_k mu(tilt mass at k) >= exp(-C mu(V)) with C assembled from the drift data.

    C = (sup over steps of the V-weighted sup of the per-step energy) times
    (1 + b_d / (1 - lam)).
    """
    arrays = _arrays(model)
    n = model.horizon
    mu_w = _probability(mu, "mu")
    v = _drift_vector(drift, arrays.mu.size)
    # the per-step energy U = -n log(G / exp(log_g_max)); A1 (normalized weights <= 1) is U >= 0
    u = -n * (arrays.log_g - model.potentials.log_g_max)
    a1_ok = bool(u.min() >= -n * _INEQ_SLACK)
    u_norm = float((np.maximum(u, 0.0) / v[None, :]).max())

    drift_ok = not _raw_drift_excess(arrays.kernels, drift, v)[1].any()

    c_const = u_norm * (1.0 + drift.b_d / (1.0 - drift.lam))
    mu_v = float(mu_w @ v)
    bound = float(np.exp(-c_const * mu_v))
    per_k = (future_potential_mass(model)[:, None, :] @ mu_w)[:, 0]
    min_mass = float(per_k.min())
    return NormConstReport(
        per_k=per_k,
        min_mass=min_mass,
        c_const=c_const,
        bound=bound,
        mu_v=mu_v,
        u_norm=u_norm,
        a1_ok=a1_ok,
        drift_ok=drift_ok,
        ok=bool(a1_ok and drift_ok and min_mass >= bound),
    )
