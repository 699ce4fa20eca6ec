"""Exact computation of the model's deterministic objects on finite spaces.

Everything here is matrix algebra over enumerated state spaces: the
weighted transition operators, the normalized flow of measures, the
future-mass-twisted kernels S_k, the tilted drift/minorization data, and
exact weighted-total-variation norms.  These values are the ground truth
against which the particle sampler is tested.

One backward sweep, ``future_potential_mass``, yields every future-mass
vector h_k, and S_k is built from its row k.  ``flow_map`` (weighted
operators) and ``flow_map_via_s`` (twisted kernels) transport a measure
by two independent routes, so each cross-checks the other;
``v_norm_distance`` and ``norm_const_lower_bound_check`` are the exact
norm and normalizer-bound checks those cross-checks read.

A step index is a plain ``int`` and a measure is a 1-d float array over
the enumerated states.  Every probability vector a caller hands in is
checked once, where it comes in; ``v_norm_distance`` takes signed arrays.

Chained products are accumulated in extended precision and the flow is
renormalized after every step, which keeps the algebraic identities tight
to ~1e-14 over dozens of steps.
"""

from dataclasses import dataclass, field
from typing import List

import numpy as np

from .fk_core import u_function

__all__ = [
    "TiltedDriftObjects",
    "NormConstReport",
    "q_matrix",
    "eta_exact",
    "flow_map",
    "s_kernel_matrix",
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


def _require_finite(model):
    if not model.is_finite:
        raise ValueError("operation requires a finite model with exact kernel matrices")


def _m_matrix(model, k):
    return np.asarray(model.kernels.matrix(k), dtype=float)


def _log_g_vector(model, k):
    return np.asarray(
        model.potentials.log_g(k, np.arange(model.n_states)), dtype=float
    )


def q_matrix(model, k):
    """Weighted transition operator at step k: row x is G[k-1](x) * M[k](x, .)."""
    _require_finite(model)
    if not 1 <= k <= model.horizon:
        raise ValueError(f"index k={k} outside [1, {model.horizon}]")
    g = np.exp(_log_g_vector(model, k - 1))
    return g[:, None] * _m_matrix(model, k)


def _q_tilde_matrix(model, k):
    g = np.exp(_log_g_vector(model, k - 1) - model.potentials.log_g_max)
    return g[:, None] * _m_matrix(model, k)


def _propagate(model, w, k, l):
    """w^T Q[k+1] ... Q[l], renormalized each step; returns a unit-sum vector."""
    v = np.asarray(w, dtype=np.longdouble)
    for j in range(k + 1, l + 1):
        v = v @ q_matrix(model, j).astype(np.longdouble)
        tot = v.sum()
        if tot <= 0:
            raise ZeroDivisionError(
                f"flow normalizer vanished at step {j}; model is degenerate"
            )
        v = v / tot
    return np.asarray(v / v.sum(), dtype=float)


def eta_exact(model, k):
    """Exact normalized marginal at step k from the model's initial weights."""
    _require_finite(model)
    if model.initial.weights is None:
        raise ValueError("model has no exact initial weight vector")
    if not 0 <= k <= model.horizon:
        raise ValueError(f"step k={k} outside [0, {model.horizon}]")
    return _propagate(model, model.initial.weights, 0, k)


def flow_map(model, eta, k, l):
    """Transport a measure from step k to step l through the normalized flow."""
    _require_finite(model)
    if not 0 <= k <= l <= model.horizon:
        raise ValueError(f"need 0 <= k <= l <= n, got k={k}, l={l}")
    return _propagate(model, _probability(eta, "eta"), k, l)


def future_potential_mass(model):
    """Expected product of normalized weights over steps k..n-1, per start state.

    Returns an (n+1, m) array whose row k is h_k = Q~[k+1] ... Q~[n] 1, all
    rows from one backward sweep.  Values lie in (0, 1]; row n is
    identically 1.
    """
    _require_finite(model)
    n = model.horizon
    h = np.ones(model.n_states, dtype=np.longdouble)
    out = np.empty((n + 1, model.n_states))
    out[n] = np.asarray(h, dtype=float)
    for j in range(n, 0, -1):
        h = _q_tilde_matrix(model, j).astype(np.longdouble) @ h
        out[j - 1] = np.asarray(h, dtype=float)
    return out


def s_kernel_matrix(model, k, h_k):
    """Markov kernel at step k twisted by the future normalized weight mass.

    ``h_k`` is row k of ``future_potential_mass(model)``, so a caller that
    needs several steps runs the backward sweep once.  Row x is M[k](x, .)
    times h_k, renormalized.
    """
    _require_finite(model)
    if not 1 <= k <= model.horizon:
        raise ValueError(f"index k={k} outside [1, {model.horizon}]")
    raw = _m_matrix(model, k) * h_k[None, :]
    return raw / raw.sum(axis=1, keepdims=True)


def flow_map_via_s(model, eta, k):
    """Transport from step k to the terminal step via the twisted kernels.

    Agrees with ``flow_map(model, eta, k, n)``; the two routes are kept as
    independent implementations so they can cross-check each other.
    """
    _require_finite(model)
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
    for j in range(k + 1, n + 1):
        w = w @ s_kernel_matrix(model, j, hs[j]).astype(np.longdouble)
        w = w / w.sum()
    return np.asarray(w, dtype=float)


@dataclass
class TiltedDriftObjects:
    """Step-k minorization/drift data for the twisted kernels, plus checks.

    ``b_nk`` follows the printed indexing (offset divided by the step-(k-1)
    tilt mass); ``b_nk_proof`` divides by the step-k tilt mass, which is
    the constant the derivation actually produces.  The drift check is run
    against both.  ``nu_nk`` is the tilted minorizing probability vector.
    """

    eps_nk: float
    b_nk: float
    nu_nk: np.ndarray
    v_nk: np.ndarray
    v_prev: np.ndarray
    b_nk_proof: float
    minor_ok: np.ndarray
    drift_ok: np.ndarray
    drift_ok_proof: np.ndarray
    a2_ok: bool
    a2_failures: List[str] = field(default_factory=list)


def _small_set(drift, v):
    """Mask of the sub-level set {V <= level_d}, with slack for float ties."""
    return v <= drift.level_d * (1.0 + _INEQ_SLACK)


def _raw_drift_excess(model, drift, v, k):
    """Worst excess of M[k] V over lam V + b_d 1_C if it breaks the drift, else None."""
    gap = (_m_matrix(model, k) @ v - (drift.lam * v + drift.b_d * _small_set(drift, v))).max()
    return gap if gap > _INEQ_SLACK * max(1.0, drift.b_d) else None


def _check_a2(model, drift, eps, nu_w):
    """Entrywise verification of the supplied drift and minorization inputs."""
    v = drift.vector(model.n_states)
    if np.any(v < 1.0 - _INEQ_SLACK):
        return ["drift function has entries below 1"]
    c_mask = _small_set(drift, v)
    failures = []
    for k in range(1, model.horizon + 1):
        minor = _m_matrix(model, k)[c_mask] - eps * nu_w[None, :]
        if minor.size and minor.min() < -_INEQ_SLACK:
            failures.append(f"minorization fails for kernel k={k} (worst {minor.min():.3e})")
        excess = _raw_drift_excess(model, drift, v, k)
        if excess is not None:
            failures.append(f"drift fails for kernel k={k} (worst +{excess:.3e})")
    return failures


def tilted_drift_objects(model, drift, minorizer):
    """Build and verify the drift/minorization data for the twisted kernels.

    Returns one ``TiltedDriftObjects`` per step k = 1..n, all built from a
    single backward sweep.  ``drift`` supplies (V, lam, level_d, b_d);
    ``minorizer`` is the pair (eps, nu) for the raw kernels on the
    sub-level set.  Inputs failing the entrywise preconditions yield
    reports with ``a2_ok=False`` rather than an exception.
    """
    _require_finite(model)
    n = model.horizon
    eps, nu = minorizer
    nu_w = _probability(nu, "nu")
    v = drift.vector(model.n_states)
    c_mask = _small_set(drift, v)

    model_failures = _check_a2(model, drift, eps, nu_w)
    hs = future_potential_mass(model)
    # V tilted at step j: V / M[j+1](h_{j+1}) for j < n, and V itself at j = n
    v_tilted = [v / (_m_matrix(model, j + 1) @ hs[j + 1]) for j in range(n)] + [v.copy()]

    out = []
    for k in range(1, n + 1):
        a2_failures = list(model_failures)
        h_k = hs[k]
        eps_nk = eps * float(nu_w @ h_k)
        nu_nk = nu_w * h_k / (nu_w @ h_k)
        b_proof = drift.b_d / eps_nk
        b_printed = drift.b_d / (eps * float(nu_w @ hs[k - 1]))

        v_nk = v_tilted[k]
        v_prev = v_tilted[k - 1]
        if np.any(v_nk < 1.0 - _INEQ_SLACK):
            a2_failures.append("tilted drift function dips below 1 (model inconsistent)")

        s_k = s_kernel_matrix(model, k, h_k)
        minor_ok = (s_k[c_mask] - eps_nk * nu_nk[None, :]).min(axis=1) >= -_INEQ_SLACK
        lhs = s_k @ v_nk
        scale = _INEQ_SLACK * np.maximum(1.0, np.abs(lhs))
        drift_ok = lhs <= drift.lam * v_prev + b_printed * c_mask + scale
        drift_ok_proof = lhs <= drift.lam * v_prev + b_proof * c_mask + scale

        out.append(
            TiltedDriftObjects(
                eps_nk=eps_nk,
                b_nk=b_printed,
                nu_nk=nu_nk,
                v_nk=v_nk,
                v_prev=v_prev,
                b_nk_proof=b_proof,
                minor_ok=minor_ok,
                drift_ok=np.asarray(drift_ok),
                drift_ok_proof=np.asarray(drift_ok_proof),
                a2_ok=not a2_failures,
                a2_failures=a2_failures,
            )
        )
    return out


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
    _require_finite(model)
    n = model.horizon
    mu_w = _probability(mu, "mu")
    v = drift.vector(model.n_states)
    states = np.arange(model.n_states)
    u = np.stack([u_function(model.potentials, k, states) for k in range(n)])
    # A1 (normalized weights <= 1) is U >= 0
    a1_ok = bool(u.min() >= -n * _INEQ_SLACK)
    u_norm = float((np.maximum(u, 0.0) / v[None, :]).max())

    drift_ok = all(_raw_drift_excess(model, drift, v, k) is None for k in range(1, n + 1))

    c_const = u_norm * (1.0 + drift.b_d / (1.0 - drift.lam))
    mu_v = float(mu_w @ v)
    bound = float(np.exp(-c_const * mu_v))
    per_k = np.array([float(mu_w @ h_k) for h_k in future_potential_mass(model)])
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
