"""Random walk Metropolis kernels targeting the tempered family.

A proposal increment is a sampler ``q(size, rng)`` of (size, dim) draws.
It must be symmetric about the origin: that is exactly what makes the
correction-free acceptance ratio leave the tempered law invariant.  The
one shipped increment, the centred Gaussian, is symmetric by construction.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fk_core import KernelFamily
from . import streams

__all__ = [
    "gaussian_increment",
    "rwm_step_batch",
    "rwm_kernel_family",
    "drift_probe",
    "DriftProbeReport",
]

# probe directions per shell in two or more dimensions
_POINTS_PER_SHELL = 8


def gaussian_increment(dim, scale):
    """Sampler ``q(size, rng)`` of (size, dim) centred Gaussian increments."""
    if not 0 < scale < math.inf:
        raise ValueError("scale must be finite and positive")
    return lambda size, rng: rng.standard_normal((size, dim)) * scale


def rwm_step_batch(fam, gamma, q, xs, cur, rng):
    """Advance a batch of chains one Metropolis step at inverse temperature gamma.

    ``cur`` is the log target density at ``xs``; only the proposals are
    evaluated.  Returns the new states and their log densities.  Draw layout
    per call: proposals first, then one acceptance uniform per chain.
    Proposals with non-finite log density are rejected.
    """
    xs = np.asarray(xs, dtype=float)
    size = xs.shape[0]
    y = q(size, rng)
    u = rng.random(size)
    # a proposal far out overflows to log density -inf and is rejected
    with np.errstate(over="ignore", invalid="ignore"):
        moved = xs + y
        prop = np.asarray(fam.target.log_unnorm(moved), dtype=float)
        log_ratio = gamma * (prop - cur)
    accept = np.isfinite(prop) & (np.log(u) < log_ratio)
    return np.where(accept[:, None], moved, xs), np.where(accept, prop, cur)


def rwm_kernel_family(fam, gammas, q):
    """Kernels along a checked ladder: step k targets the tempered law at ``gammas[k]``."""
    return KernelFamily(
        sample_batch=lambda k, xs, ell, rng: rwm_step_batch(fam, gammas[k], q, xs, ell, rng),
    )


@dataclass
class DriftProbeReport:
    """Monte Carlo estimates of the one-step drift ratio on spherical shells.

    ``points`` holds one ``(radius, point_index, ratio, std_err)`` row per
    probe point, shell by shell in increasing radius, with ``point_index``
    counting the points of its shell from 0.
    """

    radii: np.ndarray
    lambda_hat: np.ndarray
    band: np.ndarray
    points: list
    safe_radius: float | None


def drift_probe(fam, gamma, q, drift, radii, n_proposals, seed):
    """Estimate max over each shell of E[V(next)] / V(current).

    Each probe point uses ``n_proposals`` Rao-Blackwellized proposals (the
    acceptance probability is integrated analytically, no accept draws).
    The per-shell band is 4 standard errors of the worst point; the safe
    radius is the smallest shell where estimate + band < 1.  A shell with a
    non-finite ratio, as where V overflows, has no estimate: its
    ``lambda_hat`` and band are NaN, and it is never the safe radius.
    ``drift`` is V as a plain callable over a batch of log target
    densities, as ``tempering.drift_function`` returns it.
    """
    d = fam.target.dim
    radii = np.asarray(sorted(radii), dtype=float)
    rows = []
    lam_hat = np.empty(radii.size)
    band = np.empty(radii.size)
    for i, r in enumerate(radii):
        if d == 1:
            dirs = np.array([[1.0], [-1.0]])
        else:
            g = streams.stream(seed, 0, i).standard_normal((_POINTS_PER_SHELL, d))
            dirs = g / np.linalg.norm(g, axis=1, keepdims=True)
        worst, worst_se = -np.inf, 0.0
        for j, direction in enumerate(dirs):
            x = r * direction
            rng = streams.stream(seed, 1, i, j)
            y = q(n_proposals, rng)
            cur = float(fam.target.log_unnorm(x))
            prop = np.asarray(fam.target.log_unnorm(x + y), dtype=float)
            with np.errstate(invalid="ignore", over="ignore"):
                a = np.exp(np.minimum(0.0, gamma * (prop - cur)))
                a = np.where(np.isfinite(prop), a, 0.0)
                vx = float(drift(np.array([cur]))[0])
                vals = (a * drift(prop) + (1.0 - a) * vx) / vx
                est = float(vals.mean())
                se = float(vals.std(ddof=1) / math.sqrt(n_proposals))
            rows.append((float(r), j, est, se))
            if not math.isfinite(est):
                worst = worst_se = math.nan
            elif est > worst:
                worst, worst_se = est, se
        lam_hat[i] = worst
        band[i] = 4.0 * worst_se
    safe = next(
        (float(r) for r, l, b in zip(radii, lam_hat, band) if l + b < 1.0), None
    )
    return DriftProbeReport(
        radii=radii, lambda_hat=lam_hat, band=band, points=rows, safe_radius=safe
    )
