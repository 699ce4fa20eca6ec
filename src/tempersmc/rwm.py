"""Random walk Metropolis kernels targeting the tempered family.

The proposal increment must be symmetric about the origin: that is exactly
what makes the correction-free acceptance ratio leave the tempered law
invariant, so asymmetric increments are rejected at construction.  Built-in
increments (isotropic Gaussian, uniform ball) carry analytic positivity
profiles: a lower bound on the density over each centered ball.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fk_core import KernelFamily
from . import streams

__all__ = [
    "IncrementDistribution",
    "gaussian_increment",
    "uniform_ball_increment",
    "rwm_step_batch",
    "rwm_kernel_family",
    "drift_probe",
    "DriftProbeReport",
]

# probe directions per shell in two or more dimensions
_POINTS_PER_SHELL = 8


@dataclass(frozen=True)
class IncrementDistribution:
    """Proposal increment law: sampler, log density, and positivity profile.

    ``sample(size, rng)`` returns (size, dim) increments; ``log_density``
    is vectorized over the leading axis; ``positivity_profile(r)`` returns
    a strictly positive lower bound for the density on the ball of radius
    r (0.0 where no such bound exists, e.g. beyond a bounded support).
    """

    dim: int
    sample: Callable
    log_density: Callable
    positivity_profile: Callable

    def __post_init__(self):
        _audit_symmetry(self)


def _audit_symmetry(q, n_points=256, tol=1e-9):
    rng = streams.stream(0xA5, 1)
    y = rng.standard_normal((n_points, q.dim)) * 3.0
    fwd = np.asarray(q.log_density(y), dtype=float)
    bwd = np.asarray(q.log_density(-y), dtype=float)
    both = np.isfinite(fwd) & np.isfinite(bwd)
    if np.any(np.isfinite(fwd) != np.isfinite(bwd)) or (
        both.any() and np.max(np.abs(fwd[both] - bwd[both])) > tol
    ):
        raise ValueError("increment distribution is not symmetric about the origin")


def gaussian_increment(dim, scale):
    if not 0 < scale < math.inf:
        raise ValueError("scale must be finite and positive")
    const = -0.5 * dim * math.log(2.0 * math.pi * scale**2)

    def log_density(y):
        y = np.asarray(y, dtype=float)
        return const - 0.5 * np.sum(y * y, axis=-1) / scale**2

    return IncrementDistribution(
        dim=dim,
        sample=lambda size, rng: rng.standard_normal((size, dim)) * scale,
        log_density=log_density,
        positivity_profile=lambda r: math.exp(const - 0.5 * r**2 / scale**2),
    )


def _ball_volume(dim, radius):
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0) * radius**dim


def uniform_ball_increment(dim, radius):
    """Uniform law on the centered ball; positive only up to its own radius."""
    if not 0 < radius < math.inf:
        raise ValueError("radius must be finite and positive")
    log_dens = -math.log(_ball_volume(dim, radius))

    def sample(size, rng):
        z = rng.standard_normal((size, dim))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        u = rng.random(size) ** (1.0 / dim)
        return z * (radius * u[:, None])

    def log_density(y):
        y = np.asarray(y, dtype=float)
        inside = np.sum(y * y, axis=-1) <= radius**2
        return np.where(inside, log_dens, -np.inf)

    return IncrementDistribution(
        dim=dim,
        sample=sample,
        log_density=log_density,
        positivity_profile=lambda r: math.exp(log_dens) if r <= radius else 0.0,
    )


def rwm_step_batch(fam, gamma, q, xs, cur, rng):
    """Advance a batch of chains one Metropolis step at inverse temperature gamma.

    ``cur`` is the log target density at ``xs``; only the proposals are
    evaluated.  Returns the new states and their log densities.  Draw layout
    per call: proposals first, then one acceptance uniform per chain.
    Proposals with non-finite log density are rejected.
    """
    xs = np.asarray(xs, dtype=float)
    size = xs.shape[0]
    y = q.sample(size, rng)
    u = rng.random(size)
    moved = xs + y
    prop = np.asarray(fam.target.log_unnorm(moved), dtype=float)
    with np.errstate(invalid="ignore"):
        log_ratio = gamma * (prop - cur)
    accept = np.isfinite(prop) & (np.log(u) < log_ratio)
    return np.where(accept[:, None], moved, xs), np.where(accept, prop, cur)


def rwm_kernel_family(fam, n, q):
    """Kernels for horizon n: step k targets the schedule's temperature at k/n."""
    if n < 1:
        raise ValueError(f"horizon must be >= 1, got {n}")
    gammas = np.asarray(fam.schedule(np.arange(n + 1) / n), dtype=float)
    return KernelFamily(
        horizon=n,
        sample_batch=lambda k, xs, ell, rng: rwm_step_batch(fam, gammas[k], q, xs, ell, rng),
    )


@dataclass
class DriftProbeReport:
    """Monte Carlo estimates of the one-step drift ratio on spherical shells."""

    radii: np.ndarray
    lambda_hat: np.ndarray
    band: np.ndarray
    points: list
    safe_radius: float | None


def drift_probe(fam, gamma, q, drift, radii, n_proposals, seed=0):
    """Estimate max over each shell of E[V(next)] / V(current).

    Each probe point uses ``n_proposals`` Rao-Blackwellized proposals (the
    acceptance probability is integrated analytically, no accept draws).
    The per-shell band is 4 standard errors of the worst point; the safe
    radius is the smallest shell where estimate + band < 1.  ``drift``
    reads the log target density, as ``tempering.drift_function`` builds it.
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
            y = q.sample(n_proposals, rng)
            cur = float(fam.target.log_unnorm(x))
            prop = np.asarray(fam.target.log_unnorm(x + y), dtype=float)
            with np.errstate(invalid="ignore", over="ignore"):
                a = np.exp(np.minimum(0.0, gamma * (prop - cur)))
            a = np.where(np.isfinite(prop), a, 0.0)
            vx = float(drift.values(np.array([cur]))[0])
            vy = drift.values(prop)
            vals = (a * vy + (1.0 - a) * vx) / vx
            est = float(vals.mean())
            se = float(vals.std(ddof=1) / math.sqrt(n_proposals))
            rows.append({"radius": float(r), "point": x, "ratio": est, "se": se})
            if est > worst:
                worst, worst_se = est, se
        lam_hat[i] = worst
        band[i] = 4.0 * worst_se
    safe = next(
        (float(r) for r, l, b in zip(radii, lam_hat, band) if l + b < 1.0), None
    )
    return DriftProbeReport(
        radii=radii, lambda_hat=lam_hat, band=band, points=rows, safe_radius=safe
    )
