"""Tempered target families: schedules, log targets, and the induced potentials.

A schedule maps algorithmic time fraction u in [0, 1] to an inverse
temperature in [gamma_floor, 1], non-decreasing and Lipschitz with a
declared constant.  A tempered family raises an unnormalized density to
the scheduled power; the per-step potentials are the resulting density
ratios, which flatten as the horizon grows because the total temperature
change is fixed.  Potentials and drift functions read a particle through its
log target density, the per-particle statistic the engine carries.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .fk_core import DriftSpec, PotentialFamily

__all__ = [
    "TemperingSchedule",
    "LogTarget",
    "TemperedFamily",
    "linear_schedule",
    "smoothstep_schedule",
    "piecewise_linear_schedule",
    "gaussian_target",
    "gaussian_mixture_target",
    "build_potentials",
    "drift_function",
]

_AUDIT_POINTS = 10_001
_LIPSCHITZ_SAFETY = 1.01


@dataclass(frozen=True)
class TemperingSchedule:
    """Inverse-temperature path u -> gamma(u) with declared Lipschitz constant."""

    gamma_floor: float
    fn: Callable
    lipschitz_const: float

    def __post_init__(self):
        if not 0.0 < self.gamma_floor <= 1.0:
            raise ValueError(f"gamma_floor must lie in (0, 1], got {self.gamma_floor}")
        _audit_schedule(self)

    def __call__(self, u):
        return self.fn(u)


def _audit_schedule(s):
    """Grid audit: endpoints, monotonicity, declared Lipschitz constant.

    The declared constant is trusted up to a 1.01 safety factor; exact
    verification of a black-box callable is not possible.
    """
    u = np.linspace(0.0, 1.0, _AUDIT_POINTS)
    g = np.asarray(s.fn(u), dtype=float)
    if abs(g[0] - s.gamma_floor) > 1e-12 or abs(g[-1] - 1.0) > 1e-12:
        raise ValueError(
            f"schedule endpoints ({g[0]!r}, {g[-1]!r}) != ({s.gamma_floor}, 1.0)"
        )
    dg = np.diff(g)
    if dg.min() < -1e-12:
        raise ValueError("schedule is not non-decreasing")
    slopes = dg / (u[1] - u[0])
    if slopes.max() > s.lipschitz_const * _LIPSCHITZ_SAFETY:
        raise ValueError(
            f"observed slope {slopes.max():.6g} exceeds declared Lipschitz "
            f"constant {s.lipschitz_const}"
        )


def linear_schedule(gamma_floor):
    span = 1.0 - gamma_floor
    return TemperingSchedule(
        gamma_floor=gamma_floor,
        fn=lambda u: gamma_floor + span * np.asarray(u, dtype=float),
        lipschitz_const=span if span > 0 else 1.0,
    )


def smoothstep_schedule(gamma_floor):
    span = 1.0 - gamma_floor

    def fn(u):
        u = np.asarray(u, dtype=float)
        return gamma_floor + span * (3.0 * u**2 - 2.0 * u**3)

    # max slope of 3u^2-2u^3 is 1.5 at u = 1/2
    return TemperingSchedule(
        gamma_floor=gamma_floor,
        fn=fn,
        lipschitz_const=1.5 * span if span > 0 else 1.0,
    )


def piecewise_linear_schedule(gamma_floor, knots):
    """Schedule interpolating (u_i, gamma_i) knots; endpoints are pinned."""
    pts = [(0.0, gamma_floor)] + [(float(u), float(g)) for u, g in knots] + [(1.0, 1.0)]
    us = np.array([p[0] for p in pts])
    gs = np.array([p[1] for p in pts])
    if np.any(np.diff(us) <= 0):
        raise ValueError("knot abscissae must be strictly increasing in (0, 1)")
    slopes = np.diff(gs) / np.diff(us)
    if slopes.min() < 0:
        raise ValueError("knots must be non-decreasing")
    return TemperingSchedule(
        gamma_floor=gamma_floor,
        fn=lambda u: np.interp(np.asarray(u, dtype=float), us, gs),
        lipschitz_const=float(slopes.max()) if slopes.max() > 0 else 1.0,
    )


@dataclass(frozen=True)
class LogTarget:
    """Unnormalized log density with a known (or declared) supremum.

    ``sup_log_unnorm`` bounds ``log_unnorm`` above; it may be attained or
    only a declared bound.  ``tempered_sampler(gamma, size, rng)``, when
    available, draws exactly from the tempered law (used for references and
    exact initialization).
    """

    dim: int
    log_unnorm: Callable
    sup_log_unnorm: float
    tempered_sampler: Optional[Callable] = None


def gaussian_target(mean, sigma):
    """Isotropic-by-axis Gaussian with unit amplitude: sup of the density is 1."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    sigma = np.broadcast_to(np.asarray(sigma, dtype=float), mean.shape).copy()
    if not np.all(np.isfinite(mean)):
        raise ValueError("mean must be finite")
    if not np.all((sigma > 0) & (sigma < np.inf)):  # false for NaN
        raise ValueError("sigma must be finite and positive")
    d = mean.size

    def log_unnorm(x):
        x = np.asarray(x, dtype=float)
        z = (x - mean) / sigma
        return -0.5 * np.sum(z * z, axis=-1)

    def tempered_sampler(gamma, size, rng):
        return mean + rng.standard_normal((size, d)) * (sigma / math.sqrt(gamma))

    return LogTarget(
        dim=d,
        log_unnorm=log_unnorm,
        sup_log_unnorm=0.0,
        tempered_sampler=tempered_sampler,
    )


def gaussian_mixture_target(means, sigmas, weights):
    """Mixture of axis-aligned Gaussian bumps with amplitude weights.

    The supremum is bounded by the sum of amplitudes (enumeration over
    component peaks); the bound is declared, not attained.
    """
    means = np.atleast_2d(np.asarray(means, dtype=float))
    n_comp, d = means.shape
    sigmas = np.broadcast_to(np.asarray(sigmas, dtype=float), means.shape).copy()
    weights = np.asarray(weights, dtype=float)
    if not np.all(np.isfinite(means)):
        raise ValueError("means must be finite")
    if not np.all((sigmas > 0) & (sigmas < np.inf)):
        raise ValueError("sigmas must be finite and positive")
    if weights.shape != (n_comp,) or not np.all((weights > 0) & (weights < np.inf)):
        raise ValueError("need one finite positive amplitude per component")

    def log_unnorm(x):
        x = np.asarray(x, dtype=float)
        z = (x[..., None, :] - means) / sigmas
        comp = -0.5 * np.sum(z * z, axis=-1) + np.log(weights)
        m = comp.max(axis=-1)
        # far from every component each term is -inf: shift by 0, not by -inf,
        # so the sum is 0 and the result -inf rather than -inf - (-inf) = NaN
        shift = np.where(m > -np.inf, m, 0.0)
        with np.errstate(divide="ignore"):
            return m + np.log(np.sum(np.exp(comp - shift[..., None]), axis=-1))

    return LogTarget(
        dim=d,
        log_unnorm=log_unnorm,
        sup_log_unnorm=float(np.log(weights.sum())),
    )


@dataclass(frozen=True)
class TemperedFamily:
    """A log target paired with a tempering schedule."""

    target: LogTarget
    schedule: TemperingSchedule


def build_potentials(fam, n):
    """Per-step potentials for horizon n: the scheduled density-ratio increments.

    log G[k](x) = (gamma((k+1)/n) - gamma(k/n)) * log density(x), read from
    the statistic ``ell`` = log density(x).  A zero increment gives log
    weight 0 everywhere, also where the density underflowed to 0, since
    pi^0 = 1.  The family upper bound follows from the Lipschitz constant:
    no step can change the exponent by more than C/n.
    """
    if n < 1:
        raise ValueError(f"horizon must be >= 1, got {n}")
    gammas = np.asarray(fam.schedule(np.arange(n + 1) / n), dtype=float)
    deltas = np.diff(gammas)
    target = fam.target
    log_g_max = max(0.0, fam.schedule.lipschitz_const / n * target.sup_log_unnorm)

    def log_g(k, ell):
        if deltas[k] == 0.0:  # 0 * -inf is NaN: leave those entries at 0
            return np.multiply(0.0, ell, out=np.zeros(np.shape(ell)), where=ell != -np.inf)
        return deltas[k] * ell

    return PotentialFamily(horizon=n, log_g=log_g, log_g_max=log_g_max,
                           statistic=target.log_unnorm)


def drift_function(fam, beta):
    """Drift function matched to the family: a negative power of the floor-tempered target.

    V(x) = exp(-beta * gamma_floor * (log density(x) - sup log density)),
    normalized to 1 at the density's supremum, hence V >= 1 everywhere.
    V reads the statistic ``ell`` = log density(x), not the state.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    sup = fam.target.sup_log_unnorm
    bg = beta * fam.schedule.gamma_floor

    def v(ell):
        return np.exp(-bg * (ell - sup))

    return DriftSpec(v=v)
