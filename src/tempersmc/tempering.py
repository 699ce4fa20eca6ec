"""Tempered target families: schedules, log targets, and the induced potentials.

A schedule generates, for each horizon n, a ladder of inverse temperatures
gamma_0 = gamma_floor <= ... <= gamma_n = 1: an array, checked exactly by
``check_ladder``, that the potentials and kernels read.  A tempered family
raises an unnormalized density to the ladder's powers; the per-step
potentials are the resulting density ratios, which flatten as the horizon
grows because the total temperature change is fixed.  Potentials and drift
functions read a particle through its log target density, the per-particle
statistic the engine carries.  The drift function V is a plain callable
over those log densities; it is the one formula for V, and a finite chain
evaluates it at its log weights.
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .fk_core import PotentialFamily

__all__ = [
    "TemperingSchedule",
    "check_ladder",
    "LogTarget",
    "TemperedFamily",
    "linear_schedule",
    "smoothstep_schedule",
    "gaussian_target",
    "gaussian_mixture_target",
    "step_log_weight_bound",
    "build_potentials",
    "drift_function",
]

@dataclass(frozen=True)
class TemperingSchedule:
    """A ladder generator: ``fn`` maps time fractions u in [0, 1] to inverse temperatures."""

    gamma_floor: float
    fn: Callable

    def __post_init__(self):
        if not 0.0 < self.gamma_floor <= 1.0:
            raise ValueError(f"gamma_floor must lie in (0, 1], got {self.gamma_floor}")

    def ladder(self, n):
        """The temperatures gamma_0..gamma_n = fn(k/n) of a horizon-n run, checked exactly."""
        if n < 1:
            raise ValueError(f"horizon must be >= 1, got {n}")
        return check_ladder(self.fn(np.arange(n + 1) / n), self.gamma_floor)


def check_ladder(gammas, gamma_floor):
    """The ladder ``gammas`` as a float array, checked exactly: the one check of every ladder.

    It has at least two entries, all finite, gamma_0 is the floor, gamma_n
    is 1 and no step decreases, all with no tolerance, so the step
    log-weight bound read from the ladder holds exactly.
    """
    gammas = np.asarray(gammas, dtype=float)
    if gammas.ndim != 1 or gammas.size < 2:
        raise ValueError(f"ladder needs shape (n + 1,) with n >= 1, got {gammas.shape}")
    if not np.all(np.isfinite(gammas)):
        raise ValueError("ladder has a non-finite temperature")
    if gammas[0] != gamma_floor or gammas[-1] != 1.0:
        raise ValueError(
            f"ladder endpoints ({gammas[0]!r}, {gammas[-1]!r}) != ({gamma_floor}, 1.0)"
        )
    if np.any(np.diff(gammas) < 0):
        raise ValueError("ladder is not non-decreasing")
    return gammas


def linear_schedule(gamma_floor):
    span = 1.0 - gamma_floor
    return TemperingSchedule(
        gamma_floor=gamma_floor,
        fn=lambda u: gamma_floor + span * np.asarray(u, dtype=float),
    )


def smoothstep_schedule(gamma_floor):
    span = 1.0 - gamma_floor

    def fn(u):
        u = np.asarray(u, dtype=float)
        return gamma_floor + span * (3.0 * u**2 - 2.0 * u**3)

    return TemperingSchedule(gamma_floor=gamma_floor, fn=fn)


def step_log_weight_bound(gammas, sup_log):
    """Upper bound max(0, max_k (gamma_{k+1} - gamma_k) * sup_log) on every step log weight.

    A step log weight is (gamma_{k+1} - gamma_k) * ell with ell <= sup_log,
    and floating-point rounding is monotone, so the bound holds exactly for
    the products the potentials compute.
    """
    return max(0.0, float(np.diff(gammas).max()) * sup_log)


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
    with np.errstate(over="ignore"):
        total_weight = weights.sum()
    if not np.isfinite(total_weight):
        raise ValueError("the amplitudes must have a finite sum")

    log_w = np.log(weights)

    def log_unnorm(x):
        x = np.asarray(x, dtype=float)
        # one component at a time: the max and the sum over components are
        # elementwise, and no temporary holds more values than x, which the
        # particle engine keeps below the size at which the allocator maps pages
        comp = []
        for mean, sigma, lw in zip(means, sigmas, log_w):
            z = (x - mean) / sigma
            comp.append(-0.5 * np.sum(z * z, axis=-1) + lw)
        m = functools.reduce(np.maximum, comp)
        # far from every component each term is -inf: shift by 0, not by -inf,
        # so the sum is 0 and the result -inf rather than -inf - (-inf) = NaN
        shift = np.where(m > -np.inf, m, 0.0)
        total = functools.reduce(np.add, [np.exp(c - shift) for c in comp])
        with np.errstate(divide="ignore"):
            return m + np.log(total)

    return LogTarget(
        dim=d,
        log_unnorm=log_unnorm,
        sup_log_unnorm=float(np.log(total_weight)),
    )


@dataclass(frozen=True)
class TemperedFamily:
    """A log target paired with a tempering schedule."""

    target: LogTarget
    schedule: TemperingSchedule


def build_potentials(fam, gammas):
    """Per-step potentials along a ladder: the density-ratio increments.

    log G[k](x) = (gamma_{k+1} - gamma_k) * log density(x), read from the
    statistic ``ell`` = log density(x).  A zero increment gives log weight 0
    everywhere, also where the density underflowed to 0, since pi^0 = 1.
    The family upper bound is ``step_log_weight_bound`` of the ladder, which
    holds for a ladder that passed ``check_ladder`` (no step decreases).
    """
    deltas = np.diff(gammas)
    target = fam.target
    log_g_max = step_log_weight_bound(gammas, target.sup_log_unnorm)

    def log_g(k, ell):
        if deltas[k] == 0.0:  # 0 * -inf is NaN: leave those entries at 0
            return np.multiply(0.0, ell, out=np.zeros(np.shape(ell)), where=ell != -np.inf)
        return deltas[k] * ell

    return PotentialFamily(log_g=log_g, log_g_max=log_g_max, statistic=target.log_unnorm)


def drift_function(sup_log, gamma_floor, beta):
    """Drift function of a tempered family: a negative power of the floor-tempered target.

    V(ell) = exp(-beta * gamma_floor * (ell - sup_log)) for a log density
    ``ell`` bounded above by ``sup_log``, normalized to 1 at the supremum,
    hence V >= 1.  The returned callable is vectorized over a batch of log
    densities, the statistic the particle engine carries.  V reads inf,
    without a warning, where it overflows.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    bg = beta * gamma_floor

    def v(ell):
        with np.errstate(over="ignore"):
            return np.exp(-bg * (ell - sup_log))

    return v
