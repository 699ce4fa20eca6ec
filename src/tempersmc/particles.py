"""Interacting particle system: init, reweight-resample-mutate steps, estimators.

A particle population is its states array, the uniformly weighted
empirical measure on those states; an ``Ensemble`` adds each state's
statistic (see ``fk_core.PotentialFamily``), the step index k and the
stream key, and the horizon is read from the model.

The statistic is evaluated once per particle at initialization and then
carried: the step-k log weights read it, each resampled particle takes its
ancestor's, and the kernel returns it beside every new state.  For tempered
targets it is the log target density, so a random walk Metropolis step
evaluates the density only at its proposals, and the drift monitor reads
eta(V) from the same values.  Carrying it changes no draw.

The transition draws, for each new particle independently, an ancestor
index proportional to the current weights and then mutates it through the
next Markov kernel: the reweight and mutate are one fused mixture draw, and
resampling is always multinomial.  Each ancestor is the plain inverse-CDF
index of its uniform: the first index whose cumulative weight exceeds it.
The uniforms are searched in sorted order, which keeps the binary searches
in cache and changes no draw.  Weight normalization happens in the log
domain with max-subtraction; a step aborts only when every weight
underflows to zero.

Randomness for step k of replicate r comes from the stream keyed by
(seed, r, k): ancestor uniforms are drawn first, then the mutation draws,
with particle i consuming the i-th slot of each vector, so results do not
depend on how replicates are scheduled across workers.
"""

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import streams

__all__ = [
    "Ensemble",
    "StepSummary",
    "TotalDegeneracyError",
    "init_ensemble",
    "smc_step",
    "run_sampler",
    "estimate",
    "ess_from_log_weights",
]


class TotalDegeneracyError(RuntimeError):
    """Every particle weight underflowed to zero; the replicate is aborted."""


@dataclass
class Ensemble:
    """N particle states and their statistics at one step of one replicate's flow."""

    states: np.ndarray
    stats: np.ndarray
    k: int
    seed: int
    replicate: int = 0

    def __post_init__(self):
        if len(self.states) < 1:
            raise ValueError("ensemble must hold at least one particle")
        if len(self.stats) != len(self.states):
            raise ValueError("need one statistic per particle")

    @property
    def n_particles(self):
        return len(self.states)


@dataclass
class StepSummary:
    """Per-step diagnostics; weight fields are NaN at the terminal step."""

    k: int
    ess: float
    log_w_max: float
    log_w_min: float
    eta_v: float
    eta_gtilde: float


def init_ensemble(model, n_particles, seed, replicate=0):
    """Independent draws from the model's initial law and their statistics.

    The stream key uses step 0.
    """
    rng = streams.stream(seed, replicate, 0)
    states = np.asarray(model.initial.sample(n_particles, rng))
    if len(states) != n_particles:
        raise ValueError("initial sampler returned the wrong number of states")
    stats = np.asarray(model.potentials.statistic(states))
    return Ensemble(states=states, stats=stats, k=0, seed=seed, replicate=replicate)


def smc_step(ens, model):
    """One transition: multinomial ancestor draw by weight, then mutation.

    Returns the next ensemble and the step-k log weights of ``ens.states``.
    """
    k = ens.k
    if k >= model.horizon:
        raise ValueError(f"flow already at terminal step k={k}")
    lw = np.asarray(model.potentials.log_g(k, ens.stats), dtype=float)
    top = lw.max()
    if not np.isfinite(top):
        raise TotalDegeneracyError(f"all particle weights vanished at step {k}")
    cw = np.cumsum(np.exp(lw - top))
    rng = streams.stream(ens.seed, ens.replicate, k + 1)
    u = rng.random(ens.n_particles)
    order = np.argsort(u)
    ancestors = np.empty(ens.n_particles, dtype=np.intp)
    ancestors[order] = np.searchsorted(cw, u[order] * cw[-1], side="right")
    np.minimum(ancestors, ens.n_particles - 1, out=ancestors)
    states, stats = model.kernels.sample_batch(
        k + 1, ens.states[ancestors], ens.stats[ancestors], rng
    )
    return Ensemble(
        states=np.asarray(states),
        stats=np.asarray(stats),
        k=k + 1,
        seed=ens.seed,
        replicate=ens.replicate,
    ), lw


def ess_from_log_weights(lw):
    """(sum w)^2 / sum w^2 from unnormalized log weights."""
    lw = np.asarray(lw, dtype=float)
    top = lw.max()
    if not np.isfinite(top):
        return 0.0
    w = np.exp(lw - top)
    return float(w.sum() ** 2 / np.sum(w * w))


def _mean(a):
    """``np.mean`` of a 1-d float array, to the same bits, without its overhead."""
    return float(a.sum() / a.size)


def _summary(model, ens, drift, lw):
    """Diagnostics of ``ens``; ``lw`` are its step log weights (None at the terminal step)."""
    eta_v = _mean(drift.values(ens.stats)) if drift is not None else math.nan
    if lw is None:
        return StepSummary(k=ens.k, ess=math.nan, log_w_max=math.nan, log_w_min=math.nan,
                           eta_v=eta_v, eta_gtilde=math.nan)
    lw = lw - model.potentials.log_g_max
    return StepSummary(
        k=ens.k,
        ess=ess_from_log_weights(lw),
        log_w_max=float(lw.max()),
        log_w_min=float(lw.min()),
        eta_v=eta_v,
        eta_gtilde=_mean(np.exp(lw)),
    )


def run_sampler(model, n_particles, seed, replicate=0, drift=None, keep_summaries=True):
    """Run the full flow; returns the terminal particle states and summaries."""
    ens = init_ensemble(model, n_particles, seed, replicate)
    summaries: Optional[List[StepSummary]] = [] if keep_summaries else None
    for _ in range(model.horizon):
        nxt, lw = smc_step(ens, model)
        if summaries is not None:
            summaries.append(_summary(model, ens, drift, lw))
        ens = nxt
    if summaries is not None:
        summaries.append(_summary(model, ens, drift, None))
    return ens.states, summaries


def estimate(states, f):
    """Plain average of f over the particle states; raises on non-finite values."""
    vals = np.asarray(f(states), dtype=float)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        raise ValueError(f"test function non-finite at particle {int(np.flatnonzero(bad)[0])}")
    return float(vals.mean())
