"""Interacting particle system: init, reweight-resample-mutate steps, estimators.

A particle population is its states array, the uniformly weighted
empirical measure on those states; an ``Ensemble`` adds each state's
statistic (see ``fk_core.PotentialFamily``) and the step index k, and the
horizon is read from the model.

The statistic is evaluated once per particle at initialization and then
carried: the step-k log weights read it, each resampled particle takes its
ancestor's, and the kernel returns it beside every new state.  For tempered
targets it is the log target density, so a random walk Metropolis step
evaluates the density only at its proposals, and the drift monitor reads
eta(V) from the same values: the monitored V is a plain callable over a
batch of statistics.  Carrying it changes no draw.

The transition draws, for each new particle independently, an ancestor
index proportional to the current weights and then mutates it through the
next Markov kernel: the reweight and mutate are one fused mixture draw, and
resampling is always multinomial.  Each ancestor is the plain inverse-CDF
index of its uniform: the first index whose cumulative weight exceeds it.
``draw_ancestors`` finds it with a guide table (Chen & Asau 1974) in place
of a binary search: the range of the cumulative weights is cut into N equal
buckets, and each scaled uniform starts at the first cumulative weight of
its own bucket and steps forward over the entries of that bucket that do
not exceed it.  The bucket of a value is its product with a positive
constant, truncated, so it is monotone in the value: every cumulative
weight in a lower bucket is at most the scaled uniform and every one in a
higher bucket exceeds it, and the steps, over a nondecreasing array, stop
at the first entry that exceeds it.  The index is therefore exactly the
one the binary search finds, and no draw changes.  Weight normalization
happens in the log domain with max-subtraction; a step aborts only when
every weight underflows to zero.

Randomness for step k of replicate r comes from the stream keyed by
(seed, r, k): ancestor uniforms are drawn first, then the mutation draws,
with particle i consuming the i-th slot of each vector, so results do not
depend on how replicates are scheduled across workers.  ``run_sampler`` is
the one place that maps (seed, r, k) to a stream: it takes the keys of
every step of the replicate from ``streams.step_keys`` in one pass and
re-keys one Philox generator before each step, which then draws exactly
what ``streams.stream(seed, r, k)`` draws.  ``init_ensemble`` and
``smc_step`` take that step's generator; it is valid only during its step,
since the next step re-keys it.

Given a drift function V, ``run_sampler`` also summarizes each step: ESS,
the log-weight range, eta(V) and eta(G~).  It holds the statistics and
step log weights of the last ``max(1, BLOCK_VALUES // N)`` steps and
summarizes them at once: one stack per array, V called on the concatenated
statistics, and each reduction taken along the rows.  A row reduction runs
the same inner loop over the same contiguous values as the reduction of
that step's own array, V acts value by value, and the ESS squares its sum
by the scalar ``** 2`` of one step at a time, so every summary has the bits
it would have step by step.  The budget keeps each block's temporaries
(64 KiB per array) below the size at which the allocator maps fresh pages.
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
    "draw_ancestors",
    "smc_step",
    "run_sampler",
    "estimate",
]


class TotalDegeneracyError(RuntimeError):
    """Every particle weight underflowed to zero; the replicate is aborted."""


@dataclass
class Ensemble:
    """N particle states and their statistics at one step of one replicate's flow."""

    states: np.ndarray
    stats: np.ndarray
    k: int

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


def init_ensemble(model, n_particles, rng):
    """Independent draws from the model's initial law by ``rng``, and their statistics.

    A draw or statistic that overflows reads inf, without a warning: its
    particle then has weight 0, or the replicate degenerates.
    """
    with np.errstate(over="ignore"):
        states = np.asarray(model.initial(n_particles, rng))
        if len(states) != n_particles:
            raise ValueError("initial sampler returned the wrong number of states")
        stats = np.asarray(model.potentials.statistic(states))
    return Ensemble(states=states, stats=stats, k=0)


# a bucket holding more cumulative weights than this is searched, not stepped
SPILL = 8


def draw_ancestors(cw, u):
    """Inverse-CDF indices of the uniforms ``u`` in the cumulative weights ``cw``.

    For each uniform, the first index whose entry of ``cw`` exceeds
    ``u * cw[-1]``, capped at ``len(cw) - 1``: exactly
    ``np.minimum(np.searchsorted(cw, u * cw[-1], side="right"), len(cw) - 1)``.
    ``cw`` is nondecreasing and nonnegative, with ``cw[-1] > 0``.

    The guide table (see the module docstring) cuts [0, cw[-1]] into
    N = len(cw) equal buckets; each scaled uniform starts at the first entry
    of its own bucket and takes one step per entry of that bucket that is at
    most the scaled uniform.  On near-flat weights a bucket holds O(1)
    entries, so the cost is O(N) expected with no sort.  Uniforms that fall
    in a bucket holding more than ``SPILL`` entries, as when one particle
    carries almost all the weight, take a binary search instead, which
    bounds the worst case at O(N log N).
    """
    n = cw.size
    x = u * cw[-1]
    scale = n / cw[-1]
    counts = np.bincount((cw * scale).astype(np.intp), minlength=n + 1)
    start = (x * scale).astype(np.intp)
    ancestors = (np.cumsum(counts) - counts)[start]
    fullest = int(counts.max())
    # a uniform at or above every entry steps past the end; the clip reads the
    # last entry there, and the cap below returns it to N - 1
    for _ in range(min(fullest, SPILL)):
        ancestors += np.take(cw, ancestors, mode="clip") <= x
    if fullest > SPILL:
        spill = counts[start] > SPILL
        ancestors[spill] = np.searchsorted(cw, x[spill], side="right")
    return np.minimum(ancestors, n - 1, out=ancestors)


def smc_step(ens, model, rng):
    """One transition: multinomial ancestor draw by weight, then mutation, by ``rng``.

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
    ancestors = draw_ancestors(cw, rng.random(ens.n_particles))
    states = ens.states[ancestors]
    # on finite models the statistic is the state array itself: gather it once
    stats = states if ens.stats is ens.states else ens.stats[ancestors]
    states, stats = model.kernels.sample_batch(k + 1, states, stats, rng)
    return Ensemble(states=np.asarray(states), stats=np.asarray(stats), k=k + 1), lw


# the monitor holds at most this many values of each array before it summarizes them
BLOCK_VALUES = 2**13


def _summaries(model, drift, k0, stats, lws):
    """Diagnostics of the held steps k0, k0 + 1, ...: one per statistic array in ``stats``.

    ``lws`` are the step log weights of the first ``len(lws)`` of them; one
    more statistic array, without log weights, is the terminal step.
    """
    steps = len(stats)
    # V overflows to inf far out; a row shifted past the float range has ESS 0
    with np.errstate(over="ignore", invalid="ignore"):
        eta_v = (drift(np.concatenate(stats)).reshape(steps, -1).sum(axis=1)
                 / len(stats[0])).tolist()
        if lws:
            lw = np.stack(lws) - model.potentials.log_g_max
            top = lw.max(axis=1)
            w = np.exp(lw - top[:, None])
            sums = w.sum(axis=1).tolist()
            squares = (w * w).sum(axis=1).tolist()
            eta_g = (np.exp(lw).sum(axis=1) / lw.shape[1]).tolist()
            top, bottom = top.tolist(), lw.min(axis=1).tolist()
    out = []
    for i in range(len(lws)):
        # a Python float ** 2 is the C pow of the scalar formula, not the product w * w
        ess = sums[i] ** 2 / squares[i] if math.isfinite(top[i]) else 0.0
        out.append(StepSummary(k=k0 + i, ess=ess, log_w_max=top[i], log_w_min=bottom[i],
                               eta_v=eta_v[i], eta_gtilde=eta_g[i]))
    if steps > len(lws):
        out.append(StepSummary(k=k0 + steps - 1, ess=math.nan, log_w_max=math.nan,
                               log_w_min=math.nan, eta_v=eta_v[-1], eta_gtilde=math.nan))
    return out


def run_sampler(model, n_particles, seed, replicate=0, drift=None):
    """Run the full flow; returns the terminal states, and summaries when given a drift V.

    Step k draws from the stream keyed by (seed, replicate, k).
    """
    keys = streams.step_keys(seed, replicate, model.horizon)
    bitgen = np.random.Philox(key=keys[0])
    rng = np.random.Generator(bitgen)
    # a fresh Philox: counter zero and no buffered output
    fresh = bitgen.state
    ens = init_ensemble(model, n_particles, rng)
    summaries: Optional[List[StepSummary]] = None if drift is None else []
    block = max(1, BLOCK_VALUES // n_particles)
    stats, lws = [], []
    for key in keys[1:]:
        fresh["state"]["key"] = key
        bitgen.state = fresh
        nxt, lw = smc_step(ens, model, rng)
        if summaries is not None:
            stats.append(ens.stats)
            lws.append(lw)
            if len(lws) == block:
                summaries.extend(_summaries(model, drift, nxt.k - block, stats, lws))
                stats, lws = [], []
        ens = nxt
    if summaries is not None:
        stats.append(ens.stats)
        summaries.extend(_summaries(model, drift, ens.k - len(lws), stats, lws))
    return ens.states, summaries


def estimate(states, f):
    """Plain average of f over the particle states; NaN unless every value is finite."""
    vals = np.asarray(f(states), dtype=float)
    return float(vals.mean()) if np.isfinite(vals).all() else math.nan
