"""Interacting particle system: init, reweight-resample-mutate steps, estimators.

A particle population is the uniformly weighted empirical measure of N
particles, held in one of two forms.  On a model with a continuous or
otherwise per-particle state space it is the states array of the N
particles, one replicate.  On a finite model (``model.is_finite``) it is
an (R, m) batch of count vectors over the m state labels, row r holding
replicate r's: the empirical measure of N particles on m points is
exactly the vector of their counts, so no N-element array is held.  An
``Ensemble`` holds the states (the m labels, for a count batch), each
state's statistic (see ``fk_core.PotentialFamily``), the counts (None for
a states array) and the step index k; the horizon is read from the model.

The statistic is evaluated once per particle at initialization and then
carried: the step-k log weights read it, each resampled particle takes its
ancestor's, and the kernel returns it beside every new state.  For tempered
targets it is the log target density, so a random walk Metropolis step
evaluates the density only at its proposals, and the drift monitor reads
eta(V) from the same values: the monitored V is a plain callable over a
batch of statistics.  Carrying it changes no draw.

On a states array the transition draws, for each new particle
independently, an ancestor index proportional to the current weights and
then mutates it through the next Markov kernel: the reweight and mutate
are one fused mixture draw, and resampling is always multinomial.  Each
ancestor is the plain inverse-CDF index of its uniform: the first index
whose cumulative weight exceeds it.  ``draw_ancestors`` finds it with a
guide table (Chen & Asau 1974) in place of a binary search: the range of
the cumulative weights is cut into N equal buckets, and each scaled
uniform starts at the first cumulative weight of its own bucket and steps
forward over the entries of that bucket that do not exceed it.  The bucket
of a value is its product with a positive constant, truncated, so it is
monotone in the value: every cumulative weight in a lower bucket is at
most the scaled uniform and every one in a higher bucket exceeds it, and
the steps, over a nondecreasing array, stop at the first entry that
exceeds it.  The index is therefore exactly the one the binary search
finds, and no draw changes.  Weight normalization happens in the log
domain with max-subtraction; a step aborts only when every weight
underflows to zero.

A count row c takes the same transition in law.  The N new particles of
the fused draw are independent, each an ancestor label j with probability
c_j G_k(j) / sum_i c_i G_k(i) moved by row j of M_{k+1}, so the next
counts are exactly Multinomial(N, normalize((c * G_k) M_{k+1})).  A count
step weighs every row of the batch, w = c * G_k, and hands the (R, m)
weights to the finite kernel, which draws each row's
Multinomial(N, normalize(w M_{k+1})) in one broadcast call.  Each row's
weights are taken relative to the largest log weight of a label it
occupies; a label whose count is 0 carries no weight, so its log weight
neither sets that maximum nor enters the monitor's log-weight range.  A
step costs O(R m^2) arithmetic and one multinomial call, whatever N is.
Each row's arithmetic is that of a batch of one, so a row's probability
vector does not depend on its batch: the weighting and the row
normalization are elementwise or reduce each contiguous row alone, and
the kernel forms each row's mixture by the one-row vector-matrix product
(a matrix-matrix product of the batch would round a row differently
depending on the rows around it).

Replicate r of a states-array model draws from ``streams.stream(seed, r)``:
its initial population, then every step in order, each step its ancestor
uniforms and then its mutation draws, particle i consuming the i-th slot
of each vector.  On a finite model block b, the ``BLOCK_REPLICATES``
replicates r with r // BLOCK_REPLICATES = b, draws from
``streams.stream(seed, b)``: its initial counts, the one call
``rng.multinomial(N, model.finite.mu, size=R)``, then each step's
multinomials, every call row after row.  So no draw depends on how
replicates, or whole blocks, are scheduled across workers or tasks.  One
stream serves a replicate or a block without changing the law.  Its words
are i.i.d. uniform and a multinomial reads a data-dependent number of
them, a broadcast call one row after another, so the count of words read
by the end of each row's draw is a stopping time of the sequence.  What
follows a stopping time in an i.i.d. sequence is again i.i.d. and
independent of everything read before it, so each row of each step draws,
given the past, from fresh uniforms, as from a stream of its own: the rows
of a block are independent given their probability vectors.

A run is what one stream draws: a replicate of a states-array model, or
the consecutive replicates of one finite block, one count batch.
``run_sampler`` steps each run to the horizon and returns its terminal
population whole, and ``estimate`` reads a batch's rows directly.  A
replicate whose weights all vanish stops there (a finite model's cannot:
a count step needs every log weight finite, and raises for its whole
batch).  Given a drift function V, a run also summarizes each step of
each row: ESS, the log-weight range, eta(V) and eta(G~).  One reduction
serves both forms: a states array is one row whose values each hold one
particle, and a count batch weighs each label of a row by its count.  It
holds the populations and step log weights of the last
``max(1, BLOCK_VALUES // size)`` steps, where size is the number of
values a population holds (N particles, or R rows of m counts), and
summarizes them at once: one stack per array, V called on the
concatenated statistics, and each reduction taken along the rows.  A row
reduction runs the same inner loop over the same contiguous values as the
reduction of that step's own array, V acts value by value, and the ESS
squares its sum by the scalar ``** 2`` of one step at a time, so every
summary has the bits it would have step by step.  The budget keeps each
summary's temporaries (64 KiB per array) below the size at which the
allocator maps fresh pages.
"""

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

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
    """Every weight vanished, or a count step met a non-finite log weight: the run aborts."""


@dataclass
class Ensemble:
    """Populations at step k: states, their statistics and counts.

    With ``counts`` None the population is one replicate's N particle
    states themselves.  Otherwise ``states`` are the m labels and
    ``counts`` is an (R, m) batch whose row r is replicate r's count vector,
    ``counts[r, i]`` particles at ``states[i]``.  ``n_particles`` is N, read
    off at construction; every row holds N particles.
    """

    states: np.ndarray
    stats: np.ndarray
    k: int
    counts: Optional[np.ndarray] = None
    n_particles: int = field(init=False)

    def __post_init__(self):
        if len(self.stats) != len(self.states):
            raise ValueError("need one statistic per particle")
        if self.counts is None:
            self.n_particles = len(self.states)
        elif self.counts.ndim != 2 or self.counts.shape[1] != len(self.states):
            raise ValueError("need one count per label")
        else:
            # down a contiguous transpose: numpy reduces a short last axis row by row
            sums = np.ascontiguousarray(self.counts.T).sum(axis=0)
            if (sums != sums[:1]).any():
                raise ValueError("every row must hold the same number of particles")
            self.n_particles = int(sums[0]) if sums.size else 0
        if self.n_particles < 1:
            raise ValueError("ensemble must hold at least one particle")


@dataclass
class StepSummary:
    """Per-step diagnostics; weight fields are NaN at the terminal step."""

    k: int
    ess: float
    log_w_max: float
    log_w_min: float
    eta_v: float
    eta_gtilde: float


def init_ensemble(model, n_particles, rng, rows):
    """Independent draws from the model's initial law by ``rng``, and their statistics.

    On a finite model the population is the (rows, m) count batch on the
    labels 0..m-1 drawn by ``rng.multinomial(N, model.finite.mu,
    size=rows)``.  Any other model draws one row, the N states of
    ``model.initial``.  A draw or statistic that overflows reads inf,
    without a warning: its particle then has weight 0, or the replicate
    degenerates.
    """
    if model.is_finite:
        labels = np.arange(model.finite.mu.size)
        return Ensemble(states=labels, stats=np.asarray(model.potentials.statistic(labels)), k=0,
                        counts=rng.multinomial(n_particles, model.finite.mu, size=rows))
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


def _count_step(ens, model, lw, rng):
    """The next count batch of ``ens``: one draw of the finite kernel for all its rows.

    Raises ``TotalDegeneracyError`` for the whole batch, before anything is
    drawn, unless every label's log weight is finite.
    """
    if not np.isfinite(lw).all():
        raise TotalDegeneracyError(f"a log weight is not finite at step {ens.k}")
    occupied = ens.counts > 0
    # each row's max, down a contiguous transpose: numpy reduces a short last axis row by row
    top = np.ascontiguousarray(np.where(occupied, lw, -np.inf).T).max(axis=0)[:, None]
    w = np.exp(lw - top, out=np.zeros(ens.counts.shape), where=occupied) * ens.counts
    counts = model.kernels.sample_batch(ens.k + 1, w, ens.n_particles, rng)
    return Ensemble(states=ens.states, stats=ens.stats, k=ens.k + 1, counts=np.asarray(counts))


def smc_step(ens, model, rng):
    """One transition: multinomial ancestor draw by weight, then mutation, by ``rng``.

    ``rng`` is the replicate's generator, or the batch's for a count
    batch.  Returns the next ensemble and the step-k log
    weights of ``ens.states``.
    """
    k = ens.k
    if k >= model.horizon:
        raise ValueError(f"flow already at terminal step k={k}")
    lw = np.asarray(model.potentials.log_g(k, ens.stats), dtype=float)
    if ens.counts is not None:
        return _count_step(ens, model, lw, rng), lw
    top = lw.max()
    if not np.isfinite(top):
        raise TotalDegeneracyError(f"all particle weights vanished at step {k}")
    cw = np.cumsum(np.exp(lw - top))
    ancestors = draw_ancestors(cw, rng.random(ens.n_particles))
    states, stats = model.kernels.sample_batch(k + 1, ens.states[ancestors],
                                               ens.stats[ancestors], rng)
    return Ensemble(states=np.asarray(states), stats=np.asarray(stats), k=k + 1), lw


# the monitor holds at most this many values of each array before it summarizes them
BLOCK_VALUES = 2**13


def _reductions(model, drift, pops, lws):
    """eta(V) of the held populations, and the weight sums and range of their log weights.

    Each value has shape (steps, rows).  A states array is one row whose
    values each hold one particle.  A count batch has a row per replicate
    whose value at a label holds its count of particles: a label whose
    count is 0 adds nothing, and its log weight sets neither end of the
    range.
    """
    v = drift(np.concatenate([p.stats for p in pops])).reshape(len(pops), 1, -1)
    counts = held = None
    if pops[0].counts is not None:
        counts = np.stack([p.counts for p in pops])
        held = counts > 0

    def only_held(x, fill):
        """``x`` over its steps, with ``fill`` at each label its row does not hold."""
        return x if held is None else np.where(held[:len(x)], x, fill)

    def total(x):
        """Each row's sum of ``x`` over its particles."""
        return (x if counts is None else only_held(x, 0.0) * counts[:len(x)]).sum(axis=2)

    def mean(x):
        """Each row's mean of ``x`` over its particles."""
        return total(x) / pops[0].n_particles

    eta_v = mean(v).tolist()
    if not lws:
        return eta_v, [], [], [], [], []
    lw = (np.stack(lws) - model.potentials.log_g_max)[:, None]
    top = only_held(lw, -np.inf).max(axis=2)
    w = np.exp(lw - top[:, :, None])
    return (eta_v, total(w).tolist(), total(w * w).tolist(), mean(np.exp(lw)).tolist(),
            top.tolist(), only_held(lw, np.inf).min(axis=2).tolist())


def _summaries(model, drift, pops, lws):
    """Diagnostics of the held populations: for each row, one per entry of ``pops``.

    ``lws`` are the step log weights of the first ``len(lws)`` of them; one
    more population, without log weights, is the terminal step.
    """
    # V overflows to inf far out; a row shifted past the float range has ESS 0
    with np.errstate(over="ignore", invalid="ignore"):
        eta_v, sums, squares, eta_g, top, bottom = _reductions(model, drift, pops, lws)
    k0 = pops[0].k
    out = [[] for _ in eta_v[0]]
    for i in range(len(lws)):
        for r, row in enumerate(out):
            # a Python float ** 2 is the C pow of the scalar formula, not the product w * w
            ess = sums[i][r] ** 2 / squares[i][r] if math.isfinite(top[i][r]) else 0.0
            row.append(StepSummary(k=k0 + i, ess=ess, log_w_max=top[i][r],
                                   log_w_min=bottom[i][r], eta_v=eta_v[i][r],
                                   eta_gtilde=eta_g[i][r]))
    if len(pops) > len(lws):
        for r, row in enumerate(out):
            row.append(StepSummary(k=pops[-1].k, ess=math.nan, log_w_max=math.nan,
                                   log_w_min=math.nan, eta_v=eta_v[-1][r],
                                   eta_gtilde=math.nan))
    return out


def _run(model, ens, rng, drift):
    """Step ``ens`` to the horizon by ``rng``: its terminal population and each row's summaries.

    A states array is one row, and a count batch has one row per
    replicate.  If the weights vanish, the population and every row's
    summaries are None.
    """
    rows = 1 if ens.counts is None else len(ens.counts)
    summaries = [None] * rows if drift is None else [[] for _ in range(rows)]
    block = max(1, BLOCK_VALUES // (len(ens.states) if ens.counts is None else ens.counts.size))
    pops, lws = [], []
    try:
        for _ in range(model.horizon):
            nxt, lw = smc_step(ens, model, rng)
            if drift is not None:
                pops.append(ens)
                lws.append(lw)
                if len(lws) == block:
                    for row, steps in zip(summaries, _summaries(model, drift, pops, lws)):
                        row.extend(steps)
                    pops, lws = [], []
            ens = nxt
    except TotalDegeneracyError:
        return None, [None] * rows
    if drift is not None:
        pops.append(ens)
        for row, steps in zip(summaries, _summaries(model, drift, pops, lws)):
            row.extend(steps)
    return ens, summaries


# the replicates of a block, the unit of randomness of a finite model
BLOCK_REPLICATES = 1000


def run_sampler(model, n_particles, seed, replicates, drift=None):
    """Run the full flow of the replicate ids ``replicates``, one run per stream, in order.

    On a finite model a run is each run of consecutive ids in one block,
    b = r // BLOCK_REPLICATES for each id r, stepped as one count batch
    drawn from the stream keyed by (seed, b); a caller passes whole blocks.
    Elsewhere a run is replicate r alone, drawn from the stream keyed by
    (seed, r).  Returns one (population, summaries) pair per run: its
    terminal population, None if its weights all vanish, and a list with
    one entry per replicate of the run, that replicate's step summaries
    when given a drift V (None otherwise, or when the weights vanish).
    """
    if model.is_finite:
        units = [(b, len(list(ids)))
                 for b, ids in itertools.groupby(replicates, lambda r: r // BLOCK_REPLICATES)]
    else:
        units = [(r, 1) for r in replicates]
    out = []
    for key, rows in units:
        rng = streams.stream(seed, key)
        out.append(_run(model, init_ensemble(model, n_particles, rng, rows), rng, drift))
    return out


def estimate(runs, f):
    """The average of f over each replicate of ``run_sampler``'s ``runs``, as an array in id order.

    A states array averages f over its particles, NaN unless every value
    is finite.  A count batch evaluates f once, on its labels, and each row
    weighs it by its counts.  Every replicate of a run whose weights
    vanished reads NaN.
    """
    out = []
    for pop, summaries in runs:
        if pop is None:
            out.append(np.full(len(summaries), math.nan))
            continue
        vals = np.asarray(f(pop.states), dtype=float)
        if pop.counts is not None:
            out.append((pop.counts * vals).sum(axis=1) / pop.n_particles)
        else:
            out.append([vals.mean() if np.isfinite(vals).all() else math.nan])
    return np.concatenate(out)
