"""Interacting particle system: init, reweight-resample-mutate steps, estimators.

A particle population is the uniformly weighted empirical measure of N
particles, and the engine steps the populations of R replicates together
as the rows of one batch, held in one of two forms.  On a model with a
continuous or otherwise per-particle state space it is a states batch:
the (R, N, ...) states whose row r holds the N particle states of one
replicate.  On a finite model (``model.is_finite``) it is an (R, m) batch
of count vectors over the m state labels, row r holding replicate r's:
the empirical measure of N particles on m points is exactly the vector of
their counts, so no N-element array is held.  An ``Ensemble`` holds the
states (the m labels, for a count batch), each state's statistic (see
``fk_core.PotentialFamily``), the counts (None for a states batch) and the
step index k; the horizon is read from the model.

The statistic is evaluated once per particle at initialization and then
carried: the step-k log weights read it, each resampled particle takes its
ancestor's, and the kernel returns it beside every new state.  For tempered
targets it is the log target density, so a random walk Metropolis step
evaluates the density only at its proposals, and the drift monitor reads
eta(V) from the same values: the monitored V is a plain callable over a
batch of statistics.  Carrying it changes no draw.

On a states batch the transition draws, for each new particle of each row
independently, an ancestor index in its row proportional to the current
weights and then mutates it through the next Markov kernel: the reweight
and mutate are one fused mixture draw, and resampling is always
multinomial.  Each ancestor is the plain inverse-CDF index of its uniform:
the first index whose cumulative weight exceeds it.  ``draw_ancestors``
finds it with a guide table (Chen & Asau 1974) in place of a binary
search: the range of each row's cumulative weights is cut into N equal
buckets, and each scaled uniform starts at the first cumulative weight of
its own bucket and steps forward over the entries of that bucket that do
not exceed it.  The bucket of a value is its product with a positive
constant of its row, truncated, so it is monotone in the value: every
cumulative weight of the row in a lower bucket is at most the scaled
uniform and every one in a higher bucket exceeds it, and the steps, over a
nondecreasing array, stop at the first entry that exceeds it.  The index
is therefore exactly the one the binary search finds, and no draw changes.
Weight normalization happens in the log domain with max-subtraction.

A step works on the whole batch at once: the reweight, each row's max and
cumulative sum, one guide-table draw over all rows (a single ``bincount``
with row offsets), the gathers and the kernel's work on the batch, as the
Metropolis proposal, density and accept.  Every value is the same
elementwise operation, or the same reduction of one contiguous row, as in
a batch of one, so a row's bits do not depend on its batch.  A batch
pays the fixed cost of each numpy call once for its R rows.  It holds at
most ``BLOCK_VALUES`` particle values unless one row alone holds more
(see ``run_sampler``), so batching adds no temporary above the size at
which the allocator maps fresh pages.

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

Replicate r of a states model draws from ``streams.stream(seed, r)``,
whatever batch it is stepped in: its initial population, then every step
in order, each step its ancestor uniforms and then its mutation draws,
particle i consuming the i-th slot of each vector.  A states batch holds
one generator per row, and each row draws from its own.  On a finite
model block b, the ``BLOCK_REPLICATES`` replicates r with
r // BLOCK_REPLICATES = b, draws from ``streams.stream(seed, b)``: its
initial counts, the one call ``rng.multinomial(N, model.finite.mu,
size=R)``, then each step's multinomials, every call row after row.  So no
draw depends on how replicates, or whole blocks, are scheduled across
workers, tasks or batches.  One stream serves a finite block without
changing the law.  Its words are i.i.d. uniform and a multinomial reads a
data-dependent number of them, a broadcast call one row after another, so
the count of words read by the end of each row's draw is a stopping time
of the sequence.  What follows a stopping time in an i.i.d. sequence is
again i.i.d. and independent of everything read before it, so each row of
each step draws, given the past, from fresh uniforms, as from a stream of
its own: the rows of a block are independent given their probability
vectors.  A vanished row (below) draws on from the block's stream by its
flat weights; its draw is a multinomial like any other, so the count of
words it reads is again a stopping time and the rows after it keep their
law.

``run_sampler`` steps each batch to the horizon and returns its terminal
population whole, and ``estimate`` reads a batch's rows directly.  Every
row stays in its batch to the horizon, on both paths.  At each step a row
whose largest log weight is not finite (a states replicate, or a count
row over the labels it occupies) has vanished: it draws that step by flat
weights, log weight 0 at every particle, and is marked in the ensemble's
``vanished`` mask.  That mask is the one record of a vanished row: a
caller reads the row as degenerate from it (``estimate`` gives it NaN),
the paper's bounds concerning replicates whose weights never all vanish.
The flat weights replace that row's values alone, and a states row draws
only from its own generator, so every other row keeps its bits.  No
shipped model reaches a vanished count row, since ``finite.table_model``
takes only a finite table.

Given a drift function V, a run also records the steps of its batch: for
each step, and the terminal batch, one tuple per row of (k, ESS, the
log-weight range, eta(V), eta(G~)), a vanished row's included.  One
reduction serves both forms: a row of a states batch holds one value per
particle, and a count batch weighs each label of a row by its count.
Each step's batch is summarized once, as the step is taken, from its
population and the step's log weights, and the terminal batch once more
at the horizon; no population or log weights are kept past their step.
Each reduction takes one contiguous row, V acts value by value, and the
ESS squares its sum by the scalar ``** 2``, so a row's tuples have the
bits of its lone run.
"""

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import streams

__all__ = [
    "Ensemble",
    "init_ensemble",
    "draw_ancestors",
    "smc_step",
    "run_sampler",
    "estimate",
]


@dataclass
class Ensemble:
    """A batch of populations at step k: states, their statistics and counts.

    With ``counts`` None, ``states`` has shape (R, N, ...): row r holds the
    N particle states of one replicate, and ``stats`` the (R, N) statistics
    of those states.  Otherwise ``states`` are the m labels, ``stats``
    theirs, and ``counts`` is an (R, m) batch whose row r is a replicate's
    count vector, ``counts[r, i]`` particles at ``states[i]``.
    ``n_particles`` is N, read off at construction; every row holds N
    particles.  ``vanished`` is None while no row's weights have vanished,
    and otherwise the (R,) mask of the rows whose weights vanished at some
    step before k.
    """

    states: np.ndarray
    stats: np.ndarray
    k: int
    counts: Optional[np.ndarray] = None
    vanished: Optional[np.ndarray] = None
    n_particles: int = field(init=False)

    def __post_init__(self):
        if self.counts is None:
            if np.ndim(self.states) < 2 or np.shape(self.stats) != np.shape(self.states)[:2]:
                raise ValueError("need one statistic per particle")
            self.n_particles = self.states.shape[1]
        elif len(self.stats) != len(self.states):
            raise ValueError("need one statistic per particle")
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


def init_ensemble(model, n_particles, rng, rows):
    """Independent draws from the model's initial law by ``rng``, and their statistics.

    On a finite model the population is the (rows, m) count batch on the
    labels 0..m-1 drawn by ``rng.multinomial(N, model.finite.mu,
    size=rows)``.  Any other model draws one row, the N states of
    ``model.initial``, a batch of shape (1, N, ...).  A draw or statistic
    that overflows reads inf, without a warning: its particle then has
    weight 0, or the replicate degenerates.
    """
    if model.is_finite:
        labels = np.arange(model.finite.mu.size)
        return Ensemble(states=labels, stats=np.asarray(model.potentials.statistic(labels)), k=0,
                        counts=rng.multinomial(n_particles, model.finite.mu, size=rows))
    with np.errstate(over="ignore"):
        states = np.asarray(model.initial(n_particles, rng))[None]
        if states.shape[1] != n_particles:
            raise ValueError("initial sampler returned the wrong number of states")
        stats = np.asarray(model.potentials.statistic(states))
    return Ensemble(states=states, stats=stats, k=0)


# a bucket holding more cumulative weights than this is searched, not stepped
SPILL = 8


def draw_ancestors(cw, u):
    """Inverse-CDF indices of the uniforms ``u`` in each row of the cumulative weights ``cw``.

    ``cw`` has shape (R, N), or (N,) for one row, and ``u`` holds the same
    number of rows of uniforms.  For each uniform of row r, the first index
    i whose entry ``cw[r, i]`` exceeds ``u * cw[r, -1]``, capped at N - 1:
    exactly ``np.minimum(np.searchsorted(cw[r], u * cw[r, -1],
    side="right"), N - 1)``, returned as the flat index ``r * N + i`` into
    the R * N entries of ``cw``, in the shape of ``u``.  Each row of ``cw``
    is nondecreasing and nonnegative, with a positive last entry.

    The guide table (see the module docstring) cuts each row's
    [0, cw[r, -1]] into N equal buckets, all rows' buckets counted by one
    ``bincount`` with row offsets; each scaled uniform starts at the first
    entry of its own bucket and takes one step per entry of that bucket
    that is at most the scaled uniform.  On near-flat weights a bucket holds
    O(1) entries, so the cost is O(N) expected per row with no sort.
    Uniforms that fall in a bucket holding more than ``SPILL`` entries, as
    when one particle carries almost all the weight, take a binary search in
    their row instead, which bounds the worst case at O(N log N).
    """
    n = cw.shape[-1]
    cw = cw.reshape(-1, n)
    # row r's buckets are numbered from r * (n + 1) + 1, so the running count up
    # to a uniform's bucket number less one is the first flat index of its bucket
    first = np.arange(0, cw.size + len(cw), n + 1)[:, None]
    x = u.reshape(len(cw), -1) * cw[:, -1:]
    scale = n / cw[:, -1:]
    buckets = (cw * scale).astype(np.intp)
    buckets += first + 1
    counts = np.bincount(buckets.ravel(), minlength=first.size * (n + 1) + 1)
    start = (x * scale).astype(np.intp)
    start += first
    ancestors = np.cumsum(counts)[start]
    fullest = int(counts.max())
    # a uniform at or above every entry of its row steps past the row's end;
    # the cap below returns it to the row's last entry
    for _ in range(min(fullest, SPILL)):
        ancestors += np.take(cw, ancestors, mode="clip") <= x
    if fullest > SPILL:
        spill = counts[start + 1] > SPILL
        for r in np.flatnonzero(spill.any(axis=1)):
            ancestors[r, spill[r]] = r * n + np.searchsorted(cw[r], x[r, spill[r]], side="right")
    last = np.arange(n - 1, cw.size, n)[:, None]
    return np.minimum(ancestors, last, out=ancestors).reshape(np.shape(u))


def _flat_where_vanished(ens, lw, top):
    """The log weights ``lw`` and row maxima ``top`` a step weighs by, and the vanished rows.

    A row whose max ``top`` is not finite has vanished: it takes log weight
    0 everywhere, flat weights, and joins the mask of ``ens.vanished``.
    The other rows keep their values.
    """
    ok = np.isfinite(top)
    if ok.all():
        return lw, top, ens.vanished
    bad = ~ok[:, 0]
    return (np.where(ok, lw, 0.0), np.where(ok, top, 0.0),
            bad if ens.vanished is None else ens.vanished | bad)


def _count_step(ens, model, lw, rng):
    """The next count batch of ``ens``: one draw of the finite kernel for all its rows."""
    occupied = ens.counts > 0
    # each row's max, down a contiguous transpose: numpy reduces a short last axis row by row
    top = np.ascontiguousarray(np.where(occupied, lw, -np.inf).T).max(axis=0)[:, None]
    used, top, vanished = _flat_where_vanished(ens, lw, top)
    w = np.exp(used - top, out=np.zeros(ens.counts.shape), where=occupied) * ens.counts
    counts = model.kernels.sample_batch(ens.k + 1, w, ens.n_particles, rng)
    return Ensemble(states=ens.states, stats=ens.stats, k=ens.k + 1, counts=np.asarray(counts),
                    vanished=vanished)


def smc_step(ens, model, rng):
    """One transition of every row: multinomial ancestor draw by weight, then mutation.

    ``rng`` is the batch's randomness: one generator for a count batch,
    and for a states batch a sequence of generators, row r drawing from
    ``rng[r]``.  Returns the next ensemble and the step-k log weights of
    ``ens.stats``.  A row whose largest log weight is not finite (over the
    labels it holds, on a count batch) has vanished: it draws by flat
    weights and is marked in the next ensemble's ``vanished``.
    """
    k = ens.k
    if k >= model.horizon:
        raise ValueError(f"flow already at terminal step k={k}")
    lw = np.asarray(model.potentials.log_g(k, ens.stats), dtype=float)
    if ens.counts is not None:
        return _count_step(ens, model, lw, rng), lw
    used, top, vanished = _flat_where_vanished(ens, lw, lw.max(axis=1, keepdims=True))
    cw = np.cumsum(np.exp(used - top), axis=1)
    u = np.empty(cw.shape)
    for g, row in zip(rng, u):
        g.random(out=row)
    ancestors = draw_ancestors(cw, u).ravel()
    xs = np.take(ens.states.reshape(-1, *ens.states.shape[2:]), ancestors, axis=0)
    states, stats = model.kernels.sample_batch(k + 1, xs.reshape(ens.states.shape),
                                               ens.stats.take(ancestors).reshape(lw.shape), rng)
    return Ensemble(states=np.asarray(states), stats=np.asarray(stats), k=k + 1,
                    vanished=vanished), lw


# the most particle values a states batch holds, unless one row alone holds more
BLOCK_VALUES = 2**13


def _summaries(model, drift, ens, lw):
    """One step's diagnostics of each row of ``ens``, by the step's log weights ``lw``.

    One tuple per row, (k, ess, log_w_max, log_w_min, eta_V, eta_Gtilde);
    ``lw`` is None at the terminal step, whose weight fields are NaN.  A
    states batch has a row per replicate whose values each hold one
    particle.  A count batch has a row per replicate whose value at a label
    holds its count of particles: a label whose count is 0 adds nothing,
    and its log weight sets neither end of the range.
    """
    values = ens.stats.shape[-1]
    held = None if ens.counts is None else ens.counts > 0

    def only_held(x, fill):
        """``x`` with ``fill`` at each label its row does not hold."""
        return x if held is None else np.where(held, x, fill)

    def total(x):
        """Each row's sum of ``x`` over its particles."""
        return (x if held is None else only_held(x, 0.0) * ens.counts).sum(axis=1)

    # V overflows to inf far out; a row shifted past the float range has ESS 0
    with np.errstate(over="ignore", invalid="ignore"):
        eta_v = (total(drift(ens.stats.ravel()).reshape(-1, values)) / ens.n_particles).tolist()
        if lw is None:
            return [(ens.k, math.nan, math.nan, math.nan, v, math.nan) for v in eta_v]
        lw = lw.reshape(-1, values) - model.potentials.log_g_max
        top = only_held(lw, -np.inf).max(axis=1)
        w = np.exp(lw - top[:, None])
        sums, squares = total(w).tolist(), total(w * w).tolist()
        eta_g = (total(np.exp(lw)) / ens.n_particles).tolist()
        bottom = only_held(lw, np.inf).min(axis=1).tolist()
    # a Python float ** 2 is the C pow of the scalar formula, not the product w * w
    return [(ens.k, s ** 2 / q if math.isfinite(t) else 0.0, t, b, v, g)
            for s, q, t, b, v, g in zip(sums, squares, top.tolist(), bottom, eta_v, eta_g)]


def _run(model, ens, rng, drift):
    """Step the batch ``ens`` to the horizon by ``rng``: its terminal population and steps.

    The steps are None without a drift V.  Given one, each step's batch is
    summarized as the step is taken, and the terminal batch once at the
    horizon: n + 1 lists of one tuple per row (see ``_summaries``).
    """
    steps = None if drift is None else []
    while ens.k < model.horizon:
        nxt, lw = smc_step(ens, model, rng)
        if steps is not None:
            steps.append(_summaries(model, drift, ens, lw))
        ens = nxt
    if steps is not None:
        steps.append(_summaries(model, drift, ens, None))
    return ens, steps


# the replicates of a block, the unit of randomness of a finite model
BLOCK_REPLICATES = 1000


def _joined(pops):
    """One states batch whose rows are the rows of the states batches ``pops``, in order."""
    return Ensemble(states=np.concatenate([p.states for p in pops]),
                    stats=np.concatenate([p.stats for p in pops]), k=pops[0].k)


def run_sampler(model, n_particles, seed, replicates, drift=None):
    """Run the full flow of the replicate ids ``replicates`` as batches of rows, in order.

    On a finite model a batch is each run of consecutive ids in one block,
    b = r // BLOCK_REPLICATES for each id r, stepped as one count batch
    drawn from the stream keyed by (seed, b); a caller passes whole blocks.
    Elsewhere a batch is R = max(1, BLOCK_VALUES // (N * d)) consecutive
    ids, d the number of values in a state (the last batch may hold fewer),
    row r drawn from the stream keyed by (seed, r).  Returns one
    (population, steps) pair per batch: its terminal population, every row
    of the batch, and its steps (see ``_run``), None without a drift V.
    """
    out = []
    if model.is_finite:
        for b, ids in itertools.groupby(replicates, lambda r: r // BLOCK_REPLICATES):
            rng = streams.stream(seed, b)
            rows = len(list(ids))
            out.append(_run(model, init_ensemble(model, n_particles, rng, rows), rng, drift))
        return out
    rngs, pops = [], []
    for r in replicates:
        rngs.append(streams.stream(seed, r))
        pops.append(init_ensemble(model, n_particles, rngs[-1], 1))
        if len(pops) == max(1, BLOCK_VALUES // pops[0].states.size):
            out.append(_run(model, _joined(pops), rngs, drift))
            rngs, pops = [], []
    if pops:
        out.append(_run(model, _joined(pops), rngs, drift))
    return out


def estimate(pops, f):
    """The average of f over each row of the populations ``pops``, as an array in row order.

    A states batch evaluates f once, on the states of all its rows, and
    averages each row's values, NaN unless they are all finite.  A count
    batch evaluates f once, on its labels, and each row weighs it by its
    counts.  A row marked in ``vanished`` reads NaN.  A states row of
    finite values whose sum overflows is averaged after division by its
    largest magnitude, which keeps the mean finite.
    """
    out = []
    for pop in pops:
        if pop.counts is not None:
            vals = (pop.counts * np.asarray(f(pop.states), dtype=float)).sum(axis=1)
            vals /= pop.n_particles
        else:
            x = np.asarray(f(pop.states.reshape(-1, *pop.states.shape[2:])), dtype=float)
            x = x.reshape(pop.stats.shape)
            vals = np.full(len(x), math.nan)
            used = np.isfinite(x).all(axis=1)
            with np.errstate(over="ignore", invalid="ignore"):
                vals[used] = x[used].mean(axis=1)
            for r in np.flatnonzero(used & ~np.isfinite(vals)):
                top = np.abs(x[r]).max()
                vals[r] = (x[r] / top).mean() * top
        if pop.vanished is not None:
            vals[pop.vanished] = math.nan
        out.append(vals)
    return np.concatenate(out)
