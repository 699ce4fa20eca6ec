import math
import time
import tracemalloc
from dataclasses import astuple, replace

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from finite_models import (
    fixture_drift_inputs,
    label_model,
    random_finite_model,
    two_state_fixture,
)
from tempersmc import oracle, particles, streams
from tempersmc.fk_core import FKModel, KernelFamily, PotentialFamily
from tempersmc.finite import table_model, tempered_chain_model
from tempersmc.particles import (
    BLOCK_REPLICATES,
    BLOCK_VALUES,
    Ensemble,
    StepSummary,
    draw_ancestors,
    estimate,
    init_ensemble,
    run_sampler,
    smc_step,
)
from tempersmc.rwm import rwm_kernel_family
from tempersmc.tempering import (
    TemperedFamily,
    build_potentials,
    drift_function,
    gaussian_mixture_target,
    gaussian_target,
    linear_schedule,
)

M2 = np.array([[0.9, 0.1], [0.2, 0.8]])
G2 = np.array([1.0, 0.5])


def two_state_model(n=3, mu=(0.6, 0.4)):
    table = np.tile(np.log(G2), (n, 1))
    return table_model([M2] * n, table, np.array(mu))


def _counts(pattern):
    """A count batch of one row holding ``pattern``, on the labels 0..m-1."""
    labels = np.arange(len(pattern))
    return Ensemble(states=labels, stats=labels, k=0, counts=np.array([pattern]))


def _init(model, n_particles, seed, replicate=0):
    """An initial ensemble of one row drawn from the stream keyed by (seed, replicate, 0)."""
    return init_ensemble(model, n_particles, streams.stream(seed, replicate, 0), 1)


def _step(ens, model, seed, replicate=0):
    """``smc_step`` of ``ens`` by the stream keyed by (seed, replicate, ens.k + 1).

    A states batch of one row takes it as the generator of its row.
    """
    rng = streams.stream(seed, replicate, ens.k + 1)
    return smc_step(ens, model, rng if ens.counts is not None else [rng])


def _run_one(model, n_particles, seed, replicate=0, drift=None):
    """``run_sampler`` of the one replicate ``replicate``: its run's population, its summaries."""
    ((pop, (summaries,)),) = run_sampler(model, n_particles, seed, [replicate], drift=drift)
    return pop, summaries


def _lone_stream(model, seed, replicate):
    """The stream ``run_sampler`` draws ``replicate`` from when it runs alone.

    A finite replicate run alone is the one row of its block.
    """
    return streams.stream(seed, replicate // BLOCK_REPLICATES if model.is_finite else replicate)


def gaussian_model(n, init_mean=0.0, floor=0.7):
    fam = TemperedFamily(gaussian_target([0.0], [1.0]), linear_schedule(floor))
    sampler = lambda size, rng: init_mean + rng.standard_normal((size, 1))
    gammas = fam.schedule.ladder(n)
    return FKModel(
        horizon=n,
        kernels=rwm_kernel_family(fam, gammas, 1.0),
        potentials=build_potentials(fam, gammas),
        initial=sampler,
    ), fam


# ------------------------------------------------------------- initialization

def test_init_dirac_all_equal():
    # a finite population is a batch of count vectors over the labels 0..m-1
    ens = _init(two_state_model(mu=(0.0, 1.0)), 100, seed=1)
    np.testing.assert_array_equal(ens.counts, [[0, 100]])
    np.testing.assert_array_equal(ens.states, [0, 1])
    np.testing.assert_array_equal(ens.stats, [0, 1])
    assert ens.n_particles == 100 and ens.k == 0


def test_init_bit_reproducible():
    model, fam = gaussian_model(3)
    model = replace(model, initial=lambda size, rng: rng.standard_normal((size, 1)))
    a = _init(model, 64, seed=42, replicate=3)
    b = _init(model, 64, seed=42, replicate=3)
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.stats, fam.target.log_unnorm(a.states))
    c = _init(model, 64, seed=42, replicate=4)
    assert not np.array_equal(a.states, c.states)


def test_ensemble_needs_one_statistic_per_particle():
    for states in (np.arange(4), np.zeros((2, 4)), np.zeros((1, 4, 2))):
        with pytest.raises(ValueError, match="one statistic per particle"):
            Ensemble(states=states, stats=np.zeros((2, 3)), k=0)
    with pytest.raises(ValueError, match="one count per label"):
        Ensemble(states=np.arange(3), stats=np.arange(3), k=0, counts=np.array([1, 2]))
    for counts in (np.array([1, 2, 3]), np.ones((2, 2, 3), dtype=int)):
        with pytest.raises(ValueError, match="one count per label"):
            Ensemble(states=np.arange(3), stats=np.arange(3), k=0, counts=counts)
    with pytest.raises(ValueError, match="at least one particle"):
        Ensemble(states=np.arange(3), stats=np.arange(3), k=0, counts=np.zeros((1, 3), dtype=int))
    with pytest.raises(ValueError, match="same number of particles"):
        Ensemble(states=np.arange(2), stats=np.arange(2), k=0, counts=np.array([[1, 2], [2, 2]]))


def test_init_finite_frequencies():
    model = two_state_model()
    n_particles = 100_000
    ens = _init(model, n_particles, seed=9)
    (counts,) = ens.counts
    assert counts.sum() == n_particles
    for j, p in enumerate(model.finite.mu):
        sd = math.sqrt(n_particles * p * (1 - p))
        assert abs(counts[j] - n_particles * p) < 4 * sd


def test_a_finite_population_is_drawn_from_mu():
    # the block's stream draws the whole batch by one multinomial call on mu
    model = random_finite_model(np.random.default_rng(12), m=4, n=2)
    rng = streams.stream(9, 3)
    ens = init_ensemble(model, 37, rng, 6)
    want = streams.stream(9, 3)
    np.testing.assert_array_equal(ens.counts, want.multinomial(37, model.finite.mu, size=6))
    assert rng.random() == want.random()
    np.testing.assert_array_equal(ens.states, np.arange(4))
    assert ens.n_particles == 37 and ens.k == 0


# ------------------------------------------------------------- transitions

def test_flat_weights_resample_uniformly():
    # constant potential: the new counts are multinomial on the
    # kernel-propagated empirical measure
    n, m = 2, 3
    mats = [np.array([[0.2, 0.5, 0.3], [0.6, 0.2, 0.2], [0.1, 0.1, 0.8]])] * n
    model = table_model(mats, np.full((n, m), np.log(2.7)), np.full(m, 1 / 3))
    pattern = np.array([2, 1, 3])
    n_copies = 20_000
    ens = _counts(pattern * n_copies)
    stepped, _ = _step(ens, model, seed=5)
    expected = pattern / pattern.sum() @ mats[0]
    _, pval = scipy.stats.chisquare(stepped.counts[0], expected * stepped.n_particles)
    assert pval > 1e-4


def test_single_particle_always_mutates():
    model = two_state_model()
    ens = _counts([0, 1])
    stepped, _ = _step(ens, model, seed=2)
    assert stepped.n_particles == 1
    assert stepped.k == 1
    # its one ancestor is itself, so it moves by row 1 of the kernel: over
    # replicates the new label is 0 with probability M2[1, 0]
    moved = sum(int(_step(ens, model, seed=2, replicate=r)[0].counts[0, 0]) for r in range(4000))
    sd = math.sqrt(4000 * M2[1, 0] * M2[1, 1])
    assert abs(moved - 4000 * M2[1, 0]) < 4 * sd


def test_one_step_law_matches_exact_mixture():
    # a fixed count population: the new counts are multinomial on the
    # reweight-then-mutate mixture of its empirical measure
    model = two_state_model()
    pattern = np.array([3, 2])
    n_copies = 20_000
    ens = _counts(pattern * n_copies)
    stepped, _ = _step(ens, model, seed=31)
    expected = oracle.flow_map(model, pattern / pattern.sum(), 0, 1)
    _, pval = scipy.stats.chisquare(stepped.counts[0], expected * stepped.n_particles)
    assert pval > 1e-4


def _compositions(n, m):
    """Every count vector of n particles over m labels."""
    if m == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, m - 1):
            yield (first, *rest)


def _pooled(observed, expected, least=5.0):
    """``observed`` and ``expected`` with the cells expecting under ``least`` draws pooled.

    The pool joins the smallest other cell if it still expects fewer.
    """
    small = expected < least
    obs, exp = list(observed[~small]), list(expected[~small])
    if small.any():
        pool_obs, pool_exp = observed[small].sum(), expected[small].sum()
        if pool_exp < least:
            i = int(np.argmin(exp))
            obs[i] += pool_obs
            exp[i] += pool_exp
        else:
            obs.append(pool_obs)
            exp.append(pool_exp)
    return np.array(obs), np.array(exp)


# The count-law gate: each case compares _LAW_DRAWS one-step draws from a
# fixed count vector with the exact multinomial law by a chi-square test at
# level _LAW_ALPHA, every pooled cell expecting at least 5 draws.  With 10
# cases a correct engine fails the gate with probability at most
# 10 * 1e-5 = 1e-4.
_LAW_CASES = 10
_LAW_DRAWS = 5000
_LAW_ALPHA = 1e-5


@pytest.mark.parametrize("case", range(_LAW_CASES))
def test_count_step_law_is_the_exact_multinomial(case):
    # from counts c, the next counts are Multinomial(N, normalize((c * G_0) M_1))
    rng = np.random.default_rng(900 + case)
    m, n_particles = int(rng.integers(2, 6)), int(rng.integers(1, 7))
    model = random_finite_model(rng, m=m, n=2)
    counts = rng.multinomial(n_particles, rng.dirichlet(np.ones(m)))
    ens = _counts(counts)
    law = (counts * np.exp(model.finite.log_g[0])) @ model.finite.kernels[0]
    law /= law.sum()
    outcomes = list(_compositions(n_particles, m))
    index = {c: i for i, c in enumerate(outcomes)}
    observed = np.zeros(len(outcomes))
    step_rng = streams.stream(77, case)
    for _ in range(_LAW_DRAWS):
        stepped, _ = smc_step(ens, model, step_rng)
        observed[index[tuple(stepped.counts[0].tolist())]] += 1
    expected = _LAW_DRAWS * scipy.stats.multinomial.pmf(np.array(outcomes), n_particles, law)
    obs, exp = _pooled(observed, expected)
    assert obs.size >= 2
    _, pval = scipy.stats.chisquare(obs, exp)
    assert pval > _LAW_ALPHA


def _two_label_count_chain(arrays, n_particles):
    """The exact law of the count at label 1 after every step of a two-label model from delta_0.

    Given j of the N particles at label 1, each new particle picks an
    ancestor at label 1 with probability j g_1 / ((N - j) g_0 + j g_1) and
    then moves to label 1 with its ancestor's kernel entry, independently
    of the others, so the next count is Binomial(N, q_j).
    """
    j = np.arange(n_particles + 1)
    law = (j == 0).astype(float)
    for log_g, kernel in zip(arrays.log_g, arrays.kernels):
        g0, g1 = np.exp(log_g)
        q = (((n_particles - j) * g0 * kernel[0, 1] + j * g1 * kernel[1, 1])
             / ((n_particles - j) * g0 + j * g1))
        law = law @ scipy.stats.binom.pmf(j[None, :], n_particles, q[:, None])
    return law


# The multi-step count-law gate: the terminal counts of _CHAIN_REPLICATES
# replicates compared with the exact count chain by one chi-square test at
# level _CHAIN_ALPHA, so a correct engine fails it with probability 1e-4.
_CHAIN_REPLICATES = 20_000
_CHAIN_ALPHA = 1e-4


def test_terminal_counts_follow_the_exact_count_chain():
    # N = 2 particles over n = 5 steps of the two-state fixture's arrays, all
    # started at label 0; each replicate draws its steps in order from one stream
    n, n_particles = 5, 2
    arrays = two_state_fixture(n).finite
    model = table_model(arrays.kernels, arrays.log_g, np.array([1.0, 0.0]))
    at_one = np.concatenate([pop.counts[:, 1] for pop, _ in run_sampler(
        model, n_particles, 2401, range(_CHAIN_REPLICATES))])
    observed = np.bincount(at_one, minlength=n_particles + 1)
    expected = _CHAIN_REPLICATES * _two_label_count_chain(arrays, n_particles)
    assert expected.min() >= 5.0
    _, pval = scipy.stats.chisquare(observed, expected)
    assert pval > _CHAIN_ALPHA


# The row-independence gate: over _PAIR_REPLICATES replicates, many blocks,
# the terminal counts at label 1 of rows 2j and 2j + 1 of each block, pairs
# that share a stream, compared with the product of two exact count-chain
# marginals by one chi-square test at level _PAIR_ALPHA, so a correct engine
# fails it with probability 5e-5.
_PAIR_REPLICATES = 20_000
_PAIR_ALPHA = 5e-5


def test_rows_of_a_block_are_independent():
    # the chain gate's model and size: 10,000 pairs of neighbouring rows
    n, n_particles = 5, 2
    arrays = two_state_fixture(n).finite
    model = table_model(arrays.kernels, arrays.log_g, np.array([1.0, 0.0]))
    assert BLOCK_REPLICATES % 2 == 0 and _PAIR_REPLICATES >= 10 * BLOCK_REPLICATES
    at_one = np.concatenate([pop.counts[:, 1] for pop, _ in run_sampler(
        model, n_particles, 2402, range(_PAIR_REPLICATES))])
    first, second = at_one.reshape(-1, 2).T
    observed = np.bincount(first * (n_particles + 1) + second, minlength=(n_particles + 1) ** 2)
    law = _two_label_count_chain(arrays, n_particles)
    expected = first.size * np.outer(law, law).ravel()
    assert expected.min() >= 5.0
    _, pval = scipy.stats.chisquare(observed, expected)
    assert pval > _PAIR_ALPHA


def test_step_returns_the_log_weights_it_resampled_by():
    model = two_state_model()
    ens = _init(model, 50, seed=4)
    stepped, lw = _step(ens, model, seed=4)
    np.testing.assert_array_equal(lw, model.potentials.log_g(0, ens.states))
    assert stepped.k == 1 and stepped.n_particles == 50


def test_total_degeneracy_steps_on_by_flat_weights():
    # a row whose weights all vanish is marked, draws its ancestors as flat
    # weights would, steps on to the horizon and reads as degenerate
    n = 2
    flat = PotentialFamily(log_g=lambda k, x: np.zeros(np.shape(x)), log_g_max=0.0,
                           statistic=lambda xs: xs)
    kf = KernelFamily(sample_batch=lambda k, xs, stats, rng: (xs, stats))
    model = FKModel(horizon=n, kernels=kf, potentials=flat,
                    initial=lambda size, rng: np.arange(size))
    vanished = replace(model, potentials=replace(
        flat, log_g=lambda k, x: np.full(np.shape(x), -np.inf)))
    ens = _init(model, 16, seed=1)
    stepped, lw = _step(ens, vanished, seed=1)
    assert stepped.vanished.tolist() == [True] and np.isneginf(lw).all()
    plain, _ = _step(ens, model, seed=1)
    assert plain.vanished is None
    np.testing.assert_array_equal(stepped.states, plain.states)
    for drift in (None, lambda s: np.ones(len(s))):
        pop, summaries = _run_one(vanished, 16, seed=1, drift=drift)
        assert pop.k == n and pop.vanished.tolist() == [True] and summaries is None
        assert np.isnan(estimate([(pop, [summaries])], lambda s: np.ones(len(s)))).all()


def _plain_search_step(ens, model, rng):
    """Next states by the unsorted inverse-CDF search: one binary search per uniform.

    The statistics are evaluated afresh from ``ens.states``, not read from ``ens``.
    """
    k = ens.k
    stats = np.asarray(model.potentials.statistic(ens.states))
    lw = np.asarray(model.potentials.log_g(k, stats), dtype=float)[0]
    cw = np.cumsum(np.exp(lw - lw.max()))
    u = rng.random(ens.n_particles)
    ancestors = np.minimum(np.searchsorted(cw, u * cw[-1], side="right"), ens.n_particles - 1)
    return model.kernels.sample_batch(k + 1, ens.states[:, ancestors], stats[:, ancestors],
                                      [rng])[0]


def _plain_search(cw, u):
    return np.minimum(np.searchsorted(cw, u * cw[-1], side="right"), cw.size - 1)


# log weight shapes: near-flat and spread, few-valued as on finite models, tied,
# all but one underflowing (one bucket then holds more than SPILL entries and
# the binary search fallback runs), and half of them underflowing
_WEIGHT_SHAPES = {
    "flat": lambda rng, n: rng.normal(0.0, 0.01, n),
    "spread": lambda rng, n: rng.normal(0.0, 4.0, n),
    "few-valued": lambda rng, n: rng.choice(rng.normal(0.0, 2.0, 3), n),
    "tied": lambda rng, n: np.zeros(n),
    "one-alive": lambda rng, n: np.where(np.arange(n) == rng.integers(n), 0.0, -1e300),
    "half-vanishing": lambda rng, n: np.where(rng.random(n) < 0.5, -1e300,
                                              rng.normal(0.0, 1.0, n)),
}


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.integers(1, 3000), st.lists(st.sampled_from(sorted(_WEIGHT_SHAPES)), min_size=1,
                                      max_size=3),
       st.integers(0, 2**32 - 1))
def test_draw_ancestors_is_the_plain_search(n, shapes, seed):
    # a batch of rows, each with its own weight shape, and each row alone;
    # row r's indices are offset by r * n into the flattened batch
    rng = np.random.default_rng(seed)
    lw = np.array([_WEIGHT_SHAPES[shape](rng, n) for shape in shapes])
    cw = np.cumsum(np.exp(lw - lw.max(axis=1, keepdims=True)), axis=1)
    # uniforms on the two ends of [0, 1) and on cumulative weights themselves
    picks = rng.integers(n, size=(len(shapes), 50))
    on_weights = np.minimum(np.take_along_axis(cw, picks, axis=1) / cw[:, -1:],
                            np.nextafter(1.0, 0.0))
    ends = np.tile([0.0, np.nextafter(1.0, 0.0)], (len(shapes), 1))
    u = np.concatenate([rng.random((len(shapes), n)), ends, on_weights], axis=1)
    want = np.array([_plain_search(c, v) for c, v in zip(cw, u)])
    offsets = n * np.arange(len(shapes))[:, None]
    np.testing.assert_array_equal(draw_ancestors(cw, u), want + offsets)
    np.testing.assert_array_equal(draw_ancestors(cw[-1], u[-1]), want[-1])


def test_draw_ancestors_with_one_dominant_particle_at_large_n():
    # every other weight is below 1e-300 of the dominant one, so the 60,000
    # cumulative weights before it share the first bucket; the pinned uniforms
    # land in that bucket, among those weights
    n = 100_000
    rng = np.random.default_rng(17)
    lw = rng.normal(-700.0, 1.0, n)
    lw[60_000] = 0.0
    cw = np.cumsum(np.exp(lw - lw.max()))
    pinned = [0.0, 1e-9, cw[30_000] / cw[-1], cw[59_999] / cw[-1], np.nextafter(1.0, 0.0)]
    u = np.concatenate([rng.random(n), pinned])
    np.testing.assert_array_equal(draw_ancestors(cw, u), _plain_search(cw, u))


def _identity_model(log_g_table):
    """Finite-index model whose kernels keep each state, so next states are the ancestors."""
    table = np.asarray(log_g_table, dtype=float)
    n = table.shape[0]
    return FKModel(
        horizon=n,
        kernels=KernelFamily(
            sample_batch=lambda k, xs, stats, rng: (np.array(xs), np.array(stats))),
        potentials=PotentialFamily(log_g=lambda k, x: table[k][np.asarray(x)],
                                   log_g_max=float(table.max()), statistic=lambda xs: xs),
        initial=lambda size, rng: np.arange(size),
    )


class _Pinned:
    """A step generator that draws ``u`` as its ancestor uniforms (identity kernels draw nothing)."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None, out=None):
        if out is None:
            return np.array(self.u, dtype=float)
        out[...] = self.u


# the finite models run as label states, so their steps take the per-particle path
_SEARCH_MODELS = {
    "finite": lambda: label_model(random_finite_model(np.random.default_rng(3), m=5, n=3)),
    "tied": lambda: label_model(table_model([M2] * 3, np.zeros((3, 2)), np.array([0.6, 0.4]))),
    "gaussian": lambda: gaussian_model(3)[0],
}


@pytest.mark.parametrize("kind", sorted(_SEARCH_MODELS))
@pytest.mark.parametrize("n_particles", [1, 2, 7, 1000, 10_000])
def test_step_draws_what_the_plain_search_draws(kind, n_particles):
    model = _SEARCH_MODELS[kind]()
    ens = _init(model, n_particles, seed=71, replicate=2)
    for _ in range(model.horizon):
        expected = _plain_search_step(ens, model, streams.stream(71, 2, ens.k + 1))
        ens, _ = _step(ens, model, seed=71, replicate=2)
        np.testing.assert_array_equal(ens.states, expected)
        np.testing.assert_array_equal(ens.stats, model.potentials.statistic(ens.states))


_CARRY_TARGETS = {
    "gaussian": lambda: gaussian_target([0.0, 1.0], [1.0, 0.5]),
    "mixture": lambda: gaussian_mixture_target([[-1.0, 0.0], [2.0, 1.0]],
                                               [[0.7, 1.0], [1.2, 0.4]], [0.4, 0.6]),
}


@pytest.mark.parametrize("spread", [2.0, 1e154], ids=["near", "overflowing"])
@pytest.mark.parametrize("target", sorted(_CARRY_TARGETS))
def test_carried_log_density_is_the_target_density_at_every_step(target, spread):
    # from the overflowing start some particles, and all of their proposals,
    # have log density -inf
    n = 6
    fam = TemperedFamily(_CARRY_TARGETS[target](), linear_schedule(0.7))
    gammas = fam.schedule.ladder(n)
    model = FKModel(
        horizon=n,
        kernels=rwm_kernel_family(fam, gammas, 1.5),
        potentials=build_potentials(fam, gammas),
        initial=lambda size, rng: spread * rng.standard_normal((size, 2)),
    )
    with np.errstate(over="ignore"):
        ens = _init(model, 500, seed=19)
        assert np.isneginf(ens.stats).any() == (spread > 1e100)
        for _ in range(n + 1):
            np.testing.assert_array_equal(ens.stats.view(np.uint64),
                                          fam.target.log_unnorm(ens.states).view(np.uint64))
            if ens.k < n:
                ens, _ = _step(ens, model, seed=19)


def test_uniform_on_a_cumulative_weight_draws_the_next_particle():
    # tied weights put the cumulative weights at 1..8, and u * 8 lands on them
    # exactly; a uniform equal to a cumulative weight goes to the next particle
    n_particles = 8
    u = np.array([0.125, 0.25, 0.5, 0.0, np.nextafter(1.0, 0.0), 0.375, 0.875, 0.625])
    model = _identity_model(np.zeros((1, n_particles)))
    ens = Ensemble(states=np.arange(n_particles)[None], stats=np.arange(n_particles)[None], k=0)
    stepped, _ = smc_step(ens, model, [_Pinned(u)])
    np.testing.assert_array_equal(stepped.states, [[1, 2, 4, 0, 7, 3, 7, 5]])
    np.testing.assert_array_equal(stepped.states, _plain_search_step(ens, model, _Pinned(u)))


def test_step_past_terminal_rejected():
    model = two_state_model(n=1)
    ens = _init(model, 8, seed=1)
    stepped, _ = _step(ens, model, seed=1)
    with pytest.raises(ValueError):
        _step(stepped, model, seed=1)


@pytest.mark.parametrize("seed", range(5))
def test_underflowed_weights_are_never_drawn(seed):
    # every third particle sits 800 below the maximum: its weight is exactly 0
    n_particles, n = 10_000, 4
    rng = np.random.default_rng(seed)
    table = rng.uniform(-3.0, 0.0, size=(n, n_particles))
    dead = np.zeros(n_particles, dtype=bool)
    dead[seed % 3::3] = True
    table[:, dead] = table.max() - 800.0
    assert np.all(np.exp(table[:, dead] - table.max(axis=1, keepdims=True)) == 0.0)
    model = _identity_model(table)
    ens = _init(model, n_particles, seed=seed)
    for _ in range(n):
        ens, _ = _step(ens, model, seed=seed)
        assert not np.any(dead[ens.states])
    assert np.unique(ens.states).size > 1


@pytest.mark.parametrize("survivor", [0, 3, 6])
def test_single_surviving_particle_is_every_ancestor(survivor):
    # the extreme uniforms too: u = 0 skips the zero weights in front of the
    # survivor, the largest u < 1 stops before the zero weights behind it
    n_particles = 7
    table = np.full((1, n_particles), -800.0)
    table[0, survivor] = 0.0
    u = np.linspace(0.0, 1.0, n_particles, endpoint=False)
    u[-1] = np.nextafter(1.0, 0.0)
    stepped, _ = smc_step(Ensemble(states=np.arange(n_particles)[None],
                                   stats=np.arange(n_particles)[None], k=0),
                          _identity_model(table), [_Pinned(u)])
    np.testing.assert_array_equal(stepped.states, np.full((1, n_particles), survivor))


def _empty_label_model(n=4):
    """Three labels; label 2, 800 above the others in log weight, is never occupied.

    No row of the kernels moves mass to label 2, and the initial law holds none there.
    """
    mats = [np.array([[0.6, 0.4, 0.0], [0.3, 0.7, 0.0], [0.2, 0.3, 0.5]])] * n
    return table_model(mats, np.tile([0.0, -1.0, 800.0], (n, 1)), np.array([0.5, 0.5, 0.0]))


def test_empty_label_sets_neither_the_max_nor_the_range():
    # were label 2's log weight the max, every occupied weight would underflow to 0
    model = _empty_label_model()
    assert model.potentials.log_g_max == 800.0
    drift = lambda s: np.array([1.0, 2.0, np.inf])[s]
    pop, summaries = _run_one(model, 50, seed=13, drift=drift)
    assert pop.counts[0, 2] == 0 and pop.n_particles == 50
    for s in summaries[:-1]:
        assert (s.log_w_max, s.log_w_min) in [(-800.0, -801.0), (-800.0, -800.0),
                                              (-801.0, -801.0)]
        assert 1.0 <= s.ess <= 50.0
    assert all(1.0 <= s.eta_v <= 2.0 for s in summaries)
    # the occupied labels alone weigh: a non-finite weight at the empty label
    # leaves the run's bits as they are, and a row whose weights at the labels
    # it holds all vanish is marked vanished, whatever the weight of the empty
    # label, and steps on to the horizon
    for bad in (-np.inf, np.inf, np.nan):
        patched = replace(model, potentials=replace(
            model.potentials, log_g=lambda k, x, bad=bad: np.array([0.0, -1.0, bad])[x]))
        got, got_summaries = _run_one(patched, 50, seed=13, drift=drift)
        _assert_same_population(got, pop)
        assert got.vanished is None and _bits(got_summaries) == _bits(summaries)
    vanished = replace(model, potentials=replace(
        model.potentials, log_g=lambda k, x: np.array([-np.inf, -np.inf, 0.0])[x]))
    stepped, _ = _step(_init(vanished, 10, seed=13), vanished, seed=13)
    assert stepped.vanished.tolist() == [True]
    pop, summaries = _run_one(vanished, 10, seed=13, drift=drift)
    assert summaries is None and pop.k == 4 and pop.n_particles == 10


def test_count_path_at_one_particle_and_one_step():
    # one particle is its own ancestor, so its terminal label has law mu M_1
    model = two_state_model(n=1)
    drift = lambda s: np.array([1.0, 2.5])[s]
    at_one = 0
    for pop, summaries in run_sampler(model, 1, 3, range(2000), drift=drift):
        assert pop.n_particles == 1 and pop.k == 1
        for counts, (first, last) in zip(pop.counts, summaries, strict=True):
            assert first.ess == 1.0 and first.log_w_max == first.log_w_min
            assert first.eta_gtilde == math.exp(first.log_w_max)
            assert last.eta_v == drift(np.argmax(counts))
            at_one += int(counts[1])
    p = float(model.finite.mu @ M2[:, 1])
    assert abs(at_one - 2000 * p) < 4 * math.sqrt(2000 * p * (1 - p))


def test_zero_entry_kernel_moves_no_count_where_its_row_is_zero():
    # at move_prob 1 a particle at the lighter state always moves to the heavier:
    # that row of every kernel is [1, 0]
    n = 5
    model = tempered_chain_model(np.array([0.0, -1.0]), linear_schedule(0.7).ladder(n),
                                 move_prob=1.0, init=np.array([0.0, 1.0]))
    assert np.all(model.finite.kernels[:, 1] == [1.0, 0.0])
    for r in range(20):
        ens = _init(model, 1000, seed=8, replicate=r)
        np.testing.assert_array_equal(ens.counts, [[0, 1000]])
        ens, _ = _step(ens, model, seed=8, replicate=r)
        np.testing.assert_array_equal(ens.counts, [[1000, 0]])
        pop, _ = _run_one(model, 1000, seed=8, replicate=r)
        assert pop.n_particles == 1000 and pop.k == n


def test_run_without_particles_rejected():
    for model in (two_state_model(), gaussian_model(2)[0]):
        with pytest.raises(ValueError, match="at least one particle"):
            run_sampler(model, 0, 1, [0])


def test_count_replicate_at_a_billion_particles():
    # a count population holds m counts, never N states
    model = two_state_fixture(20)
    v = fixture_drift_inputs()[0].v
    tracemalloc.start()
    try:
        start = time.perf_counter()
        runs = run_sampler(model, 10**9, 7, [0], drift=lambda s: v[s])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ((pop, (summaries,)),) = runs
    assert pop.n_particles == 10**9 and len(summaries) == 21
    assert 0.0 < estimate(runs, lambda s: np.asarray(s, dtype=float))[0] < 1.0
    assert elapsed < 1.0
    assert peak < 2**20


# ------------------------------------------------------------- full runs

def test_horizon_zero_returns_initial_ensemble():
    m = 2
    pf = PotentialFamily(log_g=lambda k, x: 0.0, log_g_max=0.0, statistic=lambda xs: xs)
    kf = KernelFamily(sample_batch=lambda k, xs, stats, rng: (xs, stats))
    model = FKModel(horizon=0, kernels=kf, potentials=pf,
                    initial=lambda size, rng: np.arange(size) % m)
    pop, summaries = _run_one(model, 10, seed=3, drift=lambda s: np.ones(len(s)))
    np.testing.assert_array_equal(pop.states, [np.arange(10) % m])
    assert len(summaries) == 1 and math.isnan(summaries[0].ess)
    assert summaries[0].eta_v == 1.0
    # summaries are taken exactly when a drift function is given
    assert _run_one(model, 10, seed=3)[1] == []


def _ess(lw):
    """(sum w)^2 / sum w^2 from unnormalized log weights."""
    lw = np.asarray(lw, dtype=float)
    top = lw.max()
    if not np.isfinite(top):
        return 0.0
    w = np.exp(lw - top)
    return float(w.sum() ** 2 / np.sum(w * w))


def _reference_summary(model, ens, drift, lw):
    """Diagnostics of ``ens`` one step at a time; ``lw`` is None at the terminal step.

    A count batch of one row reads its occupied labels alone, each weighed by its count.
    """
    v = drift(ens.stats)
    if ens.counts is None:
        c = None
        eta_v = float(v.sum() / v.size)
    else:
        held = ens.counts[0] > 0
        c = ens.counts[0, held]
        eta_v = float((v[held] * c).sum() / c.sum())
    if lw is None:
        return StepSummary(k=ens.k, ess=math.nan, log_w_max=math.nan, log_w_min=math.nan,
                           eta_v=eta_v, eta_gtilde=math.nan)
    lw = lw - model.potentials.log_g_max
    if c is None:
        g = np.exp(lw)
        return StepSummary(k=ens.k, ess=_ess(lw), log_w_max=float(lw.max()),
                           log_w_min=float(lw.min()), eta_v=eta_v,
                           eta_gtilde=float(g.sum() / g.size))
    lw = lw[held]
    w = np.exp(lw - lw.max())
    ess = float((w * c).sum()) ** 2 / float((w * w * c).sum())
    return StepSummary(k=ens.k, ess=ess, log_w_max=float(lw.max()), log_w_min=float(lw.min()),
                       eta_v=eta_v, eta_gtilde=float((np.exp(lw) * c).sum() / c.sum()))


def _reference_run(model, n_particles, seed, replicate, drift, rows=1):
    """``run_sampler`` one step and one row at a time: the run's population and row summaries.

    One generator, the stream ``replicate`` draws from alone, draws the
    initial population of each row in turn, and then every step, each
    step's rows in turn; each step of a row is summarized on its own by
    ``_reference_summary``.  A finite model's rows are then joined into one
    count batch.
    """
    rng = _lone_stream(model, seed, replicate)
    pops = [init_ensemble(model, n_particles, rng, 1) for _ in range(rows)]
    summaries = [[] for _ in range(rows)]
    for _ in range(model.horizon):
        for i, ens in enumerate(pops):
            pops[i], lw = smc_step(ens, model, rng if model.is_finite else [rng])
            summaries[i].append(_reference_summary(model, ens, drift, lw))
    for ens, row in zip(pops, summaries):
        row.append(_reference_summary(model, ens, drift, None))
    if not model.is_finite:
        return pops[0], summaries
    first = pops[0]
    return Ensemble(first.states, first.stats, first.k,
                    np.concatenate([p.counts for p in pops])), summaries


def _odd_draw_model(n):
    """Three states; each step's kernel draws 2N + 1 uint32s, so half a 64-bit word is left over."""

    def sample_batch(k, xs, stats, rng):
        new = []
        for x, g in zip(xs, rng):
            u = g.integers(0, 2**32, size=2 * len(x) + 1, dtype=np.uint32)
            new.append((x + u[: len(x)] % 3 + u[-1] % 2) % 3)
        return np.array(new), np.array(new)

    return FKModel(
        horizon=n,
        kernels=KernelFamily(sample_batch=sample_batch),
        potentials=PotentialFamily(log_g=lambda k, x: -0.5 * np.asarray(x, dtype=float),
                                   log_g_max=0.0, statistic=lambda xs: xs),
        initial=lambda size, rng: rng.integers(0, 3, size=size),
    )


def _gaussian_with_drift(n):
    model, fam = gaussian_model(n, init_mean=2.0)
    return model, drift_function(fam.target.sup_log_unnorm, fam.schedule.gamma_floor, 0.5)


def _bits(summaries):
    return np.array([astuple(s) for s in summaries], dtype=float).view(np.uint64).tolist()


def _assert_same_population(a, b):
    """``a`` and ``b`` hold the same bytes: states, and counts where they hold counts."""
    np.testing.assert_array_equal(a.states.view(np.uint8), b.states.view(np.uint8))
    assert a.k == b.k and (a.counts is None) == (b.counts is None)
    if a.counts is not None:
        np.testing.assert_array_equal(a.counts, b.counts)


_REFERENCE_MODELS = {
    "two-state": lambda n: (two_state_model(n), lambda s: np.array([1.0, 2.5])[s]),
    "random-finite": lambda n: (random_finite_model(np.random.default_rng(7), m=5, n=n),
                                lambda s: 1.0 + np.asarray(s, dtype=float)),
    "gaussian-drift": _gaussian_with_drift,
    "odd-draws": lambda n: (_odd_draw_model(n), lambda s: np.asarray(s, dtype=float)),
}


@pytest.mark.parametrize("n_particles", [1, 5, 64])
@pytest.mark.parametrize("n", [1, 6])
@pytest.mark.parametrize("kind", sorted(_REFERENCE_MODELS))
def test_run_sampler_draws_the_replicate_from_one_stream_in_order(kind, n, n_particles):
    # the initial draw and then each step read on from where the last one
    # stopped: SFC64 buffers only the unused half of a word after a uint32
    # draw (``has_uint32``), which the odd-draw kernel's 2N + 1 uint32s
    # leave behind at every step.  The finite models step count populations,
    # whose multinomial draws take a varying number of words: three rows of
    # block b read the stream keyed by (seed, b), their initial counts row
    # after row and then each step's rows in turn, against a count reference
    model, drift = _REFERENCE_MODELS[kind](n)
    rows = 3 if model.is_finite else 1
    for seed, unit in [(3, 0), (2**64 - 1, 2**32 + 5)]:
        first = unit * BLOCK_REPLICATES if model.is_finite else unit
        assert _lone_stream(model, seed, first).random() == streams.stream(seed, unit).random()
        ids = range(first, first + rows)
        ((pop, summaries),) = run_sampler(model, n_particles, seed, ids, drift=drift)
        ref, ref_summaries = _reference_run(model, n_particles, seed, first, drift, rows)
        assert (pop.counts is not None) == model.is_finite
        _assert_same_population(pop, ref)
        assert len(summaries) == len(ref_summaries) == rows
        for row, ref_row in zip(summaries, ref_summaries):
            assert _bits(row) == _bits(ref_row)
        ((pop, _),) = run_sampler(model, n_particles, seed, ids)
        _assert_same_population(pop, ref)


class _Recording:
    """A stand-in stream whose ``multinomial`` records the probabilities of each row.

    Row i's counts are fixed by the replicate ``replicates[i]`` and the call
    alone and never read the probabilities, so a replicate takes the same
    path in any batch, and every probability vector it hands over can be
    compared bit for bit: a rounding change in them would almost never move
    a real draw.
    """

    def __init__(self, replicates):
        self.fixed = [np.random.default_rng(r) for r in replicates]
        self.seen = [[] for _ in replicates]

    def multinomial(self, n, pvals, size=None):
        pvals = np.broadcast_to(pvals, (len(self.fixed), np.shape(pvals)[-1]))
        for seen, p in zip(self.seen, pvals):
            seen.append(np.array(p, dtype=float))
        return np.array([g.multinomial(n, g.dirichlet(np.full(pvals.shape[1], 0.3)))
                         for g in self.fixed])


@pytest.mark.parametrize("case", range(21))
def test_replicate_arithmetic_ignores_its_batch(case, monkeypatch):
    # every m in 2..8 with every N in {1, 2, 10^9}; each of 7 replicates runs
    # as a block of its own, then at each position of a block of 7
    rng = np.random.default_rng(500 + case)
    m, n_particles = 2 + case % 7, [1, 2, 10**9][case % 3]
    n = int(rng.integers(1, 31))
    model = random_finite_model(rng, m=m, n=n)
    v, f_vals = 1.0 + 10.0 * rng.random(m), rng.normal(size=m)
    recorder = None

    def stream(seed, block):
        return recorder

    monkeypatch.setattr(streams, "stream", stream)

    def run(replicates):
        nonlocal recorder
        recorder = _Recording(replicates)
        runs = run_sampler(model, n_particles, 0, range(len(replicates)),
                           drift=lambda s: v[s])
        values = estimate(runs, lambda s: f_vals[s])
        ((pop, summaries),) = runs
        return {r: ([p.tobytes() for p in seen], counts.tolist(), value.tobytes(),
                    _bits(row))
                for r, seen, value, counts, row
                in zip(replicates, recorder.seen, values, pop.counts, summaries)}

    alone = {r: run([r])[r] for r in range(7)}
    assert all(len(seen) == n + 1 for seen, *_ in alone.values())
    for shift in range(7):
        assert run([(r + shift) % 7 for r in range(7)]) == alone


def test_a_count_row_vanishes_by_the_labels_it_holds():
    # a finite model's log weights are finite; were one not, it would vanish a
    # row only at a label the row holds: -inf at every label it holds, or +inf
    # or NaN at one.  A vanished row weighs each label by its count (flat
    # weights), the others keep theirs, and the block still returns a
    # population of every row, its vanished rows degenerate
    model = two_state_model(n=6)
    counts = np.array([[3, 0], [1, 2], [0, 3]])
    for bad, gone in [(-np.inf, [False, False, True]), (np.inf, [False, True, True]),
                      (np.nan, [False, True, True])]:
        weights = []

        def sample_batch(k, w, size, rng):
            weights.append(w)
            return model.kernels.sample_batch(k, w, size, rng)

        patched = replace(model, kernels=KernelFamily(sample_batch=sample_batch),
                          potentials=replace(model.potentials,
                                             log_g=lambda k, x, bad=bad: np.array([0.0, bad])[x]))
        ens = Ensemble(states=np.arange(2), stats=np.arange(2), k=0, counts=counts)
        stepped, _ = smc_step(ens, patched, streams.stream(5, 0))
        assert stepped.vanished.tolist() == gone and stepped.counts.sum(axis=1).tolist() == [3] * 3
        np.testing.assert_array_equal(
            weights[0], np.where(np.array(gone)[:, None], counts, counts * [1.0, 0.0]))
        for drift in (None, lambda s: 1.0 + s):
            runs = run_sampler(patched, 3, 5, range(40), drift=drift)
            ((pop, summaries),) = runs
            assert pop.k == 6 and pop.counts.shape == (40, 2)
            assert 0 < pop.vanished.sum() < 40
            assert [s is None for s in summaries] == pop.vanished.tolist()
            values = estimate(runs, lambda s: np.ones(len(s)))
            assert np.isnan(values).tolist() == pop.vanished.tolist()


@pytest.mark.parametrize("drift", [None, lambda s: 1.0 + s], ids=["plain", "monitored"])
def test_a_block_builds_one_population_per_step(drift, monkeypatch):
    # the initial batch and one per step; the terminal batch is returned whole
    n, built = 4, []
    post_init = Ensemble.__post_init__

    def counted(self):
        built.append(self.k)
        post_init(self)

    monkeypatch.setattr(Ensemble, "__post_init__", counted)
    runs = run_sampler(two_state_model(n), 50, 3, range(300), drift=drift)
    assert len(runs) == 1 and runs[0][0].counts.shape == (300, 2)
    assert len(built) <= n + 1


def _rwm_with_drift(d, n):
    """RWM on a d-dimensional Gaussian from far off its mode, with the family's drift V."""
    fam = TemperedFamily(gaussian_target(np.zeros(d), np.ones(d)), linear_schedule(0.7))
    gammas = fam.schedule.ladder(n)
    model = FKModel(
        horizon=n,
        kernels=rwm_kernel_family(fam, gammas, 0.8),
        potentials=build_potentials(fam, gammas),
        initial=lambda size, rng: 2.0 + rng.standard_normal((size, d)),
    )
    return model, drift_function(fam.target.sup_log_unnorm, fam.schedule.gamma_floor, 0.5)


def _marked_model(n, doomed):
    """Rows whose particles share a marker, the first uniform of their stream.

    A state is (marker, x); the statistic is the marker, and each step moves
    x by Gaussian noise from the row's generator.  ``doomed`` maps markers
    to steps: every weight of a row with a marker in it vanishes at its step.
    """

    def initial(size, rng):
        marker = rng.random()
        return np.column_stack([np.full(size, marker), rng.standard_normal(size)])

    def log_g(k, s):
        dying = [marker for marker, at in doomed.items() if at == k]
        return np.where(np.isin(s, dying), -np.inf, -0.5 * s)

    def sample_batch(k, xs, stats, rng):
        new = xs.copy()
        for row, g in zip(new, rng):
            row[:, 1] += g.standard_normal(len(row))
        return new, stats

    return FKModel(horizon=n, kernels=KernelFamily(sample_batch=sample_batch),
                   potentials=PotentialFamily(log_g=log_g, log_g_max=0.0,
                                              statistic=lambda xs: xs[..., 0]),
                   initial=initial)


def _recorded_steps(monkeypatch):
    """Patch ``smc_step`` to record the step log weights of every step it returns."""
    seen, step = [], particles.smc_step

    def recording(ens, model, rng):
        nxt, lw = step(ens, model, rng)
        seen.append(lw)
        return nxt, lw

    monkeypatch.setattr(particles, "smc_step", recording)
    return seen


def _assert_rows_are_lone_runs(model, n_particles, seed, ids, drift, monkeypatch):
    """``ids`` in one ``run_sampler`` call give, row by row, the bits of each id run alone.

    The batches are R = max(1, BLOCK_VALUES // (N * d)) consecutive ids,
    and every row of a batch steps to the horizon in it.  A row whose
    weights vanish reads as degenerate in its batch as in its lone run.
    Compared bit for bit for every other row: its terminal states and
    statistics, its step log weights, its summaries and its estimate.
    Returns the batched runs.
    """
    seen = _recorded_steps(monkeypatch)
    runs = run_sampler(model, n_particles, seed, ids, drift=drift)
    batched = list(seen)
    lone = {}
    for r in ids:
        seen.clear()
        ((pop, (summaries,)),) = run_sampler(model, n_particles, seed, [r], drift=drift)
        lone[r] = (pop, summaries, [lw[0] for lw in seen])
    size = init_ensemble(model, n_particles, streams.stream(seed, ids[0]), 1).states.size
    rows = max(1, BLOCK_VALUES // size)
    assert [len(summaries) for _, summaries in runs] == [
        len(ids[i:i + rows]) for i in range(0, len(ids), rows)]
    assert len(batched) == len(runs) * model.horizon
    steps = iter(batched)
    for i, (pop, summaries) in zip(range(0, len(ids), rows), runs):
        batch = ids[i:i + rows]
        assert len(pop.states) == len(batch) and pop.k == model.horizon
        assert [s is None for s in summaries] == [lone[r][1] is None for r in batch]
        survivors = [(j, r) for j, r in enumerate(batch) if lone[r][1] is not None]
        for k in range(model.horizon):
            lw = next(steps)
            for j, r in survivors:
                np.testing.assert_array_equal(lw[j].view(np.uint64),
                                              lone[r][2][k].view(np.uint64))
        for j, r in survivors:
            lone_pop = lone[r][0]
            np.testing.assert_array_equal(pop.states[j].view(np.uint64),
                                          lone_pop.states[0].view(np.uint64))
            np.testing.assert_array_equal(pop.stats[j].view(np.uint64),
                                          lone_pop.stats[0].view(np.uint64))
            assert _bits(summaries[j]) == _bits(lone[r][1])
    f = lambda x: np.asarray(x, dtype=float).reshape(len(x), -1)[:, -1]
    alone = np.concatenate([estimate([(lone[r][0], [lone[r][1]])], f) for r in ids])
    np.testing.assert_array_equal(estimate(runs, f).view(np.uint64), alone.view(np.uint64))
    return runs


@pytest.mark.parametrize("monitored", [False, True], ids=["plain", "monitored"])
@pytest.mark.parametrize("d, n_particles, n_ids", [
    (1, 37, 9), (3, 500, 7), (1, 1, 9), (3, 1, 4),
    (1, BLOCK_VALUES + 5, 3), (3, BLOCK_VALUES // 3 + 1, 2)])
def test_each_row_of_a_batch_has_the_bits_of_its_lone_run(d, n_particles, n_ids, monitored,
                                                          monkeypatch):
    # N * d below BLOCK_VALUES batches rows (500 * 3 takes 5: a batch of 5 and
    # a partial one of 2), at or above it each row is a batch of its own
    model, drift = _rwm_with_drift(d, 3)
    ids = list(range(11, 11 + n_ids))
    runs = _assert_rows_are_lone_runs(model, n_particles, 5, ids, drift if monitored else None,
                                      monkeypatch)
    rows = max(1, BLOCK_VALUES // (n_particles * d))
    assert len(runs) == math.ceil(n_ids / rows)
    assert (rows > 1) == (n_particles * d < BLOCK_VALUES)


@pytest.mark.parametrize("monitored", [False, True], ids=["plain", "monitored"])
@pytest.mark.parametrize("at", [0, 2, 3])
@pytest.mark.parametrize("doomed", [[0], [2], [4], [0, 1, 3, 4], [0, 1, 2, 3, 4]],
                         ids=["first", "middle", "last", "all-but-one", "all"])
def test_a_row_whose_weights_vanish_stays_in_its_batch(doomed, at, monitored, monkeypatch):
    # the doomed rows of five die at step ``at`` of 4 and step on to the
    # horizon in the batch, reading NaN and None; every other row keeps the
    # bits of its lone run
    seed, ids = 3, list(range(20, 25))
    markers = [streams.stream(seed, r).random() for r in ids]
    model = _marked_model(4, doomed={markers[i]: at for i in doomed})
    drift = (lambda s: 1.0 + s) if monitored else None
    ((pop, summaries),) = _assert_rows_are_lone_runs(model, 6, seed, ids, drift, monkeypatch)
    gone = [i in doomed for i in range(len(ids))]
    assert [s is None for s in summaries] == pop.vanished.tolist() == gone
    assert len(pop.states) == 5 and pop.k == 4
    np.testing.assert_array_equal(pop.stats[:, 0], markers)
    values = estimate([(pop, summaries)], lambda x: x[:, 1])
    assert np.isnan(values).tolist() == gone


@pytest.mark.parametrize("monitored", [False, True], ids=["plain", "monitored"])
def test_a_row_stays_vanished_when_another_vanishes_later(monitored, monkeypatch):
    # the second row dies at step 0 and the fourth at step 2, after which the
    # weights of both are finite again: both stay marked to the horizon
    seed, ids = 4, list(range(30, 35))
    markers = [streams.stream(seed, r).random() for r in ids]
    model = _marked_model(4, doomed={markers[1]: 0, markers[3]: 2})
    drift = (lambda s: 1.0 + s) if monitored else None
    ((pop, summaries),) = _assert_rows_are_lone_runs(model, 6, seed, ids, drift, monkeypatch)
    gone = [False, True, False, True, False]
    assert [s is None for s in summaries] == pop.vanished.tolist() == gone


def _mixture_with_drift(n):
    """RWM on a two-bump mixture whose amplitudes sum past 1, so log_g_max > 0."""
    fam = TemperedFamily(gaussian_mixture_target([[-1.0], [2.0]], [[0.7], [1.2]], [0.8, 0.7]),
                         linear_schedule(0.7))
    gammas = fam.schedule.ladder(n)
    model = FKModel(
        horizon=n,
        kernels=rwm_kernel_family(fam, gammas, 1.0),
        potentials=build_potentials(fam, gammas),
        initial=lambda size, rng: 2.0 * rng.standard_normal((size, 1)),
    )
    return model, drift_function(fam.target.sup_log_unnorm, fam.schedule.gamma_floor, 0.5)


@pytest.mark.parametrize("n_particles", [37, BLOCK_VALUES + 808])
def test_monitor_is_the_per_step_monitor_on_a_mixture(n_particles):
    # no step, one step and two, with log_g_max > 0; above BLOCK_VALUES
    # particles a lone row is a batch of its own
    for n in [0, 1, 2]:
        model, drift = _mixture_with_drift(max(n, 1))
        model = replace(model, horizon=n)
        assert model.potentials.log_g_max > 0.0
        _, summaries = _run_one(model, n_particles, 29, 1, drift=drift)
        _, (ref_summaries,) = _reference_run(model, n_particles, 29, 1, drift)
        assert [s.k for s in summaries] == list(range(n + 1))
        assert _bits(summaries) == _bits(ref_summaries)


_COUNT_MONITOR_MODELS = {
    "random-finite": lambda: (random_finite_model(np.random.default_rng(11), m=5, n=6),
                              lambda s: 1.0 + np.asarray(s, dtype=float) ** 2),
    "empty-label": lambda: (_empty_label_model(6), lambda s: np.array([1.0, 3.0, np.inf])[s]),
}


@pytest.mark.parametrize("n_particles", [1, 3, 17])
@pytest.mark.parametrize("kind", sorted(_COUNT_MONITOR_MODELS))
def test_count_monitor_is_the_particle_monitor_of_the_repeated_labels(kind, n_particles):
    # each count population, written out as np.repeat(labels, counts) and
    # summarized by the per-particle formulas
    model, drift = _COUNT_MONITOR_MODELS[kind]()
    _, summaries = _run_one(model, n_particles, 5, 2, drift=drift)
    rng = _lone_stream(model, 5, 2)
    ens, expected = init_ensemble(model, n_particles, rng, 1), []
    while True:
        particles = np.repeat(ens.states, ens.counts[0])
        lw = None if ens.k == model.horizon else model.potentials.log_g(ens.k, particles)
        expected.append(_reference_summary(
            model, Ensemble(states=particles[None], stats=particles[None], k=ens.k), drift, lw))
        if lw is None:
            break
        ens, _ = smc_step(ens, model, rng)
    np.testing.assert_allclose(np.array([astuple(s) for s in summaries]),
                               np.array([astuple(s) for s in expected]), rtol=1e-12, atol=0)


def test_count_monitor_at_each_horizon_is_the_per_step_monitor():
    # every step of this model is the same, so a run to horizon n is the
    # first n steps of the longest run, then its terminal row
    longest = 50
    drift = lambda s: np.array([1.0, 2.5])[s]
    model = table_model([M2] * longest, np.tile(np.log([2.0, 0.7]), (longest, 1)),
                        np.array([0.6, 0.4]))
    _, (ref_summaries,) = _reference_run(model, 9, 29, 1, drift)
    for n in [1, 2, longest]:
        short = table_model([M2] * n, np.tile(np.log([2.0, 0.7]), (n, 1)), np.array([0.6, 0.4]))
        _, summaries = _run_one(short, 9, 29, 1, drift=drift)
        terminal = replace(ref_summaries[n], ess=math.nan, log_w_max=math.nan,
                           log_w_min=math.nan, eta_gtilde=math.nan)
        assert _bits(summaries) == _bits(ref_summaries[:n] + [terminal])


def test_monitor_at_one_particle():
    # every step of this model has the same kernel and potential, so a run
    # to horizon n is the first n steps of the longest run, then its terminal row
    longest = 50
    drift = lambda s: np.array([1.0, 2.5])[s]
    model = label_model(table_model([M2] * longest, np.tile(np.log([2.0, 0.7]), (longest, 1)),
                                    np.array([0.6, 0.4])))
    assert model.potentials.log_g_max > 0.0
    _, (ref_summaries,) = _reference_run(model, 1, 29, 1, drift)
    for n in [0, 1, 2, longest]:
        _, summaries = _run_one(replace(model, horizon=n), 1, 29, 1, drift=drift)
        terminal = replace(ref_summaries[n], ess=math.nan, log_w_max=math.nan,
                           log_w_min=math.nan, eta_gtilde=math.nan)
        assert _bits(summaries) == _bits(ref_summaries[:n] + [terminal])


def test_terminal_mean_matches_oracle_over_replicates():
    model = two_state_fixture(6)
    f = lambda s: (np.asarray(s) == 1).astype(float)
    exact = float(oracle.eta_exact(model, 6) @ np.array([0.0, 1.0]))
    vals = estimate(run_sampler(model, 400, 17, range(200)), f)
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - exact) < 4 * se


def test_gaussian_symmetry_of_terminal_mean():
    model, _ = gaussian_model(8, init_mean=0.0)
    vals = estimate(run_sampler(model, 500, 23, range(60)), lambda x: np.asarray(x)[:, 0])
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean()) < 4 * se


def test_summaries_schema():
    model = two_state_fixture(4)
    v = fixture_drift_inputs()[0].v
    _, summaries = _run_one(model, 300, seed=5, drift=lambda states: v[states])
    assert [s.k for s in summaries] == [0, 1, 2, 3, 4]
    for s in summaries[:-1]:
        assert 0 < s.ess <= 300
        assert s.log_w_max <= 0 + 1e-12 and s.log_w_min <= s.log_w_max
        assert 0 < s.eta_gtilde <= 1 + 1e-12
        assert s.eta_v >= 1.0
    last = summaries[-1]
    assert math.isnan(last.ess) and math.isnan(last.eta_gtilde)
    assert last.eta_v >= 1.0


def test_ess_formula():
    assert _ess(np.zeros(50)) == pytest.approx(50.0)
    lw = np.log(np.array([1.0, 1.0, 2.0]))
    assert _ess(lw) == pytest.approx(16.0 / 6.0)
    assert _ess(np.full(4, -np.inf)) == 0.0
    # the engine's monitor: tied weights, then weights 1 : 1 : 2 whatever the states
    table = np.stack([np.zeros(3), lw])
    model = FKModel(horizon=2, kernels=KernelFamily(sample_batch=lambda k, xs, s, rng: (xs, s)),
                    potentials=PotentialFamily(log_g=lambda k, x: table[k][None], log_g_max=0.0,
                                               statistic=lambda xs: xs),
                    initial=lambda size, rng: np.arange(size))
    _, summaries = _run_one(model, 3, seed=1, drift=lambda s: np.ones(len(s)))
    assert [s.ess for s in summaries[:2]] == pytest.approx([3.0, 16.0 / 6.0])
    assert summaries[1].log_w_max == pytest.approx(math.log(2.0))


# ------------------------------------------------------------- estimators

def test_estimate_basics():
    run = (Ensemble(states=np.full((1, 10), 3, dtype=int), stats=np.full((1, 10), 3), k=0), [[]])
    assert estimate([run], lambda s: np.ones(len(s))).tolist() == [1.0]
    assert estimate([run], lambda s: np.asarray(s, dtype=float)).tolist() == [3.0]
    # a non-finite value anywhere, or vanished weights (summaries None), leave
    # a replicate without a finite estimate
    assert np.isnan(estimate([run], lambda s: np.where(np.arange(len(s)) == 4, np.inf, 1.0)))
    assert np.isnan(estimate([run], lambda s: np.full(len(s), np.nan)))
    assert np.isnan(estimate([(run[0], [None])], lambda s: np.ones(len(s)))).all()
    pair = Ensemble(states=np.array([[np.inf, np.inf], [2.0, 4.0]]), stats=np.zeros((2, 2)), k=0)
    assert np.isnan(estimate([(pair, [None, []])], lambda s: s)).tolist() == [True, False]
    # a count batch weighs f at each label by each row's count, and f is
    # evaluated once, on the labels its rows share; a row whose weights
    # vanished reads NaN, in id order
    calls = []

    def f(s):
        calls.append(s)
        return np.asarray(s, dtype=float)

    batch = Ensemble(states=np.arange(3), stats=np.arange(3), k=0,
                     counts=np.array([[1, 0, 3], [0, 4, 0], [2, 2, 0]]))
    np.testing.assert_array_equal(estimate([(batch, [[], None, []]), run], f),
                                  [1.5, np.nan, 0.5, 3.0])
    assert len(calls) == 2
    assert np.isnan(estimate([(batch, [[]] * 3)], lambda s: np.where(s == 2, np.nan, 1.0))[0])


def test_estimate_of_finite_values_whose_sum_overflows_is_finite():
    # with no RuntimeWarning (an error in this suite): the first rows' sums
    # overflow to inf, and to inf - inf = NaN in the pairwise partial sums of
    # the third; the last row's sum does not overflow and keeps its bits
    rng = np.random.default_rng(5)
    plain = rng.standard_normal(20) * 1e300
    states = np.stack([np.full(20, 1e308), np.linspace(1.7e308, 1e307, 20),
                       np.repeat([1e308, -1e308], 10), plain])
    pop = Ensemble(states=states, stats=np.zeros(states.shape), k=0)
    got = estimate([(pop, [[]] * 4)], lambda s: s)
    top = 1.7e308
    np.testing.assert_array_equal(got[:3], [1e308, (states[1] / top).mean() * top, 0.0])
    assert got[3] == plain.mean() and np.isfinite(got).all()


def test_exchangeability_of_particle_indices():
    # particle indices exist on the per-particle path only
    model = label_model(two_state_fixture(3))
    picks = {0: [], 3: []}
    for pop, _ in run_sampler(model, 8, 41, range(400)):
        picks[0].extend(pop.states[:, 0].tolist())
        picks[3].extend(pop.states[:, 3].tolist())
    table = np.stack([np.bincount(picks[0], minlength=2), np.bincount(picks[3], minlength=2)])
    _, pval, _, _ = scipy.stats.chi2_contingency(table)
    assert pval > 1e-3


# ------------------------------------------------------------- drift monitoring

def test_particle_drift_regression_and_boundedness():
    model, fam = gaussian_model(30, init_mean=3.0)
    drift = drift_function(fam.target.sup_log_unnorm, fam.schedule.gamma_floor, 0.5)
    pairs = []
    sup_by_n = {}
    for n in (10, 30):
        model_n, _ = gaussian_model(n, init_mean=3.0)
        per_k = []
        for _, rows in run_sampler(model_n, 400, 53, range(40), drift=drift):
            for summaries in rows:
                etav = [s.eta_v for s in summaries]
                per_k.append(etav)
                pairs.extend(zip(etav[:-1], etav[1:]))
        sup_by_n[n] = float(np.max(np.mean(np.asarray(per_k), axis=0)))
    x = np.array([p[0] for p in pairs])
    y = np.array([p[1] for p in pairs])
    slope, intercept = np.polyfit(x, y, 1)
    # one-step conditional mean of eta(V) contracts: slope below 1 with a
    # bounded offset (drift probe on this target estimates lambda ~ 0.74-0.94)
    assert slope <= 0.95
    assert 0.0 <= intercept < 5.0
    # sup over steps of the mean drift statistic does not grow with the horizon
    assert sup_by_n[30] <= 3.0 * sup_by_n[10]


def test_normalizer_diagnostic_bounded_away_from_zero():
    model, fam = gaussian_model(20, init_mean=3.0)
    drift = drift_function(fam.target.sup_log_unnorm, fam.schedule.gamma_floor, 0.5)
    worst = math.inf
    for _, rows in run_sampler(model, 500, 61, range(20), drift=drift):
        for summaries in rows:
            worst = min(worst, min(s.eta_gtilde for s in summaries[:-1]))
    assert worst > 0.5
