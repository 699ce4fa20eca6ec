import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from finite_models import fixture_drift_inputs, random_finite_model, two_state_fixture
from tempersmc import oracle, streams
from tempersmc.fk_core import (
    FKModel,
    InitialDistribution,
    KernelFamily,
    PotentialFamily,
)
from tempersmc.finite import table_model
from tempersmc.particles import (
    Ensemble,
    TotalDegeneracyError,
    estimate,
    ess_from_log_weights,
    init_ensemble,
    run_sampler,
    smc_step,
)
from tempersmc.rwm import gaussian_increment, rwm_kernel_family, uniform_ball_increment
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


def _started(model, sampler):
    """``model`` with its initial law replaced by ``sampler``."""
    return replace(model, initial=InitialDistribution(sample=sampler))


def gaussian_model(n, init_mean=0.0, floor=0.7):
    fam = TemperedFamily(gaussian_target([0.0], [1.0]), linear_schedule(floor))
    sampler = lambda size, rng: init_mean + rng.standard_normal((size, 1))
    return FKModel(
        horizon=n,
        kernels=rwm_kernel_family(fam, n, gaussian_increment(1, 1.0)),
        potentials=build_potentials(fam, n),
        initial=InitialDistribution(sample=sampler),
    ), fam


# ------------------------------------------------------------- initialization

def test_init_dirac_all_equal():
    ens = init_ensemble(_started(two_state_model(), lambda size, rng: np.full(size, 1)), 100,
                        seed=1)
    assert np.all(ens.states == 1) and np.all(ens.stats == 1)
    assert ens.k == 0


def test_init_bit_reproducible():
    model, fam = gaussian_model(3)
    model = _started(model, lambda size, rng: rng.standard_normal((size, 1)))
    a = init_ensemble(model, 64, seed=42, replicate=3)
    b = init_ensemble(model, 64, seed=42, replicate=3)
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.stats, fam.target.log_unnorm(a.states))
    c = init_ensemble(model, 64, seed=42, replicate=4)
    assert not np.array_equal(a.states, c.states)


def test_ensemble_needs_one_statistic_per_particle():
    with pytest.raises(ValueError, match="one statistic per particle"):
        Ensemble(states=np.arange(4), stats=np.arange(3), k=0, seed=1)


def test_init_finite_frequencies():
    model = two_state_model()
    n_particles = 100_000
    ens = init_ensemble(model, n_particles, seed=9)
    counts = np.bincount(ens.states, minlength=2)
    for j, p in enumerate(model.initial.weights):
        sd = math.sqrt(n_particles * p * (1 - p))
        assert abs(counts[j] - n_particles * p) < 4 * sd


# ------------------------------------------------------------- transitions

def test_flat_weights_resample_uniformly():
    # constant potential: each new particle's law is the kernel-propagated
    # empirical measure
    n, m = 2, 3
    mats = [np.array([[0.2, 0.5, 0.3], [0.6, 0.2, 0.2], [0.1, 0.1, 0.8]])] * n
    model = table_model(mats, np.full((n, m), np.log(2.7)), np.full(m, 1 / 3))
    pattern = np.array([0, 0, 1, 2, 2, 2], dtype=int)
    n_copies = 20_000
    ens = init_ensemble(_started(model, lambda size, rng: np.tile(pattern, size // pattern.size)),
                        pattern.size * n_copies, seed=5)
    stepped, _ = smc_step(ens, model)
    freq = np.bincount(pattern, minlength=m) / pattern.size
    expected = freq @ mats[0]
    counts = np.bincount(stepped.states, minlength=m)
    _, pval = scipy.stats.chisquare(counts, expected * stepped.n_particles)
    assert pval > 1e-4


def test_single_particle_always_mutates():
    model = two_state_model()
    ens = init_ensemble(_started(model, lambda size, rng: np.ones(size, dtype=int)), 1, seed=2)
    stepped, _ = smc_step(ens, model)
    assert stepped.n_particles == 1
    assert stepped.k == 1


def test_one_step_law_matches_exact_mixture():
    # a tiled fixed ensemble: each new particle is an independent draw from
    # the reweight-then-mutate mixture of the pattern measure
    model = two_state_model()
    pattern = np.array([0, 0, 0, 1, 1], dtype=int)
    n_copies = 20_000
    ens = init_ensemble(_started(model, lambda size, rng: np.tile(pattern, size // pattern.size)),
                        pattern.size * n_copies, seed=31)
    stepped, _ = smc_step(ens, model)
    eta_pattern = np.bincount(pattern, minlength=2) / pattern.size
    expected = oracle.flow_map(model, eta_pattern, 0, 1)
    counts = np.bincount(stepped.states, minlength=2)
    _, pval = scipy.stats.chisquare(counts, expected * stepped.n_particles)
    assert pval > 1e-4


def test_step_returns_the_log_weights_it_resampled_by():
    model = two_state_model()
    ens = init_ensemble(model, 50, seed=4)
    stepped, lw = smc_step(ens, model)
    np.testing.assert_array_equal(lw, model.potentials.log_g(0, ens.states))
    assert stepped.k == 1


def test_total_degeneracy_raises():
    n, m = 2, 2
    pf = PotentialFamily(horizon=n, log_g=lambda k, x: np.full(np.asarray(x).shape, -np.inf),
                         log_g_max=0.0, statistic=lambda xs: xs)
    kf = KernelFamily(horizon=n, sample_batch=lambda k, xs, stats, rng: (xs, stats))
    model = FKModel(horizon=n, kernels=kf, potentials=pf,
                    initial=InitialDistribution(sample=lambda size, rng: np.zeros(size, dtype=int)))
    ens = init_ensemble(model, 16, seed=1)
    with pytest.raises(TotalDegeneracyError):
        smc_step(ens, model)


def _plain_search_step(ens, model):
    """Next states by the unsorted inverse-CDF search: one binary search per uniform.

    The statistics are evaluated afresh from ``ens.states``, not read from ``ens``.
    """
    k = ens.k
    stats = np.asarray(model.potentials.statistic(ens.states))
    lw = np.asarray(model.potentials.log_g(k, stats), dtype=float)
    cw = np.cumsum(np.exp(lw - lw.max()))
    rng = streams.stream(ens.seed, ens.replicate, k + 1)
    u = rng.random(ens.n_particles)
    ancestors = np.minimum(np.searchsorted(cw, u * cw[-1], side="right"), ens.n_particles - 1)
    return model.kernels.sample_batch(k + 1, ens.states[ancestors], stats[ancestors], rng)[0]


def _identity_model(log_g_table):
    """Finite-index model whose kernels keep each state, so next states are the ancestors."""
    table = np.asarray(log_g_table, dtype=float)
    n = table.shape[0]
    return FKModel(
        horizon=n,
        kernels=KernelFamily(horizon=n,
                             sample_batch=lambda k, xs, stats, rng: (np.array(xs), np.array(stats))),
        potentials=PotentialFamily(horizon=n, log_g=lambda k, x: table[k][np.asarray(x)],
                                   log_g_max=float(table.max()), statistic=lambda xs: xs),
        initial=InitialDistribution(sample=lambda size, rng: np.arange(size)),
    )


def _pin_ancestor_uniforms(monkeypatch, u):
    """Make every step stream draw ``u`` as its ancestor uniforms (identity kernels draw nothing)."""

    class Pinned:
        def random(self, size):
            assert size == len(u)
            return np.array(u, dtype=float)

    monkeypatch.setattr(streams, "stream", lambda seed, *path: Pinned())


_SEARCH_MODELS = {
    "finite": lambda: random_finite_model(np.random.default_rng(3), m=5, n=3),
    "tied": lambda: table_model([M2] * 3, np.zeros((3, 2)), np.array([0.6, 0.4])),
    "gaussian": lambda: gaussian_model(3)[0],
}


@pytest.mark.parametrize("kind", sorted(_SEARCH_MODELS))
@pytest.mark.parametrize("n_particles", [1, 2, 7, 1000, 10_000])
def test_step_draws_what_the_plain_search_draws(kind, n_particles):
    model = _SEARCH_MODELS[kind]()
    ens = init_ensemble(model, n_particles, seed=71, replicate=2)
    for _ in range(model.horizon):
        expected = _plain_search_step(ens, model)
        ens, _ = smc_step(ens, model)
        np.testing.assert_array_equal(ens.states, expected)


_CARRY_TARGETS = {
    "gaussian": lambda: gaussian_target([0.0, 1.0], [1.0, 0.5]),
    "mixture": lambda: gaussian_mixture_target([[-1.0, 0.0], [2.0, 1.0]],
                                               [[0.7, 1.0], [1.2, 0.4]], [0.4, 0.6]),
}
_CARRY_INCREMENTS = {"gaussian": lambda: gaussian_increment(2, 1.5),
                     "uniform-ball": lambda: uniform_ball_increment(2, 2.0)}


@pytest.mark.parametrize("spread", [2.0, 1e154], ids=["near", "overflowing"])
@pytest.mark.parametrize("increment", sorted(_CARRY_INCREMENTS))
@pytest.mark.parametrize("target", sorted(_CARRY_TARGETS))
def test_carried_log_density_is_the_target_density_at_every_step(target, increment, spread):
    # from the overflowing start some particles, and all of their proposals,
    # have log density -inf
    n = 6
    fam = TemperedFamily(_CARRY_TARGETS[target](), linear_schedule(0.7))
    model = FKModel(
        horizon=n,
        kernels=rwm_kernel_family(fam, n, _CARRY_INCREMENTS[increment]()),
        potentials=build_potentials(fam, n),
        initial=InitialDistribution(sample=lambda size, rng: spread * rng.standard_normal((size, 2))),
    )
    with np.errstate(over="ignore"):
        ens = init_ensemble(model, 500, seed=19)
        assert np.isneginf(ens.stats).any() == (spread > 1e100)
        for _ in range(n + 1):
            np.testing.assert_array_equal(ens.stats.view(np.uint64),
                                          fam.target.log_unnorm(ens.states).view(np.uint64))
            if ens.k < n:
                ens, _ = smc_step(ens, model)


def test_uniform_on_a_cumulative_weight_draws_the_next_particle(monkeypatch):
    # tied weights put the cumulative weights at 1..8, and u * 8 lands on them
    # exactly; a uniform equal to a cumulative weight goes to the next particle
    n_particles = 8
    u = np.array([0.125, 0.25, 0.5, 0.0, np.nextafter(1.0, 0.0), 0.375, 0.875, 0.625])
    _pin_ancestor_uniforms(monkeypatch, u)
    model = _identity_model(np.zeros((1, n_particles)))
    ens = Ensemble(states=np.arange(n_particles), stats=np.arange(n_particles), k=0, seed=5)
    stepped, _ = smc_step(ens, model)
    np.testing.assert_array_equal(stepped.states, [1, 2, 4, 0, 7, 3, 7, 5])
    np.testing.assert_array_equal(stepped.states, _plain_search_step(ens, model))


def test_step_past_terminal_rejected():
    model = two_state_model(n=1)
    ens = init_ensemble(model, 8, seed=1)
    stepped, _ = smc_step(ens, model)
    with pytest.raises(ValueError):
        smc_step(stepped, model)


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
    ens = init_ensemble(model, n_particles, seed=seed)
    for _ in range(n):
        ens, _ = smc_step(ens, model)
        assert not np.any(dead[ens.states])
    assert np.unique(ens.states).size > 1


@pytest.mark.parametrize("survivor", [0, 3, 6])
def test_single_surviving_particle_is_every_ancestor(survivor, monkeypatch):
    # the extreme uniforms too: u = 0 skips the zero weights in front of the
    # survivor, the largest u < 1 stops before the zero weights behind it
    n_particles = 7
    table = np.full((1, n_particles), -800.0)
    table[0, survivor] = 0.0
    u = np.linspace(0.0, 1.0, n_particles, endpoint=False)
    u[-1] = np.nextafter(1.0, 0.0)
    _pin_ancestor_uniforms(monkeypatch, u)
    stepped, _ = smc_step(Ensemble(states=np.arange(n_particles), stats=np.arange(n_particles),
                                   k=0, seed=3), _identity_model(table))
    np.testing.assert_array_equal(stepped.states, np.full(n_particles, survivor))


# ------------------------------------------------------------- full runs

def test_horizon_zero_returns_initial_ensemble():
    m = 2
    pf = PotentialFamily(horizon=0, log_g=lambda k, x: 0.0, log_g_max=0.0,
                         statistic=lambda xs: xs)
    kf = KernelFamily(horizon=0, sample_batch=lambda k, xs, stats, rng: (xs, stats))
    model = FKModel(horizon=0, kernels=kf, potentials=pf,
                    initial=InitialDistribution(sample=lambda size, rng: np.arange(size) % m))
    states, summaries = run_sampler(model, 10, seed=3)
    np.testing.assert_array_equal(states, np.arange(10) % m)
    assert len(summaries) == 1 and math.isnan(summaries[0].ess)


def test_terminal_mean_matches_oracle_over_replicates():
    model = two_state_fixture(6)
    f = lambda s: (np.asarray(s) == 1).astype(float)
    exact = float(oracle.eta_exact(model, 6) @ np.array([0.0, 1.0]))
    vals = []
    for r in range(200):
        states, _ = run_sampler(model, 400, seed=17, replicate=r, keep_summaries=False)
        vals.append(estimate(states, f))
    vals = np.asarray(vals)
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - exact) < 4 * se


def test_gaussian_symmetry_of_terminal_mean():
    model, _ = gaussian_model(8, init_mean=0.0)
    vals = []
    for r in range(60):
        states, _ = run_sampler(model, 500, seed=23, replicate=r, keep_summaries=False)
        vals.append(estimate(states, lambda x: np.asarray(x)[:, 0]))
    vals = np.asarray(vals)
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean()) < 4 * se


def test_summaries_schema():
    model = two_state_fixture(4)
    drift, _ = fixture_drift_inputs()
    _, summaries = run_sampler(model, 300, seed=5, drift=drift)
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
    assert ess_from_log_weights(np.zeros(50)) == pytest.approx(50.0)
    lw = np.log(np.array([1.0, 1.0, 2.0]))
    assert ess_from_log_weights(lw) == pytest.approx(16.0 / 6.0)
    assert ess_from_log_weights(np.full(4, -np.inf)) == 0.0


# ------------------------------------------------------------- estimators

def test_estimate_basics():
    states = np.full(10, 3, dtype=int)
    assert estimate(states, lambda s: np.ones(len(s))) == 1.0
    assert estimate(states, lambda s: np.asarray(s, dtype=float)) == 3.0
    with pytest.raises(ValueError, match="particle 0"):
        estimate(states, lambda s: np.full(len(s), np.nan))


def test_exchangeability_of_particle_indices():
    model = two_state_fixture(3)
    picks = {0: [], 3: []}
    for r in range(400):
        states, _ = run_sampler(model, 8, seed=41, replicate=r, keep_summaries=False)
        picks[0].append(int(states[0]))
        picks[3].append(int(states[3]))
    table = np.stack([np.bincount(picks[0], minlength=2), np.bincount(picks[3], minlength=2)])
    _, pval, _, _ = scipy.stats.chi2_contingency(table)
    assert pval > 1e-3


# ------------------------------------------------------------- drift monitoring

def test_particle_drift_regression_and_boundedness():
    model, fam = gaussian_model(30, init_mean=3.0)
    drift = drift_function(fam, 0.5)
    pairs = []
    sup_by_n = {}
    for n in (10, 30):
        model_n, _ = gaussian_model(n, init_mean=3.0)
        per_k = []
        for r in range(40):
            _, summaries = run_sampler(model_n, 400, seed=53, replicate=r, drift=drift)
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
    drift = drift_function(fam, 0.5)
    worst = math.inf
    for r in range(20):
        _, summaries = run_sampler(model, 500, seed=61, replicate=r, drift=drift)
        worst = min(worst, min(s.eta_gtilde for s in summaries[:-1]))
    assert worst > 0.5
