import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tempersmc import streams
from tempersmc.finite import metropolis_matrix, tempered_chain_model
from tempersmc.rwm import rwm_kernel_family, rwm_step_batch
from tempersmc.tempering import (
    TemperedFamily,
    TemperingSchedule,
    build_potentials,
    check_ladder,
    drift_function,
    gaussian_mixture_target,
    gaussian_target,
    linear_schedule,
    smoothstep_schedule,
    step_log_weight_bound,
)

_ULP_BELOW_HALF = np.nextafter(0.5, 0.0)


@pytest.mark.parametrize("make, n, message", [
    (lambda: linear_schedule(0.5), 0, "^horizon must be >= 1, got 0$"),
    (lambda: TemperingSchedule(0.5, lambda u: np.where(u == 0.5, np.nan, 0.5 + 0.5 * u)), 2,
     "non-finite"),
    (lambda: TemperingSchedule(_ULP_BELOW_HALF, lambda u: 0.5 + 0.5 * u), 2, "endpoints"),
    (lambda: TemperingSchedule(0.5, lambda u: np.minimum(np.nextafter(1.0, 0.0), 0.5 + 0.5 * u)),
     2, "endpoints"),
    (lambda: TemperingSchedule(0.5, lambda u: np.where(u == 0.5, _ULP_BELOW_HALF, 0.5 + 0.5 * u)),
     2, "not non-decreasing"),
    (lambda: linear_schedule(0.0), 1, "gamma_floor must lie in"),
    (lambda: linear_schedule(1.5), 1, "gamma_floor must lie in"),
], ids=["horizon", "non-finite", "first", "last", "decreasing", "floor-zero", "floor-above-one"])
def test_ladder_rejections(make, n, message):
    # each ladder check is exact: one ulp off the floor, off 1 or downwards is rejected
    with pytest.raises(ValueError, match=message):
        make().ladder(n)


def _assert_exact_ladder(gammas, floor, n):
    assert gammas.shape == (n + 1,)
    assert gammas[0] == floor and gammas[-1] == 1.0
    assert np.all(np.diff(gammas) >= 0)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.floats(0.0, 1.0, exclude_min=True), st.integers(1, 10_000),
       st.sampled_from([linear_schedule, smoothstep_schedule]))
@example(floor=1.0, n=1, generator=smoothstep_schedule)
@example(floor=1e-3, n=10_000, generator=smoothstep_schedule)
def test_shipped_generators_give_exact_ladders(floor, n, generator):
    _assert_exact_ladder(generator(floor).ladder(n), floor, n)


@pytest.mark.parametrize("generator", [linear_schedule, smoothstep_schedule])
def test_shipped_generators_give_exact_ladders_at_a_million_steps(generator):
    _assert_exact_ladder(generator(0.7).ladder(10**6), 0.7, 10**6)


@pytest.mark.parametrize("n", [1, 3, 10, 10**4])
def test_caller_supplied_schedule_with_kinks_gives_exact_ladders(n):
    interpolated = TemperingSchedule(
        gamma_floor=0.6, fn=lambda u: np.interp(u, [0.0, 0.3, 0.8, 1.0], [0.6, 0.7, 0.95, 1.0]),
    )
    _assert_exact_ladder(interpolated.ladder(n), 0.6, n)


def test_check_ladder_takes_hand_given_arrays():
    # a ladder that no schedule generated passes the same exact check
    gammas = check_ladder([0.25, 0.25, 0.5, 1.0], 0.25)
    assert gammas.dtype == float
    _assert_exact_ladder(gammas, 0.25, 3)
    for bad in ([1.0], [[0.5, 1.0]]):
        with pytest.raises(ValueError, match="^ladder needs shape"):
            check_ladder(bad, 1.0)
    with pytest.raises(ValueError, match="not non-decreasing"):
        check_ladder([0.5, 0.75, 0.625, 1.0], 0.5)


def test_one_temperature_ladder_per_horizon():
    # potentials, RWM kernels and the finite chain all read the ladder they are given
    n, logw = 4, np.array([0.0, -1.0])
    fam = TemperedFamily(gaussian_target([0.0], [1.0]), smoothstep_schedule(0.5))
    gammas = fam.schedule.ladder(n)
    np.testing.assert_array_equal(gammas, fam.schedule.fn(np.arange(n + 1) / n))
    pf = build_potentials(fam, gammas)
    kf = rwm_kernel_family(fam, gammas, 1.0)
    chain = tempered_chain_model(logw, gammas, 0.5, [0.5, 0.5])
    assert chain.horizon == n
    ell = np.array([-2.0, -0.5, 0.0])
    x = np.linspace(-1.0, 1.0, 8)[:, None]
    for k in range(n):
        np.testing.assert_array_equal(pf.log_g(k, ell), (gammas[k + 1] - gammas[k]) * ell)
        np.testing.assert_array_equal(chain.finite.log_g[k], (gammas[k + 1] - gammas[k]) * logw)
        np.testing.assert_array_equal(chain.finite.kernels[k],
                                      metropolis_matrix(logw, gammas[k + 1], 0.5))
        ell = fam.target.log_unnorm(x)[None]
        direct = rwm_step_batch(fam, gammas[k + 1], 1.0, x[None], ell, [streams.stream(4, k)])
        via_family = kf.sample_batch(k + 1, x[None], ell, [streams.stream(4, k)])
        np.testing.assert_array_equal(direct[0], via_family[0])


def test_build_potentials_linear_schedule_constant_increments():
    fam = TemperedFamily(gaussian_target([0.0], [1.0]), linear_schedule(0.5))
    pf = build_potentials(fam, fam.schedule.ladder(10))
    ell = pf.statistic(np.array([2.0]))
    vals = [float(pf.log_g(k, ell)) for k in range(10)]
    np.testing.assert_allclose(vals, -0.1, atol=1e-14)
    assert pf.log_g_max == 0.0


def test_build_potentials_flattening():
    fam = TemperedFamily(gaussian_target([0.0], [1.0]), smoothstep_schedule(0.7))
    grid = np.linspace(-4.0, 4.0, 201)[:, None]
    max_log_pi = float(np.abs(fam.target.log_unnorm(grid)).max())
    prev = np.inf
    for n in (10, 100, 1000):
        gammas = fam.schedule.ladder(n)
        pf = build_potentials(fam, gammas)
        worst = max(float(np.abs(pf.log_g(k, pf.statistic(grid))).max()) for k in range(n))
        assert worst <= np.diff(gammas).max() * max_log_pi
        assert worst < prev
        prev = worst


def _mixture_bound_case(gammas):
    """(bound, sup log, step log weights) of the mixture with amplitudes 0.8 + 0.7: sup log > 0."""
    fam = TemperedFamily(gaussian_mixture_target([[-1.0], [2.0]], [[0.7], [1.2]], [0.8, 0.7]),
                         smoothstep_schedule(0.7))
    pf = build_potentials(fam, gammas)
    ell = pf.statistic(np.linspace(-6.0, 8.0, 4001)[:, None])
    return (pf.log_g_max, fam.target.sup_log_unnorm,
            np.array([pf.log_g(k, ell) for k in range(gammas.size - 1)]))


def _chain_bound_case(logw):
    def case(gammas):
        model = tempered_chain_model(logw, gammas, 0.5, np.full(len(logw), 1.0 / len(logw)))
        return model.potentials.log_g_max, max(logw), model.finite.log_g
    return case


@pytest.mark.parametrize("case", [_mixture_bound_case, _chain_bound_case([0.5, -1.0]),
                                  _chain_bound_case([-0.2, -1.0])],
                         ids=["mixture", "chain-positive", "chain-negative"])
def test_step_log_weight_bound(case):
    # one bound, max(0, max step * sup log), bounds every step log weight of every model
    for n in (1, 3, 7, 40):
        gammas = smoothstep_schedule(0.7).ladder(n)
        bound, sup_log, steps = case(gammas)
        assert bound == step_log_weight_bound(gammas, sup_log)
        assert bound == max(0.0, np.diff(gammas).max() * sup_log)
        assert np.max(steps) <= bound
        assert (bound > 0) == (sup_log > 0)


def test_drift_function_values():
    fam = TemperedFamily(gaussian_target([0.0], [1.0]), linear_schedule(0.5))
    drift = drift_function(fam.target.sup_log_unnorm, fam.schedule.gamma_floor, 0.5)
    at = lambda x: drift(fam.target.log_unnorm(x))
    assert at(np.array([[0.0]]))[0] == pytest.approx(1.0)
    assert at(np.array([[2.0]]))[0] == pytest.approx(np.exp(0.5))
    grid = np.linspace(-8.0, 8.0, 10_000)[:, None]
    assert np.all(at(grid) >= 1.0)
    with pytest.raises(ValueError):
        drift_function(fam.target.sup_log_unnorm, fam.schedule.gamma_floor, 1.0)


def test_negative_association_of_potentials_and_drift():
    # one-step weight differences and drift differences never share a sign
    fam = TemperedFamily(gaussian_target([0.0], [1.0]), linear_schedule(0.7))
    pf = build_potentials(fam, fam.schedule.ladder(7))
    drift = drift_function(fam.target.sup_log_unnorm, fam.schedule.gamma_floor, 0.5)
    ell = pf.statistic(np.linspace(-5.0, 5.0, 101)[:, None])
    v = drift(ell)
    for k in range(7):
        g = np.exp(pf.log_g(k, ell))
        prod = (g[:, None] - g[None, :]) * (v[:, None] - v[None, :])
        assert prod.max() <= 1e-15


def test_energy_norm_uniformly_bounded():
    fam = TemperedFamily(gaussian_target([0.0], [1.0]), linear_schedule(0.7))
    drift = drift_function(fam.target.sup_log_unnorm, fam.schedule.gamma_floor, 0.5)
    ell = fam.target.log_unnorm(np.linspace(-6.0, 6.0, 2001)[:, None])
    v = drift(ell)
    worst = []
    for n in (10, 100, 1000):
        pf = build_potentials(fam, fam.schedule.ladder(n))
        ratios = [
            float(np.max(-n * (pf.log_g(k, ell) - pf.log_g_max) / v)) for k in range(0, n, max(1, n // 10))
        ]
        worst.append(max(ratios))
    # bounded by a constant independent of the horizon
    assert max(worst) <= 2.0 * worst[0] + 1.0


def test_mixture_target_sup_bound_holds_on_grid():
    target = gaussian_mixture_target(
        means=[[-1.0], [2.0]], sigmas=[[0.7], [1.2]], weights=[0.4, 0.6]
    )
    grid = np.linspace(-6.0, 8.0, 4001)[:, None]
    assert float(target.log_unnorm(grid).max()) <= target.sup_log_unnorm + 1e-12


def test_zero_increment_weighs_every_particle_one():
    # a flat schedule segment gives increment 0 at steps 0 and 1 of n = 4; pi^0 = 1
    # also where the density underflowed, and 0 * (negative) stays -0.0
    flat_then_linear = TemperingSchedule(
        gamma_floor=0.7, fn=lambda u: np.interp(u, [0.0, 0.5, 1.0], [0.7, 0.7, 1.0]),
    )
    fam = TemperedFamily(gaussian_target([0.0], [1.0]), flat_then_linear)
    gammas = flat_then_linear.ladder(4)
    pf = build_potentials(fam, gammas)
    ell = np.array([-np.inf, -3.0, -0.0, 0.0, -1e308])
    for k in (0, 1):
        lw = pf.log_g(k, ell)
        np.testing.assert_array_equal(lw, 0.0)
        np.testing.assert_array_equal(np.signbit(lw), [False, True, True, False, True])
    lw = pf.log_g(2, ell)
    assert lw[0] == -np.inf and np.all(np.isfinite(lw[1:]))
    delta = np.diff(gammas)[2]
    assert delta > 0
    np.testing.assert_array_equal(lw[1:], delta * ell[1:])


def _mixture_lse(means, sigmas, weights, x):
    """The log-sum-exp of the mixture as written before the -inf guard."""
    z = (x[..., None, :] - means) / sigmas
    comp = -0.5 * np.sum(z * z, axis=-1) + np.log(weights)
    m = comp.max(axis=-1)
    return m + np.log(np.sum(np.exp(comp - m[..., None]), axis=-1))


def test_mixture_target_is_minus_inf_far_from_every_component():
    means, sigmas, weights = np.array([[-1.0], [2.0]]), np.array([[0.7], [1.2]]), np.array([0.4, 0.6])
    target = gaussian_mixture_target(means, sigmas, weights)
    far = np.array([[1e160], [-1e200], [1e308]])
    with np.errstate(over="ignore"):  # the squared distance overflows to inf
        assert np.all(target.log_unnorm(far) == -np.inf)
        assert target.log_unnorm(np.array([1e200])) == -np.inf
        assert gaussian_target([0.0], [1.0]).log_unnorm(np.array([1e200])) == -np.inf
    # every finite value keeps its bits
    grid = np.linspace(-40.0, 40.0, 8001)[:, None]
    np.testing.assert_array_equal(target.log_unnorm(grid).view(np.uint64),
                                  _mixture_lse(means, sigmas, weights, grid).view(np.uint64))


def _mixture_along_last_axis(means, sigmas, weights, x):
    """The mixture log density with the components on the last axis, guard included."""
    z = (x[..., None, :] - means) / sigmas
    comp = -0.5 * np.sum(z * z, axis=-1) + np.log(weights)
    m = comp.max(axis=-1)
    shift = np.where(m > -np.inf, m, 0.0)
    with np.errstate(divide="ignore"):
        return m + np.log(np.sum(np.exp(comp - shift[..., None]), axis=-1))


@pytest.mark.parametrize("n_comp", range(1, 8))
@pytest.mark.parametrize("d", [1, 3])
def test_mixture_target_has_the_bits_of_the_last_axis_formula(n_comp, d):
    # below 8 terms numpy sums a short last axis in order, as the target sums
    # its components one at a time; the far-out states read -inf
    rng = np.random.default_rng(100 * n_comp + d)
    means = rng.normal(0.0, 3.0, (n_comp, d))
    sigmas = rng.uniform(0.2, 2.0, (n_comp, d))
    weights = rng.uniform(0.1, 3.0, n_comp)
    target = gaussian_mixture_target(means, sigmas, weights)
    x = rng.normal(0.0, 4.0, (3, 200, d))
    x[1, ::7] = 1e160
    with np.errstate(over="ignore"):
        for batch in (x, x[0], x[1, 0], x[1, 7]):
            got = target.log_unnorm(batch)
            want = _mixture_along_last_axis(means, sigmas, weights, batch)
            assert np.shape(got) == np.shape(want) == batch.shape[:-1]
            np.testing.assert_array_equal(np.asarray(got).view(np.uint64),
                                          np.asarray(want).view(np.uint64))
        assert np.isneginf(target.log_unnorm(x[1, ::7])).all()
