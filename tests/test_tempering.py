import numpy as np
import pytest

from tempersmc.tempering import (
    TemperedFamily,
    TemperingSchedule,
    build_potentials,
    drift_function,
    gaussian_mixture_target,
    gaussian_target,
    linear_schedule,
    piecewise_linear_schedule,
    smoothstep_schedule,
)

GRID = np.linspace(0.0, 1.0, 10_001)


@pytest.mark.parametrize(
    "schedule",
    [
        linear_schedule(0.7),
        smoothstep_schedule(0.5),
        piecewise_linear_schedule(0.6, [(0.3, 0.7), (0.8, 0.95)]),
    ],
    ids=["linear", "smoothstep", "piecewise"],
)
def test_schedule_invariants_on_grid(schedule, request):
    g = np.asarray(schedule(GRID), dtype=float)
    assert g[0] == pytest.approx(schedule.gamma_floor, abs=1e-12)
    assert g[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(g) >= -1e-12)
    slopes = np.abs(np.diff(g)) / (GRID[1] - GRID[0])
    assert slopes.max() <= schedule.lipschitz_const * 1.01


def test_bad_schedules_rejected():
    with pytest.raises(ValueError):
        TemperingSchedule(gamma_floor=0.5, fn=lambda u: 0.5 + 0.4 * u, lipschitz_const=1.0)
    with pytest.raises(ValueError):
        TemperingSchedule(gamma_floor=0.5, fn=lambda u: 1.0 - 0.5 * u, lipschitz_const=1.0)
    with pytest.raises(ValueError):
        # declared constant too small for the actual slope
        TemperingSchedule(gamma_floor=0.5, fn=lambda u: 0.5 + 0.5 * u, lipschitz_const=0.1)
    with pytest.raises(ValueError):
        linear_schedule(0.0)


def test_build_potentials_linear_schedule_constant_increments():
    fam = TemperedFamily(gaussian_target([0.0], [1.0]), linear_schedule(0.5))
    pf = build_potentials(fam, 10)
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
        pf = build_potentials(fam, n)
        worst = max(float(np.abs(pf.log_g(k, pf.statistic(grid))).max()) for k in range(n))
        assert worst <= fam.schedule.lipschitz_const / n * max_log_pi + 1e-12
        assert worst < prev
        prev = worst


def test_drift_function_values():
    fam = TemperedFamily(gaussian_target([0.0], [1.0]), linear_schedule(0.5))
    drift = drift_function(fam, 0.5)
    at = lambda x: drift.values(fam.target.log_unnorm(x))
    assert at(np.array([[0.0]]))[0] == pytest.approx(1.0)
    assert at(np.array([[2.0]]))[0] == pytest.approx(np.exp(0.5))
    grid = np.linspace(-8.0, 8.0, 10_000)[:, None]
    assert np.all(at(grid) >= 1.0)
    with pytest.raises(ValueError):
        drift_function(fam, 1.0)


def test_negative_association_of_potentials_and_drift():
    # one-step weight differences and drift differences never share a sign
    fam = TemperedFamily(gaussian_target([0.0], [1.0]), linear_schedule(0.7))
    pf = build_potentials(fam, 7)
    drift = drift_function(fam, 0.5)
    ell = pf.statistic(np.linspace(-5.0, 5.0, 101)[:, None])
    v = drift.values(ell)
    for k in range(7):
        g = np.exp(pf.log_g(k, ell))
        prod = (g[:, None] - g[None, :]) * (v[:, None] - v[None, :])
        assert prod.max() <= 1e-15


def test_energy_norm_uniformly_bounded():
    fam = TemperedFamily(gaussian_target([0.0], [1.0]), linear_schedule(0.7))
    drift = drift_function(fam, 0.5)
    ell = fam.target.log_unnorm(np.linspace(-6.0, 6.0, 2001)[:, None])
    v = drift.values(ell)
    worst = []
    for n in (10, 100, 1000):
        pf = build_potentials(fam, n)
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
    fam = TemperedFamily(gaussian_target([0.0], [1.0]),
                         piecewise_linear_schedule(0.7, [(0.5, 0.7)]))
    pf = build_potentials(fam, 4)
    ell = np.array([-np.inf, -3.0, -0.0, 0.0, -1e308])
    for k in (0, 1):
        lw = pf.log_g(k, ell)
        np.testing.assert_array_equal(lw, 0.0)
        np.testing.assert_array_equal(np.signbit(lw), [False, True, True, False, True])
    lw = pf.log_g(2, ell)
    assert lw[0] == -np.inf and np.all(np.isfinite(lw[1:]))
    delta = np.diff(fam.schedule(np.arange(5) / 4))[2]
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
