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
    x = np.array([2.0])
    vals = [float(pf.log_g(k, x)) for k in range(10)]
    np.testing.assert_allclose(vals, -0.1, atol=1e-14)
    assert pf.log_g_max == 0.0


def test_build_potentials_flattening():
    fam = TemperedFamily(gaussian_target([0.0], [1.0]), smoothstep_schedule(0.7))
    grid = np.linspace(-4.0, 4.0, 201)[:, None]
    max_log_pi = float(np.abs(fam.target.log_unnorm(grid)).max())
    prev = np.inf
    for n in (10, 100, 1000):
        pf = build_potentials(fam, n)
        worst = max(float(np.abs(pf.log_g(k, grid)).max()) for k in range(n))
        assert worst <= fam.schedule.lipschitz_const / n * max_log_pi + 1e-12
        assert worst < prev
        prev = worst


def test_drift_function_values():
    fam = TemperedFamily(gaussian_target([0.0], [1.0]), linear_schedule(0.5))
    drift = drift_function(fam, 0.5)
    assert drift.values(np.array([[0.0]]))[0] == pytest.approx(1.0)
    assert drift.values(np.array([[2.0]]))[0] == pytest.approx(np.exp(0.5))
    grid = np.linspace(-8.0, 8.0, 10_000)[:, None]
    assert np.all(drift.values(grid) >= 1.0)
    with pytest.raises(ValueError):
        drift_function(fam, 1.0)


def test_negative_association_of_potentials_and_drift():
    # one-step weight differences and drift differences never share a sign
    fam = TemperedFamily(gaussian_target([0.0], [1.0]), linear_schedule(0.7))
    pf = build_potentials(fam, 7)
    drift = drift_function(fam, 0.5)
    grid = np.linspace(-5.0, 5.0, 101)[:, None]
    v = drift.values(grid)
    for k in range(7):
        g = np.exp(pf.log_g(k, grid))
        prod = (g[:, None] - g[None, :]) * (v[:, None] - v[None, :])
        assert prod.max() <= 1e-15


def test_energy_norm_uniformly_bounded():
    fam = TemperedFamily(gaussian_target([0.0], [1.0]), linear_schedule(0.7))
    drift = drift_function(fam, 0.5)
    grid = np.linspace(-6.0, 6.0, 2001)[:, None]
    v = drift.values(grid)
    worst = []
    for n in (10, 100, 1000):
        pf = build_potentials(fam, n)
        ratios = [
            float(np.max(-n * (pf.log_g(k, grid) - pf.log_g_max) / v)) for k in range(0, n, max(1, n // 10))
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
