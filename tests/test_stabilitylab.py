import json
import math
from pathlib import Path

import numpy as np
import pytest

from finite_models import fixture_drift_inputs, two_state_fixture
from tempersmc import stabilitylab
from tempersmc.cli import make_mapper
from tempersmc.config import parse_config
from tempersmc.finite import table_model
from tempersmc.fk_core import DriftSpec
from tempersmc.particles import BLOCK_REPLICATES
from tempersmc.stabilitylab import (
    bias_decay_experiment,
    drift_probe,
    lemma1_audit,
    lemma1_audit_experiment,
    r2_counterexample,
)
from tempersmc.tempering import TemperedFamily, drift_function, gaussian_target, linear_schedule


def _cfg(**overrides):
    base = {
        "experiment": "bias-decay",
        "seed": 7,
        "model": {
            "kind": "finite-tempered",
            "log_weights": [0.0, math.log(0.35)],
            "schedule": {"name": "linear", "gamma_floor": 0.7},
            "move_prob": 0.3,
        },
        "init": {"name": "dirac", "state": 0},
        "f": {"name": "indicator", "state": 1},
        "grids": {"n": [3, 5, 8, 12, 16]},
        "replicates": 0,
    }
    base.update(overrides)
    return parse_config(json.dumps(base))


# ------------------------------------------------------------- task layout

@pytest.mark.parametrize("budget", [1, 50, 24 * BLOCK_REPLICATES, 10**6, 10**12])
def test_replicate_tasks_cover_each_replicate_once_in_order(budget, monkeypatch):
    # each cell's replicates are two whole blocks and part of a third; a
    # budget of 24B runs two blocks of an n = 3 cell in one task
    monkeypatch.setattr(stabilitylab, "_TASK_STEPS", budget)
    replicates = 2 * BLOCK_REPLICATES + 13
    cfg = _cfg(experiment="n-scaling", grids={"n": [3, 40], "N": [7, 1000]},
               replicates=replicates)
    cells = [(3, 7), (3, 1000), (40, 7), (40, 1000)]
    tasks, costs = stabilitylab._replicate_tasks(cfg, cells)
    pairs = [((n, n_particles), r) for _, n, n_particles, reps in tasks for r in reps]
    assert pairs == [(cell, r) for cell in cells for r in range(replicates)]
    # a finite task is a run of whole blocks, and a block costs B n m^2, whatever N is
    m = len(cfg.model["log_weights"])
    assert costs == [len(reps) * n * m * m for _, n, _, reps in tasks]
    for _, n, n_particles, reps in tasks:
        assert reps[0] % BLOCK_REPLICATES == 0
        assert len(reps) % BLOCK_REPLICATES == 0 or reps[-1] == replicates - 1
        blocks = math.ceil(len(reps) / BLOCK_REPLICATES)
        assert blocks == 1 or blocks * BLOCK_REPLICATES * n * m * m <= budget
    if budget == 24 * BLOCK_REPLICATES:
        assert [len(reps) for _, n, _, reps in tasks if n == 3] == [2 * BLOCK_REPLICATES, 13] * 2
    if budget >= 10**6:
        assert len(tasks) == len(cells)


def test_finite_nscale_sized_run_makes_one_task_per_cell():
    # each cell's 25 replicates cost at most 25 * 20 * 2^2 = 2000, one batch
    raw = json.loads((Path(__file__).resolve().parents[1] / "configs"
                      / "scaling_sqrt_n.json").read_text())
    raw.update(replicates=25, grids={"n": [5, 20], "N": [100, 1000, 10000]})
    cfg = parse_config(json.dumps(raw))
    cells = [(n, N) for n in cfg.grids["n"] for N in cfg.grids["N"]]
    tasks, costs = stabilitylab._replicate_tasks(cfg, cells)
    assert [(n, N, reps) for _, n, N, reps in tasks] == [(*cell, tuple(range(25)))
                                                         for cell in cells]
    assert costs == [25 * n * 2**2 for n, _ in cells]


def test_gauss_trace_sized_run_makes_three_tasks():
    raw = json.loads((Path(__file__).resolve().parents[1] / "configs"
                      / "drift_monitor.json").read_text())
    raw["replicates"] = 10
    cfg = parse_config(json.dumps(raw))
    assert cfg.grids["n"] == (10, 200) and cfg.grids["N"] == (1000,)
    tasks, costs = stabilitylab._replicate_tasks(cfg, [(10, 1000), (200, 1000)])
    assert [(n, reps) for _, n, _, reps in tasks] == [
        (10, tuple(range(10))), (200, tuple(range(5))), (200, tuple(range(5, 10)))]
    assert costs == [10 * 10 * 1000, 5 * 200 * 1000, 5 * 200 * 1000]


def test_continuous_task_cost_counts_the_state_dimension():
    # a replicate of a 4-d target costs n * N * 4: 40,000 units at n = 5 and
    # 80,000 at n = 10, so 25 and 12 replicates to a task of the default budget
    raw = json.loads((Path(__file__).resolve().parents[1] / "configs"
                      / "bias_gaussian.json").read_text())
    raw["model"]["target"].update(mean=[0.0] * 4, sigma=[1.0] * 4)
    raw["init"]["mean"] = [3.0] * 4
    raw.update(replicates=30, grids={"n": [5, 10], "N": [2000]})
    cfg = parse_config(json.dumps(raw))
    tasks, costs = stabilitylab._replicate_tasks(cfg, [(5, 2000), (10, 2000)])
    sizes = {n: stabilitylab._TASK_STEPS // (n * 2000 * 4) for n in (5, 10)}
    assert sizes == {5: 25, 10: 12}
    assert [(n, reps) for _, n, _, reps in tasks] == [
        (n, tuple(range(lo, min(lo + sizes[n], 30)))) for n in (5, 10)
        for lo in range(0, 30, sizes[n])]
    assert costs == [len(reps) * n * 2000 * 4 for _, n, _, reps in tasks]


# ------------------------------------------------------------- bias decay

def _columns(table, mode=None):
    """The table's rows as {column: values}, only those of ``mode`` when given."""
    rows = [r for r in table.rows if mode is None or r[0] == mode]
    return {name: [r[i] for r in rows] for i, name in enumerate(table.header)}


def test_exact_bias_zero_from_correct_start():
    cfg = _cfg(init={"name": "tempered-floor"})
    table = bias_decay_experiment(cfg, make_mapper(1))
    for bias in _columns(table, "exact")["bias"]:
        assert abs(bias) < 1e-13
    assert table.body["exact"]["status"] == "inconclusive"  # nothing above the float floor


def test_exact_bias_decays_geometrically():
    cfg = _cfg()
    table = bias_decay_experiment(cfg, make_mapper(1))
    fit = table.body["exact"]
    assert fit["status"] == "ok"
    biases = _columns(table, "exact")["abs_bias"]
    assert all(b2 < b1 for b1, b2 in zip(biases, biases[1:]))
    assert fit["slope"] < 0
    assert fit["r_squared"] > 0.99


def test_particle_bias_noise_floor_inconclusive():
    # correct start: bias is zero, every cell sits at the noise floor
    cfg = _cfg(
        init={"name": "tempered-floor"},
        grids={"n": [3, 5], "N": [50]},
        replicates=8,
    )
    table = bias_decay_experiment(cfg, make_mapper(1))
    assert table.body["particle"]["status"] == "inconclusive"
    assert table.status == "inconclusive"


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e154, 1e300])
def test_std_err_spread_survives_squares_past_the_float_range(scale):
    # the squares of 1e154-sized deviations overflow; the spread itself does not
    good = scale * np.array([1.0, -1.0, 0.3])
    expected = scale * float(np.array([1.0, -1.0, 0.3]).std(ddof=1))
    assert stabilitylab._std(good) == pytest.approx(expected, rel=1e-15)


def test_std_err_is_the_plain_spread_where_it_is_finite():
    good = np.random.default_rng(4).normal(size=17)
    assert stabilitylab._std(good) == float(good.std(ddof=1))


# ------------------------------------------------------------- drift probe

def test_drift_probe_flat_v():
    fam = TemperedFamily(gaussian_target([0.0], [1.0]), linear_schedule(0.7))
    drift = lambda ell: np.ones(np.asarray(ell).shape[0])
    table = drift_probe(fam, 0.7, 1.0, drift, [2.0, 4.0],
                        n_proposals=2_000, seed=0)
    np.testing.assert_allclose(table.body["lambda_hat"], 1.0, atol=1e-12)
    # one (radius, point_index, ratio, std_err) row per point, numbered per shell
    assert [row[:2] for row in table.rows] == [(2.0, 0), (2.0, 1), (4.0, 0), (4.0, 1)]


def test_drift_probe_gaussian_contracts():
    fam = TemperedFamily(gaussian_target([0.0], [1.0]), linear_schedule(0.7))
    drift = drift_function(fam.target.sup_log_unnorm, fam.schedule.gamma_floor, 0.5)
    table = drift_probe(fam, 0.7, 1.0, drift, [2.0, 4.0, 6.0],
                        n_proposals=100_000, seed=3)
    assert np.all(np.diff(table.body["lambda_hat"]) < 0)
    assert table.body["lambda_hat"][-1] + table.body["band"][-1] < 1.0
    assert table.body["safe_radius"] is not None
    again = drift_probe(fam, 0.7, 1.0, drift, [2.0, 4.0, 6.0],
                        n_proposals=100_000, seed=3)
    np.testing.assert_array_equal(table.body["lambda_hat"], again.body["lambda_hat"])


def test_drift_probe_increments_that_overflow_read_nan_quietly():
    # increments of scale 1e308 overflow as they are scaled: every shell
    # reads NaN, with no RuntimeWarning, and none is named safe
    fam = TemperedFamily(gaussian_target([0.0], [1.0]), linear_schedule(0.7))
    drift = drift_function(fam.target.sup_log_unnorm, fam.schedule.gamma_floor, 0.5)
    table = drift_probe(fam, 0.7, 1e308, drift, [2.0, 4.0], n_proposals=200, seed=0)
    assert all(math.isnan(row[2]) for row in table.rows)
    assert np.isnan(table.body["lambda_hat"]).all() and table.body["safe_radius"] is None


# ------------------------------------------------------------- counterexample

def test_counterexample_psi_closed_form_matches_contours():
    eps = 1.0
    body = r2_counterexample(eps, 0.5).body
    assert body["psi_value"] == 2.0 * eps
    # unsimplified contour parameterization: the radial gap at angle phi is
    # (-eps cos phi + s) - (eps cos phi + s) with s the shared square root
    y = np.asarray(body["probe_point"])
    r = math.sqrt(y[1] ** 2 + eps**2)
    phis = np.linspace(0.0, 2 * math.pi, 3601)
    s = np.sqrt(r**2 - eps**2 * np.sin(phis) ** 2)
    h = -eps * np.cos(phis) + s
    w = eps * np.cos(phis) + s
    gaps = h - w
    assert gaps.max() == pytest.approx(2.0 * eps, abs=1e-12)
    assert abs(gaps[np.argmin(np.abs(phis - math.pi))] - 2.0 * eps) < 1e-12


@pytest.mark.parametrize("delta", [0.0, 0.5, 0.9])
def test_counterexample_strict_violation(delta):
    body = r2_counterexample(1.0, delta).body
    assert body["log_margin"] > 0
    assert body["lhs"] > body["rhs"]
    # re-computable in four arithmetic operations from the emitted values
    g1, g2 = body["g_vals"]
    v1, v2 = body["v_vals"]
    lhs = (g1 * v1 + g2 * v2) / (g1 + g2)
    rhs = (1.0 + delta) * (v1 + v2) / 2.0
    assert lhs > rhs
    assert lhs == pytest.approx(body["lhs"], rel=1e-12)


def test_counterexample_range_errors():
    # the last three: the witness radius (at least 2 epsilon and 1/epsilon)
    # leaves the float range
    for epsilon, delta in [(0.0, 0.5), (1.0, 1.0), (1e308, 0.5), (5e-324, 0.5), (1e-309, 0.0)]:
        with pytest.raises(ValueError):
            r2_counterexample(epsilon, delta)


def test_counterexample_log_margin_closed_form_accuracy():
    # the log margin at the shipped (epsilon, delta) = (1, 0.9), computed
    # with 60-digit arithmetic from the four linear-scale values at the same
    # radius
    body = r2_counterexample(1.0, 0.9).body
    assert abs(body["log_margin"] - 0.0438603207693032403052984) < 1e-16


@pytest.mark.parametrize("epsilon", [1e-8, 1.0, 1e8])
def test_counterexample_largest_delta_below_one_resolves(epsilon):
    # log 2 - log1p(delta) rounds to 0 here; log1p((1 - delta)/(1 + delta)) does not
    body = r2_counterexample(epsilon, 1.0 - 2.0**-53).body
    assert body["log_margin"] > 0


@pytest.mark.parametrize("delta, margin", [(1.0 - 2.0**-53, 5.55e-17), (1.0 - 2.0**-52, 1.11e-16)])
def test_counterexample_searches_when_the_first_radius_has_no_margin(delta, margin):
    # at the first radius the two exp(-epsilon (2r -+ epsilon)) terms, about
    # exp(-75), outweigh log1p((1 - delta)/(1 + delta)); the radius grows
    # until they vanish and the margin is that term alone
    body = r2_counterexample(1e-299, delta).body
    assert body["branch"] == "searched"
    assert body["log_margin"] == pytest.approx(margin, rel=1e-3)


@pytest.mark.parametrize("d", [-160, -100, -20, -8, 0, 8, 20, 100, 160])
@pytest.mark.parametrize("delta", [0.0, 1e-9, 0.5, 0.999999])
def test_counterexample_extreme_epsilon_resolves_directly(d, delta):
    body = r2_counterexample(10.0**d, delta).body
    assert body["branch"] == "direct" and body["log_margin"] > 0
    values = (body["lhs"], body["rhs"], body["log_margin"], *body["witness"][0],
              *body["witness"][1], *body["g_vals"], *body["v_vals"])
    assert not any(math.isnan(x) for x in values)


@pytest.mark.parametrize(
    "epsilon, delta",
    [(13.0, 0.0), (13.0, 0.5), (13.0, 0.9), (30.0, 0.0), (30.0, 0.5), (30.0, 0.9),
     (0.03, 0.5), (0.05, 0.9)],
)
def test_counterexample_beyond_float_range_decided_in_log_domain(epsilon, delta):
    # exp((r + epsilon)^2) overflows; the witness is still found in the log domain
    body = r2_counterexample(epsilon, delta).body
    assert body["log_margin"] > 0
    assert max(body["v_vals"]) == math.inf
    assert all(0.0 <= g < math.inf for g in body["g_vals"])


# ------------------------------------------------------------- lemma-1 audit

def test_lemma1_flat_model_passes():
    row = np.array([0.5, 0.25, 0.25])
    mats = [np.stack([np.roll(row, i) for i in range(3)])] * 4
    model = table_model(mats, np.zeros((4, 3)), row)
    drift = DriftSpec(v=np.ones(3), lam=0.5, level_d=1.0, b_d=1.0)
    eps = 3 * 0.25
    table = lemma1_audit([model], drift, (eps, np.full(3, 1 / 3)))
    assert table.status == "ok" and table.body["all_pass"]
    np.testing.assert_allclose(_columns(table)["eps_nk"], eps, atol=1e-14)


def test_lemma1_fixture_grid_passes_with_stable_eps():
    drift, minor = fixture_drift_inputs()
    models = [two_state_fixture(n) for n in (2, 5, 10, 30, 1000)]
    table = lemma1_audit(models, drift, minor)
    assert table.status == "ok" and table.body["all_pass"]
    assert table.body["inf_eps"] > 0
    inf_eps = table.body["per_n_inf_eps"]
    assert inf_eps["30"] / inf_eps["5"] >= 0.5
    # the tilted minorization constant does not vanish at a very large horizon
    assert inf_eps["1000"] / inf_eps["5"] >= 0.5


def test_lemma1_single_step_horizon():
    drift, minor = fixture_drift_inputs()
    table = lemma1_audit([two_state_fixture(1)], drift, minor)
    assert table.status == "ok" and table.body["all_pass"]
    (row,) = table.rows
    assert row[:2] == (1, 1) and row[5:] == (True, True, True, True)
    assert table.body["per_n_inf_eps"] == {"1": row[2]} and table.body["inf_eps"] == row[2]


def test_lemma1_very_large_horizon():
    # ten thousand steps in one stack; the tilt coefficient stays where it was at n = 30
    drift, minor = fixture_drift_inputs()
    table = lemma1_audit([two_state_fixture(30), two_state_fixture(10_000)], drift, minor)
    assert table.status == "ok" and table.body["all_pass"]
    assert len(table.rows) == 10_030
    inf_eps = table.body["per_n_inf_eps"]
    assert inf_eps["10000"] == pytest.approx(inf_eps["30"], rel=0.01)


def test_lemma1_broken_inputs_flagged():
    drift, minor = fixture_drift_inputs()
    broken = DriftSpec(v=drift.v, lam=0.001, level_d=drift.level_d, b_d=1e-9)
    table = lemma1_audit([two_state_fixture(4)], broken, minor)
    assert table.status == "failed" and not table.body["all_pass"]
    failures = table.body["a2_failures"]
    assert failures
    assert any("drift fails for kernel" in msg for msg in failures)


def test_lemma1_audit_golden_values():
    # recorded from the per-step implementation that recomputed every
    # future-mass vector; the audit draws no random numbers, so it is exact
    text = (Path(__file__).resolve().parents[1] / "configs" / "lemma1_audit.json").read_text()
    table = lemma1_audit_experiment(parse_config(text))
    assert table.body["inf_eps"] == float.fromhex("0x1.863f1b576012dp-3")
    assert table.status == "ok" and len(table.rows) == sum(range(2, 31))
    x = float.fromhex
    golden = [
        (2, 1, x("0x1.8e598f0b5c7d2p-3"), x("0x1.53c7a2584d666p+1"), x("0x1.40886468768ebp+1")),
        (2, 2, x("0x1.ada6612839041p-3"), x("0x1.40886468768ebp+1"), x("0x1.292e9163b9172p+1")),
        (30, 1, x("0x1.87b147d296de5p-3"), x("0x1.4710c381b0974p+1"), x("0x1.45fb0cd38738ap+1")),
        (30, 30, x("0x1.ada6612839041p-3"), x("0x1.2abde8b96b19dp+1"), x("0x1.292e9163b9172p+1")),
    ]
    rows = {row[:2]: row for row in table.rows}
    for n, k, eps_nk, b_printed, b_proof in golden:
        assert rows[n, k] == (n, k, eps_nk, b_printed, b_proof, True, True, True, True)
