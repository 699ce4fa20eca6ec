import concurrent.futures
import hashlib
import json
import math
import os
import pickle
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tempersmc import cli, config, stabilitylab
from tempersmc.cli import (
    EXIT_INCONCLUSIVE, EXIT_OK, EXIT_PRECONDITION, dispatch, main, make_mapper,
)
from tempersmc.config import ConfigError, parse_config
from tempersmc.particles import BLOCK_REPLICATES, BLOCK_VALUES
from tempersmc.stabilitylab import Table

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SRC = Path(__file__).resolve().parents[1] / "src"

# Every shipped config with the overrides that shrink it to a sub-second run.
# Adding or removing a file under configs/ must update this table.  Shrunk
# bias_gaussian exits 0 by design: it did for 300 of seeds 1-300, both with
# a stream per step and with one stream per replicate, and with SFC64 streams.
SHIPPED = {
    "bias_finite": {"grids": {"n": [3, 4, 6, 8]}},
    "bias_gaussian": {"replicates": 4, "grids": {"n": [2, 3], "N": [200]}},
    "counterexample": {},
    "drift_check": {"n_proposals": 200},
    "drift_monitor": {"replicates": 2, "grids": {"n": [3, 5], "N": [20]}},
    "lemma1_audit": {"grids": {"n": [2, 3, 4]}},
    "scaling_sqrt_n": {"replicates": 2, "grids": {"n": [5], "N": [10, 40]}},
    "scaling_uniform_n": {"replicates": 2, "grids": {"n": [3, 6], "N": [20]}},
}

# SHA-256 of each shrunk run (workers=1): its CSV, and its JSON without
# `timestamp` and `config.out_dir`, re-serialized with sorted keys.  Recorded
# on numpy 2.4.6 / x86_64.  A refactor must keep these; only a change that
# declares in CHANGES.md that it alters the random draws or the law, and
# proves by test that the law holds, may record them again (ROADMAP aim 2).
# The counterexample pair was recorded again when its log margin became the
# closed form (its `rhs` and `log_margin` moved in the last digits; see
# `test_counterexample_log_margin_closed_form_accuracy`).  The two n-scaling
# pairs were recorded again when finite models began to step count vectors,
# which draws new values from the same law (see
# `test_particles.test_count_step_law_is_the_exact_multinomial`).  The
# bias_gaussian (at its new shrunk size), drift_monitor and two n-scaling
# pairs were recorded again when a replicate began to draw its initial
# population and every step from one stream, and a count step became one
# multinomial draw: new values, same law (see
# `test_particles.test_terminal_counts_follow_the_exact_count_chain`).  The
# two n-scaling pairs were recorded again when a block of finite replicates
# began to draw from one stream, one broadcast multinomial per step: new
# values, same law (see `test_particles.test_rows_of_a_block_are_independent`).
# Every pair whose run draws (bias_gaussian, drift_check, drift_monitor and
# the two n-scaling pairs) was recorded again when the streams changed from
# Philox to SFC64 words: the same draw functions of i.i.d. uniform words, so
# new values, same law (see the `streams` docstring and
# `test_streams.test_neighbouring_streams_are_independent`).
GOLDEN = {
    "bias_finite": ("767ad88dddad37a2ef88dc5e48b30bd4b2d5cf939bb254120a7f79ec0004ecc4",
                    "44a6007fdb7f775844c86df7576a2c363d9f09c40d5644238876c65dd7c4d2cc"),
    "bias_gaussian": ("93c257297409e27e6402e2fde4f376e5a976538a3a8e7780e80426a9972f81c4",
                      "c3518d6d32a358924501c8a15db11910f89256aead0b8ead87f37cfb3de8b882"),
    "counterexample": ("9f2c239dbb64f5ec0a64df0932e55643e65fa2ca01af477b9a1011a71aedf405",
                       "93223e8fba0628de88adfa6cf1d13a294709e1ca7707a2da0e6e984dabf685df"),
    "drift_check": ("c19f88257dd332d7b633301b7656609940f48a8165dd79da70af761e642f80d2",
                    "e7d8186d8b4c137539d96acb91fae0e3508869b30b8587274eaa0dc9bde028d7"),
    "drift_monitor": ("ec8577bbd7471ac90c6f3f9d1391410cdd5f9dc55db92c01aae3851220214189",
                      "797c1aee9db0b82e9928fe6b98815182ba7a1fc709e4efdfd9f7c67151f874dd"),
    "lemma1_audit": ("5634f9415799fb60cc1df47affd9ff3dcbfe358db3e7dbd4a481f0ca9908f22a",
                     "77a034df3eaf50305c42a5f8c63849bcd0ada2fdd168cd6607f883d511739b27"),
    "scaling_sqrt_n": ("9903cb0fa09997ed546c54ee2400bf7591923a0ac5f55d18366d03922ea6fafc",
                       "319dd920c639451856a95edb932f797f0f2a430bc2c39419897eee336e540162"),
    "scaling_uniform_n": ("4a536a157582078431a7c643b9bb548814b249fc0ce517cac87dec98e97c8763",
                          "eb2e552f8df80fc6d465cba69b23ece0b149d2ff8f32c624a986b7e4c1ba92f5"),
}


def _shipped(name, out, **overrides):
    raw = json.loads((CONFIGS / f"{name}.json").read_text())
    raw.update({**SHIPPED[name], "out_dir": str(out), **overrides})
    return json.dumps(raw)


def _digests(out, experiment):
    """SHA-256 of a run's CSV, and of its JSON without `timestamp` and `config.out_dir`."""
    csv = (out / f"{experiment}.csv").read_bytes()
    doc = json.loads((out / f"{experiment}.json").read_text())
    del doc["timestamp"], doc["config"]["out_dir"]
    summary = json.dumps(doc, sort_keys=True).encode()
    return tuple(hashlib.sha256(data).hexdigest() for data in (csv, summary))


@pytest.fixture
def pools(monkeypatch):
    """The size of each process pool started during the test, with two usable CPUs.

    Each pool is a real one: its tasks run in worker processes.
    """
    sizes = []

    class RecordedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordedPool)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    return sizes


def test_shipped_config_table_is_complete():
    assert sorted(p.stem for p in CONFIGS.glob("*.json")) == sorted(SHIPPED) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_config_runs_shrunk(name, tmp_path):
    parse_config((CONFIGS / f"{name}.json").read_text())
    cfg = parse_config(_shipped(name, tmp_path, workers=1))
    assert dispatch(cfg) == EXIT_OK
    assert _digests(tmp_path, cfg.experiment) == GOLDEN[name]


def test_finite_bias_decay_with_particles_keeps_its_digest(tmp_path):
    # one CSV holds the exact rows, then the particle rows at N = 1000; recorded
    # (like GOLDEN) when a block of replicates began to draw from one stream,
    # and again with SFC64 streams.  Every particle cell clears its noise
    # floor by design: this size exits 0 for 200 of seeds 1-200 with a stream
    # per step, with one stream per replicate, with one stream per block, and
    # with SFC64 streams
    cfg = parse_config(_shipped("bias_finite", tmp_path, workers=1, replicates=4,
                                grids={"n": [1, 2, 3], "N": [1000]}))
    assert dispatch(cfg) == EXIT_OK
    assert _digests(tmp_path, cfg.experiment) == (
        "b285efaec9583ae09bf4eef1abe14d5afa4295127c9251f9f0b96fe6f200f9df",
        "5eeb96daf656c4ac9492abeb1d48afee945e99ed78058a6d5aa3cf0e382363a6")


# SHA-256 pairs (as GOLDEN) of the degenerate runs below.  No shipped config
# reaches a vanished row, so `tools/same_outputs.py` cannot see these paths;
# a change to how a vanished row is stepped must keep them.  The "some" CSV
# and its used counts were recorded again with SFC64 streams
@pytest.mark.parametrize("init, used, digests", [
    ({"name": "gaussian", "sigma": [1e154]}, ["16", "15"],
     ("3b34af3a78c7c3afdcc5f992705821788819648a814f1129b775cf2332bc675b",
      "59b82dceb894d5ce5fa1dca68501fc9c2ec8116b293d2ed52152f6420c68de3a")),
    ({"name": "gaussian", "mean": [1e200]}, ["0", "0"],
     ("efdc53c4526cf131df9c7cc9b392e46415dbc05ae49897f4714c2d9f89877261",
      "c20cc0ee2411a03334faba9f352087bed32b30d6a47d00bfb910228e2b4cab93")),
], ids=["some", "all"])
def test_bias_decay_counts_degenerate_replicates(init, used, digests, tmp_path):
    # with one particle, a replicate whose initial log density overflows to -inf degenerates
    cfg = parse_config(_shipped("bias_gaussian", tmp_path, workers=1, replicates=20,
                                grids={"n": [3, 6], "N": [1]}, init=init))
    assert dispatch(cfg) == EXIT_INCONCLUSIVE
    assert _digests(tmp_path, cfg.experiment) == digests
    header, *lines = (tmp_path / "bias-decay.csv").read_text().splitlines()
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    assert [row["replicates_used"] for row in rows] == used
    assert [int(row["degenerate"]) for row in rows] == [20 - int(u) for u in used]
    assert all(row["used_in_fit"] == "0" for row in rows)
    if used == ["0", "0"]:
        assert all(row["bias"] == row["abs_bias"] == "nan" and row["std_err"] == "inf"
                   for row in rows)
    else:
        # estimates near 1e154 square past the float range; their spread does not
        assert all(0.0 < float(row["std_err"]) < math.inf for row in rows)
    summary = json.loads((tmp_path / "bias-decay.json").read_text())["summary"]
    assert summary["exact"] is None and summary["particle"]["status"] == "inconclusive"


def test_bias_decay_counts_a_non_finite_average_as_degenerate(tmp_path):
    # a quarter of the N(1e308, 1e308) initial draws overflow to +-inf (those
    # with z > 0.797 or z < -1.797).  Flat steps (gamma_floor 1) weigh every
    # particle 1 and no move is accepted, so a row's terminal values are its
    # initial ones resampled, all finite only if each of its distinct initial
    # ancestors is.  Three uniform multinomial steps of N = 1000 leave about
    # 375 of them (sd 9.5), all finite with probability about 0.75^375, 1e-47:
    # for any stream, every terminal average is non-finite
    raw = json.loads(_shipped("bias_gaussian", tmp_path, workers=1, replicates=2,
                              grids={"n": [2, 3], "N": [1000]},
                              init={"name": "gaussian", "mean": [1e308], "sigma": [1e308]}))
    raw["model"]["schedule"]["gamma_floor"] = 1.0
    code = dispatch(parse_config(json.dumps(raw)))
    doc = json.loads((tmp_path / "bias-decay.json").read_text())
    assert doc["status"] == "inconclusive" and code == doc["exit_code"] == EXIT_INCONCLUSIVE
    header, *lines = (tmp_path / "bias-decay.csv").read_text().splitlines()
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    assert [(row["n"], row["replicates_used"], row["degenerate"]) for row in rows] == [
        ("2", "0", "2"), ("3", "0", "2")]


def test_csv_identical_for_any_worker_count(pools, monkeypatch, tmp_path):
    # a block of two-state replicates at n = 50 costs B * 50 * 2^2, so a budget
    # of twice that splits each cell's two blocks and a partial one into runs
    # of two blocks and of the partial one: four uneven tasks to spread
    raw = json.loads(_shipped("scaling_sqrt_n", tmp_path))
    raw.update(replicates=2 * BLOCK_REPLICATES + 100, grids={"n": [50], "N": [10, 5000]})
    cfg = parse_config(json.dumps(raw))
    csv = {}
    with monkeypatch.context() as patched:
        patched.setattr(stabilitylab, "_TASK_STEPS", 2 * BLOCK_REPLICATES * 50 * 4)
        tasks = stabilitylab._replicate_tasks(cfg, [(50, 10), (50, 5000)])
        assert [len(reps) for *_, reps in tasks] == [2 * BLOCK_REPLICATES, 100] * 2
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            assert dispatch(replace(cfg, workers=workers, out_dir=str(out))) == EXIT_OK
            csv[workers] = (out / "n-scaling.csv").read_bytes()
    assert csv[1] == csv[2]
    assert pools == [2]
    # the continuous path: two tasks per run, each drawing its replicates from
    # their streams; a budget of the costlier cell's cost keeps each cell one
    # task, and the map of both costs more than one budget, so it has a pool
    for name in ("bias_gaussian", "drift_monitor"):
        csv = {}
        for workers in (1, 2):
            out = tmp_path / f"{name}-w{workers}"
            cfg = parse_config(_shipped(name, out, workers=workers, replicates=4))
            budget = cfg.replicates * max(cfg.grids["n"]) * cfg.grids["N"][0]
            monkeypatch.setattr(stabilitylab, "_TASK_STEPS", budget)
            cells = [(n, cfg.grids["N"][0]) for n in cfg.grids["n"]]
            assert len(stabilitylab._replicate_tasks(cfg, cells)) == 2
            assert dispatch(cfg) == EXIT_OK
            csv[workers] = (out / f"{cfg.experiment}.csv").read_bytes()
        assert csv[1] == csv[2]
    assert pools == [2] * 3


def test_continuous_csv_identical_for_any_worker_count_across_batches(pools, monkeypatch,
                                                                      tmp_path):
    # at N = 2000 a batch is BLOCK_VALUES // 2000 = 4 rows, so each cell's one
    # task of 9 replicates steps two full batches and a partial one holding a
    # single replicate; two cells make two tasks, one per worker.  A budget of
    # the n = 3 cell's cost keeps each cell one task and gives the map a pool
    n_particles = 2000
    rows = BLOCK_VALUES // n_particles
    raw = json.loads(_shipped("bias_gaussian", tmp_path))
    raw.update(replicates=2 * rows + 1, grids={"n": [2, 3], "N": [n_particles]})
    cfg = parse_config(json.dumps(raw))
    monkeypatch.setattr(stabilitylab, "_TASK_STEPS", cfg.replicates * 3 * n_particles)
    tasks = stabilitylab._replicate_tasks(cfg, [(2, n_particles), (3, n_particles)])
    assert [len(reps) for *_, reps in tasks] == [2 * rows + 1] * 2
    run_sampler, batches = stabilitylab.run_sampler, []

    def recorded(*args, **kwargs):
        runs = run_sampler(*args, **kwargs)
        batches.append([len(summaries) for _, summaries in runs])
        return runs

    csv = {}
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        with monkeypatch.context() as patched:
            patched.setattr(stabilitylab, "run_sampler", recorded)
            assert dispatch(replace(cfg, workers=workers, out_dir=str(out))) == EXIT_OK
        csv[workers] = (out / "bias-decay.csv").read_bytes()
    assert batches[:2] == [[rows, rows, 1]] * 2
    assert csv[1] == csv[2]
    assert pools == [2]


@pytest.mark.parametrize("name, overrides, cuts", [
    # a block of two-state replicates costs 4nB: a budget of 24B runs each
    # n = 2 cell (two blocks and one replicate) as one task and cuts each
    # n = 5 cell into its three blocks
    ("scaling_sqrt_n",
     {"replicates": 2 * BLOCK_REPLICATES + 1, "grids": {"n": [2, 5], "N": [10, 40]}},
     {24 * BLOCK_REPLICATES: [2 * BLOCK_REPLICATES + 1] * 2
      + [BLOCK_REPLICATES, BLOCK_REPLICATES, 1] * 2}),
    ("bias_gaussian", SHIPPED["bias_gaussian"], {}),
    ("drift_monitor", {"replicates": 5, "grids": {"n": [3, 5], "N": [20]}}, {}),
])
def test_outputs_identical_for_any_task_size(name, overrides, cuts, monkeypatch, tmp_path):
    # one unit per task (a replicate, or a block of a finite model), any uneven
    # cuts, the default budget, and one task per cell; the tasks are recorded
    # as mapped, whether they run in-process or go to the mapper
    batches, outputs = [], []
    map_tasks = stabilitylab._map_tasks

    def recorded(fn, cfg, tasks, mapper):
        batches.append([len(reps) for *_, reps in tasks])
        return map_tasks(fn, cfg, tasks, mapper)

    monkeypatch.setattr(stabilitylab, "_map_tasks", recorded)
    monkeypatch.setattr(cli, "make_mapper", lambda workers: lambda fn, items: list(map(fn, items)))
    budgets = (1, *cuts, stabilitylab._TASK_STEPS, 10**12)
    for budget in budgets:
        monkeypatch.setattr(stabilitylab, "_TASK_STEPS", budget)
        out = tmp_path / str(budget)
        cfg = parse_config(_shipped(name, out, **overrides))
        assert dispatch(cfg) == EXIT_OK
        doc = json.loads((out / f"{cfg.experiment}.json").read_text())
        outputs.append(((out / f"{cfg.experiment}.csv").read_bytes(), doc["summary"]))
    cells = len(cfg.grids["n"]) * len(cfg.grids["N"])
    unit = BLOCK_REPLICATES if cfg.model["kind"] == "finite-tempered" else 1
    assert len(batches[0]) == cells * math.ceil(cfg.replicates / unit)
    assert len(batches[-1]) == cells
    assert [batches[budgets.index(b)] for b in cuts] == list(cuts.values())
    assert all(output == outputs[0] for output in outputs)


@pytest.mark.parametrize("n, n_particles", [(1, 1), (10_000, 2)])
def test_run_rows_at_one_particle_and_at_ten_thousand_steps(n, n_particles, pools, monkeypatch,
                                                            tmp_path):
    # one particle, one step: one summarized step and the terminal row; two
    # particles over 10^4 steps.  One task per replicate, so two workers both take one
    monkeypatch.setattr(stabilitylab, "_TASK_STEPS", n * n_particles)
    csv = {}
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        cfg = parse_config(_shipped("drift_monitor", out, workers=workers, replicates=2,
                                    grids={"n": [n], "N": [n_particles]}))
        code = dispatch(cfg)
        doc = json.loads((out / "run.json").read_text())
        assert doc["exit_code"] == code and doc["summary"]["degenerate_replicates"] == 0
        csv[workers] = (out / "run.csv").read_bytes()
        assert csv[workers].count(b"\n") == 1 + cfg.replicates * sum(k + 1 for k in cfg.grids["n"])
    assert csv[1] == csv[2]
    assert pools == [2]


@pytest.mark.parametrize("name, overrides", [
    # finite-nscale's size: each of six cells costs 25 replicates of n * 2^2
    ("scaling_sqrt_n", {"replicates": 25, "grids": {"n": [5, 20], "N": [100, 1000, 10000]}}),
    ("drift_monitor", SHIPPED["drift_monitor"]),
])
def test_cheap_map_starts_no_pool(name, overrides, monkeypatch, tmp_path):
    # the map costs less than one task's budget, so two workers run it in-process
    def no_pool(max_workers):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    csv = {}
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        cfg = parse_config(_shipped(name, out, workers=workers, **overrides))
        cells = [(n, N) for n in cfg.grids["n"] for N in cfg.grids["N"]]
        assert len(stabilitylab._replicate_tasks(cfg, cells)) >= 2
        assert dispatch(cfg) == EXIT_OK
        csv[workers] = (out / f"{cfg.experiment}.csv").read_bytes()
    assert csv[1] == csv[2]


def test_task_cost_counts_the_state_dimension(pools, tmp_path):
    # a 4-d target: the map's n*N sum (400,000) is under the budget and its
    # n*N*d sum (1.6e6) over it, so two workers take its two tasks in a pool
    raw = json.loads(_shipped("bias_gaussian", tmp_path, replicates=40,
                              grids={"n": [2, 3], "N": [2000]}))
    raw["model"]["target"].update(mean=[0.0] * 4, sigma=[1.0] * 4)
    raw["init"]["mean"] = [3.0] * 4
    csv = {}
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        cfg = parse_config(json.dumps({**raw, "workers": workers, "out_dir": str(out)}))
        assert cfg.replicates * sum(n * 2000 for n in cfg.grids["n"]) < stabilitylab._TASK_STEPS
        assert len(stabilitylab._replicate_tasks(cfg, [(2, 2000), (3, 2000)])) == 2
        assert dispatch(cfg) == EXIT_OK
        csv[workers] = (out / "bias-decay.csv").read_bytes()
    assert csv[1] == csv[2]
    assert pools == [2]


def _package_env():
    """The environment with this checkout's sources first on the import path."""
    paths = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def test_dispatch_runs_without_scipy(tmp_path):
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from tempersmc.cli import dispatch\n"
        "from tempersmc.config import parse_config\n"
        "sys.exit(dispatch(parse_config(sys.argv[1])))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, _shipped("scaling_sqrt_n", tmp_path, workers=1)],
        env=_package_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_importing_the_cli_loads_no_multiprocessing():
    # the process pool is imported where a pool is made, not on every start
    script = "import sys\nimport tempersmc.cli\nsys.exit('multiprocessing' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", script], env=_package_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# (shipped config whose kind reads the key, key, value)
SCALAR_CASES = [
    ("drift_check", "gamma", 0.5),
    ("drift_check", "gamma", 3.0),
    ("drift_check", "gamma", "x"),
    ("drift_check", "gamma", True),
    ("drift_check", "n_proposals", 0),
    ("drift_check", "n_proposals", 1),
    ("drift_check", "n_proposals", 2.5),
    ("drift_check", "workers", "x"),
    ("drift_check", "workers", 0),
    ("drift_check", "workers", True),
    ("drift_monitor", "replicates", True),
    ("drift_monitor", "replicates", -1),
    # no exact table for a continuous model, so no table at all without replicates
    ("bias_gaussian", "replicates", 0),
    ("counterexample", "epsilon", "x"),
    ("counterexample", "epsilon", True),
    ("counterexample", "epsilon", 0),
    ("counterexample", "delta", "x"),
    ("counterexample", "delta", 1.0),
    ("drift_check", "alpha", "x"),
    ("drift_check", "alpha", math.inf),
    ("drift_check", "p", -1.0),
    ("drift_check", "s", 0),
    ("drift_monitor", "degeneracy_floor", "x"),
    ("drift_monitor", "degeneracy_floor", [1]),
    ("drift_monitor", "degeneracy_floor", 1.5),
    ("drift_check", "radii", 3),
    ("drift_check", "radii", []),
    ("drift_check", "out_dir", 5),
    ("drift_check", "out_dir", ""),
    ("drift_check", "seed", -1),
    ("bias_finite", "grids", None),
    # a key without default given as null is missing
    ("bias_finite", "model", None),
    ("drift_check", "radii", None),
    ("counterexample", "epsilon", None),
    ("counterexample", "delta", None),
]


@pytest.mark.parametrize("name, key, value", SCALAR_CASES)
def test_scalar_keys_validated_at_parse_time(name, key, value, tmp_path):
    text = _shipped(name, tmp_path / "out", **{key: value})
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.path == key
    assert str(err.value) != f"{key}: unknown key"  # the value was checked, not the key
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["run", str(path)]) == EXIT_PRECONDITION
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "name, key, value",
    [("drift_check", "gamma", 0.7), ("drift_check", "gamma", 1), ("drift_check", "n_proposals", 2),
     ("drift_check", "workers", None), ("drift_check", "workers", 3),
     ("bias_finite", "replicates", 0), ("counterexample", "epsilon", 1e-9),
     ("counterexample", "delta", 0), ("drift_check", "alpha", 2),
     ("drift_monitor", "degeneracy_floor", 0), ("drift_monitor", "degeneracy_floor", 1),
     ("drift_check", "radii", (0.5,))]
)
def test_scalar_keys_accept_boundary_values(name, key, value, tmp_path):
    assert getattr(parse_config(_shipped(name, tmp_path, **{key: value})), key) == value


# the shipped config of each experiment kind
KIND_CONFIGS = {"bias-decay": "bias_finite", "n-scaling": "scaling_sqrt_n",
                "drift-check": "drift_check", "counterexample": "counterexample",
                "lemma1-audit": "lemma1_audit", "run": "drift_monitor"}
UNTAKEN = [(kind, key) for kind, table in config.COMPONENTS[""][2].items()
           for key in config._TOP_LEVEL if key not in table]


def test_kind_tables_hold_every_config_field():
    # no field of the config is left that no kind reads
    tables = config.COMPONENTS[""][2]
    assert set(tables) == set(KIND_CONFIGS) == set(config.KINDS)
    taken = set().union(*tables.values())
    assert taken == set(config._TOP_LEVEL) == {
        f.name for f in fields(config.ExperimentConfig)} - {"experiment", "warnings", "checks"}


@pytest.mark.parametrize("kind, key", UNTAKEN, ids=[f"{kind}:{key}" for kind, key in UNTAKEN])
def test_kind_rejects_keys_it_does_not_read(kind, key, tmp_path, capsys):
    # even the value the key holds anyway is rejected
    text = _shipped(KIND_CONFIGS[kind], tmp_path / "out", **{key: config._TOP_LEVEL[key]})
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.path == key
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["run", str(path)]) == EXIT_PRECONDITION
    assert capsys.readouterr().err.startswith(f"error: {key}: unknown key")
    assert not (tmp_path / "out").exists()


# A one-component mixture target that drift_monitor runs with (its gaussian
# init fits any one-dimensional target); the mixture cases below spoil one entry.
MIXTURE = {"name": "gaussian-mixture", "means": [[0.0]], "sigmas": [[1.0]], "weights": [1.0]}

# (shipped config, keys to the value, new value, path the error must carry)
COMPONENT_CASES = [
    ("bias_finite", ("init",), {"name": "dirac", "stat": 1}, "init.stat"),
    ("bias_finite", ("f", "stat"), 1, "f.stat"),
    ("bias_finite", ("f", "state"), "x", "f.state"),
    # the indicator of a state the two-state model does not have is 0 everywhere
    ("bias_finite", ("f", "state"), 5, "f.state"),
    ("bias_finite", ("f", "state"), 0.5, "f.state"),
    ("bias_finite", ("f", "state"), -1, "f.state"),
    ("bias_finite", ("f",), {"name": "coordinate", "axis": 1}, "f.axis"),
    ("bias_finite", ("init", "state"), 1.5, "init.state"),
    ("bias_finite", ("init", "state"), 2, "init.state"),
    ("bias_finite", ("init",), {"name": "weights", "weights": [0.5, 0.6]}, "init.weights"),
    ("bias_finite", ("init",), {"name": "weights", "weights": [1.0]}, "init.weights"),
    ("bias_finite", ("init",), {"name": "weights"}, "init.weights"),
    ("bias_finite", ("init",), {"name": "gaussian"}, "init.name"),
    ("bias_finite", ("init",), {"name": "weights", "weights": [math.nan, 1.0]}, "init.weights"),
    ("bias_finite", ("model", "lam"), 1.0, "model.lam"),
    ("bias_finite", ("model", "move_prob"), 0, "model"),
    ("bias_finite", ("model", "log_weights"), [0.0], "model.log_weights"),
    ("bias_finite", ("model", "log_weights"), [0.0, "x"], "model.log_weights"),
    ("bias_finite", ("model", "log_weights"), [0.0, 1e300], "model.log_weights"),
    ("bias_finite", ("model", "log_weights"), [0.0, math.nan], "model.log_weights"),
    ("bias_gaussian", ("init", "sigm"), 1.0, "init.sigm"),
    ("bias_gaussian", ("init", "mean"), [1.0, 2.0], "init.mean"),
    ("bias_gaussian", ("init", "sigma"), [1.0, 2.0], "init.sigma"),
    ("bias_gaussian", ("init", "mean"), [math.nan], "init.mean"),
    ("bias_gaussian", ("init", "mean"), [-math.inf], "init.mean"),
    ("bias_gaussian", ("init", "sigma"), [math.nan], "init.sigma"),
    ("bias_gaussian", ("init", "sigma"), [math.inf], "init.sigma"),
    ("bias_gaussian", ("init", "sigma"), [0.0], "init.sigma"),
    ("bias_gaussian", ("init", "sigma"), ["x"], "init.sigma"),
    ("bias_gaussian", ("init",), {"name": "dirac"}, "init.name"),
    ("bias_gaussian", ("init",), [], "init"),
    ("bias_gaussian", ("f", "axis"), 3, "f.axis"),
    ("bias_gaussian", ("f", "axis"), -1, "f.axis"),
    ("bias_gaussian", ("f",), {"name": "indicator"}, "f.name"),
    ("bias_gaussian", ("model", "beta"), 2.0, "model.beta"),
    ("bias_gaussian", ("model", "lam"), 0.5, "model.lam"),
    ("bias_gaussian", ("model", "kind"), "x", "model.kind"),
    ("bias_gaussian", ("model", "target", "name"), "x", "model.target.name"),
    ("bias_gaussian", ("model", "target", "sigma"), [-1.0], "model.target"),
    ("bias_gaussian", ("model", "target", "mean"), [], "model.target"),
    ("bias_gaussian", ("model", "target", "mean"), [math.nan], "model.target"),
    ("bias_gaussian", ("model", "target", "sigma"), [math.nan], "model.target"),
    ("bias_gaussian", ("model", "target", "sigma"), [math.inf], "model.target"),
    ("bias_gaussian", ("model", "schedule", "gamma_floor"), 1.5, "model.schedule"),
    ("bias_gaussian", ("model", "schedule", "floor"), 0.5, "model.schedule.floor"),
    ("bias_gaussian", ("model", "increment", "scale"), "x", "model.increment"),
    ("bias_gaussian", ("model", "increment", "scale"), math.nan, "model.increment"),
    ("bias_gaussian", ("model", "increment", "scale"), math.inf, "model.increment"),
    ("bias_gaussian", ("model", "increment", "scale"), 0.0, "model.increment"),
    ("drift_check", ("model", "increment", "scale"), -1.0, "model.increment"),
    ("drift_check", ("model", "increment", "scale"), True, "model.increment"),
    ("bias_gaussian", ("model", "increment", "name"), "x", "model.increment.name"),
    ("bias_gaussian", ("grids", "N"), [50, 5000], "grids.N"),
    ("bias_gaussian", ("grids",), {"n": [5, 10]}, "grids.N"),
    ("drift_monitor", ("model", "target"), {**MIXTURE, "sigmas": [[math.nan]]}, "model.target"),
    ("drift_monitor", ("model", "target"), {**MIXTURE, "sigmas": [[0.0]]}, "model.target"),
    ("drift_monitor", ("model", "target"), {**MIXTURE, "sigmas": [[-1.0]]}, "model.target"),
    ("drift_monitor", ("model", "target"), {**MIXTURE, "means": [[math.nan]]}, "model.target"),
    ("drift_monitor", ("model", "target"), {**MIXTURE, "weights": [math.nan]}, "model.target"),
    # each amplitude is finite, but their sum is not
    ("drift_monitor", ("model", "target"),
     {**MIXTURE, "means": [[0.0], [3.0]], "sigmas": [[1.0], [1.0]], "weights": [1e308, 1e308]},
     "model.target"),
    ("drift_check", ("model", "schedule"), [], "model.schedule"),
    ("drift_check", ("radii",), [2, -1], "radii[1]"),
    ("bias_finite", ("grids",), {"n": [2], "M": [3]}, "grids.M"),
    # a repeated cell shares its seed, so it would pool the same replicates twice
    ("bias_finite", ("grids", "n"), [5, 5], "grids.n[1]"),
    ("scaling_sqrt_n", ("grids", "N"), [20, 40, 20], "grids.N[2]"),
    ("drift_check", ("radii",), [2, 4, 2.0], "radii[2]"),
    # numpy's samplers take sizes and counts below 2**63
    ("scaling_sqrt_n", ("grids", "N"), [10, 2**63], "grids.N[1]"),
    ("bias_gaussian", ("grids", "N"), [2**63], "grids.N[0]"),
    ("bias_finite", ("grids", "n"), [3, 2**63], "grids.n[1]"),
]


@pytest.mark.parametrize(
    "name, keys, value, where", COMPONENT_CASES,
    ids=[f"{name}:{'.'.join(keys)}={json.dumps(value)}"
         for name, keys, value, _ in COMPONENT_CASES],
)
def test_component_keys_validated_at_parse_time(name, keys, value, where, tmp_path, capsys):
    raw = json.loads(_shipped(name, tmp_path / "out"))
    node = raw
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    text = json.dumps(raw)
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.path == where
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["run", str(path)]) == EXIT_PRECONDITION
    assert capsys.readouterr().err.startswith(f"error: {where}: ")
    assert not (tmp_path / "out").exists()


def test_largest_grid_entry_parses(tmp_path):
    raw = json.loads(_shipped("scaling_sqrt_n", tmp_path))
    raw["grids"]["N"] = [2**63 - 1]
    assert parse_config(json.dumps(raw)).grids["N"] == (2**63 - 1,)


def test_mixture_of_the_component_cases_parses(tmp_path):
    raw = json.loads(_shipped("drift_monitor", tmp_path))
    raw["model"]["target"] = MIXTURE
    parse_config(json.dumps(raw))


def test_every_experiment_has_a_runner():
    assert set(cli._RUNNERS) == set(config.KINDS)


# (component path, name) pairs that no shipped config selects, each with its reason
UNSHIPPED = {
    ("model.schedule", "smoothstep"): "the forgetting rate depends on the schedule",
    ("init", "weights"): "the forgetting experiment takes pairs of initial laws",
    ("model.target", "gaussian-mixture"): "to be shipped: tempering matters most on it",
}


def _selected(path, spec):
    """(path, name) of each component a config selects at or below ``path``, by name or default."""
    select, default, names = config.COMPONENTS[path]
    name = spec.get(select, default)
    pairs = {(path, name)}
    for key in names[name]:
        child = config._join(path, key)
        if child in config.COMPONENTS:
            pairs |= _selected(child, spec.get(key) or {})
    return pairs


def test_every_component_name_is_shipped():
    selected = set().union(*(_selected("", json.loads(p.read_text()))
                             for p in CONFIGS.glob("*.json")))
    every = {(path, name) for path, (_, _, names) in config.COMPONENTS.items() for name in names}
    assert every - selected == set(UNSHIPPED)


def test_inconclusive_run_exits_2_with_both_outputs(tmp_path):
    # the correct start leaves no exact bias above the float floor to fit
    cfg = parse_config(_shipped("bias_finite", tmp_path, workers=1,
                                init={"name": "tempered-floor"}))
    assert dispatch(cfg) == EXIT_INCONCLUSIVE
    doc = json.loads((tmp_path / "bias-decay.json").read_text())
    assert doc["status"] == "inconclusive" and doc["exit_code"] == EXIT_INCONCLUSIVE
    assert doc["summary"]["exact"]["status"] == "inconclusive"
    assert len((tmp_path / "bias-decay.csv").read_text().splitlines()) == 1 + 4


def test_n_scaling_with_zero_error_is_inconclusive(tmp_path):
    # two equal weights and move_prob 1 swap the state at every step, so every
    # estimate is exact: each RMSE is 0, and the horizon ratio is 0 / 0
    raw = json.loads(_shipped("scaling_sqrt_n", tmp_path, workers=1, replicates=2,
                              grids={"n": [3, 4], "N": [10]},
                              init={"name": "dirac", "state": 0}))
    raw["model"].update(log_weights=[0.0, 0.0], move_prob=1.0)
    assert dispatch(parse_config(json.dumps(raw))) == EXIT_INCONCLUSIVE
    header, *lines = (tmp_path / "n-scaling.csv").read_text().splitlines()
    rmse = header.split(",").index("rmse")
    assert len(lines) == 2 and all(float(line.split(",")[rmse]) == 0.0 for line in lines)
    doc = json.loads((tmp_path / "n-scaling.json").read_text())
    assert doc["status"] == "inconclusive" and doc["summary"]["ratio_max_min"] == "nan"


@pytest.mark.parametrize("status, code", [("ok", EXIT_OK), ("failed", EXIT_PRECONDITION),
                                          ("inconclusive", EXIT_INCONCLUSIVE)])
def test_exit_code_follows_the_table_status(status, code, monkeypatch, tmp_path):
    cfg = parse_config(_shipped("counterexample", tmp_path))
    table = Table(header=("a", "b"), rows=[(1, 0.5)], status=status, body={"x": 1.0})
    monkeypatch.setitem(cli._RUNNERS, "counterexample", lambda cfg, mapper: table)
    assert dispatch(cfg) == code
    doc = json.loads((tmp_path / "counterexample.json").read_text())
    assert (doc["status"], doc["exit_code"], doc["summary"]) == (status, code, {"x": 1.0})
    assert (tmp_path / "counterexample.csv").read_text() == "a,b\n1,0.5\n"


def test_zero_entry_kernels(tmp_path):
    # move_prob 1 empties the lighter state's diagonal; the particle path runs as usual
    raw = json.loads(_shipped("scaling_sqrt_n", tmp_path / "out", workers=1))
    raw["model"]["move_prob"] = 1.0
    cfg = parse_config(json.dumps(raw))
    assert dispatch(cfg) == EXIT_OK
    assert (tmp_path / "out" / f"{cfg.experiment}.csv").is_file()


def _finite_run(out):
    """Shrunk ``scaling_sqrt_n`` as a ``run`` of two tasks."""
    raw = json.loads(_shipped("scaling_sqrt_n", out, experiment="run", replicates=4,
                              grids={"n": [3, 5], "N": [20]}))
    del raw["f"]
    return raw


def _zero_entry_run(out):
    """``_finite_run`` with chain kernels that have zero entries."""
    raw = _finite_run(out)
    raw["model"]["move_prob"] = 1.0
    return raw


def _zero_entry_audit(out):
    """Shrunk ``lemma1_audit`` whose chain kernels have zero entries."""
    raw = json.loads(_shipped("lemma1_audit", out))
    raw["model"]["move_prob"] = 1.0
    return raw


ZERO_ENTRY_ARGV = pytest.mark.parametrize(
    "argv", [["validate"], ["run", "--workers", "1"], ["run", "--workers", "2"], ["run"]],
    ids=["validate", "w1", "w2", "default"])


@ZERO_ENTRY_ARGV
def test_zero_entry_audit_fails_at_parse(argv, tmp_path, capsys):
    # the audit cannot certify these kernels; parsing builds its inputs first,
    # so validate and run agree
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_zero_entry_audit(tmp_path / "out")))
    command, *flags = argv
    assert main([command, str(path), *flags]) == EXIT_PRECONDITION
    assert capsys.readouterr().err.startswith("error: model: chain kernels have zero entries")
    assert not (tmp_path / "out").exists()


def test_audit_offsets_overflow_to_inf_quietly(tmp_path):
    # weights e^700 apart leave tilt coefficients near 3e-305, so b_d / eps
    # passes the float range: the offsets read inf, with no RuntimeWarning
    raw = json.loads(_shipped("lemma1_audit", tmp_path, grids={"n": [2, 3]}))
    raw["model"]["log_weights"] = [0.0, 700.0]
    assert dispatch(parse_config(json.dumps(raw))) == EXIT_OK
    header, *lines = (tmp_path / "lemma1-audit.csv").read_text().splitlines()
    assert header.split(",")[3:5] == ["b_printed", "b_proof"]
    assert len(lines) == 2 + 3
    assert all(line.split(",")[3:5] == ["inf", "inf"] for line in lines)


@ZERO_ENTRY_ARGV
def test_zero_entry_run_is_not_certified(argv, pools, monkeypatch, tmp_path):
    # a run monitors V and certifies nothing, so kernels with zero entries run
    # as usual and pass their floor; only the audit rejects them.  A budget of
    # the n = 5 cell's cost gives the two-worker runs a pool
    monkeypatch.setattr(stabilitylab, "_TASK_STEPS", 4 * 5 * 2**2)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_zero_entry_run(tmp_path / "out")))
    command, *flags = argv
    assert main([command, str(path), *flags]) == EXIT_OK
    assert pools == ([2] if argv in (["run", "--workers", "2"], ["run"]) else [])
    if command == "validate":
        return
    assert (tmp_path / "out" / "run.csv").is_file()
    doc = json.loads((tmp_path / "out" / "run.json").read_text())
    assert doc["status"] == "ok" and doc["summary"]["floor_ok"] is True


def test_config_error_survives_pickling():
    err = pickle.loads(pickle.dumps(ConfigError("model", "bad")))
    assert type(err) is ConfigError
    assert (err.path, str(err)) == ("model", "model: bad")


def test_config_error_in_a_worker_exits_1(pools, monkeypatch, tmp_path, capsys):
    # a run whose move probability is out of range, with its parse bypassed:
    # each of its two tasks raises ConfigError building its model in a
    # worker, and the pool hands it back intact.  A budget of the n = 5
    # cell's cost gives the map a pool
    monkeypatch.setattr(stabilitylab, "_TASK_STEPS", 4 * 5 * 2**2)
    raw = _finite_run(tmp_path / "out")
    cfg = replace(parse_config(json.dumps(raw)), model={**raw["model"], "move_prob": 1.5},
                  workers=2)
    assert len(stabilitylab._replicate_tasks(cfg, [(3, 20), (5, 20)])) == 2
    assert dispatch(cfg) == EXIT_PRECONDITION
    assert capsys.readouterr().err.startswith("error: model: move_prob must lie in (0, 1]")
    assert not (tmp_path / "out").exists()
    assert pools == [2]


def test_finite_run_builds_no_certificate(monkeypatch, tmp_path):
    # a run monitors V alone: neither parsing nor its tasks certify the kernels
    calls = []
    certify = config.finite.drift_inputs_for_chain

    def counted(*args, **kwargs):
        calls.append(args)
        return certify(*args, **kwargs)

    monkeypatch.setattr(config.finite, "drift_inputs_for_chain", counted)
    cfg = parse_config(json.dumps({**_finite_run(tmp_path / "out"), "workers": 1}))
    assert len(stabilitylab._replicate_tasks(cfg, [(3, 20), (5, 20)])) == 2
    assert dispatch(cfg) == EXIT_OK
    assert calls == []


def test_run_and_audit_read_one_drift_function(tmp_path):
    # on the shipped two-state chain the monitored V, indexed by state, is the
    # certified vector itself; on a continuous model it is the closed form at ell
    cfg = parse_config(json.dumps(_finite_run(tmp_path)))
    certified = config.build_drift_inputs(cfg)[0].v
    assert certified.shape == (2,)
    assert np.array_equal(config.build_drift(cfg)(np.arange(2)), certified)

    cfg = parse_config(_shipped("drift_monitor", tmp_path))
    beta, floor = cfg.model["beta"], cfg.model["schedule"]["gamma_floor"]
    ell = np.array([0.0, -0.5, -3.25, -40.0])  # log densities of the unit-amplitude Gaussian
    assert np.array_equal(config.build_drift(cfg)(ell), np.exp(-beta * floor * ell))


def test_finite_run_keeps_its_digest(tmp_path):
    # no GOLDEN pair is a finite run, the one particle path that monitors V by
    # state; recorded (like GOLDEN) when a block of replicates began to draw
    # from one stream, and again with SFC64 streams
    cfg = parse_config(json.dumps({**_finite_run(tmp_path), "workers": 1}))
    assert len(stabilitylab._replicate_tasks(cfg, [(3, 20), (5, 20)])) == 2
    assert dispatch(cfg) == EXIT_OK
    assert _digests(tmp_path, cfg.experiment) == (
        "e22cee00905517cea9f29ce7e1bfff4a8c5fde3521ad814e2a08b6326a96313f",
        "665a098fd5d439b88e88b003b65b9ec3c2d0e7b3e8fca8c00736f1e5a4f4c8b7")


def _mixture_drift_ratio(x, gamma, beta):
    """E[V(next)] / V(x) of one RWM step from x, and the sd of one proposal's term.

    By trapezoid quadrature over the N(0, 1) increment, for the 1-d mixture
    of ``test_drift_check_on_a_mixture_target`` (sup of the density 1), with
    the acceptance integrated as ``drift_probe`` integrates it.
    """
    def log_density(y):
        return np.log(0.5 * np.exp(-0.5 * y**2) + 0.5 * np.exp(-0.5 * ((y - 3.0) / 0.5) ** 2))

    y = np.linspace(-12.0, 12.0, 48001)
    weight = np.exp(-0.5 * y**2) / math.sqrt(2 * math.pi) * (y[1] - y[0])
    step = log_density(x + y) - log_density(x)
    accept = np.exp(np.minimum(0.0, gamma * step))
    term = accept * np.exp(-beta * gamma * step) + 1.0 - accept
    mean = float(np.sum(weight * term))
    return mean, math.sqrt(float(np.sum(weight * term**2)) - mean**2)


def test_drift_check_on_a_mixture_target(tmp_path):
    # drift-check reads no init, so the mixture's missing tempered sampler does
    # not matter.  A term of the ratio lies in [0, 2].  By quadrature the worst
    # point of shell 2 is x = -2, ratio 0.9373 with a term sd of 0.2668, and
    # of shell 4 it is x = 4, 0.8881 and 0.2752.  At 200 proposals the probe's
    # band is 4 se = 0.0755 and 0.0778: shell 2 sits 0.7 se inside it and
    # shell 4 1.8 se clear of it, so neither is pinned at that size.  At 2000
    # proposals shell 2 sits 6.5 se clear of its band (se 0.0060), and the
    # probe calls it safe unless its estimate errs by 6.5 se, a chance below
    # 1e-9 (normal approximation of the mean of 2000 bounded terms)
    raw = json.loads(_shipped("drift_check", tmp_path, workers=1, n_proposals=2000))
    raw["model"]["target"] = {"name": "gaussian-mixture", "means": [[0.0], [3.0]],
                              "sigmas": [[1.0], [0.5]], "weights": [0.5, 0.5]}
    cfg = parse_config(json.dumps(raw))
    gamma, beta = raw["model"]["schedule"]["gamma_floor"], raw["model"]["beta"]
    assert dispatch(cfg) == EXIT_OK
    exact = {x: _mixture_drift_ratio(x, gamma, beta) for x in (-2.0, 2.0, -4.0, 4.0)}
    ratio, sd = exact[-2.0]
    assert ratio == max(exact[-2.0][0], exact[2.0][0])
    margin = (1.0 - ratio) / (sd / math.sqrt(cfg.n_proposals)) - 4.0
    assert 6.4 < margin < 6.6
    # every probe point's estimate is within 6 se of its quadrature value
    header, *lines = (tmp_path / "drift-check.csv").read_text().splitlines()
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    for row in rows[:4]:
        x = float(row["radius"]) * (1.0 if row["point_index"] == "0" else -1.0)
        assert abs(float(row["ratio"]) - exact[x][0]) < 6 * float(row["std_err"])
    summary = json.loads((tmp_path / "drift-check.json").read_text())["summary"]
    assert summary["safe_radius"] == 2.0


def test_drift_check_never_names_an_unmeasured_shell_safe(tmp_path):
    # on the shipped model V overflows past r = 63.7, so every ratio on these
    # shells is nan: they have no estimate, and none is the safe radius.  At
    # r = 1e200 the target's squared radius overflows too, without a warning
    cfg = parse_config(_shipped("drift_check", tmp_path, workers=1, radii=[70, 100, 1e200]))
    assert dispatch(cfg) == EXIT_OK
    header, *lines = (tmp_path / "drift-check.csv").read_text().splitlines()
    assert [line.split(",")[2] for line in lines] == ["nan"] * 6
    summary = json.loads((tmp_path / "drift-check.json").read_text())["summary"]
    assert summary["lambda_hat"] == summary["band"] == ["nan"] * 3
    assert summary["safe_radius"] is None


def test_one_step_and_one_particle_run(tmp_path):
    cfg = parse_config(_shipped("scaling_sqrt_n", tmp_path, workers=1, replicates=2,
                                grids={"n": [1], "N": [1, 2]}))
    assert dispatch(cfg) == EXIT_OK
    assert len((tmp_path / "n-scaling.csv").read_text().splitlines()) == 3


@pytest.mark.parametrize("epsilon", [1e308, 5e-324])
def test_counterexample_out_of_float_range_is_a_config_error(epsilon, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(_shipped("counterexample", tmp_path / "out", epsilon=epsilon, delta=0.0))
    assert main(["run", str(path)]) == EXIT_PRECONDITION
    assert capsys.readouterr().err.startswith("error: epsilon: ")
    assert not (tmp_path / "out").exists()


def test_counterexample_overflow_written_as_inf(tmp_path):
    cfg = parse_config(_shipped("counterexample", tmp_path, epsilon=30.0, delta=0.5))
    assert dispatch(cfg) == EXIT_OK
    header, row = (tmp_path / "counterexample.csv").read_text().splitlines()
    values = dict(zip(header.split(","), row.split(",")))
    assert values["lhs"] == values["v_y"] == "inf"
    assert float(values["log_margin"]) > 0


def test_counterexample_searched_branch_is_written(tmp_path):
    cfg = parse_config(_shipped("counterexample", tmp_path, epsilon=1e-299, delta=1 - 2**-53))
    assert dispatch(cfg) == EXIT_OK
    header, row = (tmp_path / "counterexample.csv").read_text().splitlines()
    values = dict(zip(header.split(","), row.split(",")))
    assert values["branch"] == "searched"
    assert float(values["log_margin"]) > 0


@pytest.mark.parametrize("content", [b"{\"experiment\": \"\xff\"}", b"[" * 100_000],
                         ids=["not-utf8", "nested-too-deep"])
def test_unreadable_config_exits_1(content, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(content)
    assert main(["validate", str(path)]) == EXIT_PRECONDITION
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [[], ["run"], ["run", "CFG", "--workers", "abc"]],
                         ids=["no-command", "no-config", "workers-not-int"])
def test_usage_error_exits_1(argv, tmp_path, capsys):
    # argparse exits 2 on a usage error, which here would read as an inconclusive run
    path = tmp_path / "cfg.json"
    path.write_text(_shipped("counterexample", tmp_path / "out"))
    assert main([str(path) if arg == "CFG" else arg for arg in argv]) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert err.startswith("usage: tempersmc") and "error: " in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_flag_checked_like_the_key(workers, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(_shipped("counterexample", tmp_path / "out"))
    assert main(["run", str(path), "--workers", workers]) == EXIT_PRECONDITION
    assert capsys.readouterr().err.startswith("error: workers: ")
    assert not (tmp_path / "out").exists()


def test_pool_capped_at_cpus_and_tasks(monkeypatch):
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    assert make_mapper(64)(abs, [-1, -2, -3, -4, -5]) == [1, 2, 3, 4, 5]
    assert make_mapper(64)(abs, [-1, -2]) == [1, 2]
    assert make_mapper(None)(abs, [-1, -2, -3, -4]) == [1, 2, 3, 4]
    assert sizes == [3, 2, 3]
    # a map that would get one worker runs in-process: one task, one worker or one CPU
    assert make_mapper(64)(abs, [-7]) == [7]
    assert make_mapper(64)(abs, []) == []
    assert make_mapper(1)(abs, [-1, -2, -3]) == [1, 2, 3]
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    assert make_mapper(None)(abs, [-1, -2]) == [1, 2]
    assert sizes == [3, 2, 3]


def test_pool_sized_by_the_affinity_mask(monkeypatch):
    # a mask of one CPU on a machine of two: workers unset, the map runs in-process
    def no_pool(max_workers):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert make_mapper(None)(abs, [-1, -2, -3]) == [1, 2, 3]
    # without an affinity call the machine's count is the cap
    monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    assert cli._usable_cpus() == 2


def test_run_below_its_degeneracy_floor_fails(tmp_path):
    # started far out in the tail, the particles' eta(G~) falls far below the
    # floor: the run fails its one check and still writes both files
    cfg = parse_config(_shipped("drift_monitor", tmp_path, workers=1, replicates=2,
                                grids={"n": [3], "N": [20]},
                                init={"name": "gaussian", "mean": [60.0]}))
    assert dispatch(cfg) == EXIT_PRECONDITION
    assert (tmp_path / "run.csv").read_text().count("\n") == 1 + 2 * 4
    doc = json.loads((tmp_path / "run.json").read_text())
    assert doc["status"] == "failed" and doc["exit_code"] == EXIT_PRECONDITION
    summary = doc["summary"]
    assert summary["floor_ok"] is False and summary["min_eta_gtilde"] < 1e-70


def test_run_with_every_replicate_degenerate_is_inconclusive(tmp_path):
    # the initial log density overflows to -inf, so no replicate gives an eta(G~)
    cfg = parse_config(_shipped("drift_monitor", tmp_path, workers=1,
                                init={"name": "gaussian", "mean": [1e200]}))
    assert dispatch(cfg) == EXIT_INCONCLUSIVE
    assert (tmp_path / "run.csv").read_text().count("\n") == 1
    doc = json.loads((tmp_path / "run.json").read_text())
    assert doc["status"] == "inconclusive" and doc["exit_code"] == EXIT_INCONCLUSIVE
    summary = doc["summary"]
    assert summary["floor_ok"] is False and summary["min_eta_gtilde"] == "inf"
    assert summary["degenerate_replicates"] == 4
    assert _digests(tmp_path, cfg.experiment) == (
        "11750468644d166e10f6d75b4cfad7a4ee78a99676caa020094cb9942f12fe14",
        "71c69ce0bf14676b732e1fd988ba60647f02048cbd7f279e84c52a3d3f74c49c")


def test_run_with_some_replicates_degenerate_keeps_its_digest(tmp_path):
    # with one particle, a replicate whose initial log density overflows to
    # -inf degenerates, and the others are monitored to the horizon beside it
    # in their batch; the smallest eta(G~) of the rest is below the floor.
    # About 18% of the N(0, 1e154^2) draws overflow (|z| > 1.34); the count
    # and digests were recorded again with SFC64 streams
    cfg = parse_config(_shipped("drift_monitor", tmp_path, workers=1, replicates=20,
                                grids={"n": [3, 6], "N": [1]},
                                init={"name": "gaussian", "sigma": [1e154]}))
    assert dispatch(cfg) == EXIT_PRECONDITION
    summary = json.loads((tmp_path / "run.json").read_text())["summary"]
    assert summary["degenerate_replicates"] == 7
    rows = [line.split(",") for line in (tmp_path / "run.csv").read_text().splitlines()[1:]]
    runs = {(r[0], int(r[1])) for r in rows}
    assert len(runs) == 40 - 7 and len(rows) == sum(n + 1 for _, n in runs)
    assert _digests(tmp_path, cfg.experiment) == (
        "eb3ee5d01de49dd543c266a373e4163a30d0504424460dfd77061a11504da3f8",
        "20976f64de1788ff2dee22851111a2fe9b365ff2387e7a7c50df42781762635b")


@pytest.mark.parametrize("model, code", [
    ({"schedule": {"name": "linear", "gamma_floor": 1.0}}, EXIT_OK),
    ({"target": {"name": "gaussian-mixture", "means": [[0.0], [3.0]], "sigmas": [[1.0], [0.5]],
                 "weights": [0.5, 0.5]}}, EXIT_PRECONDITION),
], ids=["zero-increment", "mixture"])
def test_particles_at_zero_density_do_not_abort_the_replicate(model, code, tmp_path):
    # about a fifth of the initial particles overflow to log density -inf; a
    # flat schedule (gamma_floor 1: increment 0 at every step) must weigh them
    # 1, and the mixture must give them -inf, not NaN.  The mixture run's
    # smallest eta(G~) is 0, below its degeneracy floor, so it fails that check
    raw = json.loads(_shipped("drift_monitor", tmp_path, workers=1, replicates=3,
                              grids={"n": [4], "N": [200]},
                              init={"name": "gaussian", "sigma": [1e154]}))
    raw["model"].update(model)
    assert dispatch(parse_config(json.dumps(raw))) == code
    summary = json.loads((tmp_path / "run.json").read_text())["summary"]
    assert summary["degenerate_replicates"] == 0
    rows = (tmp_path / "run.csv").read_text().splitlines()[1:]
    assert len(rows) == 3 * 5
    if "schedule" in model:
        steps = [r.split(",") for r in rows if r.split(",")[2] != "4"]
        assert len(steps) == 12 and all(r[3] == "200" and r[7] == "1" for r in steps)


def test_one_density_evaluation_per_particle_step(monkeypatch, tmp_path):
    # N evaluations per replicate at init, then N per particle-step: the
    # proposals, every row of a task's one batch in one call
    evals = []
    build_family = config.build_family

    def counted_family(spec):
        fam = build_family(spec)
        log_unnorm = fam.target.log_unnorm

        def counted(x):
            evals.append(math.prod(np.shape(x)[:-1]))
            return log_unnorm(x)

        return replace(fam, target=replace(fam.target, log_unnorm=counted))

    monkeypatch.setattr(config, "build_family", counted_family)
    for name, reps, ns, n_particles in (("bias_gaussian", 3, [2, 5], 40),
                                        ("drift_monitor", 2, [3, 7], 30)):
        evals.clear()
        cfg = parse_config(_shipped(name, tmp_path, workers=1, replicates=reps,
                                    grids={"n": ns, "N": [n_particles]}))
        assert dispatch(cfg) == EXIT_OK
        assert set(evals) == {n_particles, reps * n_particles}
        assert sum(evals) == reps * n_particles * sum(n + 1 for n in ns)


@pytest.mark.parametrize("failing", ["render_summary", "write_csv"])
def test_failed_write_leaves_previous_pair(failing, monkeypatch, tmp_path):
    cfg = parse_config(_shipped("counterexample", tmp_path))
    assert dispatch(cfg) == EXIT_OK
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def broken(*args):
        raise RuntimeError(f"{failing} failed")

    monkeypatch.setattr(cli, failing, broken)
    with pytest.raises(RuntimeError, match=failing):
        dispatch(replace(cfg, epsilon=2.0))
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_outputs_take_the_mode_of_a_plain_open(umask, mode, tmp_path):
    # the mode open(path, "w") gives a new file: 0o666 less the umask
    cfg = parse_config(_shipped("counterexample", tmp_path))
    previous = os.umask(umask)
    try:
        assert dispatch(cfg) == EXIT_OK
    finally:
        os.umask(previous)
    modes = {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()}
    assert modes == {"counterexample.csv": mode, "counterexample.json": mode}


def test_dispatch_maps_only_config_errors(monkeypatch, tmp_path):
    cfg = parse_config(_shipped("counterexample", tmp_path / "out"))

    def raising(exc):
        def runner(cfg, mapper):
            raise exc
        return runner

    monkeypatch.setitem(cli._RUNNERS, "counterexample", raising(ConfigError("f", "bad")))
    assert dispatch(cfg) == EXIT_PRECONDITION
    monkeypatch.setitem(cli._RUNNERS, "counterexample", raising(ValueError("a bug")))
    with pytest.raises(ValueError, match="a bug"):
        dispatch(cfg)
    assert not (tmp_path / "out").exists()


CSV_VALUES = (
    st.booleans() | st.booleans().map(np.bool_)
    | st.integers() | st.integers(2**63, 2**80) | st.integers(-2**80, -2**63 - 1)
    | st.integers(-2**63, 2**63 - 1).map(np.int64)
    | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324])
    | st.floats().map(np.float64) | st.floats(width=32).map(np.float32)
    | st.text(alphabet="%sdg.,1 x\u00e9", max_size=6) | st.none()
)
# list rows and tuple rows; few values per row, so rows often share their types
CSV_ROWS = st.builds(lambda row, as_tuple: tuple(row) if as_tuple else row,
                     st.lists(CSV_VALUES, max_size=4), st.booleans())


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(rows=st.lists(CSV_ROWS, max_size=8))
def test_write_csv_writes_each_value_as_fmt(rows, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "fmt.csv"
    cli.write_csv(str(path), ("a", "b"), rows)
    lines = path.read_text().split("\n")
    assert lines == ["a,b", *(",".join(cli._fmt(x) for x in row) for row in rows), ""]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    yield prefix
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, prefix + (key,))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.data())
def test_any_one_mutation_parses_or_raises_config_error(data):
    raw = json.loads((CONFIGS / f"{data.draw(st.sampled_from(sorted(SHIPPED)))}.json").read_text())
    keys = data.draw(st.sampled_from(list(_paths(raw))))
    parent, node = None, raw
    for key in keys:
        parent, node = node, node[key]
    ops = ["replace"] + ["add"] * isinstance(node, dict) + ["drop"] * (parent is not None)
    op = data.draw(st.sampled_from(ops))
    if op == "add":
        node[data.draw(st.text(max_size=12))] = data.draw(JSON_VALUES)
    elif op == "drop":
        del parent[keys[-1]]
    elif parent is None:
        raw = data.draw(JSON_VALUES)
    else:
        parent[keys[-1]] = data.draw(JSON_VALUES)
    try:
        parse_config(json.dumps(raw))
    except ConfigError:
        pass
