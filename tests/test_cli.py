import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tempersmc import cli, config, stabilitylab
from tempersmc.cli import (
    EXIT_INCONCLUSIVE, EXIT_OK, EXIT_PRECONDITION, dispatch, main, make_mapper,
)
from tempersmc.config import ConfigError, parse_config
from tempersmc.stabilitylab import Table

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SRC = Path(__file__).resolve().parents[1] / "src"

# Every shipped config with the overrides that shrink it to a sub-second run.
# Adding or removing a file under configs/ must update this table.
SHIPPED = {
    "bias_finite": {"grids": {"n": [3, 4, 6, 8]}},
    "bias_gaussian": {"replicates": 2, "grids": {"n": [5, 10], "N": [50]}},
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
# `test_counterexample_log_margin_closed_form_accuracy`).
GOLDEN = {
    "bias_finite": ("767ad88dddad37a2ef88dc5e48b30bd4b2d5cf939bb254120a7f79ec0004ecc4",
                    "44a6007fdb7f775844c86df7576a2c363d9f09c40d5644238876c65dd7c4d2cc"),
    "bias_gaussian": ("92156fc43470156571e5b273121fd4567a34e7a847f2e1678d3f620ed3124c99",
                      "7894fffdc1972a8389504be9baa80c023b1ba4ab2eb81f20986023cefe933d8d"),
    "counterexample": ("9f2c239dbb64f5ec0a64df0932e55643e65fa2ca01af477b9a1011a71aedf405",
                       "93223e8fba0628de88adfa6cf1d13a294709e1ca7707a2da0e6e984dabf685df"),
    "drift_check": ("972c3c5dc84fe14b8e71873fdeb4fba74b3c192bd709e8073b689f67740b193f",
                    "11799c3ef98c4a78686597c1fa24f02b9beb465f84a42238f026278ad5c41999"),
    "drift_monitor": ("b543fe2f9729ce88fe8bfa403f875bf9f86ed03c9217667959ac8e6b881f409f",
                      "51c422f863fc904b1ae2e2a0f6781ec4493420fe9c0cdc826948bbb7b91050a3"),
    "lemma1_audit": ("5634f9415799fb60cc1df47affd9ff3dcbfe358db3e7dbd4a481f0ca9908f22a",
                     "77a034df3eaf50305c42a5f8c63849bcd0ada2fdd168cd6607f883d511739b27"),
    "scaling_sqrt_n": ("298e3894599407b384fb99761961f377f29ca468f7c63639390597960721c9af",
                       "02c89c2a93ed364a6527db69bc13e542f808a3f6bb70b9d67f9c06bafe7360fa"),
    "scaling_uniform_n": ("5b8f0a25f5ee194c30098de940d7c2642d6f891154ed66c05c30246006a1a93e",
                          "9e733b8b9f767439f114303e7bcd25fc40730a26351307d4eddbb49a3e3dd8b5"),
}


def _shipped(name, out, **overrides):
    raw = json.loads((CONFIGS / f"{name}.json").read_text())
    raw.update({**SHIPPED[name], "out_dir": str(out), **overrides})
    return json.dumps(raw)


def test_shipped_config_table_is_complete():
    assert sorted(p.stem for p in CONFIGS.glob("*.json")) == sorted(SHIPPED) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_config_runs_shrunk(name, tmp_path):
    parse_config((CONFIGS / f"{name}.json").read_text())
    cfg = parse_config(_shipped(name, tmp_path, workers=1))
    assert dispatch(cfg) == EXIT_OK
    csv = (tmp_path / f"{cfg.experiment}.csv").read_bytes()
    doc = json.loads((tmp_path / f"{cfg.experiment}.json").read_text())
    assert doc["exit_code"] == EXIT_OK
    del doc["timestamp"], doc["config"]["out_dir"]
    summary = json.dumps(doc, sort_keys=True).encode()
    digests = tuple(hashlib.sha256(data).hexdigest() for data in (csv, summary))
    assert digests == GOLDEN[name]


def test_csv_identical_for_any_worker_count(tmp_path):
    # a cell of 250,000 particle-steps per replicate splits its 6 replicates
    # into blocks of 4 and 2; with the one-task cell, three uneven tasks to spread
    raw = json.loads(_shipped("scaling_sqrt_n", tmp_path))
    raw.update(replicates=6, grids={"n": [50], "N": [10, 5000]})
    cfg = parse_config(json.dumps(raw))
    tasks = stabilitylab._replicate_tasks(cfg, [(50, 10), (50, 5000)])
    assert [len(reps) for *_, reps in tasks] == [6, 4, 2]
    csv = {}
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        assert dispatch(replace(cfg, workers=workers, out_dir=str(out))) == EXIT_OK
        csv[workers] = (out / "n-scaling.csv").read_bytes()
    assert csv[1] == csv[2]


@pytest.mark.parametrize("name, overrides", [
    ("scaling_sqrt_n", {"replicates": 5, "grids": {"n": [2, 5], "N": [10, 40]}}),
    ("bias_gaussian", {"replicates": 5, "grids": {"n": [3, 6], "N": [30]}}),
    ("drift_monitor", {"replicates": 5, "grids": {"n": [3, 5], "N": [20]}}),
])
def test_outputs_identical_for_any_task_size(name, overrides, monkeypatch, tmp_path):
    # one replicate per task, the default budget, and one task per cell
    task_counts, outputs = [], []

    def serial(fn, items):
        task_counts.append(len(items))
        return [fn(x) for x in items]

    monkeypatch.setattr(cli, "make_mapper", lambda workers: serial)
    for budget in (1, stabilitylab._TASK_STEPS, 10**12):
        monkeypatch.setattr(stabilitylab, "_TASK_STEPS", budget)
        out = tmp_path / str(budget)
        cfg = parse_config(_shipped(name, out, **overrides))
        assert dispatch(cfg) == EXIT_OK
        doc = json.loads((out / f"{cfg.experiment}.json").read_text())
        outputs.append(((out / f"{cfg.experiment}.csv").read_bytes(), doc["summary"]))
    cells = len(cfg.grids["n"]) * len(cfg.grids["N"])
    assert task_counts[0] == cells * cfg.replicates and task_counts[-1] == cells
    assert outputs[0] == outputs[1] == outputs[2]


def test_dispatch_runs_without_scipy(tmp_path):
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from tempersmc.cli import dispatch\n"
        "from tempersmc.config import parse_config\n"
        "sys.exit(dispatch(parse_config(sys.argv[1])))\n"
    )
    paths = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run(
        [sys.executable, "-c", script, _shipped("scaling_sqrt_n", tmp_path, workers=1)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "key, value",
    [
        ("gamma", 0.5),
        ("gamma", 3.0),
        ("gamma", "x"),
        ("gamma", True),
        ("n_proposals", 0),
        ("n_proposals", 1),
        ("n_proposals", 2.5),
        ("workers", "x"),
        ("workers", 0),
        ("workers", True),
        ("replicates", True),
        ("replicates", -1),
        ("epsilon", "x"),
        ("epsilon", True),
        ("epsilon", 0),
        ("delta", "x"),
        ("delta", 1.0),
        ("alpha", "x"),
        ("alpha", math.inf),
        ("p", -1.0),
        ("s", 0),
        ("degeneracy_floor", "x"),
        ("degeneracy_floor", [1]),
        ("degeneracy_floor", 1.5),
        ("radii", 3),
        ("radii", []),
        ("out_dir", 5),
        ("out_dir", ""),
        ("seed", -1),
        ("grids", None),
    ],
)
def test_scalar_keys_validated_at_parse_time(key, value, tmp_path):
    text = _shipped("drift_check", tmp_path / "out", **{key: value})
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.path == key
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["run", str(path)]) == EXIT_PRECONDITION
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, value", [("gamma", 0.7), ("gamma", 1), ("n_proposals", 2), ("workers", None),
                   ("workers", 3), ("replicates", 0), ("epsilon", 1e-9), ("delta", 0),
                   ("alpha", 2), ("degeneracy_floor", 0), ("degeneracy_floor", 1),
                   ("radii", (0.5,))]
)
def test_scalar_keys_accept_boundary_values(key, value, tmp_path):
    assert getattr(parse_config(_shipped("drift_check", tmp_path, **{key: value})), key) == value


# A one-component mixture target that drift_monitor runs with (its gaussian
# init fits any one-dimensional target); the mixture cases below spoil one entry.
MIXTURE = {"name": "gaussian-mixture", "means": [[0.0]], "sigmas": [[1.0]], "weights": [1.0]}

# (shipped config, keys to the value, new value, path the error must carry)
COMPONENT_CASES = [
    ("bias_finite", ("init",), {"name": "dirac", "stat": 1}, "init.stat"),
    ("bias_finite", ("f", "stat"), 1, "f.stat"),
    ("bias_finite", ("f", "state"), "x", "f.state"),
    ("bias_finite", ("f",), {"name": "coordinate", "axis": 1}, "f.axis"),
    ("bias_finite", ("init", "state"), 1.5, "init.state"),
    ("bias_finite", ("init", "state"), 2, "init.state"),
    ("bias_finite", ("init",), {"name": "weights", "weights": [0.5, 0.6]}, "init.weights"),
    ("bias_finite", ("init",), {"name": "weights", "weights": [1.0]}, "init.weights"),
    ("bias_finite", ("init",), {"name": "weights"}, "init.weights"),
    ("bias_finite", ("init",), {"name": "point"}, "init.name"),
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
    ("bias_gaussian", ("init",), {"name": "point", "point": [1.0, 2.0]}, "init.point"),
    ("bias_gaussian", ("init",), {"name": "dirac"}, "init.name"),
    ("bias_gaussian", ("init",), [], "init"),
    ("bias_gaussian", ("f", "axis"), 3, "f.axis"),
    ("bias_gaussian", ("f", "axis"), -1, "f.axis"),
    ("bias_gaussian", ("f",), {"name": "constant", "value": "x"}, "f.value"),
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
    ("bias_gaussian", ("model", "increment"), {"name": "uniform-ball", "radius": math.nan},
     "model.increment"),
    ("bias_gaussian", ("model", "increment"), {"name": "uniform-ball", "radius": math.inf},
     "model.increment"),
    ("bias_gaussian", ("model", "increment", "name"), "x", "model.increment.name"),
    ("bias_gaussian", ("grids", "N"), [50, 5000], "grids.N"),
    ("bias_gaussian", ("grids",), {"n": [5, 10]}, "grids.N"),
    ("drift_monitor", ("init",), {"name": "point", "point": [math.nan]}, "init.point"),
    ("drift_monitor", ("model", "target"), {**MIXTURE, "sigmas": [[math.nan]]}, "model.target"),
    ("drift_monitor", ("model", "target"), {**MIXTURE, "sigmas": [[0.0]]}, "model.target"),
    ("drift_monitor", ("model", "target"), {**MIXTURE, "sigmas": [[-1.0]]}, "model.target"),
    ("drift_monitor", ("model", "target"), {**MIXTURE, "means": [[math.nan]]}, "model.target"),
    ("drift_monitor", ("model", "target"), {**MIXTURE, "weights": [math.nan]}, "model.target"),
    ("drift_check", ("model", "schedule"), [], "model.schedule"),
    ("drift_check", ("radii",), [2, -1], "radii[1]"),
    ("drift_check", ("grids",), {"n": [2], "M": [3]}, "grids.M"),
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


def test_mixture_of_the_component_cases_parses(tmp_path):
    raw = json.loads(_shipped("drift_monitor", tmp_path))
    raw["model"]["target"] = MIXTURE
    parse_config(json.dumps(raw))


def test_every_experiment_has_a_runner():
    assert set(cli._RUNNERS) == set(config.KINDS)


def test_inconclusive_run_exits_2_with_both_outputs(tmp_path):
    # the correct start leaves no exact bias above the float floor to fit
    cfg = parse_config(_shipped("bias_finite", tmp_path, workers=1,
                                init={"name": "tempered-floor"}))
    assert dispatch(cfg) == EXIT_INCONCLUSIVE
    doc = json.loads((tmp_path / "bias-decay.json").read_text())
    assert doc["status"] == "inconclusive" and doc["exit_code"] == EXIT_INCONCLUSIVE
    assert doc["summary"]["exact"]["status"] == "inconclusive"
    assert len((tmp_path / "bias-decay.csv").read_text().splitlines()) == 1 + 4


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


@pytest.mark.parametrize(
    "name, code", [("lemma1_audit", EXIT_PRECONDITION), ("scaling_sqrt_n", EXIT_OK)]
)
def test_zero_entry_kernels(name, code, tmp_path, capsys):
    # move_prob 1 empties the lighter state's diagonal: the audit cannot
    # minorize on the whole space, the particle path runs as usual
    raw = json.loads(_shipped(name, tmp_path / "out", workers=1))
    raw["model"]["move_prob"] = 1.0
    cfg = parse_config(json.dumps(raw))
    assert dispatch(cfg) == code
    if code == EXIT_OK:
        assert (tmp_path / "out" / f"{cfg.experiment}.csv").is_file()
    else:
        assert capsys.readouterr().err.startswith(
            "error: model: chain kernels have zero entries")
        assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("content", [b"{\"experiment\": \"\xff\"}", b"[" * 100_000],
                         ids=["not-utf8", "nested-too-deep"])
def test_unreadable_config_exits_1(content, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(content)
    assert main(["validate", str(path)]) == EXIT_PRECONDITION
    assert capsys.readouterr().err.startswith("error: ")


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

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    assert make_mapper(64)(abs, [-1, -2, -3, -4, -5]) == [1, 2, 3, 4, 5]
    assert make_mapper(64)(abs, [-1, -2]) == [1, 2]
    assert make_mapper(None)(abs, [-1, -2, -3, -4]) == [1, 2, 3, 4]
    assert sizes == [3, 2, 3]
    # a map that would get one worker runs in-process: one task, one worker or one CPU
    assert make_mapper(64)(abs, [-7]) == [7]
    assert make_mapper(64)(abs, []) == []
    assert make_mapper(1)(abs, [-1, -2, -3]) == [1, 2, 3]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
    assert make_mapper(None)(abs, [-1, -2]) == [1, 2]
    assert sizes == [3, 2, 3]


def test_run_with_every_replicate_degenerate_is_inconclusive(tmp_path):
    # the initial log density overflows to -inf, so no replicate gives an eta(G~)
    cfg = parse_config(_shipped("drift_monitor", tmp_path, workers=1,
                                init={"name": "point", "point": [1e200]}))
    with np.errstate(over="ignore"):
        assert dispatch(cfg) == EXIT_INCONCLUSIVE
    assert (tmp_path / "run.csv").read_text().count("\n") == 1
    doc = json.loads((tmp_path / "run.json").read_text())
    assert doc["status"] == "inconclusive" and doc["exit_code"] == EXIT_INCONCLUSIVE
    summary = doc["summary"]
    assert summary["floor_ok"] is False and summary["min_eta_gtilde"] == "inf"
    assert summary["degenerate_replicates"] == 4


@pytest.mark.parametrize("model", [
    {"schedule": {"name": "piecewise-linear", "gamma_floor": 0.7, "knots": [[0.5, 0.7]]}},
    {"target": {"name": "gaussian-mixture", "means": [[0.0], [3.0]], "sigmas": [[1.0], [0.5]],
                "weights": [0.5, 0.5]}},
], ids=["zero-increment", "mixture"])
def test_particles_at_zero_density_do_not_abort_the_replicate(model, tmp_path):
    # about a fifth of the initial particles overflow to log density -inf; a
    # flat schedule segment (increment 0 at steps 0 and 1) must weigh them 1,
    # and the mixture must give them -inf, not NaN
    raw = json.loads(_shipped("drift_monitor", tmp_path, workers=1, replicates=3,
                              grids={"n": [4], "N": [200]},
                              init={"name": "gaussian", "sigma": [1e154]}))
    raw["model"].update(model)
    with np.errstate(over="ignore"):
        assert dispatch(parse_config(json.dumps(raw))) == EXIT_OK
    summary = json.loads((tmp_path / "run.json").read_text())["summary"]
    assert summary["degenerate_replicates"] == 0
    rows = (tmp_path / "run.csv").read_text().splitlines()[1:]
    assert len(rows) == 3 * 5
    if "schedule" in model:
        flat = [r.split(",") for r in rows if r.split(",")[2] in ("0", "1")]
        assert len(flat) == 6 and all(r[3] == "200" and r[7] == "1" for r in flat)


def test_one_density_evaluation_per_particle_step(monkeypatch, tmp_path):
    # N evaluations per replicate at init, then N per particle-step: the proposals
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
        assert set(evals) == {n_particles}
        assert len(evals) == reps * sum(n + 1 for n in ns)


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
