import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from tempersmc.cli import EXIT_OK, EXIT_PRECONDITION, dispatch, main
from tempersmc.config import ConfigError, parse_config

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


def _shipped(name, out_dir, **overrides):
    raw = json.loads((CONFIGS / f"{name}.json").read_text())
    raw.update(SHIPPED[name], out_dir=str(out_dir), **overrides)
    return json.dumps(raw)


def test_shipped_config_table_is_complete():
    assert sorted(p.stem for p in CONFIGS.glob("*.json")) == sorted(SHIPPED)


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_config_runs_shrunk(name, tmp_path):
    parse_config((CONFIGS / f"{name}.json").read_text())
    cfg = parse_config(_shipped(name, tmp_path, workers=1))
    assert dispatch(cfg) == EXIT_OK
    assert (tmp_path / f"{cfg.experiment}.csv").is_file()
    doc = json.loads((tmp_path / f"{cfg.experiment}.json").read_text())
    assert doc["exit_code"] == EXIT_OK


def test_csv_identical_for_any_worker_count(tmp_path):
    # 30 replicates in blocks of 25 over two cells: four tasks to spread
    raw = json.loads(_shipped("scaling_sqrt_n", tmp_path))
    raw.update(replicates=30, grids={"n": [3], "N": [10, 20]})
    cfg = parse_config(json.dumps(raw))
    csv = {}
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        assert dispatch(replace(cfg, workers=workers, out_dir=str(out))) == EXIT_OK
        csv[workers] = (out / "n-scaling.csv").read_bytes()
    assert csv[1] == csv[2]


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
                   ("workers", 3), ("replicates", 0)]
)
def test_scalar_keys_accept_boundary_values(key, value, tmp_path):
    assert getattr(parse_config(_shipped("drift_check", tmp_path, **{key: value})), key) == value
