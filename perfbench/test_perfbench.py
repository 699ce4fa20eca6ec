"""Tests of the benchmark itself, at tiny workload sizes.

    python3 -m pytest perfbench
"""

import json
import math
import shutil
import subprocess
import sys

import pytest

import run
import spans
from workloads import WORKLOADS

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_present_and_finite(name, trace, kind, monkeypatch):
    monkeypatch.setattr(run, "MIN_SAMPLES", 1)
    result = run.run_workload(name, seed=5, seconds=0, trace=trace, tiny=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def bindings():
    return {(m.__name__, attr): value
            for m in spans.package_modules() for attr, value in vars(m).items()}


def test_tracing_restores_every_binding_and_accounts_for_wall(tmp_path):
    cli, config = run.import_package()
    before = bindings()
    recorder = spans.Recorder()
    with spans.installed(recorder):
        assert config.build_model is not before[("tempersmc.config", "build_model")]
        session = run.Session(WORKLOADS["finite-nscale"], 1, tmp_path, cli, config, tiny=True)
        wall = session.dispatch(1)
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())

    table = recorder.table()
    assert table["finite.sample_batch"][0] == table["particles.smc_step"][0] > 0
    roots = sum(end - start for _, start, end, parent in recorder.spans if parent < 0)
    assert sum(row[2] for row in table.values()) == pytest.approx(roots)
    assert table["cli.dispatch"][1] == pytest.approx(wall, rel=0.05)

    path = tmp_path / "spans.jsonl"
    recorder.dump(path)
    lines = path.read_text().splitlines()
    assert len(lines) == len(recorder.spans)
    assert json.loads(lines[0])["name"] == "config.parse_config"


def test_fails_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gauss-bias", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
