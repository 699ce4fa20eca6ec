"""Benchmark for tempersmc: end-to-end wall, setup and memory, or a traced per-layer run.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
                             [--spans FILE]

Runs from any working directory and drives the package in ``src/`` of the
checkout that holds this file, only through ``config.parse_config``,
``cli.dispatch`` and ``cli.make_mapper``.  Experiment outputs go to a
temporary directory inside the checkout that is removed afterwards.

With ``--trace 0`` it reports, for each workload, the end-to-end metrics
named in ``BENCHMARK.json``: ``wall_s`` and ``wall_w2_s`` are medians of
in-process dispatches with 1 and 2 workers, alternated for ``--seconds``
after one warm-up each; ``setup_s`` is the median time of fresh interpreters,
one per pair, that import the package and parse the workload's config;
``peak_rss_mb`` is the peak resident set of one child process that runs the
workload serially.  Every time is scaled to a reference machine speed by the
speed probes taken around it (see ``Speed``).
With ``--trace 1`` it alternates untraced and traced serial dispatches and
reports the per-layer metrics (see README.md), taking medians of times and
requiring counts to repeat exactly.

Every dispatch's outputs are checked (see workloads.py) and must be
byte-identical to the first dispatch at the seed, whatever the worker count.
Each workload prints its metrics with units, then one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1 when a
check failed, and 1 without a result line when the package is missing.
"""

import argparse
import csv
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_SAMPLES = 3
CHILD_TIMEOUT = 120
# Times are reported at the machine speed where speed_probe() takes this long;
# on the reference VM the probe took 0.08-0.14 s as the host's load drifted.
PROBE_REF_S = 0.1

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import tempersmc.cli; "
    "from tempersmc.config import parse_config; parse_config(sys.argv[2])"
)
RSS_CODE = (
    "import resource, sys; sys.path.insert(0, sys.argv[1]); "
    "from tempersmc import cli, config; code = cli.dispatch(config.parse_config(sys.argv[2])); "
    "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
)


def speed_probe():
    """Seconds taken by fixed numpy and Python work that does not use tempersmc."""
    rng = np.random.default_rng(0)
    start = perf_counter()
    for _ in range(60):
        cum = np.cumsum(np.exp(rng.random(10_000)))
        np.searchsorted(cum, rng.random(10_000) * cum[-1])
        acc = 0
        for i in range(3000):
            acc += i * i
    return perf_counter() - start


class Speed:
    """Scales a time to the reference speed by the probes taken just before and after it.

    The reference VM's speed drifts by up to 20% within tens of seconds, in
    step with the probe; a time divided by the probes around it does not.
    """

    def __init__(self):
        self.probes = [speed_probe()]

    def factor(self):
        """Scale factor for the interval since the last probe; takes a new probe."""
        self.probes.append(speed_probe())
        return PROBE_REF_S / ((self.probes[-2] + self.probes[-1]) / 2)


def import_package():
    """Import tempersmc from this checkout's src/, never from an installed copy."""
    package = SRC / "tempersmc"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no tempersmc sources in {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tempersmc
    from tempersmc import cli, config

    if Path(tempersmc.__file__).resolve().parent != package:
        raise SystemExit(f"error: imported tempersmc from {tempersmc.__file__}, not {package}")
    return cli, config


def commit():
    """The checkout's git commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    return (f"commit {commit()}  nproc {os.cpu_count()}  python {platform.python_version()}  "
            f"numpy {np.__version__}  {platform.machine()}")


class Session:
    """One workload at one seed: its config, output directory and check tally."""

    def __init__(self, workload, seed, out_dir, cli, config, tiny=False):
        self.workload, self.out_dir, self.cli, self.config = workload, out_dir, cli, config
        raw = json.loads((ROOT / "configs" / workload.config).read_text())
        raw.update(workload.tiny if tiny else workload.overrides)
        raw.update(seed=seed % 2**63, out_dir=str(out_dir))  # the package needs seed >= 0
        self.raw = raw
        self.attempted = self.failed = 0
        self.problems = []
        self.headline = None
        self.reference_csv = None

    def text(self, workers):
        return json.dumps(dict(self.raw, workers=workers))

    def _outputs(self, experiment):
        stem = Path(self.out_dir) / experiment
        return stem.with_suffix(".csv"), stem.with_suffix(".json")

    def dispatch(self, workers):
        """One in-process dispatch, checked; returns its wall seconds."""
        cfg = self.config.parse_config(self.text(workers))
        self._clear(cfg)
        start = perf_counter()
        code = self.cli.dispatch(cfg)
        elapsed = perf_counter() - start
        self.record(cfg, code)
        return elapsed

    def child(self, code):
        """Run a fresh interpreter on the serial config; returns (seconds, stdout)."""
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", code, str(SRC), self.text(1)],
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        elapsed = perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"child process failed:\n{proc.stderr}")
        return elapsed, proc.stdout

    def peak_rss_mib(self):
        cfg = self.config.parse_config(self.text(1))
        self._clear(cfg)
        _, out = self.child(RSS_CODE)
        code, max_rss_kib = (int(x) for x in out.split())
        self.record(cfg, code)
        return max_rss_kib / 1024

    def _clear(self, cfg):
        for path in self._outputs(cfg.experiment):
            path.unlink(missing_ok=True)

    def record(self, cfg, code):
        """Check one dispatch's outputs and add its operations to the tally."""
        csv_path, json_path = self._outputs(cfg.experiment)
        try:
            csv_bytes = csv_path.read_bytes()
            doc = json.loads(json_path.read_text())
        except OSError as exc:
            self._tally(1, 1, [f"exit code {code}, outputs missing: {exc}"])
            return
        rows = list(csv.DictReader(io.StringIO(csv_bytes.decode())))
        outcome = self.workload.check(cfg, doc, rows)
        if code != 0:
            outcome.problems.append(f"exit code {code}")
        if self.reference_csv is None:
            self.reference_csv, self.headline = csv_bytes, outcome.headline
        elif csv_bytes != self.reference_csv:
            outcome.problems.append(f"CSV with {cfg.workers} worker(s) differs from the "
                                    "first dispatch at this seed")
        self._tally(outcome.attempted, outcome.failed, outcome.problems)

    def _tally(self, attempted, failed, problems):
        self.attempted += attempted
        self.failed += attempted if problems else failed
        self.problems.extend(p for p in problems if p not in self.problems)


def _spread(values):
    values = sorted(values)
    if len(values) < 2:
        return "1 sample"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (f"median of {len(values)}; min {values[0]:.4g}  q1 {q1:.4g}  q3 {q3:.4g}  "
            f"max {values[-1]:.4g}")


def end_to_end(session, seconds):
    """End-to-end metric values and a note on the samples behind each."""
    session.child(SETUP_CODE)  # warm-up: file caches, and bytecode unless PYTHONDONTWRITEBYTECODE
    rss = session.peak_rss_mib()
    session.dispatch(1)
    session.dispatch(2)
    # the machine's speed drifts, so every metric is sampled across the window
    speed = Speed()
    raw = {"wall_s": [], "wall_w2_s": [], "setup_s": []}
    scaled = {name: [] for name in raw}
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(raw["wall_s"]) < MIN_SAMPLES:
        for name, measure in (("wall_s", lambda: session.dispatch(1)),
                              ("wall_w2_s", lambda: session.dispatch(2)),
                              ("setup_s", lambda: session.child(SETUP_CODE)[0])):
            raw[name].append(measure())
            scaled[name].append(raw[name][-1] * speed.factor())
    metrics = {name: statistics.median(xs) for name, xs in scaled.items()}
    notes = {name: f"{_spread(xs)}; unscaled median {statistics.median(raw[name]):.4g} s"
             for name, xs in scaled.items()}
    metrics["peak_rss_mb"], notes["peak_rss_mb"] = rss, "1 sample"
    print(f"speed probe: {_spread(speed.probes)} s, scaled to {PROBE_REF_S} s")
    return metrics, notes


def layer_values(recorder, wall, factor):
    """Per-layer values of one traced dispatch of ``wall`` seconds; times scaled by ``factor``."""
    table, counts = recorder.table(), recorder.counts
    steps = counts["particle_steps"]
    tasks = [end - start for name, start, end, _ in recorder.spans if name == spans.TASK]
    values = {
        "particles.particle_steps": steps,
        "tempering.target_evals_per_particle_step":
            counts["target_evals"] / steps if steps else 0.0,
        "cli.csv_bytes": counts["csv_bytes"],
        "stabilitylab.tasks": len(tasks),
        "stabilitylab.task_imbalance": max(tasks) / statistics.mean(tasks) if tasks else 0.0,
        # self times sum to their root's span; parse_config is the one root outside dispatch
        "trace.self_sum_frac":
            (sum(row[2] for row in table.values()) - table["config.parse_config"][1]) / wall,
    }
    for name in ("particles.smc_step", "finite.sample_batch", "rwm.rwm_step_batch",
                 "tempering.log_g", "streams.stream", "particles.run_sampler",
                 "cli.write_csv", "oracle.future_potential_mass",
                 "oracle.tilted_drift_objects", "oracle.eta_exact", "config.build_model",
                 "config.parse_config"):
        calls, _, self_s = table.get(name, (0, 0.0, 0.0))
        values[f"{name}.self_s"] = self_s * factor
        values[f"{name}.calls"] = calls
    return values


def per_layer(session, seconds, units, spans_path=None):
    """Per-layer metric values from alternating untraced and traced serial dispatches."""
    session.dispatch(1)
    speed = Speed()
    plain, traced, samples = [], [], []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(traced) < MIN_SAMPLES:
        plain.append(session.dispatch(1) * speed.factor())
        recorder = spans.Recorder()
        with spans.installed(recorder):
            wall = session.dispatch(1)
        factor = speed.factor()
        traced.append(wall * factor)
        samples.append(layer_values(recorder, wall, factor))
    if spans_path:
        recorder.dump(spans_path)
    metrics, notes = {}, {}
    for name, unit in units.items():
        if name == "trace_overhead_frac":
            metrics[name] = statistics.median(traced) / statistics.median(plain) - 1.0
            notes[name] = f"traced {_spread(traced)}; untraced {_spread(plain)}"
            continue
        xs = [s[name] for s in samples]
        metrics[name] = statistics.median(xs)
        if unit in ("s", "ratio"):
            notes[name] = _spread(xs)
        elif len(set(xs)) == 1:
            notes[name] = f"same in all {len(xs)} traced dispatches"
        else:
            session.problems.append(f"{name} differs between traced dispatches: {xs}")
            notes[name] = "NOT REPEATED"
    table = recorder.table()
    print(f"span table of the last traced dispatch ({len(recorder.spans)} spans):")
    for name, (calls, total, self_s) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        print(f"  {name:36s} calls {calls:8d}  total {total:9.4f} s  self {self_s:9.4f} s")
    return metrics, notes


def run_workload(name, seed, seconds, trace, tiny=False, spans_path=None):
    """Measure one workload; prints the report and returns the result object."""
    cli, config = import_package()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    print(f"== {name}  seed {seed}  seconds {seconds}  trace {trace}")
    print(environment())
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        session = Session(WORKLOADS[name], seed, Path(tmp), cli, config, tiny)
        if trace:
            metrics, notes = per_layer(session, seconds, units, spans_path)
        else:
            metrics, notes = end_to_end(session, seconds)
    print("headline " + "  ".join(f"{k}={v}" for k, v in (session.headline or {}).items()))
    for metric, unit in units.items():
        print(f"{metric:44s} {metrics[metric]:.6g} {unit}  ({notes[metric]})")
    frac = session.failed / max(session.attempted, 1)
    print(f"{'failed_frac':44s} {frac:.6g}  ({session.failed} of {session.attempted} operations)")
    for problem in session.problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not session.problems,
        "attempted": max(session.attempted, 1),
        "failed": session.failed,
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
    }
    print(json.dumps(result), flush=True)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--spans", default=None,
                        help="with --trace 1, write the last traced dispatch's spans here")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(name, args.seed, args.seconds, args.trace, spans_path=args.spans)
               for name in names]
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
