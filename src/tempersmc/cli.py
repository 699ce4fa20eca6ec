"""Batch entry point: validate configs, dispatch experiments, write outputs.

Usage:
    tempersmc run CONFIG [--out DIR] [--workers K]
    tempersmc validate CONFIG

Each run writes <out>/<experiment>.csv and <out>/<experiment>.json.  The
JSON is rendered and written to a temp file first, then the CSV is written
to a temp file and renamed into place, then the JSON is renamed, so a
failure in the experiment, the rendering or the CSV write leaves the
previous pair untouched.  All floats are
serialized with 17 significant digits; the only run-dependent field is the
timestamp, confined to the JSON summary.  Exit codes: 0 on completion, 1 on
a config error (at parse time or from a builder) or a failed audit, 2 on an
inconclusive experiment.  Any other exception is a bug and propagates.
"""

import argparse
import json
import math
import os
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, is_dataclass

import numpy as np

from .config import ConfigError, parse_config
from . import stabilitylab

__all__ = ["main", "dispatch", "make_mapper"]

EXIT_OK = 0
EXIT_PRECONDITION = 1
EXIT_INCONCLUSIVE = 2


def make_mapper(workers):
    """Order-preserving map over tasks; workers=1 stays in-process.

    A pool never holds more processes than there are CPUs or tasks.
    """
    cpus = os.cpu_count() or 1
    if workers is None:
        workers = cpus
    if workers <= 1:
        return lambda fn, items: [fn(x) for x in items]

    def mapper(fn, items):
        if not items:
            return []
        with ProcessPoolExecutor(max_workers=min(workers, cpus, len(items))) as pool:
            return list(pool.map(fn, items))

    return mapper


def _fmt(x):
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def _write_temp(path, text):
    """Write ``text`` to a new temp file beside ``path``; returns the temp file's path."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
    except BaseException:
        os.unlink(tmp)
        raise
    return tmp


def _rename(tmp, path):
    try:
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_csv(path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(x) for x in row) for row in rows)
    _rename(_write_temp(path, "\n".join(lines) + "\n"), path)


def _jsonable(obj):
    if is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if math.isfinite(x) else repr(x)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def render_summary(cfg, status, exit_code, body):
    """The JSON summary document of a run, as text."""
    doc = {
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "status": status,
        "exit_code": exit_code,
        "config": _jsonable(cfg.to_dict()),
        "warnings": list(cfg.warnings),
        "summary": _jsonable(body),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _decay_rows(result):
    rows = []
    for fit in (result.exact, result.particle):
        if fit is None:
            continue
        for c in fit.cells:
            rows.append((fit.mode, c.n, c.bias, c.abs_bias, c.std_err, c.n_used,
                         c.degenerate, c.used_in_fit))
    return rows


def _run_bias_decay(cfg, mapper):
    result = stabilitylab.bias_decay_experiment(cfg, mapper)
    header = ["mode", "n", "bias", "abs_bias", "std_err", "replicates_used",
              "degenerate", "used_in_fit"]
    body = {
        "reference": result.reference,
        "exact": None if result.exact is None else {
            "slope": result.exact.slope, "r_squared": result.exact.r_squared,
            "status": result.exact.status,
        },
        "particle": None if result.particle is None else {
            "slope": result.particle.slope, "r_squared": result.particle.r_squared,
            "status": result.particle.status,
        },
    }
    code = EXIT_OK if result.status == "ok" else EXIT_INCONCLUSIVE
    return header, _decay_rows(result), result.status, code, body


def _run_n_scaling(cfg, mapper):
    fit = stabilitylab.n_scaling_experiment(cfg, mapper)
    header = ["n", "n_particles", "rmse", "std_err", "replicates_used", "degenerate"]
    rows = [(c.n, c.n_particles, c.rmse, c.std_err, c.n_used, c.degenerate)
            for c in fit.cells]
    body = {
        "slope": fit.slope, "slope_n": fit.slope_n,
        "ratio_max_min": fit.ratio_max_min,
        "ratio_se_adjusted": fit.ratio_se_adjusted,
        "ratio_n_particles": fit.ratio_n_particles,
    }
    code = EXIT_OK if fit.status == "ok" else EXIT_INCONCLUSIVE
    return header, rows, fit.status, code, body


def _run_drift_check(cfg, mapper):
    report = stabilitylab.drift_check_experiment(cfg)
    header = ["radius", "point_index", "ratio", "std_err"]
    rows, counters = [], {}
    for point in report.points:
        idx = counters.get(point["radius"], 0)
        counters[point["radius"]] = idx + 1
        rows.append((point["radius"], idx, point["ratio"], point["se"]))
    body = {
        "radii": report.radii, "lambda_hat": report.lambda_hat,
        "band": report.band, "safe_radius": report.safe_radius,
    }
    return header, rows, "ok", EXIT_OK, body


def _run_counterexample(cfg, mapper):
    try:
        probe = stabilitylab.r2_counterexample(cfg.epsilon, cfg.delta)
    except ValueError as exc:
        # delta is range-checked at parse time, so only epsilon can be out of reach here
        raise ConfigError("epsilon", str(exc)) from exc
    header = ["epsilon", "delta", "lhs", "rhs", "psi", "log_margin",
              "y1", "y2", "yprime1", "yprime2", "g_y", "g_yprime", "v_y", "v_yprime",
              "branch"]
    (y1, y2), (yp1, yp2) = probe.witness
    rows = [(probe.epsilon, probe.delta, probe.lhs, probe.rhs, probe.psi_value,
             probe.log_margin, y1, y2, yp1, yp2, probe.g_vals[0], probe.g_vals[1],
             probe.v_vals[0], probe.v_vals[1], probe.branch)]
    return header, rows, "ok", EXIT_OK, probe


def _run_lemma1_audit(cfg, mapper):
    audit = stabilitylab.lemma1_audit_experiment(cfg)
    header = ["n", "k", "eps_nk", "b_printed", "b_proof", "minor_ok", "drift_ok",
              "drift_ok_proof", "a2_ok"]
    rows = [(r.n, r.k, r.eps_nk, r.b_printed, r.b_proof, r.minor_ok, r.drift_ok,
             r.drift_ok_proof, r.a2_ok) for r in audit.rows]
    body = {
        "inf_eps": audit.inf_eps,
        "per_n_inf_eps": {str(k): v for k, v in sorted(audit.per_n_inf_eps.items())},
        "all_pass": audit.all_pass,
        "a2_failures": audit.a2_failures,
    }
    code = EXIT_OK if audit.all_pass else EXIT_PRECONDITION
    return header, rows, "ok" if audit.all_pass else "failed", code, body


def _run_trajectories(cfg, mapper):
    result = stabilitylab.run_trajectories(cfg, mapper)
    header = ["replicate", "n", "k", "ess", "log_w_max", "log_w_min", "eta_V", "eta_Gtilde"]
    body = {
        "max_eta_v": {str(k): v for k, v in sorted(result.max_eta_v.items())},
        "min_eta_gtilde": result.min_eta_gtilde,
        "degeneracy_floor": cfg.degeneracy_floor,
        "floor_ok": result.floor_ok,
        "degenerate_replicates": result.degenerate,
    }
    return header, result.rows, "ok", EXIT_OK, body


_RUNNERS = {
    "bias-decay": _run_bias_decay,
    "n-scaling": _run_n_scaling,
    "drift-check": _run_drift_check,
    "counterexample": _run_counterexample,
    "lemma1-audit": _run_lemma1_audit,
    "run": _run_trajectories,
}


def dispatch(cfg):
    """Run the configured experiment and write its CSV + JSON outputs."""
    mapper = make_mapper(cfg.workers)
    try:
        header, rows, status, code, body = _RUNNERS[cfg.experiment](cfg, mapper)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    summary = render_summary(cfg, status, code, body)
    os.makedirs(cfg.out_dir, exist_ok=True)
    stem = os.path.join(cfg.out_dir, cfg.experiment)
    summary_tmp = _write_temp(stem + ".json", summary)
    try:
        write_csv(stem + ".csv", header, rows)
    except BaseException:
        os.unlink(summary_tmp)
        raise
    _rename(summary_tmp, stem + ".json")
    return code


def _load_config(path, out=None, workers=None):
    """Parse a config file; command-line overrides go through the same checks as its keys."""
    with open(path) as handle:
        text = handle.read()
    cfg = parse_config(text)
    updates = {key: value for key, value in (("out_dir", out), ("workers", workers))
               if value is not None}
    if updates:
        cfg = parse_config(json.dumps({**json.loads(text), **updates}))
    return cfg


def main(argv=None):
    parser = argparse.ArgumentParser(prog="tempersmc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run an experiment from a config file")
    run_p.add_argument("config")
    run_p.add_argument("--out", default=None, help="override the output directory")
    run_p.add_argument("--workers", type=int, default=None, help="worker pool size")
    val_p = sub.add_parser("validate", help="parse and validate a config file")
    val_p.add_argument("config")
    args = parser.parse_args(argv)

    try:
        if args.command == "validate":
            cfg = _load_config(args.config)
            for warning in cfg.warnings:
                print(f"warning: {warning}", file=sys.stderr)
            print(f"ok: {cfg.experiment} (seed {cfg.seed})")
            return EXIT_OK
        cfg = _load_config(args.config, out=args.out, workers=args.workers)
        for warning in cfg.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        return dispatch(cfg)
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
