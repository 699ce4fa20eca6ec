"""Batch entry point: validate configs, dispatch experiments, write outputs.

Usage:
    tempersmc run CONFIG [--out DIR] [--workers K]
    tempersmc validate CONFIG

Each run writes <out>/<experiment>.csv and <out>/<experiment>.json; a
directory at either path fails before the run, with exit 1.  The JSON is
rendered and written to a temp file first, then the CSV is written
to a temp file and renamed into place, then the JSON is renamed, so a
failure in the experiment, the rendering or the CSV write leaves the
previous pair untouched.  All floats are
serialized with 17 significant digits; the only run-dependent field is the
timestamp, confined to the JSON summary.  The CSV writer formats a row with
one ``%`` string per tuple of value types, built once per tuple by one
rule: an integer, a bool included, is written by ``%d`` (``True`` as 1), a
float, NumPy's included, by ``%.17g`` (nan, inf and -inf as such), and any
other value, a NumPy bool among them, by ``%s``.  Each experiment returns
its own table (see ``stabilitylab.Table``); the exit code follows from its status:
0 when "ok", 1 when "failed" (an audit, or a run below its floor), on a
config error (at parse time or from a builder) or on a usage error in the
command line, 2 when "inconclusive".  Any other exception is a bug and
propagates.

Importing this module loads only what parsing builds, the config and model
layers: ``stabilitylab`` (with the engine and oracle) is imported when a run
first needs it (``_lab``), ``argparse`` in ``main`` and the pool where one is
made.  Only a start that parses without running gains from this, such as
``validate``; a run loads the same modules as before, later.
"""

import errno
import json
import math
import os
import sys
import time

import numpy as np

from .config import ConfigError, parse_config

__all__ = ["main", "dispatch", "make_mapper", "write_csv", "render_summary"]

EXIT_OK = 0
EXIT_PRECONDITION = 1
EXIT_INCONCLUSIVE = 2
_EXIT_CODES = {"ok": EXIT_OK, "failed": EXIT_PRECONDITION, "inconclusive": EXIT_INCONCLUSIVE}


def _usable_cpus():
    """The CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def make_mapper(workers):
    """Order-preserving map over tasks.

    A pool never holds more processes than there are usable CPUs or tasks,
    and a map that would get a single process runs in-process instead.  The
    experiments hand it only maps that cost at least one task's budget;
    cheaper ones run in-process without it (see ``stabilitylab``).
    """
    cpus = _usable_cpus()
    if workers is None:
        workers = cpus

    def mapper(fn, items):
        size = min(workers, cpus, len(items))
        if size <= 1:
            return [fn(x) for x in items]
        # imported here so that a run without a pool never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=size) as pool:
            return list(pool.map(fn, items))

    return mapper


def _write_temp(path, text):
    """Write ``text`` to a new temp file beside ``path``; returns the temp file's path.

    The file takes the mode ``open(path, "w")`` would give it: 0o666 less the umask.
    """
    tmp = os.path.join(os.path.dirname(path), f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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


def _conversion(t):
    """The %-conversion that writes a value of type ``t`` (see the module docstring)."""
    if issubclass(t, (int, np.integer)):
        return "%d"
    if issubclass(t, (float, np.floating)):
        return "%.17g"
    return "%s"


def write_csv(path, header, rows):
    lines = [",".join(header)]
    formats = {}  # per tuple of value types, its row format
    for row in rows:
        types = tuple(map(type, row))
        if types not in formats:
            formats[types] = ",".join(map(_conversion, types))
        lines.append(formats[types] % tuple(row))
    _rename(_write_temp(path, "\n".join(lines) + "\n"), path)


def _jsonable(obj):
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


def _lab():
    """The experiment layer, imported on a run's first use of it."""
    from . import stabilitylab
    return stabilitylab


_RUNNERS = {
    "bias-decay": lambda cfg, mapper: _lab().bias_decay_experiment(cfg, mapper),
    "n-scaling": lambda cfg, mapper: _lab().n_scaling_experiment(cfg, mapper),
    "run": lambda cfg, mapper: _lab().run_trajectories(cfg, mapper),
    # these three map no tasks
    "drift-check": lambda cfg, mapper: _lab().drift_check_experiment(cfg),
    "counterexample": lambda cfg, mapper: _lab().counterexample_experiment(cfg),
    "lemma1-audit": lambda cfg, mapper: _lab().lemma1_audit_experiment(cfg),
}


def _check_out_dir(path, targets):
    """Raise early the ``OSError`` that making ``path`` and writing the paths ``targets`` would.

    A best-effort check that creates nothing, so a run does not compute only to
    find it cannot write: it approximates the OS (``os.access`` asks about the
    real uid, a read-only filesystem reads as EACCES), and the ``os.makedirs``
    and writes after the run remain the authority.  A directory at one of the
    output paths fails as the rename onto it would.
    """
    # joined, not normalized: "afile/../x" fails here as it does in makedirs
    child = ancestor = os.path.join(os.getcwd(), path)
    while not os.path.exists(ancestor):
        child, ancestor = ancestor, os.path.dirname(ancestor)
    if not os.path.isdir(ancestor):  # a file at ``path`` itself, or on the way to it
        code = errno.EEXIST if child == ancestor else errno.ENOTDIR
        raise OSError(code, os.strerror(code), child)
    if not os.access(ancestor, os.W_OK | os.X_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), child)
    for target in targets:
        # a rename replaces a symbolic link, wherever it points
        if os.path.isdir(target) and not os.path.islink(target):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), target)


def dispatch(cfg):
    """Check the output directory, run the configured experiment, write its CSV + JSON."""
    stem = os.path.join(cfg.out_dir, cfg.experiment)
    _check_out_dir(cfg.out_dir, [stem + ".csv", stem + ".json"])
    mapper = make_mapper(cfg.workers)
    try:
        table = _RUNNERS[cfg.experiment](cfg, mapper)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    code = _EXIT_CODES[table.status]
    summary = render_summary(cfg, table.status, code, table.body)
    os.makedirs(cfg.out_dir, exist_ok=True)
    summary_tmp = _write_temp(stem + ".json", summary)
    try:
        write_csv(stem + ".csv", table.header, table.rows)
    except BaseException:
        os.unlink(summary_tmp)
        raise
    _rename(summary_tmp, stem + ".json")
    return code


def _load_config(path, out=None, workers=None):
    """Parse a config file once, its command-line overrides merged into its JSON object.

    An override replaces its key before any check, and goes through the same
    checks; text that is not a JSON object is parsed as it is, and fails as ``<json>``.
    """
    with open(path) as handle:
        text = handle.read()
    updates = {key: value for key, value in (("out_dir", out), ("workers", workers))
               if value is not None}
    if updates:
        try:
            raw = json.loads(text)
        except (ValueError, RecursionError):
            raw = None
        if isinstance(raw, dict):
            text = json.dumps({**raw, **updates})
    return parse_config(text)


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(prog="tempersmc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run an experiment from a config file")
    run_p.add_argument("config")
    run_p.add_argument("--out", default=None, help="override the output directory")
    run_p.add_argument("--workers", type=int, default=None, help="worker pool size")
    val_p = sub.add_parser("validate", help="parse and validate a config file")
    val_p.add_argument("config")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which here reads as an inconclusive run
        return EXIT_PRECONDITION if exc.code == 2 else exc.code

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
