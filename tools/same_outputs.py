"""Check that two source trees give the same outputs on every shipped config.

Usage:
    python tools/same_outputs.py OLD_SRC NEW_SRC [--workers K]

OLD_SRC and NEW_SRC are directories that hold a ``tempersmc`` package (the
``src`` directory of two checkouts).  Every ``configs/*.json`` of this
repository is run at full size under each tree, each run in a fresh
interpreter through ``python -m tempersmc.cli run``.  The two runs of a
config must give the same exit code, the same CSV bytes, and the same JSON
once ``timestamp`` and ``config.out_dir`` are removed.  One line is printed
per config, with the wall seconds of each tree's run (interpreter start-up
included); the exit status is 1 if any config differs.  Standard library
only; full-size runs take minutes, so this is not part of the test suite.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def run(src, config, out, workers):
    """Run ``config`` with the package under ``src``.

    Returns the run's (exit code, {file name: CSV bytes or JSON}) and its wall seconds.
    """
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "tempersmc.cli", "run", str(config), "--out", str(out),
         "--workers", str(workers)],
        env=env, cwd=out.parent, capture_output=True, text=True,
    )
    wall = time.perf_counter() - start
    outputs = {}
    for path in sorted(out.glob("*")):
        if path.suffix == ".json":
            doc = json.loads(path.read_text())
            doc.pop("timestamp", None)
            doc.get("config", {}).pop("out_dir", None)
            outputs[path.name] = doc
        else:
            outputs[path.name] = path.read_bytes()
    return (proc.returncode, outputs), wall


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)
    for src in (args.old_src, args.new_src):
        if not (src / "tempersmc" / "__init__.py").is_file():
            parser.error(f"{src} holds no tempersmc package")

    configs, differ = sorted(CONFIGS.glob("*.json")), 0
    for config in configs:
        with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
            old, old_s = run(args.old_src.resolve(), config, Path(tmp) / "old", args.workers)
            new, new_s = run(args.new_src.resolve(), config, Path(tmp) / "new", args.workers)
        walls = f"wall old {old_s:.2f} s, new {new_s:.2f} s"
        if old == new:
            print(f"identical  {config.stem}  (exit {old[0]}, files {', '.join(old[1])})  {walls}")
            continue
        differ += 1
        what = [] if old[0] == new[0] else [f"exit {old[0]} != {new[0]}"]
        what += [name for name in sorted(set(old[1]) | set(new[1]))
                 if old[1].get(name) != new[1].get(name)]
        print(f"DIFFERS    {config.stem}  ({', '.join(what)})  {walls}")
    print(f"{differ} of {len(configs)} configs differ at --workers {args.workers}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
