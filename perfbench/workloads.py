"""The benchmark's workloads and the checks on their outputs.

Each workload is a shipped config from ``configs/`` with its seed replaced by
the benchmark's seed and its grids resized so that one serial dispatch takes
about a second on a 2-core machine.  ``check`` reads what ``cli.dispatch``
wrote and returns how many operations ran, how many failed, which checks
failed and the run's headline statistics.

An operation is one particle replicate, or one row of the Lemma 1 audit.  A
replicate fails when it is degenerate; an audit row fails when any of its
inequality checks is false.  When a check on the run fails, every operation
of that dispatch counts as failed.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List

# |N-slope + 1/2| allowed on finite-nscale.  The slope of 25-replicate RMSEs
# has sd 0.043 (40 seeds), so a correct engine fails this about 5e-6 of runs.
SLOPE_TOL = 0.2
# Lemma 1 audit infimum at the seed commit; the audit draws no random numbers.
INF_EPS_SEED = 0.19055005417249885
INF_EPS_RTOL = 1e-12


@dataclass
class Outcome:
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    headline: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    overrides: dict
    tiny: dict
    check: Callable


def _num(value):
    # the JSON summary spells non-finite floats as strings ("nan", "inf")
    return float(value) if value is not None else math.nan


def _check_nscale(cfg, doc, rows):
    summary = doc["summary"]
    slope, ratio = _num(summary["slope"]), _num(summary["ratio_max_min"])
    out = Outcome(
        attempted=cfg.replicates * len(rows),
        failed=sum(int(r["degenerate"]) for r in rows),
        headline={"slope": slope, "slope_n": summary["slope_n"], "ratio": ratio,
                  "ratio_N": summary["ratio_n_particles"]},
    )
    if not abs(slope + 0.5) <= SLOPE_TOL:
        out.problems.append(f"N-slope {slope} is not within {SLOPE_TOL} of -1/2")
    if not math.isfinite(ratio):
        out.problems.append(f"horizon ratio {ratio} is not finite")
    return out


def _check_bias(cfg, doc, rows):
    particle = doc["summary"]["particle"] or {}
    slope = _num(particle.get("slope"))
    particle_rows = [r for r in rows if r["mode"] == "particle"]
    out = Outcome(
        attempted=cfg.replicates * len(particle_rows),
        failed=sum(int(r["degenerate"]) for r in particle_rows),
        headline={"slope": slope, "r_squared": _num(particle.get("r_squared"))},
    )
    if particle.get("status") != "ok":
        out.problems.append(f"particle fit status is {particle.get('status')!r}, not 'ok'")
    if not slope < 0:
        out.problems.append(f"bias-decay slope {slope} is not negative")
    return out


def _check_trace(cfg, doc, rows):
    summary = doc["summary"]
    expected_rows = cfg.replicates * sum(n + 1 for n in cfg.grids["n"])
    out = Outcome(
        attempted=cfg.replicates * len(cfg.grids["n"]),
        failed=int(summary["degenerate_replicates"]),
        headline={"min_eta_gtilde": _num(summary["min_eta_gtilde"]), "rows": len(rows)},
    )
    if summary["floor_ok"] is not True:
        out.problems.append("min eta(G~) fell below the degeneracy floor")
    if len(rows) != expected_rows:
        out.problems.append(f"{len(rows)} CSV rows, expected {expected_rows}")
    return out


_AUDIT_CHECKS = ("minor_ok", "drift_ok", "drift_ok_proof", "a2_ok")


def _check_audit(cfg, doc, rows):
    summary = doc["summary"]
    inf_eps = _num(summary["inf_eps"])
    out = Outcome(
        attempted=len(rows),
        failed=sum(any(r[c] != "1" for c in _AUDIT_CHECKS) for r in rows),
        headline={"inf_eps": inf_eps},
    )
    if summary["all_pass"] is not True:
        out.problems.append("audit all_pass is false")
    if not abs(inf_eps - INF_EPS_SEED) <= INF_EPS_RTOL * INF_EPS_SEED:
        out.problems.append(f"inf_eps {inf_eps!r} differs from {INF_EPS_SEED!r}")
    if len(rows) != sum(cfg.grids["n"]):
        out.problems.append(f"{len(rows)} audit rows, expected {sum(cfg.grids['n'])}")
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="finite-nscale",
            config="scaling_sqrt_n.json",
            # n=5 is added so the horizon ratio exists; one horizon leaves it NaN
            overrides={"replicates": 25, "grids": {"n": [5, 20], "N": [100, 1000, 10000]}},
            tiny={"replicates": 2, "grids": {"n": [2, 3], "N": [10, 30]}},
            check=_check_nscale,
        ),
        Workload(
            name="gauss-bias",
            config="bias_gaussian.json",
            overrides={"replicates": 25},
            tiny={"replicates": 2, "grids": {"n": [2, 4], "N": [20]}},
            check=_check_bias,
        ),
        Workload(
            name="gauss-trace",
            config="drift_monitor.json",
            overrides={"replicates": 10},
            tiny={"replicates": 2, "grids": {"n": [2, 5], "N": [20]}},
            check=_check_trace,
        ),
        Workload(
            name="oracle-audit",
            config="lemma1_audit.json",
            overrides={"grids": {"n": list(range(2, 37))}},
            tiny={"grids": {"n": [2, 3, 4]}},
            check=_check_audit,
        ),
    )
}
