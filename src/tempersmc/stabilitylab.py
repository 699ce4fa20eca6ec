"""Stability experiments: bias forgetting, error scaling, drift audits.

Three headline behaviors are measured against exact or analytic
references: the initialization bias decays geometrically in the number of
tempering steps, the stochastic error scales like 1/sqrt(N), and the error
stays bounded as the horizon grows at fixed N.  The module also houses the
closed-form planar construction of a two-point measure that violates the
reweighting inequality eta(GV) <= (1+delta) eta(G) eta(V) for any
delta < 1, and the Lemma 1 audit of the tilted drift/minorization data.

Each grid cell is cut into tasks of contiguous replicates costing about
``_TASK_STEPS`` units (``_replicate_cost``): a replicate of cell (n, N)
costs n*N*d value-steps on a continuous model whose target has d
dimensions, and n*m^2 on a finite model with m states, whose replicate
steps a count row whatever N is.  A unit counts the work of a replicate,
not the numpy calls that carry it: a continuous task steps its replicates
as batches of rows, and a batch's fixed cost is shared by its rows.  A
task runs with one ``run_sampler`` call, which returns one result per
batch: consecutive continuous replicates, each row drawn from its own
stream keyed by (cell seed, replicate), or a finite block of
``BLOCK_REPLICATES``, one count batch drawn from one stream keyed by (cell
seed, block); a finite task is a run of whole blocks.  ``estimate`` turns
a task's batches into one estimate per replicate, in id order.  So the
cut, a function of the config alone, changes no draw, and the results,
merged in task order by a single reducer, are identical for any worker
count.  A map whose tasks together cost less than ``_TASK_STEPS`` runs
them in order in-process (``_map_tasks``), since a worker pool costs more
to start than such a map costs to run; any other map goes to the mapper.

The cells of a grid are distinct: parsing rejects a repeated entry of
grids.n or grids.N, whose cells would share a seed and pool the same
replicates twice.  ``_gather_cells`` is the one reducer of replicate
estimates: for each cell, in grid order, it returns the finite estimates
and the count of degenerate replicates, those without a finite estimate (a
replicate whose weights all vanish estimates NaN, and so does one whose f
is non-finite at a terminal particle, as when a flat step keeps particles
whose initial draw overflowed).  bias-decay and
n-scaling build their rows and summaries from these alone.

Every experiment returns a ``Table``: its CSV header and rows, its status
and its JSON summary body, built next to the numbers they report.  The
drift check, the counterexample and the Lemma 1 audit each take explicit
inputs to their ``Table`` in one function (``drift_probe``,
``r2_counterexample``, ``lemma1_audit``); their ``*_experiment(cfg)``
only reads the config into those inputs.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import oracle, streams
from .config import (
    ConfigError,
    build_drift,
    build_drift_inputs,
    build_f,
    build_family,
    build_increment,
    build_model,
    finite_f_vector,
    reference_value,
)
from .particles import BLOCK_REPLICATES, estimate, run_sampler

__all__ = [
    "Table",
    "bias_decay_experiment",
    "n_scaling_experiment",
    "drift_probe",
    "drift_check_experiment",
    "run_trajectories",
    "r2_counterexample",
    "counterexample_experiment",
    "lemma1_audit",
    "lemma1_audit_experiment",
]

# cost units per task (see _replicate_cost): enough work to cover a task's IPC and model
# build; a map of less runs in-process (see _map_tasks)
_TASK_STEPS = 1_000_000
_EXACT_FLOOR = 1e-13
# probe directions per shell in two or more dimensions
_POINTS_PER_SHELL = 8


@dataclass(frozen=True)
class Table:
    """An experiment's outputs: CSV header and rows, status, JSON summary body.

    The status is "ok", "inconclusive" (a fit found too few usable cells,
    or a run observed no finite eta(G~)) or "failed" (an audited inequality
    does not hold, or a run's eta(G~) fell below its degeneracy floor).
    """

    header: tuple
    rows: list
    status: str
    body: dict


def _replicate_cost(cfg):
    """Cost units of one replicate, as a function of its cell (n, N).

    A replicate costs n*N*d value-steps on a continuous model whose target
    has d dimensions, the width ``run_sampler`` sizes its batches by, and
    n*m^2 on a finite model of m states: a count step is O(m^2) arithmetic
    whatever N is.
    """
    if cfg.model["kind"] == "finite-tempered":
        m = len(cfg.model["log_weights"])
        return lambda n, n_particles: n * m * m
    d = build_family(cfg.model).target.dim
    return lambda n, n_particles: n * n_particles * d


def _replicate_tasks(cfg, cells):
    """Cells cut into runs of contiguous replicates costing about ``_TASK_STEPS`` each.

    A finite task is a run of whole blocks.
    """
    cost = _replicate_cost(cfg)
    unit = BLOCK_REPLICATES if cfg.model["kind"] == "finite-tempered" else 1
    tasks = []
    for n, n_particles in cells:
        size = unit * max(1, _TASK_STEPS // (unit * cost(n, n_particles)))
        for lo in range(0, cfg.replicates, size):
            hi = min(lo + size, cfg.replicates)
            tasks.append((cfg, n, n_particles, tuple(range(lo, hi))))
    return tasks


def _map_tasks(fn, cfg, tasks, mapper):
    """``fn`` over the tasks, in order: in-process when together they cost less than one task."""
    cost = _replicate_cost(cfg)
    if sum(len(reps) * cost(n, n_particles) for _, n, n_particles, reps in tasks) < _TASK_STEPS:
        return [fn(task) for task in tasks]
    return mapper(fn, tasks)


def _estimate_task(args):
    """One run of replicates of one grid cell; returns per-replicate estimates."""
    cfg, n, n_particles, rep_ids = args
    cell_seed = streams.derive_seed(cfg.seed, n, n_particles)
    return estimate(run_sampler(build_model(cfg, n), n_particles, cell_seed, rep_ids),
                    build_f(cfg))


def _exact_value(cfg, n):
    """f under the exact terminal law of the horizon-n finite model."""
    model = build_model(cfg, n)
    return float(oracle.eta_exact(model, n) @ finite_f_vector(cfg, model.finite.mu.size))


def _gather_cells(cfg, cells, mapper):
    """Map tasks; per cell, in grid order, its finite estimates and degenerate count."""
    tasks = _replicate_tasks(cfg, cells)
    results = _map_tasks(_estimate_task, cfg, tasks, mapper)
    per_cell = {cell: [] for cell in cells}
    for (_, n, n_particles, _), block in zip(tasks, results):
        per_cell[(n, n_particles)].append(block)
    out = []
    for blocks in per_cell.values():
        vals = np.concatenate(blocks)
        good = vals[np.isfinite(vals)]
        out.append((good, vals.size - good.size))
    return out


def _std(good):
    """Sample standard deviation of finite estimates, rescaled where the squares overflow."""
    with np.errstate(over="ignore"):
        sd = float(good.std(ddof=1))
    if math.isinf(sd):
        top = float(np.abs(good).max())
        sd = float((good / top).std(ddof=1)) * top
    return sd


def _fit_decay(ns, biases, usable):
    """Log-linear fit of log |bias| against the horizon over the usable cells."""
    pts = [(n, math.log(abs(b))) for n, b, ok in zip(ns, biases, usable) if ok]
    if len(pts) < 2:
        return {"slope": math.nan, "r_squared": math.nan, "status": "inconclusive"}
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return {"slope": float(slope), "r_squared": r2, "status": "ok"}


def bias_decay_experiment(cfg, mapper):
    """Bias against the exact terminal target, per horizon, with log-linear fit.

    Finite tempered models always get the exact-flow table (zero Monte
    Carlo noise); a particle table at the one particle count of grids.N
    is added whenever replicates > 0.  Inconclusive unless every fit is ok.
    """
    ref = reference_value(cfg)
    ns = cfg.grids["n"]
    rows, body = [], {"reference": ref, "exact": None, "particle": None}
    if cfg.model["kind"] == "finite-tempered":
        biases = [_exact_value(cfg, n) - ref for n in ns]
        usable = [abs(b) > _EXACT_FLOOR for b in biases]
        rows += [("exact", n, b, abs(b), 0.0, 1, 0, ok) for n, b, ok in zip(ns, biases, usable)]
        body["exact"] = _fit_decay(ns, biases, usable)

    if cfg.replicates > 0:
        cells = [(n, cfg.grids["N"][0]) for n in ns]
        biases, usable = [], []
        for n, (good, degenerate) in zip(ns, _gather_cells(cfg, cells, mapper)):
            bias = float(good.mean()) - ref if good.size else math.nan
            se = _std(good) / math.sqrt(good.size) if good.size > 1 else math.inf
            # fitting cells at the Monte Carlo noise floor produces garbage slopes
            ok = good.size > 1 and abs(bias) > 3.0 * se
            rows.append(("particle", n, bias, abs(bias), se, good.size, degenerate, ok))
            biases.append(bias)
            usable.append(ok)
        body["particle"] = _fit_decay(ns, biases, usable)

    fits = [fit for fit in (body["exact"], body["particle"]) if fit is not None]
    ok = fits and all(fit["status"] == "ok" for fit in fits)
    return Table(header=("mode", "n", "bias", "abs_bias", "std_err", "replicates_used",
                         "degenerate", "used_in_fit"),
                 rows=rows, status="ok" if ok else "inconclusive", body=body)


def n_scaling_experiment(cfg, mapper):
    """RMSE against the exact per-horizon value over the (n, N) product grid.

    The particle-count slope is fit at the horizon carrying the most
    particle counts with nonzero RMSE; the horizon ratio is taken at the
    largest particle count.  Ratios are also reported with a 2-sigma
    allowance on each end, so a violation claim must be statistically
    significant.  The ratio is inf when only its low end is 0, and nan when
    both are; with neither a slope nor a finite ratio the run is inconclusive.
    """
    ns, n_list = cfg.grids["n"], cfg.grids["N"]
    refs = {n: _exact_value(cfg, n) for n in ns}
    cells = [(n, N) for n in ns for N in n_list]
    rows, rmse, std_err = [], {}, {}
    for (n, N), (good, degenerate) in zip(cells, _gather_cells(cfg, cells, mapper)):
        sq = (good - refs[n]) ** 2
        mse = float(sq.mean()) if good.size else math.nan
        r = math.sqrt(mse)
        if good.size > 1 and r > 0:
            se = float(sq.std(ddof=1) / math.sqrt(good.size)) / (2.0 * r)
        else:
            se = math.inf
        rmse[n, N], std_err[n, N] = r, se
        rows.append((n, N, r, se, good.size, degenerate))

    slope, slope_n = math.nan, None
    by_n = {n: [N for N in n_list if rmse[n, N] > 0] for n in ns}
    candidates = [n for n in ns if len(by_n[n]) >= 2]
    if candidates:
        slope_n = max(candidates, key=lambda n: (len(by_n[n]), n))
        xs = np.log(by_n[slope_n])
        ys = np.log([rmse[slope_n, N] for N in by_n[slope_n]])
        slope = float(np.polyfit(xs, ys, 1)[0])

    ratio, ratio_adj, ratio_np = math.nan, math.nan, None
    if len(ns) >= 2:
        ratio_np = max(n_list)
        hi = max(((n, ratio_np) for n in ns), key=rmse.get)
        lo = min(((n, ratio_np) for n in ns), key=rmse.get)
        with np.errstate(divide="ignore", invalid="ignore"):  # an RMSE of 0 gives inf or nan
            ratio = float(np.divide(rmse[hi], rmse[lo]))
        ratio_adj = max(rmse[hi] - 2.0 * std_err[hi], 0.0) / (rmse[lo] + 2.0 * std_err[lo])

    return Table(
        header=("n", "n_particles", "rmse", "std_err", "replicates_used", "degenerate"),
        rows=rows,
        status="ok" if slope_n is not None or math.isfinite(ratio) else "inconclusive",
        body={"slope": slope, "slope_n": slope_n, "ratio_max_min": ratio,
              "ratio_se_adjusted": ratio_adj, "ratio_n_particles": ratio_np},
    )


def drift_probe(fam, gamma, scale, drift, radii, n_proposals, seed):
    """Estimate max over each shell of E[V(next)] / V(current).

    One ``(radius, point_index, ratio, std_err)`` row per probe point, shell
    by shell in increasing radius, with ``point_index`` counting the points
    of its shell from 0.  Each probe point uses ``n_proposals``
    Rao-Blackwellized random-walk proposals, centred Gaussian increments of
    standard deviation ``scale`` (the acceptance probability is integrated
    analytically, no accept draws).  The per-shell band is 4 standard
    errors of the worst point; the safe radius is the smallest shell where
    estimate + band < 1.  A shell with a non-finite ratio, as where V
    overflows, has no estimate: its ``lambda_hat`` and band are NaN, and it
    is never the safe radius.  ``drift`` is V as a plain callable over a
    batch of log target densities, as ``tempering.drift_function`` returns it.
    """
    d = fam.target.dim
    radii = np.asarray(sorted(radii), dtype=float)
    rows = []
    lam_hat = np.empty(radii.size)
    band = np.empty(radii.size)
    for i, r in enumerate(radii):
        if d == 1:
            dirs = np.array([[1.0], [-1.0]])
        else:
            g = streams.stream(seed, 0, i).standard_normal((_POINTS_PER_SHELL, d))
            dirs = g / np.linalg.norm(g, axis=1, keepdims=True)
        worst, worst_se = -np.inf, 0.0
        for j, direction in enumerate(dirs):
            x = r * direction
            rng = streams.stream(seed, 1, i, j)
            y = rng.standard_normal((n_proposals, d)) * scale
            with np.errstate(invalid="ignore", over="ignore"):
                cur = float(fam.target.log_unnorm(x))
                prop = np.asarray(fam.target.log_unnorm(x + y), dtype=float)
                a = np.exp(np.minimum(0.0, gamma * (prop - cur)))
                a = np.where(np.isfinite(prop), a, 0.0)
                vx = float(drift(np.array([cur]))[0])
                vals = (a * drift(prop) + (1.0 - a) * vx) / vx
                est = float(vals.mean())
                se = float(vals.std(ddof=1) / math.sqrt(n_proposals))
            rows.append((float(r), j, est, se))
            if not math.isfinite(est):
                worst = worst_se = math.nan
            elif est > worst:
                worst, worst_se = est, se
        lam_hat[i] = worst
        band[i] = 4.0 * worst_se
    safe = next(
        (float(r) for r, l, b in zip(radii, lam_hat, band) if l + b < 1.0), None
    )
    return Table(header=("radius", "point_index", "ratio", "std_err"), rows=rows, status="ok",
                 body={"radii": radii, "lambda_hat": lam_hat, "band": band,
                       "safe_radius": safe})


def drift_check_experiment(cfg):
    """Monte Carlo drift ratios on shells of the configured radii, numbered per radius."""
    fam = build_family(cfg.model)
    gamma = cfg.gamma if cfg.gamma is not None else fam.schedule.gamma_floor
    return drift_probe(fam, gamma, build_increment(cfg.model), build_drift(cfg), cfg.radii,
                       cfg.n_proposals, cfg.seed)


def _trajectory_task(args):
    cfg, n, n_particles, rep_ids = args
    model = build_model(cfg, n)
    drift = build_drift(cfg)
    cell_seed = streams.derive_seed(cfg.seed, n, n_particles)
    rows, degenerate = [], 0
    runs = run_sampler(model, n_particles, cell_seed, rep_ids, drift=drift)
    for r, summaries in zip(rep_ids, [row for _, per_row in runs for row in per_row]):
        if summaries is None:
            degenerate += 1
            continue
        for s in summaries:
            rows.append((r, n, s.k, s.ess, s.log_w_max, s.log_w_min, s.eta_v, s.eta_gtilde))
    return rows, degenerate


def run_trajectories(cfg, mapper):
    """Per-step diagnostics over replicates, one row per replicate and step.

    Inconclusive when no replicate gives a finite eta(G~), so the degeneracy
    floor was never tested; failed when the smallest eta(G~) is below it.
    """
    n_particles = cfg.grids["N"][0]
    cells = [(n, n_particles) for n in cfg.grids["n"]]
    results = _map_tasks(_trajectory_task, cfg, _replicate_tasks(cfg, cells), mapper)
    rows, degenerate = [], 0
    for block, deg in results:
        rows.extend(block)
        degenerate += deg
    max_eta_v = {}
    min_gtilde = math.inf
    for r, n, k, ess, lwmax, lwmin, eta_v, eta_g in rows:
        if math.isfinite(eta_v):
            max_eta_v[n] = max(max_eta_v.get(n, -math.inf), eta_v)
        if math.isfinite(eta_g):
            min_gtilde = min(min_gtilde, eta_g)
    observed = math.isfinite(min_gtilde)
    floor_ok = observed and min_gtilde >= cfg.degeneracy_floor
    return Table(
        header=("replicate", "n", "k", "ess", "log_w_max", "log_w_min", "eta_V",
                "eta_Gtilde"),
        rows=rows,
        status="ok" if floor_ok else "failed" if observed else "inconclusive",
        body={"max_eta_v": {str(n): v for n, v in sorted(max_eta_v.items())},
              "min_eta_gtilde": min_gtilde, "degeneracy_floor": cfg.degeneracy_floor,
              "floor_ok": floor_ok,
              "degenerate_replicates": degenerate},
    )


def _exp_or_inf(x):
    """math.exp, reading inf where the value leaves the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def r2_counterexample(epsilon, delta):
    """The two-point measure violating the product inequality, as one row.

    The construction lives in the plane: V grows along circles centered at
    (+epsilon, 0), G decays along circles centered at (-epsilon, 0).  The
    radial gap between the two circles through the probe point is maximal
    on the negative first axis, where it equals 2 epsilon in closed form
    (``psi_value``).

    The witness pair is y = (0, sqrt(r^2 - epsilon^2)) and y' = (-r, 0).
    log G + log V is -4 x_1 epsilon at a point x: 0 at y and 4 r epsilon at
    y'.  So the log margin of the violation has the closed form

        log 2 - log1p(delta) + log1p(exp(-4 r epsilon))
              - log1p(exp(-epsilon (2r - epsilon))) - log1p(exp(-epsilon (2r + epsilon))),

    free of the size-r^2 terms that cancel, and it decides the witness.
    Its first two terms are evaluated as log1p((1 - delta) / (1 + delta)),
    which stays positive for every float delta < 1.

    The working radius is at least 2 epsilon and 1/epsilon, and large
    enough that the pairwise ratio of the witness pair clears
    3*delta/(2+delta); if the margin is ever not positive the radius is
    grown until it is (branch = "searched").  Linear-scale values beyond
    the float range read inf (or 0).  Raises ``ValueError`` when the radius
    leaves the float range.

    ``log_margin > 0`` decides a violation.  ``lhs`` and ``rhs`` are rounded
    linear-scale values, so they cannot show a relative margin below about
    1e-16: at epsilon = 1 and delta = 1 - 2**-53 both read
    2.291749156844082e+186 while ``log_margin`` is 3.2e-17.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"delta must lie in [0, 1), got {delta}")
    theta = 3.0 * delta / (2.0 + delta)
    r = max(2.0 * epsilon, 1.0 / epsilon, epsilon + math.atanh(math.sqrt(theta)) / epsilon)
    branch = "direct"
    while True:
        if not math.isfinite(r + epsilon):
            raise ValueError(f"epsilon={epsilon!r} is too extreme: the witness radius "
                             "leaves the float range")
        log_margin = (math.log1p((1.0 - delta) / (1.0 + delta))
                      + math.log1p(math.exp(-4.0 * r * epsilon))
                      - math.log1p(math.exp(-epsilon * (2.0 * r - epsilon)))
                      - math.log1p(math.exp(-epsilon * (2.0 * r + epsilon))))
        if log_margin > 0.0:
            break
        branch = "searched"
        r *= 1.25

    y = (0.0, math.sqrt(r - epsilon) * math.sqrt(r + epsilon))
    y_mid = (-r, 0.0)
    # log G and log V at y and y'; products, not powers, so they overflow to inf
    lg, lv = -(r * r), r * r
    lgm, lvm = -((r - epsilon) * (r - epsilon)), (r + epsilon) * (r + epsilon)
    log_lhs = np.logaddexp(0.0, 4.0 * r * epsilon) - np.logaddexp(lg, lgm)
    log_rhs = math.log1p(delta) + np.logaddexp(lv, lvm) - math.log(2.0)
    lhs, rhs = _exp_or_inf(float(log_lhs)), _exp_or_inf(float(log_rhs))
    g_vals, v_vals = (_exp_or_inf(lg), _exp_or_inf(lgm)), (_exp_or_inf(lv), _exp_or_inf(lvm))
    return Table(
        header=("epsilon", "delta", "lhs", "rhs", "psi", "log_margin", "y1", "y2", "yprime1",
                "yprime2", "g_y", "g_yprime", "v_y", "v_yprime", "branch"),
        rows=[(epsilon, delta, lhs, rhs, 2.0 * epsilon, log_margin, *y, *y_mid, *g_vals,
               *v_vals, branch)],
        status="ok",
        body={"epsilon": epsilon, "delta": delta, "witness": (y, y_mid), "lhs": lhs,
              "rhs": rhs, "psi_value": 2.0 * epsilon, "log_margin": log_margin,
              "g_vals": g_vals, "v_vals": v_vals, "probe_point": y, "branch": branch},
    )


def counterexample_experiment(cfg):
    """The violating two-point measure at the configured (epsilon, delta), as one row."""
    try:
        return r2_counterexample(cfg.epsilon, cfg.delta)
    except ValueError as exc:
        # delta is range-checked at parse time, so only epsilon can be out of reach here
        raise ConfigError("epsilon", str(exc)) from exc


def lemma1_audit(models, drift, minorizer):
    """Tabulate the tilted minorization/drift inequalities over an n-grid.

    One CSV row per model and step: n, k, the tilt coefficient eps_nk, the
    drift offset in its printed (b_printed) and derivation (b_proof)
    indexings, and whether the minorization, the drift against each offset
    and the A2 preconditions hold at that step (minor_ok, drift_ok,
    drift_ok_proof, a2_ok).  The printed offset decides ``all_pass`` and
    the status, "ok" or "failed".  The per-horizon infimum of the tilt
    coefficient exhibits its non-vanishing in n.
    """
    rows, a2_failures, per_n, all_pass = [], [], {}, True
    for model in models:
        n = model.horizon
        td = oracle.tilted_drift_objects(model, drift, minorizer)
        minor_ok, drift_ok = td.minor_ok.all(axis=1), td.drift_ok.all(axis=1)
        all_pass = all_pass and bool((minor_ok & drift_ok & td.a2_ok).all())
        eps_nk = td.eps_nk.tolist()
        rows += zip([n] * n, range(1, n + 1), eps_nk, td.b_nk.tolist(), td.b_nk_proof.tolist(),
                    minor_ok.tolist(), drift_ok.tolist(), td.drift_ok_proof.all(axis=1).tolist(),
                    td.a2_ok.tolist())
        for msg in td.a2_failures:
            tag = f"n={n}: {msg}"
            if tag not in a2_failures:
                a2_failures.append(tag)
        per_n[n] = min(per_n.get(n, math.inf), *eps_nk)
    return Table(
        header=("n", "k", "eps_nk", "b_printed", "b_proof", "minor_ok", "drift_ok",
                "drift_ok_proof", "a2_ok"),
        rows=rows,
        status="ok" if all_pass else "failed",
        body={"inf_eps": min(per_n.values()) if per_n else math.nan,
              "per_n_inf_eps": {str(n): v for n, v in sorted(per_n.items())},
              "all_pass": all_pass, "a2_failures": a2_failures},
    )


def lemma1_audit_experiment(cfg):
    drift, minorizer = build_drift_inputs(cfg)
    models = [build_model(cfg, n) for n in cfg.grids["n"]]
    return lemma1_audit(models, drift, minorizer)
