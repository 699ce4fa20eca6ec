"""Experiment configuration: strict parsing and resolution of named components.

Configs are JSON objects.  Unknown keys are rejected with the path to the
offending key; all named targets, schedules, increments, initial laws and
test functions must resolve.  Parameter combinations outside the
guaranteed-stability region are recorded as warnings, never errors: the
experiment still runs, labeled as out-of-theory.
"""

import json
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .fk_core import FKModel, InitialDistribution
from . import finite, rwm, tempering

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "build_model",
    "build_family",
    "build_increment",
    "build_drift",
    "build_drift_inputs",
    "build_f",
    "finite_f_vector",
    "reference_value",
    "DEFAULTS",
]

KINDS = ("bias-decay", "n-scaling", "drift-check", "counterexample", "lemma1-audit", "run")

DEFAULTS = {"alpha": 0.25, "p": 1.0, "s": 1.0, "gamma_floor": 0.7}

_TOP_KEYS = {
    "experiment", "seed", "out_dir", "workers", "replicates", "grids",
    "alpha", "p", "s", "model", "init", "f", "radii", "gamma",
    "epsilon", "delta", "n_proposals", "degeneracy_floor",
}


class ConfigError(ValueError):
    """Invalid configuration; carries the path of the offending key."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


def _check_keys(d, allowed, path):
    for key in d:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown key")


def _get(d, key, path, required=False, default=None):
    if key not in d:
        if required:
            raise ConfigError(f"{path}.{key}" if path else key, "missing required key")
        return default
    return d[key]


def _int_at_least(val, path, lo):
    if not isinstance(val, int) or isinstance(val, bool) or val < lo:
        raise ConfigError(path, f"must be an integer >= {lo}")
    return val


def _positive_int_list(val, path):
    if not isinstance(val, list) or not val:
        raise ConfigError(path, "must be a non-empty list")
    return tuple(_int_at_least(x, f"{path}[{i}]", 1) for i, x in enumerate(val))


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int
    out_dir: str
    workers: Optional[int]
    replicates: int
    grids: dict
    alpha: float
    p: float
    s: float
    model: Optional[dict]
    init: Optional[dict]
    f: Optional[dict]
    radii: Optional[tuple]
    gamma: Optional[float]
    epsilon: Optional[float]
    delta: Optional[float]
    n_proposals: int
    degeneracy_floor: float
    warnings: tuple = ()
    checks: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)


def _validate_model(spec):
    if not isinstance(spec, dict):
        raise ConfigError("model", "must be an object")
    kind = _get(spec, "kind", "model", required=True)
    if kind == "finite-tempered":
        _check_keys(
            spec, {"kind", "log_weights", "schedule", "move_prob", "beta", "lam"}, "model"
        )
        lw = _get(spec, "log_weights", "model", required=True)
        if not isinstance(lw, list) or len(lw) < 2:
            raise ConfigError("model.log_weights", "need at least two states")
    elif kind == "gaussian":
        _check_keys(spec, {"kind", "target", "schedule", "increment", "beta"}, "model")
        target = _get(spec, "target", "model", required=True)
        if not isinstance(target, dict) or target.get("name") not in (
            "gaussian",
            "gaussian-mixture",
        ):
            raise ConfigError("model.target.name", "unknown target")
    else:
        raise ConfigError("model.kind", f"unknown model kind {kind!r}")
    sched = _get(spec, "schedule", "model", default={"name": "linear"})
    if not isinstance(sched, dict) or sched.get("name", "linear") not in (
        "linear",
        "smoothstep",
        "piecewise-linear",
    ):
        raise ConfigError("model.schedule.name", "unknown schedule")
    build_schedule(spec)  # raises ConfigError on bad parameters


def build_schedule(model_spec):
    sched = dict(model_spec.get("schedule") or {"name": "linear"})
    name = sched.pop("name", "linear")
    floor = sched.pop("gamma_floor", DEFAULTS["gamma_floor"])
    try:
        if name == "linear":
            out = tempering.linear_schedule(floor)
        elif name == "smoothstep":
            out = tempering.smoothstep_schedule(floor)
        else:
            out = tempering.piecewise_linear_schedule(floor, sched.pop("knots", []))
    except ValueError as exc:
        raise ConfigError("model.schedule", str(exc)) from exc
    if sched:
        raise ConfigError(f"model.schedule.{next(iter(sched))}", "unknown key")
    return out


def build_family(model_spec):
    target = dict(model_spec["target"])
    name = target.pop("name")
    if name == "gaussian":
        t = tempering.gaussian_target(
            mean=target.pop("mean", [0.0]), sigma=target.pop("sigma", [1.0])
        )
    else:
        for key in ("means", "sigmas", "weights"):
            if key not in target:
                raise ConfigError(f"model.target.{key}", "missing required key")
        t = tempering.gaussian_mixture_target(
            means=target.pop("means"),
            sigmas=target.pop("sigmas"),
            weights=target.pop("weights"),
        )
    if target:
        raise ConfigError(f"model.target.{next(iter(target))}", "unknown key")
    return tempering.TemperedFamily(target=t, schedule=build_schedule(model_spec))


def build_increment(model_spec, dim):
    spec = dict(model_spec.get("increment") or {"name": "gaussian"})
    name = spec.pop("name", "gaussian")
    if name == "gaussian":
        q = rwm.gaussian_increment(dim, scale=spec.pop("scale", 1.0))
    elif name == "uniform-ball":
        q = rwm.uniform_ball_increment(dim, radius=spec.pop("radius", 1.0))
    else:
        raise ConfigError("model.increment.name", f"unknown increment {name!r}")
    if spec:
        raise ConfigError(f"model.increment.{next(iter(spec))}", "unknown key")
    return q


def _finite_init_vector(cfg, n_states):
    spec = dict(cfg.init or {"name": "tempered-floor"})
    name = spec.get("name")
    logw = np.asarray(cfg.model["log_weights"], dtype=float)
    if name == "tempered-floor":
        return finite.tempered_stationary(logw, build_schedule(cfg.model).gamma_floor)
    if name == "dirac":
        state = spec.get("state", 0)
        if not 0 <= state < n_states:
            raise ConfigError("init.state", f"state {state} outside [0, {n_states - 1}]")
        vec = np.zeros(n_states)
        vec[state] = 1.0
        return vec
    if name == "weights":
        w = np.asarray(spec.get("weights", []), dtype=float)
        if w.size != n_states:
            raise ConfigError("init.weights", f"need {n_states} entries")
        return w
    raise ConfigError("init.name", f"unknown finite initial law {name!r}")


def _continuous_init(cfg, fam):
    spec = dict(cfg.init or {"name": "tempered-floor"})
    name = spec.get("name")
    if name == "tempered-floor":
        sampler = fam.target.tempered_sampler
        if sampler is None:
            raise ConfigError("init.name", "target has no exact tempered sampler")
        floor = fam.schedule.gamma_floor
        return InitialDistribution(sample=lambda size, rng: sampler(floor, size, rng))
    if name == "gaussian":
        mean = np.atleast_1d(np.asarray(spec.get("mean", [0.0]), dtype=float))
        sigma = np.broadcast_to(
            np.asarray(spec.get("sigma", [1.0]), dtype=float), mean.shape
        ).copy()
        if mean.size != fam.target.dim:
            raise ConfigError("init.mean", f"dimension {mean.size} != target {fam.target.dim}")
        return InitialDistribution(
            sample=lambda size, rng: mean + sigma * rng.standard_normal((size, mean.size))
        )
    if name == "point":
        point = np.atleast_1d(np.asarray(spec.get("point", [0.0]), dtype=float))
        return InitialDistribution(sample=lambda size, rng: np.tile(point, (size, 1)))
    raise ConfigError("init.name", f"unknown initial law {name!r}")


def build_model(cfg, n):
    """Construct the model at horizon n from a validated config."""
    spec = cfg.model
    if spec["kind"] == "finite-tempered":
        logw = np.asarray(spec["log_weights"], dtype=float)
        return finite.tempered_chain_model(
            logw,
            build_schedule(spec),
            n,
            move_prob=spec.get("move_prob", 0.5),
            init=_finite_init_vector(cfg, logw.size),
        )
    fam = build_family(spec)
    q = build_increment(spec, fam.target.dim)
    return FKModel(
        horizon=n,
        kernels=rwm.rwm_kernel_family(fam, n, q),
        potentials=tempering.build_potentials(fam, n),
        initial=_continuous_init(cfg, fam),
    )


def build_drift(cfg):
    spec = cfg.model
    beta = spec.get("beta", 0.5)
    if spec["kind"] == "gaussian":
        return tempering.drift_function(build_family(spec), beta)
    return build_drift_inputs(cfg)[0]


def build_drift_inputs(cfg):
    """Certified (DriftSpec, (eps, nu)) pair for a finite tempered config."""
    spec = cfg.model
    if spec["kind"] != "finite-tempered":
        raise ConfigError("model.kind", "drift inputs require a finite tempered model")
    return finite.drift_inputs_for_chain(
        np.asarray(spec["log_weights"], dtype=float),
        gamma_floor=build_schedule(spec).gamma_floor,
        move_prob=spec.get("move_prob", 0.5),
        beta=spec.get("beta", 0.5),
        lam=spec.get("lam", 0.6),
    )


def build_f(cfg):
    spec = dict(cfg.f or {"name": "coordinate"})
    name = spec.get("name")
    if name == "coordinate":
        axis = spec.get("axis", 0)
        return lambda x: np.asarray(x, dtype=float)[..., axis]
    if name == "indicator":
        state = spec.get("state", 0)
        return lambda x: (np.asarray(x) == state).astype(float)
    if name == "constant":
        value = float(spec.get("value", 1.0))
        return lambda x: np.full(np.asarray(x).shape[:1], value)
    raise ConfigError("f.name", f"unknown test function {name!r}")


def finite_f_vector(cfg, n_states):
    return np.asarray(build_f(cfg)(np.arange(n_states)), dtype=float)


def reference_value(cfg):
    """Exact terminal-target value of f: oracle vector for finite models,
    analytic moments for Gaussian targets."""
    spec = cfg.model
    fspec = dict(cfg.f or {"name": "coordinate"})
    if spec["kind"] == "finite-tempered":
        logw = np.asarray(spec["log_weights"], dtype=float)
        pi = finite.tempered_stationary(logw, 1.0)
        return float(pi @ finite_f_vector(cfg, logw.size))
    target = spec["target"]
    if target["name"] != "gaussian":
        raise ConfigError("f", "no analytic reference for this target")
    if fspec.get("name") == "coordinate":
        return float(np.atleast_1d(target.get("mean", [0.0]))[fspec.get("axis", 0)])
    if fspec.get("name") == "constant":
        return float(fspec.get("value", 1.0))
    raise ConfigError("f.name", "no analytic reference for this test function")


def _stability_checks(cfg_dict, warnings):
    """Record the parameter trade-off checks; violations warn, never fail."""
    model = cfg_dict.get("model")
    checks = {}
    if model is None:
        return checks
    alpha = cfg_dict.get("alpha", DEFAULTS["alpha"])
    p = cfg_dict.get("p", DEFAULTS["p"])
    s = cfg_dict.get("s", DEFAULTS["s"])
    floor = (model.get("schedule") or {}).get("gamma_floor", DEFAULTS["gamma_floor"])
    t = (1.0 + s) / s
    checks["alpha_t_p"] = alpha * t * p
    checks["alpha_t_p_ok"] = alpha * t * p <= 1.0
    floor_ratio = (1.0 + s) * p * (1.0 - floor) / floor
    checks["floor_ratio"] = floor_ratio
    checks["floor_ratio_ok"] = floor_ratio < 1.0
    if not checks["alpha_t_p_ok"]:
        warnings.append(
            f"alpha*t*p = {alpha * t * p:.3g} > 1: outside the guaranteed-stability "
            "parameter region"
        )
    if not checks["floor_ratio_ok"]:
        warnings.append(
            f"(1+s)*p*(1-gamma_floor)/gamma_floor = {floor_ratio:.3g} >= 1: outside "
            "the guaranteed-stability parameter region"
        )
    return checks


def parse_config(text):
    """Parse and validate a JSON config; raises ConfigError with a key path."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("<json>", f"not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("<json>", "top level must be an object")
    _check_keys(raw, _TOP_KEYS, "")

    kind = _get(raw, "experiment", "", required=True)
    if kind not in KINDS:
        raise ConfigError("experiment", f"unknown experiment {kind!r}; expected one of {KINDS}")
    seed = _get(raw, "seed", "", required=True)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError("seed", "must be an integer (wall-clock seeding is not allowed)")

    grids = dict(_get(raw, "grids", "", default={}))
    _check_keys(grids, {"n", "N"}, "grids")
    parsed_grids = {}
    for key in ("n", "N"):
        if key in grids:
            parsed_grids[key] = _positive_int_list(grids[key], f"grids.{key}")

    needs_model = kind != "counterexample"
    model = _get(raw, "model", "", required=needs_model)
    if model is not None:
        _validate_model(model)

    if kind in ("bias-decay", "n-scaling", "lemma1-audit", "run") and "n" not in parsed_grids:
        raise ConfigError("grids.n", "missing required key")
    if kind in ("n-scaling", "run") and "N" not in parsed_grids:
        raise ConfigError("grids.N", "missing required key")
    if kind == "run" and len(parsed_grids["N"]) != 1:
        raise ConfigError("grids.N", "the run experiment takes exactly one particle count")
    if kind in ("n-scaling", "lemma1-audit") and model["kind"] != "finite-tempered":
        raise ConfigError("model.kind", f"{kind} requires a finite tempered model")
    if kind == "drift-check":
        if model["kind"] != "gaussian":
            raise ConfigError("model.kind", "drift-check requires a continuous model")
        if not raw.get("radii"):
            raise ConfigError("radii", "missing required key")
    if kind == "counterexample":
        for key in ("epsilon", "delta"):
            if key not in raw:
                raise ConfigError(key, "missing required key")

    replicates = _int_at_least(_get(raw, "replicates", "", default=0), "replicates", 0)
    if kind in ("n-scaling", "run") and replicates < 1:
        raise ConfigError("replicates", f"{kind} requires at least one replicate")

    workers = _get(raw, "workers", "", default=None)
    if workers is not None:
        _int_at_least(workers, "workers", 1)
    n_proposals = _int_at_least(_get(raw, "n_proposals", "", default=100_000), "n_proposals", 2)
    gamma = _get(raw, "gamma", "", default=None)
    if gamma is not None:
        floor = build_schedule(model).gamma_floor if model else DEFAULTS["gamma_floor"]
        if isinstance(gamma, bool) or not isinstance(gamma, (int, float)) or not (
            floor <= gamma <= 1.0
        ):
            raise ConfigError("gamma", f"must be a number in [{floor}, 1]")

    warnings = []
    checks = _stability_checks(raw, warnings)

    cfg = ExperimentConfig(
        experiment=kind,
        seed=seed,
        out_dir=_get(raw, "out_dir", "", default=f"out/{kind}"),
        workers=workers,
        replicates=replicates,
        grids=parsed_grids,
        alpha=float(_get(raw, "alpha", "", default=DEFAULTS["alpha"])),
        p=float(_get(raw, "p", "", default=DEFAULTS["p"])),
        s=float(_get(raw, "s", "", default=DEFAULTS["s"])),
        model=model,
        init=_get(raw, "init", "", default=None),
        f=_get(raw, "f", "", default=None),
        radii=tuple(raw["radii"]) if raw.get("radii") else None,
        gamma=gamma,
        epsilon=_get(raw, "epsilon", "", default=None),
        delta=_get(raw, "delta", "", default=None),
        n_proposals=n_proposals,
        degeneracy_floor=float(_get(raw, "degeneracy_floor", "", default=0.01)),
        warnings=tuple(warnings),
        checks=checks,
    )
    # force resolution errors (bad names, mismatched dimensions) to parse time
    try:
        if cfg.model is not None:
            build_model(cfg, n=2)
            if cfg.f is not None:
                build_f(cfg)
    except ConfigError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError("model", str(exc)) from exc
    return cfg
