"""Experiment configuration: strict parsing and resolution of named components.

Configs are JSON objects.  ``COMPONENTS`` lists every component, the names it
accepts, the keys each name takes and their defaults; ``_read`` is its one
reader, and the builders take their values only from it.  The stored config
keeps the specs as given.  Malformed input raises ``ConfigError`` with the
path of the offending key, at parse time: ``parse_config`` checks the scalar
keys and builds the model and the test function once.  Parameter combinations
outside the guaranteed-stability region are recorded as warnings, never
errors: the experiment still runs, labeled as out-of-theory.
"""

import json
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .fk_core import FKModel, InitialDistribution
from . import finite, rwm, tempering

__all__ = [
    "ConfigError", "ExperimentConfig", "COMPONENTS", "parse_config", "build_model",
    "build_family", "build_increment", "build_drift", "build_drift_inputs", "build_f",
    "finite_f_vector", "reference_value",
]

KINDS = ("bias-decay", "n-scaling", "drift-check", "counterexample", "lemma1-audit", "run")

REQUIRED = object()  # marks a key, or a selecting name, that has no default

_TOP_LEVEL = {
    "seed": REQUIRED, "out_dir": None, "workers": None, "replicates": 0, "grids": {},
    "alpha": 0.25, "p": 1.0, "s": 1.0, "model": None, "init": None, "f": None,
    "radii": None, "gamma": None, "epsilon": None, "delta": None,
    "n_proposals": 100_000, "degeneracy_floor": 0.01,
}
_FLOOR = {"gamma_floor": 0.7}
_MAX_LOG = float(np.log(np.finfo(float).max))  # larger log weights overflow the exact potentials

# path -> (selecting key, default name, {name: {key: default}}).  This is the
# only place a component key or default is spelled.  Where a constructor
# builds the component, the keys are its keyword parameters.
COMPONENTS = {
    "": ("experiment", REQUIRED, dict.fromkeys(KINDS, _TOP_LEVEL)),
    "model": ("kind", REQUIRED, {
        "finite-tempered": {"log_weights": REQUIRED, "schedule": None, "move_prob": 0.5,
                            "beta": 0.5, "lam": 0.6},
        "gaussian": {"target": REQUIRED, "schedule": None, "increment": None, "beta": 0.5},
    }),
    "model.schedule": ("name", "linear", {
        "linear": _FLOOR, "smoothstep": _FLOOR, "piecewise-linear": {**_FLOOR, "knots": ()},
    }),
    "model.target": ("name", REQUIRED, {
        "gaussian": {"mean": (0.0,), "sigma": (1.0,)},
        "gaussian-mixture": {"means": REQUIRED, "sigmas": REQUIRED, "weights": REQUIRED},
    }),
    "model.increment": ("name", "gaussian", {
        "gaussian": {"scale": 1.0}, "uniform-ball": {"radius": 1.0},
    }),
    "init": ("name", "tempered-floor", {
        "tempered-floor": {}, "dirac": {"state": 0}, "weights": {"weights": REQUIRED},
        "gaussian": {"mean": (0.0,), "sigma": (1.0,)}, "point": {"point": (0.0,)},
    }),
    "f": ("name", "coordinate", {
        "coordinate": {"axis": 0}, "indicator": {"state": 0}, "constant": {"value": 1.0},
    }),
}

_SCHEDULES = {"linear": tempering.linear_schedule, "smoothstep": tempering.smoothstep_schedule,
              "piecewise-linear": tempering.piecewise_linear_schedule}
_TARGETS = {"gaussian": tempering.gaussian_target,
            "gaussian-mixture": tempering.gaussian_mixture_target}
_INCREMENTS = {"gaussian": rwm.gaussian_increment, "uniform-ball": rwm.uniform_ball_increment}


class ConfigError(ValueError):
    """Invalid configuration; carries the path of the offending key."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


def _join(path, key):
    return f"{path}.{key}" if path else key


def _check_keys(d, allowed, path):
    for key in d:
        if key not in allowed:
            raise ConfigError(_join(path, key), "unknown key")


def _read(path, spec):
    """Selected name and parameters of the component at ``path``.

    The parameters hold every key the name takes, defaults filled in from
    ``COMPONENTS``.  A ``None`` spec reads as ``{}``: an absent component
    takes its default name and defaults.
    """
    select, default, names = COMPONENTS[path]
    spec = {} if spec is None else spec
    if not isinstance(spec, dict):
        raise ConfigError(path, "must be an object")
    name = spec.get(select, default)
    if name is REQUIRED:
        raise ConfigError(_join(path, select), "missing required key")
    if not isinstance(name, str) or name not in names:
        raise ConfigError(_join(path, select),
                          f"unknown {select} {name!r}; expected one of {tuple(names)}")
    keys = names[name]
    _check_keys(spec, (select, *keys), path)
    params = {key: spec.get(key, value) for key, value in keys.items()}
    for key, value in params.items():
        if value is REQUIRED:
            raise ConfigError(_join(path, key), "missing required key")
    return name, params


@contextmanager
def _at(path):
    """Report a constructor's rejection of its config values as a ConfigError at ``path``."""
    try:
        yield
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(path, str(exc)) from exc


def _floats(val, path):
    """``val`` as a float array; every entry must be a finite number."""
    with _at(path):
        arr = np.asarray(val, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ConfigError(path, "entries must be finite numbers")
    return arr


def _int_at_least(val, path, lo, size=None):
    """``val`` if it is an integer >= ``lo`` (and < ``size`` when given); bools are not."""
    if (not isinstance(val, int) or isinstance(val, bool) or val < lo
            or size is not None and val >= size):
        bound = f">= {lo}" if size is None else f"in [{lo}, {size - 1}]"
        raise ConfigError(path, f"must be an integer {bound}")
    return val


def _number(val, path, what="", ok=lambda x: True):
    """``val`` if it is a finite JSON number (bools are not) and ``ok(val)``."""
    if (isinstance(val, bool) or not isinstance(val, (int, float))
            or not abs(val) <= sys.float_info.max or not ok(val)):
        raise ConfigError(path, f"must be a finite number{what}")
    return val


def _positive(val, path):
    return _number(val, path, " > 0", lambda x: x > 0)


def _nonempty_list(val, path, item):
    if not isinstance(val, list) or not val:
        raise ConfigError(path, "must be a non-empty list")
    return tuple(item(x, f"{path}[{i}]") for i, x in enumerate(val))


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


def _model(spec):
    """Kind and parameters of a model spec; ``log_weights`` comes back as a float array."""
    kind, params = _read("model", spec)
    for key in ("beta", "lam"):
        if key in params:
            _number(params[key], f"model.{key}", " in (0, 1)", lambda x: 0 < x < 1)
    if kind == "finite-tempered":
        logw = _floats(params["log_weights"], "model.log_weights")
        if logw.ndim != 1 or logw.size < 2 or not np.all(np.isfinite(logw) & (logw <= _MAX_LOG)):
            raise ConfigError("model.log_weights",
                              f"need a list of at least two finite numbers <= {_MAX_LOG:.4g}")
        params["log_weights"] = logw
    return kind, params


def build_schedule(spec):
    """The tempering schedule of a ``model.schedule`` spec (``None`` for the default)."""
    name, params = _read("model.schedule", spec)
    with _at("model.schedule"):
        return _SCHEDULES[name](**params)


def build_family(model_spec):
    _, spec = _model(model_spec)
    name, params = _read("model.target", spec["target"])
    with _at("model.target"):
        target = _TARGETS[name](**params)
    if target.dim < 1:
        raise ConfigError("model.target", "need at least one dimension")
    return tempering.TemperedFamily(target=target, schedule=build_schedule(spec["schedule"]))


def build_increment(model_spec, dim):
    _, spec = _model(model_spec)
    name, params = _read("model.increment", spec["increment"])
    with _at("model.increment"):
        return _INCREMENTS[name](dim, **params)


def _finite_init_vector(cfg, logw, gamma_floor):
    name, spec = _read("init", cfg.init)
    n_states = logw.size
    if name == "tempered-floor":
        return finite.tempered_stationary(logw, gamma_floor)
    if name == "dirac":
        vec = np.zeros(n_states)
        vec[_int_at_least(spec["state"], "init.state", 0, n_states)] = 1.0
        return vec
    if name == "weights":
        w = _floats(spec["weights"], "init.weights")
        if w.shape != (n_states,):
            raise ConfigError("init.weights", f"need {n_states} entries")
        with _at("init.weights"):  # the model's own probability-vector check
            finite._initial_from_weights(w)
        return w
    raise ConfigError("init.name", f"{name!r} is not an initial law of a finite model")


def _continuous_init(cfg, fam):
    name, spec = _read("init", cfg.init)
    dim = fam.target.dim
    if name == "tempered-floor":
        sampler = fam.target.tempered_sampler
        if sampler is None:
            raise ConfigError("init.name", "target has no exact tempered sampler")
        floor = fam.schedule.gamma_floor
        return InitialDistribution(sample=lambda size, rng: sampler(floor, size, rng))
    if name == "gaussian":
        mean = np.atleast_1d(_floats(spec["mean"], "init.mean"))
        sigma = _floats(spec["sigma"], "init.sigma")
        if not np.all(sigma > 0):
            raise ConfigError("init.sigma", "entries must be > 0")
        with _at("init.sigma"):
            sigma = np.broadcast_to(sigma, mean.shape).copy()
        if mean.size != dim:
            raise ConfigError("init.mean", f"dimension {mean.size} != target {dim}")
        return InitialDistribution(
            sample=lambda size, rng: mean + sigma * rng.standard_normal((size, mean.size))
        )
    if name == "point":
        point = np.atleast_1d(_floats(spec["point"], "init.point"))
        if point.shape != (dim,):
            raise ConfigError("init.point", f"need {dim} coordinates")
        return InitialDistribution(sample=lambda size, rng: np.tile(point, (size, 1)))
    raise ConfigError("init.name", f"{name!r} is not an initial law of a continuous model")


def build_model(cfg, n):
    """Construct the model at horizon n from a validated config."""
    kind, spec = _model(cfg.model)
    if kind == "finite-tempered":
        logw = spec["log_weights"]
        schedule = build_schedule(spec["schedule"])
        init = _finite_init_vector(cfg, logw, schedule.gamma_floor)
        with _at("model"):
            return finite.tempered_chain_model(
                logw, schedule, n, move_prob=spec["move_prob"], init=init
            )
    fam = build_family(cfg.model)
    q = build_increment(cfg.model, fam.target.dim)
    with _at("model"):
        kernels = rwm.rwm_kernel_family(fam, n, q)
        potentials = tempering.build_potentials(fam, n)
    return FKModel(horizon=n, kernels=kernels, potentials=potentials,
                   initial=_continuous_init(cfg, fam))


def build_drift(cfg):
    kind, spec = _model(cfg.model)
    if kind == "gaussian":
        return tempering.drift_function(build_family(cfg.model), spec["beta"])
    return build_drift_inputs(cfg)[0]


def build_drift_inputs(cfg):
    """Certified (DriftSpec, (eps, nu)) pair for a finite tempered config."""
    kind, spec = _model(cfg.model)
    if kind != "finite-tempered":
        raise ConfigError("model.kind", "drift inputs require a finite tempered model")
    floor = build_schedule(spec["schedule"]).gamma_floor
    with _at("model"):
        return finite.drift_inputs_for_chain(
            spec["log_weights"], gamma_floor=floor, move_prob=spec["move_prob"],
            beta=spec["beta"], lam=spec["lam"],
        )


def build_f(cfg):
    """The test function, vectorized over a batch of states.

    A finite state counts as one coordinate, so ``coordinate`` with axis 0
    is the state index itself.
    """
    name, spec = _read("f", cfg.f)
    if name == "coordinate":
        kind, _ = _model(cfg.model)
        dim = 1 if kind == "finite-tempered" else build_family(cfg.model).target.dim
        axis = _int_at_least(spec["axis"], "f.axis", 0, dim)

        def coordinate(x):
            x = np.asarray(x, dtype=float)
            return x.reshape(len(x), -1)[:, axis]

        return coordinate
    if name == "indicator":
        state = _number(spec["state"], "f.state")
        return lambda x: (np.asarray(x) == state).astype(float)
    value = float(_number(spec["value"], "f.value"))
    return lambda x: np.full(np.asarray(x).shape[:1], value)


def finite_f_vector(cfg, n_states):
    return np.asarray(build_f(cfg)(np.arange(n_states)), dtype=float)


def reference_value(cfg):
    """Exact terminal-target value of f: oracle vector for finite models,
    analytic moments for Gaussian targets."""
    kind, spec = _model(cfg.model)
    if kind == "finite-tempered":
        pi = finite.tempered_stationary(spec["log_weights"], 1.0)
        return float(pi @ finite_f_vector(cfg, pi.size))
    target, tparams = _read("model.target", spec["target"])
    if target != "gaussian":
        raise ConfigError("f", "no analytic reference for this target")
    name, fparams = _read("f", cfg.f)
    if name == "coordinate":
        return float(np.ravel(tparams["mean"])[fparams["axis"]])
    if name == "constant":
        return float(fparams["value"])
    raise ConfigError("f.name", "no analytic reference for this test function")


def _stability_checks(alpha, p, s, floor, warnings):
    """Record the parameter trade-off checks; violations warn, never fail."""
    t = (1.0 + s) / s
    alpha_t_p, floor_ratio = alpha * t * p, (1.0 + s) * p * (1.0 - floor) / floor
    region = "outside the guaranteed-stability parameter region"
    if alpha_t_p > 1.0:
        warnings.append(f"alpha*t*p = {alpha_t_p:.3g} > 1: {region}")
    if floor_ratio >= 1.0:
        warnings.append(f"(1+s)*p*(1-gamma_floor)/gamma_floor = {floor_ratio:.3g} >= 1: {region}")
    return {"alpha_t_p": alpha_t_p, "alpha_t_p_ok": alpha_t_p <= 1.0,
            "floor_ratio": floor_ratio, "floor_ratio_ok": floor_ratio < 1.0}


def parse_config(text):
    """Parse and validate a JSON config; raises ConfigError with a key path."""
    try:
        raw = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError("<json>", f"not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("<json>", "top level must be an object")
    kind, top = _read("", raw)
    seed = _int_at_least(top["seed"], "seed", 0)

    grids = top["grids"]
    if not isinstance(grids, dict):
        raise ConfigError("grids", "must be an object")
    _check_keys(grids, ("n", "N"), "grids")
    parsed_grids = {
        key: _nonempty_list(grids[key], f"grids.{key}", lambda x, at: _int_at_least(x, at, 1))
        for key in ("n", "N") if key in grids
    }

    model, model_kind, schedule = top["model"], None, None
    if model is not None:
        model_kind, params = _model(model)
        schedule = params["schedule"]
    elif kind != "counterexample":
        raise ConfigError("model", "missing required key")

    if kind in ("bias-decay", "n-scaling", "lemma1-audit", "run") and "n" not in parsed_grids:
        raise ConfigError("grids.n", "missing required key")
    replicates = _int_at_least(top["replicates"], "replicates", 0)
    particles = kind in ("n-scaling", "run") or kind == "bias-decay" and replicates > 0
    if particles and "N" not in parsed_grids:
        raise ConfigError("grids.N", "missing required key")
    if particles and kind != "n-scaling" and len(parsed_grids["N"]) != 1:
        raise ConfigError("grids.N", f"the {kind} experiment takes exactly one particle count")
    if kind in ("n-scaling", "lemma1-audit") and model_kind != "finite-tempered":
        raise ConfigError("model.kind", f"{kind} requires a finite tempered model")
    if kind == "drift-check" and model_kind != "gaussian":
        raise ConfigError("model.kind", "drift-check requires a continuous model")
    required = {"drift-check": ("radii",), "counterexample": ("epsilon", "delta")}
    for key in required.get(kind, ()):
        if top[key] is None:
            raise ConfigError(key, "missing required key")

    if kind in ("n-scaling", "run") and replicates < 1:
        raise ConfigError("replicates", f"{kind} requires at least one replicate")
    workers = top["workers"]
    if workers is not None:
        _int_at_least(workers, "workers", 1)
    n_proposals = _int_at_least(top["n_proposals"], "n_proposals", 2)
    alpha, p, s = (_positive(top[key], key) for key in ("alpha", "p", "s"))
    floor = build_schedule(schedule).gamma_floor
    gamma = top["gamma"]
    if gamma is not None:
        _number(gamma, "gamma", f" in [{floor}, 1]", lambda x: floor <= x <= 1.0)
    if top["epsilon"] is not None:
        _positive(top["epsilon"], "epsilon")
    if top["delta"] is not None:
        _number(top["delta"], "delta", " in [0, 1)", lambda x: 0 <= x < 1)
    floor_frac = _number(top["degeneracy_floor"], "degeneracy_floor", " in [0, 1]",
                         lambda x: 0 <= x <= 1)
    radii = top["radii"]
    if radii is not None:
        radii = _nonempty_list(radii, "radii", _positive)
    out_dir = f"out/{kind}" if top["out_dir"] is None else top["out_dir"]
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError("out_dir", "must be a non-empty string")

    warnings = []
    checks = {} if model is None else _stability_checks(alpha, p, s, floor, warnings)

    cfg = ExperimentConfig(
        experiment=kind, seed=seed, out_dir=out_dir, workers=workers, replicates=replicates,
        grids=parsed_grids, alpha=float(alpha), p=float(p), s=float(s), model=model,
        init=top["init"], f=top["f"], radii=radii, gamma=gamma, epsilon=top["epsilon"],
        delta=top["delta"], n_proposals=n_proposals, degeneracy_floor=float(floor_frac),
        warnings=tuple(warnings), checks=checks,
    )
    # build what the experiment resolves by name once, so bad names, keys and
    # dimensions fail here and not in a worker
    if model is not None:
        build_model(cfg, n=2)
        build_f(cfg)
        if kind == "bias-decay":
            reference_value(cfg)
    return cfg
