"""Experiment configuration: parsing, validation, canonical hashing.

Configs are JSON objects with a version, an experiment kind, a model
block (built-in name or chart coefficients), a mandatory seed, and a
numerics block whose schema depends on the kind.  This module is the one
reader of the format: every block, the model's coefficient functions
among them, is parsed here, and a failed check of the library's own (a
chart model, a point of the disk, a grid, a martingale band or
checkpoints) is reported as a ``ConfigError`` naming its field.
Serialization is canonical (sorted keys, compact separators), and the
sha256 of the canonical form identifies a run in its manifest.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import dirichlet, models, parabolic, sde
from .coefficients import CoefficientFn, Const, Cosine, Fourier
from .errors import ConfigError, ModelError
from .fields import ChartModel
from .halfcyl import HalfCylinderGrid

EXPERIMENT_KINDS = ("classify", "halfcyl", "dirichlet-convergence",
                    "attraction", "martingale", "timescale")

CONFIG_VERSION = 1


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int
    output_dir: str
    model: ChartModel
    numerics: dict
    raw: dict

    @property
    def config_hash(self) -> str:
        return config_hash(self.raw)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def finite_number(v) -> bool:
    """Whether a parsed JSON value is a number (a bool is not one) with a finite float value.

    ``json.load`` reads the literals NaN and Infinity, and an integer too
    large for a float, as numbers; none of them is one here.
    """
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _expect(cond: bool, field: str, message: str):
    if not cond:
        raise ConfigError(field, message)


@contextmanager
def _reported_at(field: str, error=ModelError):
    """A library check that fails inside the block, as a ConfigError naming field."""
    try:
        yield
    except error as exc:
        raise ConfigError(field, str(exc)) from exc


def _only(block: dict, field: str, keys):
    """Reject a key of block that its validator does not read: a misspelt key
    would otherwise validate and leave its value at the default."""
    for key in sorted(set(block) - set(keys), key=str):
        raise ConfigError(f"{field}.{key}", f"unknown key; expected one of {sorted(keys)}")


def _get_number(block: dict, field: str, key: str, *, default=None, positive=False):
    if key not in block:
        _expect(default is not None, f"{field}.{key}", "missing required value")
        return default
    v = block[key]
    _expect(finite_number(v), f"{field}.{key}", f"expected a finite number, got {v!r}")
    v = float(v)
    if positive:
        _expect(v > 0, f"{field}.{key}", f"must be > 0, got {v}")
    return v


def _get_int(block: dict, field: str, key: str, *, default=None, minimum=None,
             power_of_two=False):
    if key not in block:
        _expect(default is not None, f"{field}.{key}", "missing required value")
        return default
    v = block[key]
    _expect(isinstance(v, int) and not isinstance(v, bool),
            f"{field}.{key}", f"expected integer, got {v!r}")
    if minimum is not None:
        _expect(v >= minimum, f"{field}.{key}", f"must be >= {minimum}, got {v}")
    if power_of_two:
        _expect(v & (v - 1) == 0, f"{field}.{key}", f"must be a power of two, got {v}")
    return v


def _numbers(seq, field: str, expected: str, length: int | None = None,
             positive: bool = False) -> list:
    """Floats of a JSON list whose every element is a finite number (a bool is not one)."""
    _expect(isinstance(seq, list) and length in (None, len(seq)), field, f"expected {expected}")
    for i, v in enumerate(seq):
        _expect(finite_number(v) and (v > 0 or not positive), f"{field}[{i}]",
                f"must be a finite {'positive ' * positive}number, got {v!r}")
    return [float(v) for v in seq]


def _parse_model(block, field: str = "model") -> ChartModel:
    _expect(isinstance(block, dict), field, "expected object")
    if "name" in block:
        _expect(set(block) == {"name"}, field, "model block takes either name or chart")
        name = block["name"]
        try:
            return models.get_model(name)
        except KeyError as exc:
            raise ConfigError(f"{field}.name", str(exc)) from exc
    if "chart" in block:
        _only(block, field, ("chart",))
        return chart_model_from_config(block["chart"], f"{field}.chart")
    raise ConfigError(field, "needs a 'name' or a 'chart' block")


def chart_model_from_config(spec, field: str = "model.chart") -> ChartModel:
    """A chart model from its config block: coefficients a, b, alpha and beta, optional
    d and rho, an optional perturbation slope ``tilde_z_slope`` and an optional name."""
    _expect(isinstance(spec, dict), field, f"expected object, got {type(spec).__name__}")
    _only(spec, field, ("a", "b", "alpha", "beta", "d", "rho", "tilde_z_slope", "name"))
    name = spec.get("name", "")
    _expect(isinstance(name, str), f"{field}.name", f"expected a string, got {name!r}")
    fns = {"d": Const(0.0), "rho": Const(1.0)}
    for key in ("a", "b", "alpha", "beta", "d", "rho"):
        if key in spec:
            fns[key] = coefficient_from_config(spec[key], f"{field}.{key}")
        _expect(key in fns, f"{field}.{key}", "missing required coefficient")
    z_slope = _get_number(spec, field, "tilde_z_slope", default=0.0)
    with _reported_at(field):
        return ChartModel(**fns, z_slope=z_slope, name=name)


def coefficient_from_config(spec, field: str) -> CoefficientFn:
    """A coefficient function of the angle from its config form: a bare number (a
    constant) or an object whose "kind" is "const", "cosine" or "fourier"."""
    if finite_number(spec):
        return Const(float(spec))
    _expect(isinstance(spec, dict), field,
            f"expected a finite number or an object, got {spec!r}")
    kind = spec.get("kind")
    if kind == "const":
        _only(spec, field, ("kind", "c"))
        return Const(_get_number(spec, field, "c"))
    if kind == "cosine":
        _only(spec, field, ("kind", "mean", "amp", "phase"))
        return Cosine(mean=_get_number(spec, field, "mean"),
                      amp=_get_number(spec, field, "amp"),
                      phase=_get_number(spec, field, "phase", default=0.0))
    if kind == "fourier":
        _only(spec, field, ("kind", "constant", "terms"))
        terms = spec.get("terms")
        _expect(isinstance(terms, list), f"{field}.terms",
                "expected a list of [k, cos, sin] triples")
        parsed = []
        for i, t in enumerate(terms):
            _expect(isinstance(t, list) and len(t) == 3, f"{field}.terms[{i}]",
                    "expected [k, cos, sin]")
            k = t[0]
            _expect(isinstance(k, int) and finite_number(k) and k >= 1, f"{field}.terms[{i}]",
                    f"mode k must be int >= 1, got {k!r}")
            parsed.append((k, *_numbers(t, f"{field}.terms[{i}]", "[k, cos, sin]")[1:]))
        return Fourier(constant=_get_number(spec, field, "constant"), terms=tuple(parsed))
    raise ConfigError(field, f"unknown coefficient kind {kind!r}")


def _parse_mc(block, field: str) -> dict:
    _expect(isinstance(block, dict), field, "expected object")
    _only(block, field, ("dt", "n_paths", "max_time"))
    out = {
        "dt": _get_number(block, field, "dt", positive=True),
        "n_paths": _get_int(block, field, "n_paths", minimum=1),
        "max_time": _get_number(block, field, "max_time", positive=True),
    }
    _expect(out["dt"] <= 1e-2, f"{field}.dt",
            f"must be <= 0.01 to resolve the height dynamics, got {out['dt']}")
    with _reported_at(f"{field}.max_time"):
        sde._checkpoint_steps([out["max_time"]], out["dt"], "max_time")
    return out


# experiment kind -> (the numerics keys its validator reads, the validator)
_KIND_VALIDATORS = {}


def _kind(name, keys):
    def deco(fn):
        _KIND_VALIDATORS[name] = (keys, fn)
        return fn
    return deco


@_kind("classify", ("grid_size", "tol"))
def _validate_classify(num: dict) -> dict:
    return {
        "grid_size": _get_int(num, "numerics", "grid_size", default=1024, minimum=16,
                              power_of_two=True),
        "tol": _get_number(num, "numerics", "tol", default=1e-8, positive=True),
    }


def _grid_block(num: dict) -> HalfCylinderGrid | None:
    """The grid block, an absent field at its ``HalfCylinderGrid`` default; None for an
    absent block, which leaves the solves their default grid for the model's verdict."""
    if "grid" not in num:
        return None
    g, field, default = num["grid"], "numerics.grid", HalfCylinderGrid
    _expect(isinstance(g, dict), field, "expected object")
    _only(g, field, ("n_y", "n_z", "height", "stretching", "dz0"))
    out = {
        "n_y": _get_int(g, field, "n_y", default=default.n_y, minimum=32, power_of_two=True),
        "n_z": _get_int(g, field, "n_z", default=default.n_z, minimum=100),
        "height": _get_number(g, field, "height", default=default.height),
        "stretching": g.get("stretching", default.stretching),
        "dz0": _get_number(g, field, "dz0", default=default.dz0, positive=True),
    }
    with _reported_at(field):
        return HalfCylinderGrid(**out)


@_kind("halfcyl", ("data", "grid", "levels"))
def _validate_halfcyl(num: dict) -> dict:
    return {
        "data": _boundary_data(num),
        "grid": _grid_block(num),
        "levels": _numbers(num.get("levels", list(range(2, 22))), "numerics.levels",
                           "a list of levels"),
    }


@_kind("dirichlet-convergence", ("eps_list", "probes", "data", "threshold", "n_theta",
                                 "grid", "both_completions", "mc"))
def _validate_convergence(num: dict) -> dict:
    eps_list = num.get("eps_list")
    _expect(isinstance(eps_list, list) and len(eps_list) >= 2,
            "numerics.eps_list", "expected a list of at least two eps values")
    eps_list = _numbers(eps_list, "numerics.eps_list", "a list", positive=True)
    _expect(all(b < a for a, b in zip(eps_list, eps_list[1:])),
            "numerics.eps_list", "must be strictly decreasing")
    probes = num.get("probes")
    _expect(isinstance(probes, list) and probes, "numerics.probes",
            "expected a non-empty list of [x1, x2] points")
    both = num.get("both_completions", False)
    _expect(isinstance(both, bool), "numerics.both_completions",
            f"expected true or false, got {both!r}")
    out = {
        "eps_list": eps_list,
        "probes": [tuple(_numbers(p, f"numerics.probes[{i}]", "[x1, x2]", 2))
                   for i, p in enumerate(probes)],
        "data": _boundary_data(num),
        "threshold": _get_number(num, "numerics", "threshold", default=0.05,
                                 positive=True),
        "n_theta": _get_int(num, "numerics", "n_theta", default=64, minimum=32,
                            power_of_two=True),
        "grid": _grid_block(num),
        "both_completions": both,
    }
    if "mc" in num:
        out["mc"] = _parse_mc(num["mc"], "numerics.mc")
    return out


@_kind("attraction", ("starts", "horizon", "near", "far_wall", "mc"))
def _validate_attraction(num: dict) -> dict:
    starts = num.get("starts")
    _expect(isinstance(starts, list) and starts, "numerics.starts",
            "expected a non-empty list of [y, z] starts")
    out = {
        "starts": [tuple(_numbers(s, f"numerics.starts[{i}]", "[y, z]", 2))
                   for i, s in enumerate(starts)],
        "horizon": _get_number(num, "numerics", "horizon", positive=True),
        "near": _get_number(num, "numerics", "near", default=0.01, positive=True),
        "far_wall": _get_number(num, "numerics", "far_wall", default=50.0,
                                positive=True),
        "mc": _parse_mc(num.get("mc"), "numerics.mc"),
    }
    with _reported_at("numerics.horizon"):
        sde._checkpoint_steps([out["horizon"]], out["mc"]["dt"], "horizon")
    for i, (_, z) in enumerate(out["starts"]):
        _expect(0.0 <= z <= out["far_wall"], f"numerics.starts[{i}]",
                f"start height {z} must lie in [0, far_wall = {out['far_wall']}]")
    return out


@_kind("martingale", ("band", "start", "checkpoints", "mc"))
def _validate_martingale(num: dict) -> dict:
    lo, hi = _numbers(num.get("band"), "numerics.band", "[lo, hi]", 2)
    _expect(0 < lo < hi, "numerics.band", "must satisfy 0 < lo < hi")
    cps = num.get("checkpoints")
    _expect(isinstance(cps, list) and len(cps) >= 2, "numerics.checkpoints",
            "expected a list of at least two times")
    out = {
        "band": (lo, hi),
        "start": tuple(_numbers(num.get("start"), "numerics.start", "[y, zz]", 2)),
        "checkpoints": _numbers(cps, "numerics.checkpoints", "a list", positive=True),
        "mc": _parse_mc(num.get("mc"), "numerics.mc"),
    }
    # the sampler's own checks, so that validate rejects what martingale_trace would
    with _reported_at("numerics.start"):
        sde._check_band(out["band"], out["start"][1])
    with _reported_at("numerics.checkpoints"):
        sde._checkpoint_steps(out["checkpoints"], out["mc"]["dt"])
    return out


@_kind("timescale", ("eps_list", "rules", "start", "data", "g", "mc"))
def _validate_timescale(num: dict) -> dict:
    eps_list = num.get("eps_list")
    _expect(isinstance(eps_list, list) and eps_list, "numerics.eps_list",
            "expected a non-empty list")
    rules = num.get("rules")
    _expect(isinstance(rules, list) and rules, "numerics.rules",
            "expected a non-empty list of rules")
    parsed_rules = []
    for i, r in enumerate(rules):
        _expect(isinstance(r, dict), f"numerics.rules[{i}]", "expected object")
        _only(r, f"numerics.rules[{i}]", ("name", "kind", "c", "p"))
        name = r.get("name", f"rule{i}")
        _expect(isinstance(name, str) and name, f"numerics.rules[{i}].name",
                f"expected a non-empty string, got {name!r}")
        kind = r.get("kind")
        _expect(kind in ("const", "log", "power"), f"numerics.rules[{i}].kind",
                f"unknown kind {kind!r}")
        parsed_rules.append({
            "name": name,
            "kind": kind,
            "c": _get_number(r, f"numerics.rules[{i}]", "c", positive=True),
            "p": _get_number(r, f"numerics.rules[{i}]", "p", default=1.0,
                             positive=True),
        })
    out = {
        "eps_list": _numbers(eps_list, "numerics.eps_list", "a list", positive=True),
        "rules": parsed_rules,
        "start": tuple(_numbers(num.get("start", [0.0, 0.0]), "numerics.start",
                                "[x1, x2]", 2)),
        "data": _boundary_data(num),
        "g": _initial_data(num.get("g", 0.0)),
        "mc": _parse_mc(num.get("mc"), "numerics.mc"),
    }
    # every rule time at every eps as the sampler runs it: finite, on the step grid
    dt = out["mc"]["dt"]
    for i, rule in enumerate(parsed_rules):
        with _reported_at(f"numerics.rules[{i}]"):
            times = [parabolic.TimescaleRule(**rule).time(eps) for eps in out["eps_list"]]
            sde._checkpoint_steps([parabolic.on_step_grid(t, dt) for t in times if t > 0], dt)
    return out


def parse_config(obj) -> ExperimentConfig:
    """Validate a config dict (or JSON file path / string) into a typed config."""
    if isinstance(obj, str):
        try:
            with open(obj, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except OSError as exc:
            raise ConfigError("<file>", f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError("<file>", f"invalid JSON: {exc}") from exc
    _expect(isinstance(obj, dict), "<root>", "config must be a JSON object")
    version = obj.get("version")
    _expect(version == CONFIG_VERSION, "version",
            f"expected {CONFIG_VERSION}, got {version!r}")
    experiment = obj.get("experiment")
    _expect(experiment in EXPERIMENT_KINDS, "experiment",
            f"unknown experiment {experiment!r}; one of {EXPERIMENT_KINDS}")
    seed = obj.get("seed")
    _expect(isinstance(seed, int) and not isinstance(seed, bool) and 0 <= seed < 2**64,
            "seed", "an integer seed in [0, 2**64) is mandatory (no wall-clock seeding)")
    output_dir = obj.get("output_dir", experiment)
    _expect(isinstance(output_dir, str) and output_dir, "output_dir",
            "expected non-empty string")
    # the run writes into output_dir under its output root, and nowhere else
    _expect(not os.path.isabs(output_dir)
            and ".." not in output_dir.replace("\\", "/").split("/"), "output_dir",
            f"expected a relative path inside the output root, got {output_dir!r}")
    model = _parse_model(obj.get("model"))
    numerics = obj.get("numerics", {})
    _expect(isinstance(numerics, dict), "numerics", "expected object")
    keys, validate = _KIND_VALIDATORS[experiment]
    _only(numerics, "numerics", keys)
    validated = validate(numerics)
    for field, point in _domain_points(experiment, validated):
        with _reported_at(field):
            dirichlet.check_start(point)
    known = {"version", "experiment", "seed", "output_dir", "model", "numerics"}
    extra = sorted(set(obj) - known)
    if extra:
        raise ConfigError(extra[0], "unknown top-level key")
    return ExperimentConfig(experiment=experiment, seed=seed, output_dir=output_dir,
                            model=model, numerics=validated, raw=obj)


def _domain_points(experiment: str, num: dict):
    """(field, point) for every point of the disk that a validated block names."""
    if experiment == "dirichlet-convergence":
        return [(f"numerics.probes[{i}]", p) for i, p in enumerate(num["probes"])]
    if experiment == "timescale":
        return [("numerics.start", num["start"])]
    return []


def _boundary_data(num: dict):
    """Boundary data as a callable of the angle, from its coefficient spec."""
    _expect("data" in num, "numerics.data", "missing boundary data spec")
    return coefficient_from_config(num["data"], "numerics.data")


def _initial_data(spec):
    """Initial data on the domain from a config spec (constants only)."""
    g = coefficient_from_config(spec, "numerics.g")
    _expect(isinstance(g, Const), "numerics.g", "initial data supports finite constants only")
    return lambda x: np.full(len(x), g.c)
