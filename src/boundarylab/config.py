"""Experiment configuration: parsing, validation, canonical hashing.

Configs are JSON objects with a version, an experiment kind, a model
block (built-in name or chart coefficients), an optional domain block,
a mandatory seed, and a numerics block whose schema depends on the kind.
Serialization is canonical (sorted keys, compact separators), and the
sha256 of the canonical form identifies a run in its manifest.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from . import models
from .coefficients import coefficient_from_config, finite_number
from .errors import ConfigError, ModelError
from .fields import ChartModel, chart_model_from_config
from .geometry import DomainKind, DomainModel
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
    dom: DomainModel
    numerics: dict
    raw: dict

    @property
    def config_hash(self) -> str:
        return config_hash(self.raw)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def _expect(cond: bool, field: str, message: str):
    if not cond:
        raise ConfigError(field, message)


def _only(block: dict, field: str, keys):
    """Reject a key of block that its validator does not read: a misspelt key
    would otherwise validate and leave its value at the default."""
    for key in sorted(set(block) - set(keys), key=str):
        raise ConfigError(f"{field}.{key}", f"unknown key; expected one of {sorted(keys)}")


def _get_number(block: dict, field: str, key: str, *, default=None, positive=False,
                nonnegative=False):
    if key not in block:
        _expect(default is not None, f"{field}.{key}", "missing required value")
        return default
    v = block[key]
    _expect(finite_number(v), f"{field}.{key}", f"expected a finite number, got {v!r}")
    v = float(v)
    if positive:
        _expect(v > 0, f"{field}.{key}", f"must be > 0, got {v}")
    if nonnegative:
        _expect(v >= 0, f"{field}.{key}", f"must be >= 0, got {v}")
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


def _parse_domain(block, field: str = "domain") -> DomainModel:
    if block is None:
        return DomainModel()
    _expect(isinstance(block, dict), field, "expected object")
    _only(block, field, ("kind", "chart_radius", "inner_radius"))
    kind = block.get("kind", "disk")
    _expect(kind in ("disk", "annulus"), f"{field}.kind", f"unknown kind {kind!r}")
    chart_radius = _get_number(block, field, "chart_radius", default=0.5, positive=True)
    inner = _get_number(block, field, "inner_radius", default=0.0, nonnegative=True)
    try:
        return DomainModel(kind=DomainKind(kind), inner_radius=inner,
                           chart_radius=chart_radius)
    except Exception as exc:
        raise ConfigError(field, str(exc)) from exc


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
    return out


def _coeff(block, field: str):
    try:
        return coefficient_from_config(block, field)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(field, str(exc)) from exc


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


def _grid_block(num: dict) -> dict:
    g = num.get("grid", {})
    _expect(isinstance(g, dict), "numerics.grid", "expected object")
    _only(g, "numerics.grid", ("n_y", "n_z", "height", "stretching", "dz0"))
    out = {
        "n_y": _get_int(g, "numerics.grid", "n_y", default=64, minimum=32,
                        power_of_two=True),
        "n_z": _get_int(g, "numerics.grid", "n_z", default=640, minimum=100),
        "height": _get_number(g, "numerics.grid", "height", default=1.0e13),
        "stretching": g.get("stretching", "geometric"),
        "dz0": _get_number(g, "numerics.grid", "dz0", default=0.02, positive=True),
    }
    try:
        HalfCylinderGrid(**out)
    except ModelError as exc:
        raise ConfigError("numerics.grid", str(exc)) from exc
    return out


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
    return {
        "band": (lo, hi),
        "start": tuple(_numbers(num.get("start"), "numerics.start", "[y, zz]", 2)),
        "checkpoints": _numbers(cps, "numerics.checkpoints", "a list", positive=True),
        "mc": _parse_mc(num.get("mc"), "numerics.mc"),
    }


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
    return {
        "eps_list": _numbers(eps_list, "numerics.eps_list", "a list", positive=True),
        "rules": parsed_rules,
        "start": tuple(_numbers(num.get("start", [0.0, 0.0]), "numerics.start",
                                "[x1, x2]", 2)),
        "data": _boundary_data(num),
        "g": _initial_data(num.get("g", 0.0)),
        "mc": _parse_mc(num.get("mc"), "numerics.mc"),
    }


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
    _expect(isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0,
            "seed", "a non-negative integer seed is mandatory (no wall-clock seeding)")
    output_dir = obj.get("output_dir", experiment)
    _expect(isinstance(output_dir, str) and output_dir, "output_dir",
            "expected non-empty string")
    # the run writes into output_dir under its output root, and nowhere else
    _expect(not os.path.isabs(output_dir)
            and ".." not in output_dir.replace("\\", "/").split("/"), "output_dir",
            f"expected a relative path inside the output root, got {output_dir!r}")
    model = _parse_model(obj.get("model"))
    dom = _parse_domain(obj.get("domain"))
    numerics = obj.get("numerics", {})
    _expect(isinstance(numerics, dict), "numerics", "expected object")
    keys, validate = _KIND_VALIDATORS[experiment]
    _only(numerics, "numerics", keys)
    validated = validate(numerics)
    for field, point in _domain_points(experiment, validated):
        _expect(dom.contains(*point), field,
                f"point {list(point)} lies outside the closed {dom.kind.value}")
    known = {"version", "experiment", "seed", "output_dir", "model", "domain",
             "numerics"}
    extra = sorted(set(obj) - known)
    if extra:
        raise ConfigError(extra[0], "unknown top-level key")
    return ExperimentConfig(experiment=experiment, seed=seed, output_dir=output_dir,
                            model=model, dom=dom, numerics=validated, raw=obj)


def _domain_points(experiment: str, num: dict):
    """(field, point) for every point of the domain that a validated block names."""
    if experiment == "dirichlet-convergence":
        return [(f"numerics.probes[{i}]", p) for i, p in enumerate(num["probes"])]
    if experiment == "timescale":
        return [("numerics.start", num["start"])]
    return []


def _boundary_data(num: dict):
    """Boundary data as a callable of the angle, from its coefficient spec."""
    _expect("data" in num, "numerics.data", "missing boundary data spec")
    return _coeff(num["data"], "numerics.data")


def _initial_data(spec):
    """Initial data on the domain from a config spec (constants only)."""
    if isinstance(spec, dict) and spec.get("kind") == "const":
        _only(spec, "numerics.g", ("kind", "c"))
        spec = _get_number(spec, "numerics.g", "c")
    _expect(finite_number(spec), "numerics.g", "initial data supports finite constants only")
    c = float(spec)
    return lambda x: np.full(len(x), c)
