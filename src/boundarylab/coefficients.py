"""Coefficient functions on the boundary circle.

Model coefficients (tangential diffusion, drifts, degeneration profiles)
are 2*pi-periodic functions of the angle y.  Configs name them either as
built-ins ("const", "cosine") or as finite Fourier series; the evaluation
order of a Fourier series is the listed term order, accumulated left to
right, so results are bit-reproducible across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


class CoefficientFn:
    """A periodic scalar function of the angle."""

    def __call__(self, y):
        raise NotImplementedError


@dataclass(frozen=True)
class Const(CoefficientFn):
    c: float

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        return np.full(y.shape, self.c) if y.shape else float(self.c)


def folded(fn: CoefficientFn, y):
    """fn(y), with a Const folded to its value as a Python float.

    Per-step callers read coefficients through this.  An elementwise
    operation with the broadcast scalar gives the same bits as with the
    ``np.full`` array that ``Const.__call__`` returns, so only the
    allocation goes; the result's shape is the caller's to keep.
    """
    return float(fn.c) if isinstance(fn, Const) else fn(y)


def is_plus_zero(fn: CoefficientFn) -> bool:
    """Whether fn is ``Const(+0.0)``: a term it multiplies is a zero that per-step
    callers may skip.  ``Const(-0.0)`` is not one, nor is any other function."""
    return isinstance(fn, Const) and fn.c == 0.0 and math.copysign(1.0, fn.c) > 0.0


@dataclass(frozen=True)
class Cosine(CoefficientFn):
    """mean + amp * cos(y - phase)"""

    mean: float
    amp: float
    phase: float = 0.0

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        # at a zero phase, y - phase changes at most the sign of a zero, which cos ignores
        return self.mean + self.amp * np.cos(y if self.phase == 0.0 else y - self.phase)


@dataclass(frozen=True)
class Fourier(CoefficientFn):
    """constant + sum_k (cos_k * cos(k y) + sin_k * sin(k y)), terms in listed order."""

    constant: float
    terms: tuple[tuple[int, float, float], ...]

    def __call__(self, y):
        """The series in listed order, with the steps that cannot change a bit skipped.

        Skipped: ``k * y`` at k = 1, a multiply by 1.0, and a zero coefficient
        whose partner in the term is nonzero.  Adding that zero product
        changes no bit unless the sum so far is -0.0, which only a -0.0
        constant starts, and NaN from y reaches the sum through the partner.
        """
        y = np.asarray(y, dtype=float)
        if not self.terms:
            return np.full(y.shape, float(self.constant)) if y.shape else float(self.constant)
        out = float(self.constant)      # broadcast: the bits of the np.full array
        skip_zero = math.copysign(1.0, out) > 0.0
        for k, ck, sk in self.terms:
            ky = y if k == 1 else k * y
            if not (skip_zero and ck == 0.0 and sk != 0.0):
                out = out + _scaled(ck, np.cos(ky))
            if not (skip_zero and sk == 0.0 and ck != 0.0):
                out = out + _scaled(sk, np.sin(ky))
        return out


def _scaled(c: float, values):
    return values if c == 1.0 else c * values


def coefficient_from_config(spec, field: str) -> CoefficientFn:
    """Build a coefficient function from its config form.

    Accepts a bare number (shorthand for a constant) or a dict with a
    "kind" key as documented in the README.
    """
    if finite_number(spec):
        return Const(float(spec))
    if not isinstance(spec, dict):
        raise ConfigError(field, f"expected a finite number or an object, got {spec!r}")
    kind = spec.get("kind")
    if kind == "const":
        _require_keys(spec, field, {"kind", "c"})
        return Const(_number(spec, field, "c"))
    if kind == "cosine":
        _require_keys(spec, field, {"kind", "mean", "amp", "phase"}, optional={"phase"})
        return Cosine(
            mean=_number(spec, field, "mean"),
            amp=_number(spec, field, "amp"),
            phase=_number(spec, field, "phase", default=0.0),
        )
    if kind == "fourier":
        _require_keys(spec, field, {"kind", "constant", "terms"})
        terms = spec["terms"]
        if not isinstance(terms, list):
            raise ConfigError(f"{field}.terms", "expected a list of [k, cos, sin] triples")
        parsed = []
        for i, t in enumerate(terms):
            if not (isinstance(t, list) and len(t) == 3):
                raise ConfigError(f"{field}.terms[{i}]", "expected [k, cos, sin]")
            k = t[0]
            if not (isinstance(k, int) and finite_number(k) and k >= 1):
                raise ConfigError(f"{field}.terms[{i}]", f"mode k must be int >= 1, got {k!r}")
            for j in (1, 2):
                if not finite_number(t[j]):
                    raise ConfigError(f"{field}.terms[{i}][{j}]",
                                      f"expected a finite number, got {t[j]!r}")
            parsed.append((k, float(t[1]), float(t[2])))
        return Fourier(constant=_number(spec, field, "constant"), terms=tuple(parsed))
    raise ConfigError(field, f"unknown coefficient kind {kind!r}")


def _number(spec: dict, field: str, key: str, default=None) -> float:
    if key not in spec:
        if default is not None:
            return default
        raise ConfigError(f"{field}.{key}", "missing required value")
    v = spec[key]
    if not finite_number(v):
        raise ConfigError(f"{field}.{key}", f"expected a finite number, got {v!r}")
    return float(v)


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


def _require_keys(spec: dict, field: str, allowed: set, optional: set = frozenset()):
    extra = set(spec) - allowed
    if extra:
        raise ConfigError(field, f"unknown keys {sorted(extra)}")
    missing = allowed - set(spec) - {"kind"} - set(optional)
    if missing:
        raise ConfigError(field, f"missing keys {sorted(missing)}")
