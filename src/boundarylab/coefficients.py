"""Coefficient functions on the boundary circle.

Model coefficients (tangential diffusion, drifts, degeneration profiles)
are 2*pi-periodic functions of the angle y: constants, cosines and finite
Fourier series.  A Fourier series is evaluated in its listed term order,
accumulated left to right, so results are bit-reproducible across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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
