"""Domain and boundary-chart geometry for the unit disk.

The boundary of the domain is the unit circle.  Near it, a point is
described by the chart pair (y, z): y is the counterclockwise angle of the
nearest boundary point (our fixed orientation convention) and z >= 0 is
the distance to the circle, measured into the domain.  The solvers never
convert single points between these coordinates: ``fields.Flavor``
carries the chart, the boundary-layer rescaling zz = z/eps and the log
height w = ln zz into the coefficients it assembles.  This module holds
the angle wrap and the half-cylinder start point ``RescaledPoint``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ChartRangeError

TWO_PI = 2.0 * math.pi


def wrap_angle(y):
    """Canonical wrap of angles into [0, 2*pi). Works on scalars and arrays."""
    return np.mod(y, TWO_PI)


@dataclass(frozen=True)
class RescaledPoint:
    """A point (y, zz) of the half-cylinder: boundary angle and rescaled height z/eps."""

    y: float
    zz: float

    def __post_init__(self):
        if self.zz < 0.0:
            raise ChartRangeError(f"rescaled height must be >= 0, got {self.zz}")
        object.__setattr__(self, "y", float(wrap_angle(self.y)))
