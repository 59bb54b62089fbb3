"""Domain and boundary-chart geometry for the disk and annulus.

The boundary of the domain is one or two concentric circles.  Near a
circle, a point is described by the chart pair (y, z): y is the
counterclockwise angle of the nearest boundary point (our fixed
orientation convention) and z >= 0 is the distance to that circle,
measured into the domain; the chart is valid for z below the chart
radius delta.  The solvers never convert single points between these
coordinates: ``fields.Flavor`` carries the chart, the boundary-layer
rescaling zz = z/eps and the log height w = ln zz into the coefficients
it assembles.  This module holds the domain model and the half-cylinder
start point ``RescaledPoint``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ChartRangeError

TWO_PI = 2.0 * math.pi


def wrap_angle(y):
    """Canonical wrap of angles into [0, 2*pi). Works on scalars and arrays."""
    return np.mod(y, TWO_PI)


class DomainKind(enum.Enum):
    DISK = "disk"
    ANNULUS = "annulus"


@dataclass(frozen=True)
class DomainModel:
    """Unit disk, or annulus with inner radius, with a chart of radius delta."""

    kind: DomainKind = DomainKind.DISK
    inner_radius: float = 0.0
    chart_radius: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.chart_radius < 1.0:
            raise ChartRangeError(f"chart_radius must be in (0, 1), got {self.chart_radius}")
        if self.kind is DomainKind.ANNULUS:
            if not 0.0 < self.inner_radius < 1.0:
                raise ChartRangeError(
                    f"annulus inner_radius must be in (0, 1), got {self.inner_radius}"
                )
            # Charts of the two components must not touch.
            if self.chart_radius > 0.5 * (1.0 - self.inner_radius):
                raise ChartRangeError(
                    "chart_radius too large: charts of the two boundary circles overlap"
                )

    def contains(self, x1: float, x2: float) -> bool:
        """Whether (x1, x2) lies in the closed domain; the annulus hole is outside it."""
        r = math.hypot(x1, x2)
        return self.inner_radius <= r <= 1.0 if self.kind is DomainKind.ANNULUS else r <= 1.0


@dataclass(frozen=True)
class RescaledPoint:
    """A point (y, zz) of the half-cylinder: boundary angle and rescaled height z/eps."""

    y: float
    zz: float

    def __post_init__(self):
        if self.zz < 0.0:
            raise ChartRangeError(f"rescaled height must be >= 0, got {self.zz}")
        object.__setattr__(self, "y", float(wrap_angle(self.y)))
