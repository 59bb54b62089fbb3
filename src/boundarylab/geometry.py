"""Boundary-chart coordinates for the disk and annulus.

The boundary of the domain is one or two concentric circles.  Near a
circle, a point is described by the chart pair (y, z): y is the
counterclockwise angle of the nearest boundary point (our fixed
orientation convention) and z >= 0 is the distance to that circle,
measured into the domain.  The chart is valid for z below the chart
radius delta.  On top of the chart sit two further coordinate maps used
by the solvers: the boundary-layer rescaling (y, z) -> (y, z/eps) and
the logarithmic height map (y, zz) -> (y, ln zz).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ChartRangeError,
    DegenerateInput,
    InvalidEpsilon,
    PointOutsideChart,
)

TWO_PI = 2.0 * math.pi


def wrap_angle(y):
    """Canonical wrap of angles into [0, 2*pi). Works on scalars and arrays."""
    return np.mod(y, TWO_PI)


class DomainKind(enum.Enum):
    DISK = "disk"
    ANNULUS = "annulus"


class BoundaryComponent(enum.Enum):
    OUTER = "outer"
    INNER = "inner"


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

    @property
    def components(self):
        if self.kind is DomainKind.DISK:
            return (BoundaryComponent.OUTER,)
        return (BoundaryComponent.OUTER, BoundaryComponent.INNER)

    def component_radius(self, component: BoundaryComponent) -> float:
        if component is BoundaryComponent.OUTER:
            return 1.0
        if self.kind is not DomainKind.ANNULUS:
            raise ChartRangeError("disk domain has no inner boundary component")
        return self.inner_radius


@dataclass(frozen=True)
class AmbientPoint:
    x1: float
    x2: float

    @property
    def radius(self) -> float:
        return math.hypot(self.x1, self.x2)

    @property
    def angle(self) -> float:
        return wrap_angle(math.atan2(self.x2, self.x1))


@dataclass(frozen=True)
class ChartPoint:
    y: float
    z: float
    component: BoundaryComponent = BoundaryComponent.OUTER

    def __post_init__(self):
        if self.z < 0.0:
            raise ChartRangeError(f"chart height must be >= 0, got {self.z}")
        object.__setattr__(self, "y", float(wrap_angle(self.y)))


@dataclass(frozen=True)
class RescaledPoint:
    y: float
    zz: float
    component: BoundaryComponent = field(default=BoundaryComponent.OUTER)

    def __post_init__(self):
        if self.zz < 0.0:
            raise ChartRangeError(f"rescaled height must be >= 0, got {self.zz}")
        object.__setattr__(self, "y", float(wrap_angle(self.y)))


def signed_height(radius: float, dom: DomainModel, component: BoundaryComponent) -> float:
    """Distance from the circle of the given component, positive into the domain."""
    if component is BoundaryComponent.OUTER:
        return 1.0 - radius
    return radius - dom.component_radius(component)


def ambient_to_chart(
    p: AmbientPoint,
    dom: DomainModel,
    component: BoundaryComponent = BoundaryComponent.OUTER,
) -> ChartPoint:
    """Chart coordinates of an ambient point near the selected boundary circle.

    For circles the nearest boundary point is radial, so y is the angle of p
    and z is exactly the radial distance to the circle.
    """
    z = signed_height(p.radius, dom, component)
    if z < 0.0 or z >= dom.chart_radius:
        raise PointOutsideChart(
            f"point at distance {z:.6g} from the {component.value} circle is outside "
            f"the chart of radius {dom.chart_radius}"
        )
    return ChartPoint(y=p.angle, z=z, component=component)


def chart_to_ambient(c: ChartPoint, dom: DomainModel) -> AmbientPoint:
    """Inverse of ambient_to_chart on the chart strip."""
    if c.z >= dom.chart_radius:
        raise ChartRangeError(
            f"chart height {c.z:.6g} not below chart_radius {dom.chart_radius}"
        )
    r0 = dom.component_radius(c.component)
    if c.component is BoundaryComponent.OUTER:
        r = r0 - c.z
    else:
        r = r0 + c.z
    return AmbientPoint(r * math.cos(c.y), r * math.sin(c.y))


def rescale(c: ChartPoint, eps: float) -> RescaledPoint:
    """Boundary-layer change of variables (y, z) -> (y, z/eps)."""
    if eps <= 0.0:
        raise InvalidEpsilon(f"eps must be > 0, got {eps}")
    return RescaledPoint(y=c.y, zz=c.z / eps, component=c.component)


def unrescale(r: RescaledPoint, eps: float) -> ChartPoint:
    if eps <= 0.0:
        raise InvalidEpsilon(f"eps must be > 0, got {eps}")
    return ChartPoint(y=r.y, z=r.zz * eps, component=r.component)


def log_map(r: RescaledPoint) -> tuple[float, float]:
    """Logarithmic height coordinates (y, w) = (y, ln zz); undefined at zz = 0."""
    if r.zz <= 0.0:
        raise DegenerateInput("log map undefined on the boundary (zz = 0)")
    return (r.y, math.log(r.zz))


# -- analytic circle geometry used by the ambient operator machinery ---------
#
# For the coordinate functions y(x) (angle) and z(x) (distance to the circle)
# the gradients and Hessians are known in closed form; the ambient-field module
# uses them to evaluate operators on z, z^2 and functions of y without any
# numerical differentiation.  All functions broadcast over trailing point axes:
# x has shape (..., 2).

def unit_radial(x: np.ndarray) -> np.ndarray:
    r = np.linalg.norm(x, axis=-1, keepdims=True)
    return x / r


def grad_z(x: np.ndarray, component: BoundaryComponent = BoundaryComponent.OUTER) -> np.ndarray:
    sign = -1.0 if component is BoundaryComponent.OUTER else 1.0
    return sign * unit_radial(x)


def hess_z(x: np.ndarray, component: BoundaryComponent = BoundaryComponent.OUTER) -> np.ndarray:
    """Hessian of z(x); for the outer circle z = 1 - |x|."""
    r = np.linalg.norm(x, axis=-1)
    e = unit_radial(x)
    proj = np.eye(2) - e[..., :, None] * e[..., None, :]
    sign = -1.0 if component is BoundaryComponent.OUTER else 1.0
    return sign * proj / r[..., None, None]


def grad_y(x: np.ndarray) -> np.ndarray:
    """Gradient of the angle function y(x) = atan2(x2, x1)."""
    r2 = np.sum(x * x, axis=-1, keepdims=True)
    return np.stack([-x[..., 1], x[..., 0]], axis=-1) / r2


def hess_y(x: np.ndarray) -> np.ndarray:
    x1 = x[..., 0]
    x2 = x[..., 1]
    r4 = (x1 * x1 + x2 * x2) ** 2
    h11 = 2.0 * x1 * x2 / r4
    h12 = (x2 * x2 - x1 * x1) / r4
    h22 = -2.0 * x1 * x2 / r4
    out = np.empty(x.shape[:-1] + (2, 2))
    out[..., 0, 0] = h11
    out[..., 0, 1] = h12
    out[..., 1, 0] = h12
    out[..., 1, 1] = h22
    return out


def boundary_point(y, component: BoundaryComponent = BoundaryComponent.OUTER,
                   dom: DomainModel | None = None) -> np.ndarray:
    """Ambient coordinates of the boundary point at angle y (array-friendly)."""
    r0 = 1.0 if component is BoundaryComponent.OUTER else dom.component_radius(component)
    y = np.asarray(y, dtype=float)
    return np.stack([r0 * np.cos(y), r0 * np.sin(y)], axis=-1)
