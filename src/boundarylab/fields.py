"""Model specification and operator assembly.

``ChartModel`` states the dynamics near the boundary circle in its normal
form in chart coordinates (y, z).  The unperturbed generator acts as

    L u = a/2 u_yy + b u_y + z^2 alpha u_zz + z beta u_z + z d u_yz

and the perturbation adds eps^2 times the isotropic operator
rho(y)(1 + z_slope z)(u_yy + u_zz), whose u_zz coefficient at z = 0 is
rho(y) > 0.

``assemble`` turns a ChartModel into concrete drift/diffusion coefficients
for one of four operator flavors, all of them the one chart operator: as
it is (CHART), seen through z = eps zz (RESCALED), in its eps -> 0 limit
(LIMIT) and that limit seen through w = ln zz (LOG).  Throughout,
second-order coefficients are stored in operator form: the generator is

    A u = Cyy u_yy + 2 Cyv u_yv + Cvv u_vv + by u_y + bv u_v

so the Ito diffusion matrix (sigma sigma^T) is twice the C-matrix.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientFn, Const, folded, is_plus_zero
from .errors import FlavorRangeError, InvalidEpsilon, ModelError
from .geometry import TWO_PI

_VALIDATION_GRID = 64


@dataclass(frozen=True)
class TabulatedPeriodic(CoefficientFn):
    """Periodic linear interpolation of values on a uniform y-grid."""

    values: tuple

    def __call__(self, y):
        vals = np.asarray(self.values, dtype=float)
        n = vals.shape[0]
        y = np.asarray(y, dtype=float)
        s = np.mod(y, TWO_PI) * n / TWO_PI
        i0 = np.floor(s).astype(int) % n
        frac = s - np.floor(s)
        out = vals[i0] * (1.0 - frac) + vals[(i0 + 1) % n] * frac
        return out if out.shape else float(out)


@dataclass(frozen=True)
class ChartModel:
    """Normal-form coefficients of the boundary dynamics."""

    a: CoefficientFn
    b: CoefficientFn
    alpha: CoefficientFn
    beta: CoefficientFn
    d: CoefficientFn = Const(0.0)
    rho: CoefficientFn = Const(1.0)
    z_slope: float = 0.0
    name: str = ""

    def __post_init__(self):
        y = np.linspace(0.0, TWO_PI, _VALIDATION_GRID, endpoint=False)
        for label, fn, strict in (("a", self.a, True), ("rho", self.rho, True),
                                  ("alpha", self.alpha, True), ("b", self.b, False),
                                  ("beta", self.beta, False), ("d", self.d, False)):
            vals = np.asarray(fn(y), dtype=float)
            if not np.all(np.isfinite(vals)):
                raise ModelError(f"coefficient {label} is not finite on the sample grid")
            if strict and vals.min() <= 0.0:
                raise ModelError(
                    f"coefficient {label} must be strictly positive; "
                    f"min sampled value {vals.min():.6g}"
                )
        if not np.isfinite(self.z_slope):
            raise ModelError(f"perturbation slope z_slope is not finite: {self.z_slope}")

    def profile(self, y, z):
        """rho(y)(1 + z_slope z): the perturbation's diffusion, Cyy = Czz, with Cyz = 0."""
        return folded(self.rho, y) * (1.0 + self.z_slope * np.asarray(z, dtype=float))


class Flavor(enum.Enum):
    """Which operator the coefficients realize.

    CHART     -- (y, z):  chart operator plus eps^2 * perturbation.
    RESCALED  -- (y, zz): chart operator seen through z = eps * zz.
    LIMIT     -- (y, zz): eps-free limit of RESCALED.
    LOG       -- (y, w):  LIMIT seen through w = ln zz.
    """

    CHART = "chart"
    RESCALED = "rescaled"
    LIMIT = "limit"
    LOG = "log"


_PERTURBED = (Flavor.CHART, Flavor.RESCALED)


@dataclass(frozen=True)
class GeneratorCoefficients:
    """Vectorized drift/diffusion of one operator flavor.

    ``second_order`` returns the operator-form triple (Cyy, Cyv, Cvv) and
    ``first_order`` the drift pair (by, bv), where v is the flavor's second
    coordinate (z, zz or w).  ``ito`` returns drift plus the Ito diffusion
    matrix entries A = 2C for the path sampler.  All of them read one
    evaluation of the flavor, ``_entries``.  Model coefficients are read
    through ``folded``, so a Const costs no array; every entry keeps a term
    in v, so NaN from an unstable path reaches all of them.  One call makes
    that term, the NaN carrier ``0.0 * v``, once and adds it wherever an
    entry has no other term in v.
    """

    model: ChartModel
    flavor: Flavor
    eps: float | None = None

    def second_order(self, y, v):
        return self._entries(*_as_arrays(y, v), True)[2:]

    def first_order(self, y, v):
        return self._entries(*_as_arrays(y, v), False)[:2]

    def ito(self, y, v, cross=True, e2w=None):
        """Drift (by, bv) and Ito diffusion entries (Ayy, Ayv, Avv) = 2C.

        With ``cross`` False, Ayv is not built and comes back as None; the
        samplers pass ``not self.cross_free``.  ``e2w``, when given, is
        e^(-2v), which a LOG caller has already made.
        """
        by, bv, cyy, cyv, cvv = self._entries(*_as_arrays(y, v), cross, e2w)
        return by, bv, 2.0 * cyy, None if cyv is None else 2.0 * cyv, 2.0 * cvv

    @property
    def cross_free(self) -> bool:
        """Whether a path step may take Ayv as zero and skip it.

        True when d is ``Const(0.0)``, so Ayv is zero at every finite
        height, and when a non-finite height makes Ayy NaN as it makes Ayv
        NaN, so the step's noise keeps the bits of the general Cholesky
        form.  Ayy carries that NaN through its ``0.0 * v`` term, or, in a
        perturbed flavor at eps > 0, through the profile 1 + 0·z; a sloped
        profile is finite at an infinite height, so those flavors then keep
        the general form.  LIMIT gives
        Ayv = -0.0 at heights <= -0.0, which the samplers, clipping heights
        at zero, reach only on rows that have stopped.  A zero detected
        from ``Const(0.0)`` alone: any other function keeps the general form.
        """
        m = self.model
        if not is_plus_zero(m.d):
            return False
        return self.flavor not in _PERTURBED or self.eps == 0.0 or m.z_slope == 0.0

    @property
    def rotation_invariant(self) -> bool:
        """Whether no entry depends on y, so a discretization's blocks are circulant.

        True for an eps-free flavor (LIMIT or LOG) whose model has every
        coefficient that flavor reads, a, b, alpha, beta, d and rho,
        ``Const``.  The perturbed flavors, which also read the perturbation,
        answer False.
        """
        m = self.model
        return self.flavor not in _PERTURBED and all(
            isinstance(fn, Const) for fn in (m.a, m.b, m.alpha, m.beta, m.d, m.rho))

    def diffusion_vv(self, y, v):
        """Height-height Ito diffusion entry alone (2 Cvv); used by bridge tests."""
        return 2.0 * self._entries(*_as_arrays(y, v), False)[4]

    def _entries(self, y, v, cross, e2w=None):
        """(by, bv, Cyy, Cyv, Cvv) on float arrays; Cyv is None unless ``cross``.

        ``e2w``, when given, is e^(-2v), which a LOG caller has already made.
        RESCALED is the CHART evaluation at z = eps v, with bv = bz / eps,
        Cyv = Cyz / eps and Cvv = Czz / eps^2.
        """
        m, flavor, eps = self.model, self.flavor, self.eps
        if flavor in _PERTURBED:
            if eps is None:
                raise FlavorRangeError(f"flavor {flavor.value} requires eps")
            if flavor is Flavor.RESCALED:
                v = eps * v
        zero = 0.0 * v
        a, alpha = folded(m.a, y), folded(m.alpha, y)
        d = folded(m.d, y) if cross else None
        by = folded(m.b, y) + zero
        cyv = None
        if flavor is Flavor.LOG:
            decay = folded(m.rho, y) * (np.exp(-2.0 * v) if e2w is None else e2w)
            if cross:
                cyv = 0.5 * d + zero
            return by, folded(m.beta, y) - alpha - decay, 0.5 * a + zero, cyv, alpha + decay
        bv = v * folded(m.beta, y)
        if flavor is Flavor.LIMIT:
            if cross:
                cyv = 0.5 * v * d
            return by, bv, 0.5 * a + zero, cyv, v * v * alpha + folded(m.rho, y)
        # CHART, or RESCALED at its chart height: v is z
        if eps == 0.0:
            # the eps^2 terms are zeros: 0.0 * z in their place carries NaN from z,
            # which gives the bits of adding them
            cyy = 0.5 * a + zero
            cvv = v * v * alpha + zero
        else:
            pert = eps * eps * m.profile(y, v)
            cyy = 0.5 * a + pert
            cvv = v * v * alpha + pert
        if cross:
            # + the perturbation's Cyz, which is +0.0: a -0.0 becomes +0.0
            cyv = 0.5 * v * d + 0.0
        if flavor is Flavor.RESCALED:
            return by, bv / eps, cyy, None if cyv is None else cyv / eps, cvv / (eps * eps)
        return by, bv, cyy, cyv, cvv


def _as_arrays(y, v):
    return np.asarray(y, dtype=float), np.asarray(v, dtype=float)


def assemble(m: ChartModel, eps: float | None, flavor: Flavor) -> GeneratorCoefficients:
    """Build drift/diffusion coefficients for the requested operator flavor.

    eps is required (and must be > 0) for the CHART and RESCALED flavors;
    LIMIT and LOG ignore it.  CHART with eps = 0 is allowed and gives the
    unperturbed chart dynamics.  RESCALED divides its chart evaluation by
    eps^2, so it also needs eps^2 to be a normal, finite float: about
    1.5e-154 <= eps <= 1.3e154.
    """
    if flavor in _PERTURBED:
        if eps is None:
            raise FlavorRangeError(f"flavor {flavor.value} requires eps")
        if eps < 0 or (flavor is Flavor.RESCALED and eps == 0):
            raise InvalidEpsilon(f"eps must be > 0 for flavor {flavor.value}, got {eps}")
        if flavor is Flavor.RESCALED and not sys.float_info.min <= eps * eps < math.inf:
            raise InvalidEpsilon(f"eps^2 must be a normal, finite float for flavor "
                                 f"{flavor.value}, got eps = {eps}")
        return GeneratorCoefficients(model=m, flavor=flavor, eps=float(eps))
    return GeneratorCoefficients(model=m, flavor=flavor, eps=None)
