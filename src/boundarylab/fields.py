"""Model specification and operator assembly.

Two input modes describe the dynamics near the boundary circle:

* ``ChartModel`` -- the normal form in chart coordinates (y, z).  The
  unperturbed generator acts as

      L u = a/2 u_yy + b u_y + z^2 alpha u_zz + z beta u_z + z d u_yz  (+ remainder)

  and the perturbation adds eps^2 times a uniformly elliptic operator
  whose u_zz coefficient at z = 0 is rho(y) > 0.

* ``AmbientModel`` -- vector fields v_0..v_2 on the plane (d = 2 only)
  driving the Stratonovich equation dX = v_0 dt + sum v_i o dW_i, with
  perturbation fields tv_0..tv_2.  The chart coefficients are recovered
  numerically from the fields (``extract_alpha_beta`` and friends).

``assemble`` turns a ChartModel into concrete drift/diffusion coefficients
for one of four operator flavors.  Throughout, second-order coefficients
are stored in operator form: the generator is

    A u = Cyy u_yy + 2 Cyv u_yv + Cvv u_vv + by u_y + bv u_v

so the Ito diffusion matrix (sigma sigma^T) is twice the C-matrix.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .coefficients import (
    CoefficientFn,
    Const,
    coefficient_from_config,
    finite_number,
    folded,
    is_plus_zero,
)
from .errors import (
    ConfigError,
    ExtrapolationUnstable,
    FlavorRangeError,
    InvalidEpsilon,
    ModelError,
)
from .geometry import DomainModel, TWO_PI

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

    def to_config(self) -> dict:
        return {"kind": "tabulated", "values": list(self.values)}


@dataclass(frozen=True)
class Remainder:
    """Higher-order correction terms of the chart normal form.

    Adds  z*(k2 u_yy + k1 u_y) + z^2*(n1 u_yz + n0 u_z) + z^3 * sigma u_zz,
    all coefficients periodic functions of y.
    """

    k2: CoefficientFn = Const(0.0)
    k1: CoefficientFn = Const(0.0)
    n1: CoefficientFn = Const(0.0)
    n0: CoefficientFn = Const(0.0)
    sigma: CoefficientFn = Const(0.0)


@dataclass(frozen=True)
class PerturbationSpec:
    """Full diffusion of the perturbing operator in chart coordinates.

    The three entries are operator-form coefficients (Cyy, Cyz, Czz) as
    functions of (y, z); Czz(y, 0) must equal the model's rho(y).  The
    default is the isotropic profile rho(y) * (1 + z_slope * z) on the
    diagonal, which satisfies that constraint for any slope.
    """

    rho: CoefficientFn
    z_slope: float = 0.0

    def profile(self, y, z):
        return folded(self.rho, y) * (1.0 + self.z_slope * np.asarray(z, dtype=float))

    def cyy(self, y, z):
        return self.profile(y, z)

    def cyz(self, y, z):
        y = np.asarray(y, dtype=float)
        return np.zeros(np.broadcast(y, np.asarray(z)).shape)

    def czz(self, y, z):
        return self.profile(y, z)


@dataclass(frozen=True)
class ChartModel:
    """Normal-form coefficients of the boundary dynamics."""

    a: CoefficientFn
    b: CoefficientFn
    alpha: CoefficientFn
    beta: CoefficientFn
    d: CoefficientFn = Const(0.0)
    rho: CoefficientFn = Const(1.0)
    tilde: PerturbationSpec | None = None
    remainder: Remainder | None = None
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
        if self.tilde is None:
            object.__setattr__(self, "tilde", PerturbationSpec(rho=self.rho))

    def scaled(self, c: float) -> "ChartModel":
        """Time-rescaled model: a, b, alpha, beta, d all multiplied by c > 0."""
        if c <= 0:
            raise ModelError("time rescaling must be positive")
        mul = lambda fn: _ScaledFn(fn, c)
        return ChartModel(a=mul(self.a), b=mul(self.b), alpha=mul(self.alpha),
                          beta=mul(self.beta), d=mul(self.d), rho=self.rho,
                          tilde=self.tilde, remainder=self.remainder,
                          name=f"{self.name}*{c}" if self.name else "")


@dataclass(frozen=True)
class _ScaledFn(CoefficientFn):
    base: CoefficientFn
    factor: float

    def __call__(self, y):
        return self.factor * self.base(y)

    def deriv(self, y):
        return self.factor * self.base.deriv(y)

    def to_config(self):
        raise NotImplementedError


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

        True when d and the remainder's n1 (if any) are ``Const(0.0)``, so
        Ayv is zero at every finite height, and when a non-finite height
        makes Ayy NaN as it makes Ayv NaN, so the step's noise keeps the
        bits of the general Cholesky form.  Ayy carries that NaN through
        its ``0.0 * v`` term, or, in a perturbed flavor at eps > 0, through
        the profile 1 + 0·z; a sloped profile is finite at an infinite
        height, so those flavors then keep the general form.  LIMIT gives
        Ayv = -0.0 at heights <= -0.0, which the samplers, clipping heights
        at zero, reach only on rows that have stopped.  A zero detected
        from ``Const(0.0)`` alone: any other function keeps the general form.
        """
        m = self.model
        if not (is_plus_zero(m.d) and (m.remainder is None or is_plus_zero(m.remainder.n1))):
            return False
        return self.flavor not in _PERTURBED or self.eps == 0.0 or m.tilde.z_slope == 0.0

    @property
    def rotation_invariant(self) -> bool:
        """Whether no entry depends on y, so a discretization's blocks are circulant.

        True for an eps-free flavor (LIMIT or LOG) whose model has every
        coefficient that flavor reads, a, b, alpha, beta, d and rho,
        ``Const``.  The perturbed flavors, which also read the perturbation
        and the remainder, answer False.
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
        """
        m, flavor = self.model, self.flavor
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
        eps, r, tilde = self.eps, m.remainder, m.tilde
        if eps is None:
            raise FlavorRangeError(f"flavor {flavor.value} requires eps")
        if flavor is Flavor.RESCALED:
            z = eps * v
            cyy = 0.5 * a + eps * eps * tilde.cyy(y, z)
            cvv = v * v * alpha + tilde.czz(y, z)
            if cross:
                cyv = 0.5 * v * d + eps * tilde.cyz(y, z)
            if r is not None:
                by = by + eps * v * folded(r.k1, y)
                bv = bv + eps * v * v * folded(r.n0, y)
                cyy = cyy + eps * v * folded(r.k2, y)
                cvv = cvv + eps * v ** 3 * folded(r.sigma, y)
                if cross:
                    cyv = cyv + 0.5 * eps * v * v * folded(r.n1, y)
            return by, bv, cyy, cyv, cvv
        # CHART: v is z
        if eps == 0.0:
            # the eps^2 terms are zeros: 0.0 * z still carries NaN from z, and
            # + 0.0 still turns -0.0 into +0.0, as adding them did
            cyy = 0.5 * a + zero
            cvv = v * v * alpha + zero
            if cross:
                cyv = 0.5 * v * d + 0.0
        else:
            cyy = 0.5 * a + eps * eps * tilde.cyy(y, v)
            cvv = v * v * alpha + eps * eps * tilde.czz(y, v)
            if cross:
                cyv = 0.5 * v * d + eps * eps * tilde.cyz(y, v)
        if r is not None:
            by = by + v * folded(r.k1, y)
            bv = bv + v * v * folded(r.n0, y)
            cyy = cyy + v * folded(r.k2, y)
            cvv = cvv + v ** 3 * folded(r.sigma, y)
            if cross:
                cyv = cyv + 0.5 * v * v * folded(r.n1, y)
        return by, bv, cyy, cyv, cvv


def _as_arrays(y, v):
    return np.asarray(y, dtype=float), np.asarray(v, dtype=float)


def assemble(m: ChartModel, eps: float | None, flavor: Flavor) -> GeneratorCoefficients:
    """Build drift/diffusion coefficients for the requested operator flavor.

    eps is required (and must be > 0) for the CHART and RESCALED flavors;
    LIMIT and LOG ignore it.  CHART with eps = 0 is allowed and gives the
    unperturbed chart dynamics.
    """
    if flavor in _PERTURBED:
        if eps is None:
            raise FlavorRangeError(f"flavor {flavor.value} requires eps")
        if eps < 0 or (flavor is Flavor.RESCALED and eps == 0):
            raise InvalidEpsilon(f"eps must be > 0 for flavor {flavor.value}, got {eps}")
        return GeneratorCoefficients(model=m, flavor=flavor, eps=float(eps))
    return GeneratorCoefficients(model=m, flavor=flavor, eps=None)


# ---------------------------------------------------------------------------
# Ambient mode: vector fields on the plane.
# ---------------------------------------------------------------------------

class VectorField:
    """A smooth field on the plane with an analytic Jacobian.

    value(x) has shape (..., 2) for x of shape (..., 2); jacobian(x) has
    shape (..., 2, 2) with J[k, l] = d v_k / d x_l.
    """

    def value(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError


def _angle(x):
    return np.arctan2(x[..., 1], x[..., 0])


@dataclass(frozen=True)
class RotationField(VectorField):
    """c(y(x)) * (-x2, x1): rotation about the origin, angularly modulated."""

    scale: CoefficientFn = Const(1.0)

    def value(self, x):
        c = np.asarray(self.scale(_angle(x)))
        return np.stack([-x[..., 1] * c, x[..., 0] * c], axis=-1)

    def jacobian(self, x):
        y = _angle(x)
        c = np.asarray(self.scale(y))
        cp = np.asarray(self.scale.deriv(y))
        gy = geometry.grad_y(x)
        rot = np.stack([-x[..., 1], x[..., 0]], axis=-1)
        jac = rot[..., :, None] * (cp[..., None, None] * gy[..., None, :])
        jac[..., 0, 1] += -c
        jac[..., 1, 0] += c
        return jac


@dataclass(frozen=True)
class RadialDecayField(VectorField):
    """c(y(x)) * (1 - |x|) * x/|x|: radial, vanishing on the unit circle."""

    scale: CoefficientFn = Const(1.0)

    def value(self, x):
        c = np.asarray(self.scale(_angle(x)))
        r = np.linalg.norm(x, axis=-1)
        return ((1.0 - r) / r * c)[..., None] * x

    def jacobian(self, x):
        y = _angle(x)
        c = np.asarray(self.scale(y))
        cp = np.asarray(self.scale.deriv(y))
        r = np.linalg.norm(x, axis=-1)
        gy = geometry.grad_y(x)
        base = ((1.0 - r) / r)[..., None] * x
        # d/dx_l [ (1/r - 1) x_k ] = -x_k x_l / r^3 + (1/r - 1) delta_kl
        outer = -(x[..., :, None] * x[..., None, :]) / (r ** 3)[..., None, None]
        eye = np.eye(2) * ((1.0 - r) / r)[..., None, None]
        jac = c[..., None, None] * (outer + eye)
        jac += base[..., :, None] * (cp[..., None, None] * gy[..., None, :])
        return jac


@dataclass(frozen=True)
class ConstantFrameField(VectorField):
    """g(y(x)) * e, for a fixed direction e."""

    direction: tuple
    scale: CoefficientFn = Const(1.0)

    def value(self, x):
        g = np.asarray(self.scale(_angle(x)))
        e = np.asarray(self.direction, dtype=float)
        return g[..., None] * e

    def jacobian(self, x):
        y = _angle(x)
        gp = np.asarray(self.scale.deriv(y))
        gy = geometry.grad_y(x)
        e = np.asarray(self.direction, dtype=float)
        return e[:, None] * (gp[..., None, None] * gy[..., None, :])


@dataclass(frozen=True)
class ZeroField(VectorField):
    def value(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def jacobian(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (2, 2))


@dataclass(frozen=True)
class AmbientModel:
    """Driving fields (v0, v1, v2) and perturbation fields (tv0, tv1, tv2)."""

    v: tuple
    tilde_v: tuple
    dom: DomainModel = field(default_factory=DomainModel)

    def __post_init__(self):
        if len(self.v) != 3 or len(self.tilde_v) != 3:
            raise ModelError("ambient mode needs exactly 3 driving and 3 perturbation fields")


def apply_operator(v0: VectorField, diffusion_fields, x, grad_fn, hess_fn):
    """Evaluate (v0 . grad + 1/2 sum_i (v_i . grad)^2) phi at points x.

    grad_fn/hess_fn supply the analytic gradient and Hessian of phi.  The
    squared directional derivatives expand to
    v^T (hess phi) v + ((Dv) v) . grad phi.
    """
    g = grad_fn(x)
    h = hess_fn(x)
    out = np.einsum("...k,...k->...", v0.value(x), g)
    for vf in diffusion_fields:
        val = vf.value(x)
        jac = vf.jacobian(x)
        quad = np.einsum("...k,...kl,...l->...", val, h, val)
        drift = np.einsum("...kl,...l,...k->...", jac, val, g)
        out = out + 0.5 * (quad + drift)
    return out


def second_order_form(diffusion_fields, x, grad_u_fn, grad_w_fn):
    """Pure second-order pairing C(grad u, grad w) = 1/2 sum_i (v_i.grad u)(v_i.grad w)."""
    gu = grad_u_fn(x)
    gw = grad_w_fn(x)
    out = 0.0
    for vf in diffusion_fields:
        val = vf.value(x)
        out = out + 0.5 * np.einsum("...k,...k->...", val, gu) * np.einsum(
            "...k,...k->...", val, gw
        )
    return out


def _chart_probe_points(y_grid, z):
    r = 1.0 - z
    return np.stack([r * np.cos(y_grid), r * np.sin(y_grid)], axis=-1)


def extract_alpha_beta(m: AmbientModel, probe_z: float, n_grid: int = 64,
                       tol: float = 1e-6):
    """Recover the normal-form degeneration coefficients from ambient fields.

    beta(y) is the limit of (L z)/z as z drops to 0; alpha(y) is the limit
    of the pure second-order part (1/2 L z^2 - z L z)/z^2.  Both limits are
    computed by evaluating at heights probe_z, probe_z/2, probe_z/4 and
    Richardson-extrapolating; the residual is the sup difference between
    the two extrapolations and must stay below tol.
    """
    if not 0.0 < probe_z < m.dom.chart_radius:
        raise ModelError(f"probe_z must be in (0, {m.dom.chart_radius}), got {probe_z}")
    y_grid = np.linspace(0.0, TWO_PI, n_grid, endpoint=False)
    v0, v1, v2 = m.v
    diff = (v1, v2)

    gz, hz = geometry.grad_z, geometry.hess_z

    def ratios(z):
        x = _chart_probe_points(y_grid, z)
        h1 = apply_operator(v0, diff, x, gz, hz)
        czz = second_order_form(diff, x, gz, gz)
        return h1 / z, czz / (z * z)

    b_r, a_r = {}, {}
    for k, z in enumerate((probe_z, probe_z / 2.0, probe_z / 4.0)):
        b_r[k], a_r[k] = ratios(z)

    beta_1 = 2.0 * b_r[1] - b_r[0]
    beta_2 = 2.0 * b_r[2] - b_r[1]
    alpha_1 = 2.0 * a_r[1] - a_r[0]
    alpha_2 = 2.0 * a_r[2] - a_r[1]
    residual = float(max(np.max(np.abs(beta_2 - beta_1)), np.max(np.abs(alpha_2 - alpha_1))))
    if residual > tol:
        raise ExtrapolationUnstable(
            f"extraction residual {residual:.3e} exceeds tolerance {tol:.3e}"
        )
    alpha_fn = TabulatedPeriodic(tuple(alpha_2))
    beta_fn = TabulatedPeriodic(tuple(beta_2))
    return alpha_fn, beta_fn, residual


def tangential_restriction(m: AmbientModel, n_grid: int = 64):
    """Coefficients (a, b) of the generator restricted to the boundary circle."""
    y_grid = np.linspace(0.0, TWO_PI, n_grid, endpoint=False)
    x = geometry.boundary_point(y_grid)
    v0, v1, v2 = m.v
    gy, hy = geometry.grad_y, geometry.hess_y
    a_vals = 2.0 * second_order_form((v1, v2), x, gy, gy)
    b_vals = apply_operator(v0, (v1, v2), x, gy, hy)
    return TabulatedPeriodic(tuple(a_vals)), TabulatedPeriodic(tuple(b_vals))


def perturbation_profile(m: AmbientModel, n_grid: int = 64) -> TabulatedPeriodic:
    """rho(y): the normal-normal perturbation diffusion on the boundary."""
    y_grid = np.linspace(0.0, TWO_PI, n_grid, endpoint=False)
    x = geometry.boundary_point(y_grid)
    _, tv1, tv2 = m.tilde_v
    gz = geometry.grad_z
    vals = second_order_form((tv1, tv2), x, gz, gz)
    return TabulatedPeriodic(tuple(vals))


def mixed_profile(m: AmbientModel, probe_z: float, n_grid: int = 64) -> TabulatedPeriodic:
    """d(y): the mixed-derivative coefficient, from Cyz(y, z) = z d / 2 + O(z^2)."""
    y_grid = np.linspace(0.0, TWO_PI, n_grid, endpoint=False)
    _, v1, v2 = m.v
    gy, gz = geometry.grad_y, geometry.grad_z

    def ratio(z):
        x = _chart_probe_points(y_grid, z)
        return 2.0 * second_order_form((v1, v2), x, gy, gz) / z

    d1 = ratio(probe_z)
    d2 = ratio(probe_z / 2.0)
    return TabulatedPeriodic(tuple(2.0 * d2 - d1))


def chart_from_ambient(m: AmbientModel, probe_z: float = 0.05, n_grid: int = 64,
                       tol: float = 1e-6, name: str = "") -> ChartModel:
    """Assemble the full chart normal form from an ambient model."""
    alpha_fn, beta_fn, _ = extract_alpha_beta(m, probe_z, n_grid, tol)
    a_fn, b_fn = tangential_restriction(m, n_grid)
    rho_fn = perturbation_profile(m, n_grid)
    d_fn = mixed_profile(m, probe_z, n_grid)
    return ChartModel(a=a_fn, b=b_fn, alpha=alpha_fn, beta=beta_fn, d=d_fn,
                      rho=rho_fn, name=name)


def ambient_from_chart(chart: ChartModel, dom: DomainModel | None = None) -> AmbientModel:
    """Realize a chart normal form (with d = 0) by explicit planar fields.

    v1 = sqrt(a) * rotation contributes the tangential diffusion; the
    radially decaying field sqrt(2 alpha) contributes both alpha and an
    equal share of beta, so the drift field (alpha - beta) * radial tops
    beta up to its target; a rotation drift supplies b, corrected for the
    drift the y-dependent sqrt(a) scaling itself generates.
    """
    dom = dom or DomainModel()
    y = np.linspace(0.0, TWO_PI, 256, endpoint=False)
    if np.max(np.abs(np.asarray(chart.d(y)))) > 0:
        raise ModelError("ambient realization only covers models with d = 0")

    sqrt_a = _SqrtFn(chart.a)
    sqrt_2alpha = _SqrtFn(_ScaledFn(chart.alpha, 2.0))
    sqrt_2rho = _SqrtFn(_ScaledFn(chart.rho, 2.0))

    # b-target correction: the modulated rotation field generates drift a'/4.
    b_eff = _SumFn(chart.b, _ScaledFn(_DerivFn(chart.a), -0.25))
    alpha_minus_beta = _SumFn(chart.alpha, _ScaledFn(chart.beta, -1.0))

    v0 = _SumField(
        RadialDecayField(scale=alpha_minus_beta),
        RotationField(scale=b_eff),
    )
    v1 = RotationField(scale=sqrt_a)
    v2 = RadialDecayField(scale=sqrt_2alpha)
    tv0 = ZeroField()
    tv1 = ConstantFrameField(direction=(1.0, 0.0), scale=sqrt_2rho)
    tv2 = ConstantFrameField(direction=(0.0, 1.0), scale=sqrt_2rho)
    return AmbientModel(v=(v0, v1, v2), tilde_v=(tv0, tv1, tv2), dom=dom)


@dataclass(frozen=True)
class _SqrtFn(CoefficientFn):
    base: CoefficientFn

    def __call__(self, y):
        return np.sqrt(self.base(y))

    def deriv(self, y):
        return 0.5 * self.base.deriv(y) / np.sqrt(self.base(y))

    def to_config(self):
        raise NotImplementedError


@dataclass(frozen=True)
class _DerivFn(CoefficientFn):
    base: CoefficientFn

    def __call__(self, y):
        return self.base.deriv(y)

    def to_config(self):
        raise NotImplementedError


@dataclass(frozen=True)
class _SumFn(CoefficientFn):
    left: CoefficientFn
    right: CoefficientFn

    def __call__(self, y):
        return self.left(y) + self.right(y)

    def deriv(self, y):
        return self.left.deriv(y) + self.right.deriv(y)

    def to_config(self):
        raise NotImplementedError


@dataclass(frozen=True)
class _SumField(VectorField):
    first: VectorField
    second: VectorField

    def value(self, x):
        return self.first.value(x) + self.second.value(x)

    def jacobian(self, x):
        return self.first.jacobian(x) + self.second.jacobian(x)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    kind: str
    location: str
    value: float
    message: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple

    def __str__(self):
        if self.ok:
            return "all checks passed"
        return "\n".join(f"[{v.kind}] at {v.location}: {v.message}" for v in self.violations)


def validate(m) -> ValidationReport:
    """Check the standing assumptions at a deterministic sample grid.

    Chart mode: periodicity of all coefficients (``ChartModel`` itself
    rejects a non-finite coefficient and a non-positive a, rho or alpha).
    Ambient mode: tangency of the driving fields on the
    circle, span of (v1, v2) in the interior, span of the perturbation
    fields everywhere sampled.
    """
    if isinstance(m, ChartModel):
        return _validate_chart(m)
    if isinstance(m, AmbientModel):
        return _validate_ambient(m)
    raise ModelError(f"cannot validate object of type {type(m).__name__}")


def _validate_chart(m: ChartModel) -> ValidationReport:
    y = np.linspace(0.0, TWO_PI, _VALIDATION_GRID, endpoint=False)
    bad = []
    # positivity and finiteness are ChartModel's own checks, on this grid
    for label, fn in (("a", m.a), ("b", m.b), ("alpha", m.alpha), ("beta", m.beta),
                      ("d", m.d), ("rho", m.rho)):
        vals = np.asarray(fn(y), dtype=float) + np.zeros_like(y)
        per = np.asarray(fn(y + TWO_PI), dtype=float) + np.zeros_like(y)
        gap = float(np.max(np.abs(per - vals)))
        if gap > 1e-10:
            bad.append(Violation("PeriodicityViolation", label, gap,
                                 f"{label} not 2*pi periodic (gap {gap:.2e})"))
    return ValidationReport(ok=not bad, violations=tuple(bad))


def _validate_ambient(m: AmbientModel, n_y: int = _VALIDATION_GRID,
                      n_r: int = 16) -> ValidationReport:
    bad = []
    y = np.linspace(0.0, TWO_PI, n_y, endpoint=False)
    xb = geometry.boundary_point(y)
    normal = -geometry.unit_radial(xb)
    for idx, vf in enumerate(m.v):
        comp = np.einsum("...k,...k->...", vf.value(xb), normal)
        worst = int(np.argmax(np.abs(comp)))
        if np.abs(comp[worst]) > 1e-10:
            bad.append(Violation("TangencyViolation", f"y={y[worst]:.4f}",
                                 float(comp[worst]),
                                 f"v{idx} has normal component {comp[worst]:.2e} on S"))
    lo = 0.05 if m.dom.kind is geometry.DomainKind.DISK else m.dom.inner_radius + 0.02
    radii = np.linspace(lo, 0.98, n_r)
    pts = np.stack([radii[:, None] * np.cos(y)[None, :],
                    radii[:, None] * np.sin(y)[None, :]], axis=-1).reshape(-1, 2)
    for label, pair, kind in (("v", (m.v[1], m.v[2]), "SpanViolation"),
                              ("tilde_v", (m.tilde_v[1], m.tilde_v[2]), "SpanViolation")):
        a_vals = pair[0].value(pts)
        b_vals = pair[1].value(pts)
        det = a_vals[:, 0] * b_vals[:, 1] - a_vals[:, 1] * b_vals[:, 0]
        scale = np.linalg.norm(a_vals, axis=-1) * np.linalg.norm(b_vals, axis=-1)
        # Boundary rows are excluded: the unperturbed fields may legitimately
        # degenerate there.
        interior = np.abs(1.0 - np.linalg.norm(pts, axis=-1)) > 1e-9
        weak = interior & (np.abs(det) <= 1e-10 * np.maximum(scale, 1e-30))
        if np.any(weak):
            i = int(np.argmax(weak))
            bad.append(Violation(kind, f"x=({pts[i,0]:.3f},{pts[i,1]:.3f})",
                                 float(det[i]),
                                 f"{label}1, {label}2 do not span the plane"))
    return ValidationReport(ok=not bad, violations=tuple(bad))


def chart_model_from_config(spec: dict, field_prefix: str = "model.chart") -> ChartModel:
    """Parse a chart model block from config."""
    if not isinstance(spec, dict):
        raise ConfigError(field_prefix, f"expected object, got {type(spec).__name__}")
    required = ("a", "b", "alpha", "beta")
    for key in sorted(set(spec) - {*required, "d", "rho", "tilde_z_slope", "name"}, key=str):
        raise ConfigError(f"{field_prefix}.{key}", "unknown key")
    name = spec.get("name", "")
    if not isinstance(name, str):
        raise ConfigError(f"{field_prefix}.name", f"expected a string, got {name!r}")
    fns = {}
    for key in ("a", "b", "alpha", "beta", "d", "rho"):
        if key in spec:
            fns[key] = coefficient_from_config(spec[key], f"{field_prefix}.{key}")
        elif key in required:
            raise ConfigError(f"{field_prefix}.{key}", "missing required coefficient")
    fns.setdefault("d", Const(0.0))
    fns.setdefault("rho", Const(1.0))
    tilde = None
    if "tilde_z_slope" in spec:
        slope = spec["tilde_z_slope"]
        if not finite_number(slope):
            raise ConfigError(f"{field_prefix}.tilde_z_slope", "expected a finite number")
        tilde = PerturbationSpec(rho=fns["rho"], z_slope=float(slope))
    return ChartModel(a=fns["a"], b=fns["b"], alpha=fns["alpha"], beta=fns["beta"],
                      d=fns["d"], rho=fns["rho"], tilde=tilde,
                      name=name)
