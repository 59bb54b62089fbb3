"""Stationary boundary measure, averaged coefficients, and the verdict.

The tangential generator a/2 d^2/dy^2 + b d/dy is uniformly elliptic on
the circle, so it has a unique stationary density pi.  The boundary is
attracting, neutral or repelling according to the sign of

    alpha_bar - beta_bar,   alpha_bar = int alpha dpi,  beta_bar = int beta dpi.

The same discrete operator also yields the corrector psi solving

    (a/2) psi'' + b psi' = alpha - beta - (alpha_bar - beta_bar),
    int psi dpi = 0,

which turns psi(Y) + ln Z into a constant-rate drift diagnostic for the
boundary-layer process.  All solves use second-order periodic central
differences; the stationary density is the (normalized) kernel of the
discrete adjoint, so the corrector's solvability condition holds exactly
in the discrete pairing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import IncompatibleRHS, SingularSystem
from .fields import ChartModel, TabulatedPeriodic
from .geometry import TWO_PI

TOL_COMPAT = 1e-8   # largest pi-mean of the corrector's right-hand side


class Verdict(enum.Enum):
    ATTRACTING = "attracting"
    NEUTRAL = "neutral"
    REPELLING = "repelling"


@dataclass(frozen=True)
class InvariantMeasure:
    """Stationary density on a uniform periodic y-grid, total mass one."""

    density: np.ndarray
    grid_size: int

    @property
    def y(self) -> np.ndarray:
        return np.linspace(0.0, TWO_PI, self.grid_size, endpoint=False)

    @property
    def spacing(self) -> float:
        return TWO_PI / self.grid_size

    def integrate(self, values: np.ndarray) -> float:
        """Quadrature against pi; exact pairing for grid functions."""
        return float(np.sum(self.density * values) * self.spacing)


@dataclass(frozen=True)
class ClassificationReport:
    alpha_bar: float
    beta_bar: float
    verdict: Verdict
    corrector: np.ndarray
    neutral_tolerance: float
    measure: InvariantMeasure
    corrector_residual: float

    def corrector_fn(self) -> TabulatedPeriodic:
        return TabulatedPeriodic(tuple(self.corrector))

    def to_dict(self) -> dict:
        return {
            "alpha_bar": self.alpha_bar,
            "beta_bar": self.beta_bar,
            "verdict": self.verdict.value,
            "neutral_tolerance": self.neutral_tolerance,
            "corrector_residual": self.corrector_residual,
            "grid_size": self.measure.grid_size,
        }


def _tangential_matrix(m: ChartModel, n: int) -> sp.csr_matrix:
    """Discrete a/2 d2/dy2 + b d/dy on the periodic grid (central, 2nd order)."""
    y = np.linspace(0.0, TWO_PI, n, endpoint=False)
    h = TWO_PI / n
    a = np.asarray(m.a(y), dtype=float) + np.zeros(n)
    b = np.asarray(m.b(y), dtype=float) + np.zeros(n)
    diff = a / (2.0 * h * h)
    adv = b / (2.0 * h)
    idx = np.arange(n)
    rows = np.concatenate([idx, idx, idx])
    cols = np.concatenate([(idx - 1) % n, idx, (idx + 1) % n])
    vals = np.concatenate([diff - adv, -2.0 * diff, diff + adv])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def _bordered_solve(mat, column, row, rhs, what: str) -> np.ndarray:
    """The first n entries of the solution of [[mat, column], [row, 0]] x = rhs;
    ``SingularSystem`` naming the system ``what`` when that system is singular."""
    n = mat.shape[0]
    top = sp.hstack([mat, sp.csr_matrix(column.reshape(n, 1))])
    bottom = sp.hstack([sp.csr_matrix(row.reshape(1, n)), sp.csr_matrix((1, 1))])
    try:
        sol = spla.spsolve(sp.vstack([top, bottom]).tocsc(), rhs)
    except RuntimeError as exc:  # pragma: no cover - scipy signals singularity
        raise SingularSystem(f"bordered {what} system: {exc}") from exc
    if not np.all(np.isfinite(sol)):
        raise SingularSystem(f"bordered {what} system is singular")
    return sol[:n]


def invariant_measure(m: ChartModel, grid_size: int = 1024) -> InvariantMeasure:
    """Stationary density of the boundary diffusion.

    Solves the adjoint stationarity system: the kernel of the transposed
    discrete generator, pinned to total mass one through one bordering
    row/column, which is nonsingular exactly when the kernel is
    one-dimensional.
    """
    _check_grid(grid_size)
    n = grid_size
    h = TWO_PI / n
    at = _tangential_matrix(m, n).T.tocsr()
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    density = _bordered_solve(at, np.ones(n), np.full(n, h), rhs, "stationarity")
    defect = float(np.max(np.abs(at @ density)))
    scale = float(np.max(np.abs(at.data))) * float(np.max(np.abs(density)))
    if defect > 1e-9 * max(scale, 1.0):
        raise SingularSystem(
            f"adjoint kernel defect {defect:.3e}; no one-dimensional kernel"
        )
    if density.min() < -1e-12 * density.max():
        raise SingularSystem("stationary density is not sign-definite")
    density = np.maximum(density, 0.0)
    density = density / (np.sum(density) * h)
    return InvariantMeasure(density=density, grid_size=n)


def corrector(m: ChartModel, measure: InvariantMeasure) -> tuple[np.ndarray, float]:
    """Mean-zero solution of the corrector equation; returns (psi, residual).

    The right-hand side alpha - beta - (alpha_bar - beta_bar) is built with
    the same discrete pairing that defines pi, so the discrete solvability
    condition holds to rounding; the one-dimensional kernel (constants) is
    removed by the zero-mean-against-pi constraint.
    """
    n = measure.grid_size
    y = measure.y
    alpha = np.asarray(m.alpha(y), dtype=float) + np.zeros(n)
    beta = np.asarray(m.beta(y), dtype=float) + np.zeros(n)
    abar = measure.integrate(alpha)
    bbar = measure.integrate(beta)
    rhs_core = alpha - beta - (abar - bbar)
    compat = measure.integrate(rhs_core)
    if abs(compat) > TOL_COMPAT:
        raise IncompatibleRHS(
            f"corrector right-hand side has pi-mean {compat:.3e} > {TOL_COMPAT:.1e}"
        )
    mat = _tangential_matrix(m, n)
    pi = measure.density
    psi = _bordered_solve(mat, pi, pi * measure.spacing, np.concatenate([rhs_core, [0.0]]),
                          "corrector")
    residual = float(np.max(np.abs(mat @ psi - rhs_core)))
    return psi, residual


def classify(m: ChartModel, tol: float = 1e-8, grid_size: int = 1024) -> ClassificationReport:
    """Averaged coefficients, verdict, and corrector for a chart model."""
    if tol <= 0:
        raise ValueError("neutrality tolerance must be > 0")
    measure = invariant_measure(m, grid_size)
    y = measure.y
    alpha = np.asarray(m.alpha(y), dtype=float) + np.zeros(grid_size)
    beta = np.asarray(m.beta(y), dtype=float) + np.zeros(grid_size)
    abar = measure.integrate(alpha)
    bbar = measure.integrate(beta)
    gap = abar - bbar
    if gap > tol:
        verdict = Verdict.ATTRACTING
    elif gap < -tol:
        verdict = Verdict.REPELLING
    else:
        verdict = Verdict.NEUTRAL
    psi, residual = corrector(m, measure)
    return ClassificationReport(alpha_bar=abar, beta_bar=bbar, verdict=verdict,
                                corrector=psi, neutral_tolerance=tol,
                                measure=measure, corrector_residual=residual)


def _check_grid(n: int):
    if n < 16 or (n & (n - 1)) != 0:
        raise ValueError(f"grid_size must be a power of two >= 16, got {n}")
