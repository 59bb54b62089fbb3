"""Finite-difference solver on the truncated half-cylinder S^1 x [0, Z].

Solves the boundary-layer limit problems: the Dirichlet-data solution u
(attracting/neutral boundaries), the hitting probability h (repelling),
and the conditioned problem obtained by conjugating the discrete operator
with the diagonal of h.  Everything is a second-order central-difference
discretization on a tensor grid, periodic in y, with per-cell first-order
upwinding of a drift whose cell Peclet number exceeds 2 (which keeps the
matrix an M-matrix, so the discrete maximum principle holds).  The
stencil and the row-equilibrated sparse factorization live in ``fd``,
shared with the polar disk solve; this module adds the boundary rows.
The far field is cut at a finite height Z: homogeneous Neumann for u
(the solution flattens to a constant), Dirichlet zero for h (it decays).
A geometrically stretched grid reaches the very large heights needed for
the top-row oscillation to die out; truncation error is controlled by
re-solving at a different height.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.integrate
import scipy.sparse as sp

from . import sde
from .classifier import Verdict, classify
from .errors import (
    HTransformSingular,
    LevelSetUnresolved,
    ModelError,
    NoConvergence,
    NotIntegrable,
    WrongRegime,
)
from .fd import Factors, csr, stencil
from .fields import ChartModel, Flavor, GeneratorCoefficients, assemble
from .geometry import RescaledPoint, TWO_PI

_RESIDUAL_TARGET = 1e-10
_H_FLOOR = 1e-250  # conjugation guard: far-field h underflow, not a grid artifact
PAD_FACTOR = 16.0  # the h-solve behind the conditioned problem runs on a grid this much taller

# The conditioned far-field constant carries a larger log-spacing error
# constant than the plain solve (the top value is a ratio of two decaying
# grid functions), so its default grid is finer.
def conditioned_default_grid() -> "HalfCylinderGrid":
    return HalfCylinderGrid(n_y=128, n_z=2560, height=1.0e13, dz0=0.02)


@dataclass(frozen=True)
class HalfCylinderGrid:
    """Tensor grid: n_y periodic columns, n_z height cells up to Z."""

    n_y: int = 64
    n_z: int = 640
    height: float = 1.0e13
    stretching: str = "geometric"  # "uniform" | "geometric"
    dz0: float = 0.02

    def __post_init__(self):
        if self.n_y < 32 or (self.n_y & (self.n_y - 1)) != 0:
            raise ModelError(f"n_y must be a power of two >= 32, got {self.n_y}")
        if self.n_z < 100:
            raise ModelError(f"n_z must be >= 100, got {self.n_z}")
        if self.height < 5.0:
            raise ModelError(f"height must be >= 5, got {self.height}")
        if self.stretching not in ("uniform", "geometric"):
            raise ModelError(f"unknown stretching {self.stretching!r}")
        if self.stretching == "geometric" and not 0 < self.dz0 < self.height:
            raise ModelError("geometric stretching needs 0 < dz0 < height")

    def z_nodes(self) -> np.ndarray:
        if self.stretching == "uniform":
            return np.linspace(0.0, self.height, self.n_z + 1)
        q = _geometric_ratio(self.dz0, self.n_z, self.height)
        steps = self.dz0 * q ** np.arange(self.n_z)
        nodes = np.concatenate([[0.0], np.cumsum(steps)])
        nodes[-1] = self.height
        return nodes

    def y_nodes(self) -> np.ndarray:
        return np.linspace(0.0, TWO_PI, self.n_y, endpoint=False)

    def with_height(self, new_height: float) -> "HalfCylinderGrid":
        """Same resolution policy, different truncation height."""
        if self.stretching == "uniform":
            return replace(self, height=new_height)
        # keep dz0, adjust cell count to land near the requested height
        q = _geometric_ratio(self.dz0, self.n_z, self.height)
        n_new = max(100, int(math.ceil(math.log1p(new_height * (q - 1.0) / self.dz0) /
                                       math.log(q))))
        return replace(self, height=new_height, n_z=n_new)

    def extended(self, factor: float) -> "HalfCylinderGrid":
        """Taller grid whose first nodes coincide with this grid's nodes."""
        if self.stretching == "uniform":
            dz = self.height / self.n_z
            extra = int(math.ceil((factor - 1.0) * self.n_z))
            return replace(self, n_z=self.n_z + extra, height=self.height + extra * dz,
                           stretching="uniform")
        q = _geometric_ratio(self.dz0, self.n_z, self.height)
        nodes = self.z_nodes()
        steps = np.diff(nodes)
        extra = max(8, int(math.ceil(math.log(factor) / math.log(q))))
        new_steps = steps[-1] * q ** np.arange(1, extra + 1)
        new_height = float(nodes[-1] + np.sum(new_steps))
        return _ExplicitGrid(n_y=self.n_y, n_z=self.n_z + extra, height=new_height,
                             nodes=np.concatenate([nodes, nodes[-1] + np.cumsum(new_steps)]))


@dataclass(frozen=True)
class _ExplicitGrid(HalfCylinderGrid):
    """Grid with explicitly supplied nodes (used for padded h-solves)."""

    nodes: np.ndarray = None

    def __post_init__(self):
        pass

    def z_nodes(self) -> np.ndarray:
        return self.nodes


def _geometric_ratio(dz0: float, n: int, height: float) -> float:
    total_uniform = dz0 * n
    if total_uniform >= height:
        raise ModelError("geometric grid: dz0 * n_z must be below the height")

    def total(q):
        if n * math.log(q) > 300.0:  # overflow-safe: far beyond any real grid
            return math.inf
        return dz0 * (q ** n - 1.0) / (q - 1.0)

    lo, hi = 1.0 + 1e-12, 2.0
    while total(hi) < height:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if total(mid) < height:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass
class HalfCylinderSolution:
    """Grid solution; row j of u_grid is height z_nodes[j] (row 0 = boundary data)."""

    u_grid: np.ndarray
    z_nodes: np.ndarray
    y_nodes: np.ndarray
    ubar: float
    top_oscillation: float
    variation: np.ndarray
    truncation_estimate: float
    max_principle_ok: bool
    h_grid: np.ndarray | None = None

    def interp(self, y: float, zz: float) -> float:
        """Bilinear (periodic in y, log-height in z) interpolation of u."""
        rows, cols, weights = _interp_functional(self.z_nodes, self.y_nodes, y, zz)
        return float(weights @ self.u_grid[rows, cols])


@dataclass(frozen=True)
class ExitMeasure:
    """Exit-angle density on the y-grid; integrates to one."""

    y_nodes: np.ndarray
    density: np.ndarray
    weights: np.ndarray
    source: str

    def integrate(self, f) -> float:
        return float(np.sum(self.weights * f(self.y_nodes)))

    def total_variation(self, other: "ExitMeasure") -> float:
        return 0.5 * float(np.sum(np.abs(self.weights - other.weights)))


@dataclass(frozen=True)
class LevelDecay:
    levels: np.ndarray
    oscillation: np.ndarray
    rate: float
    r_squared: float


# ---------------------------------------------------------------------------
# Discretization
# ---------------------------------------------------------------------------

@dataclass
class _Discretization:
    mat: sp.csr_matrix          # unknowns: (i, j) for j = 1..n_z, idx = i + n_y*(j-1)
    bottom: sp.csr_matrix       # coupling of interior rows to the j=0 boundary values
    z: np.ndarray
    y: np.ndarray


def _discretize(gc: GeneratorCoefficients, grid: HalfCylinderGrid, top_bc: str) -> _Discretization:
    z = grid.z_nodes()
    y = grid.y_nodes()
    n_y, n_z = grid.n_y, grid.n_z
    n_unk = n_y * n_z

    jj = np.arange(1, n_z)          # interior height indices
    Y, J = np.meshgrid(y, jj, indexing="ij")    # (n_y, n_z-1)
    Zm = z[J]
    coeffs = gc.second_order(Y, Zm) + gc.first_order(Y, Zm)    # cyy, cyz, czz, by, bz
    entries = stencil(*(np.broadcast_to(c, Y.shape) for c in coeffs),
                      TWO_PI / n_y, z[J] - z[J - 1], z[J + 1] - z[J])

    idx = lambda i, j: (i % n_y) + n_y * (j - 1)
    I = np.arange(n_y)[:, None] + np.zeros_like(J)
    row = idx(I, J)

    rows, cols, vals = [], [], []
    brows, bcols, bvals = [], [], []
    for di, dj, coeff in entries:
        col_i, col_j = I + di, J + dj
        interior = col_j >= 1
        rows.append(row[interior])
        cols.append(idx(col_i[interior], col_j[interior]))
        vals.append(coeff[interior])
        # coupling to the j = 0 boundary values
        bottom_mask = col_j == 0
        brows.append(row[bottom_mask])
        bcols.append(col_i[bottom_mask] % n_y)
        bvals.append(coeff[bottom_mask])

    # top boundary row
    i_top = np.arange(n_y)
    top_row = idx(i_top, np.full(n_y, n_z))
    if top_bc == "neumann":
        rows.append(top_row)
        cols.append(top_row)
        vals.append(np.ones(n_y))
        rows.append(top_row)
        cols.append(idx(i_top, np.full(n_y, n_z - 1)))
        vals.append(-np.ones(n_y))
    elif top_bc == "dirichlet0":
        rows.append(top_row)
        cols.append(top_row)
        vals.append(np.ones(n_y))
    else:
        raise ModelError(f"unknown top boundary condition {top_bc!r}")

    return _Discretization(mat=csr(rows, cols, vals, (n_unk, n_unk)),
                           bottom=csr(brows, bcols, bvals, (n_unk, n_y)), z=z, y=y)


def _boundary_values(f, y: np.ndarray) -> np.ndarray:
    vals = np.asarray(f(y), dtype=float) if callable(f) else np.asarray(f, dtype=float)
    if vals.shape != y.shape:
        vals = vals + np.zeros_like(y)
    return vals


def _grid_from_unknowns(u: np.ndarray, f_vals: np.ndarray, n_y: int, n_z: int) -> np.ndarray:
    full = np.empty((n_z + 1, n_y))
    full[0] = f_vals
    full[1:] = u.reshape(n_z, n_y)
    return full


def _finish_solution(full: np.ndarray, disc: _Discretization, f_vals: np.ndarray,
                     truncation: float, h_grid=None, bounds=None) -> HalfCylinderSolution:
    top = full[-1]
    ubar = float(np.mean(top))
    osc = float(np.max(top) - np.min(top))
    variation = full.max(axis=1) - full.min(axis=1)
    if bounds is None:
        bounds = (float(np.min(f_vals)), float(np.max(f_vals)))
    lo, hi = bounds
    tol = 1e-9 * max(hi - lo, 1.0)
    ok = bool(np.all(full >= lo - tol) and np.all(full <= hi + tol))
    return HalfCylinderSolution(u_grid=full, z_nodes=disc.z, y_nodes=disc.y,
                                ubar=ubar, top_oscillation=osc, variation=variation,
                                truncation_estimate=truncation, max_principle_ok=ok,
                                h_grid=h_grid)


def _verdict(m: ChartModel) -> Verdict:
    return classify(m, grid_size=512).verdict


def _h_grid(gc: GeneratorCoefficients, grid: HalfCylinderGrid):
    """h = 1 at the bottom and 0 at the top of grid; returns (grid function, disc)."""
    disc = _discretize(gc, grid, "dirichlet0")
    ones = np.ones(grid.n_y)
    h = Factors(disc.mat).solve(-(disc.bottom @ ones), _RESIDUAL_TARGET)
    return _grid_from_unknowns(h, ones, grid.n_y, grid.n_z), disc


def _padded_h(gc: GeneratorCoefficients, grid: HalfCylinderGrid) -> np.ndarray:
    """h on grid's nodes, solved on the matching grid PAD_FACTOR times taller."""
    return _h_grid(gc, grid.extended(PAD_FACTOR))[0][:grid.n_z + 1]


def _neumann_system(gc: GeneratorCoefficients, grid: HalfCylinderGrid, h=None):
    """(disc, matrix, bottom coupling) of the Neumann-top problem on grid.

    Given h on (at least) grid's nodes, the PDE rows are conjugated by its
    diagonal, which turns the system into the h-conditioned one; the
    far-field row acts on the conditioned solution itself.
    """
    disc = _discretize(gc, grid, "neumann")
    if h is None:
        return disc, disc.mat, disc.bottom
    h = h[:grid.n_z + 1]
    if np.min(h) < _H_FLOOR:
        raise HTransformSingular(f"hitting probability as small as {np.min(h):.3e} on the grid")
    h_unknown = h[1:].ravel()
    mat = disc.mat.tocoo()
    pde = mat.row < grid.n_y * (grid.n_z - 1)
    vals = mat.data * np.where(pde, h_unknown[mat.col] / h_unknown[mat.row], 1.0)
    bot = disc.bottom.tocoo()  # h = 1 on the boundary row
    return (disc, sp.csr_matrix((vals, (mat.row, mat.col)), shape=mat.shape),
            sp.csr_matrix((bot.data / h_unknown[bot.row], (bot.row, bot.col)),
                          shape=bot.shape))


# ---------------------------------------------------------------------------
# Public solves
# ---------------------------------------------------------------------------

def solve_u(m: ChartModel, f, grid: HalfCylinderGrid | None = None,
            eps: float | None = None, check_truncation: bool = True,
            _regime: Verdict | None = None) -> HalfCylinderSolution:
    """Dirichlet-data solution of the limit operator; attracting/neutral only.

    f is the boundary data on the y-grid (callable or array).  With eps
    given, the coefficients of the rescaled operator at that eps are used
    instead of the limit (a robustness check for the limit value ubar).
    The reported truncation_estimate is |ubar(Z) - ubar(Z/2)|.  _regime is
    the verdict of a caller that has already classified m.
    """
    grid = grid or HalfCylinderGrid()
    verdict = _regime or _verdict(m)
    if verdict is Verdict.REPELLING:
        raise WrongRegime("u-solve needs an attracting or neutral boundary; "
                          "use solve_conditioned")
    flavor = Flavor.LIMIT if eps is None else Flavor.RESCALED
    gc = assemble(m, eps, flavor)
    disc = _discretize(gc, grid, "neumann")
    f_vals = _boundary_values(f, disc.y)
    u = Factors(disc.mat).solve(-(disc.bottom @ f_vals), _RESIDUAL_TARGET)
    full = _grid_from_unknowns(u, f_vals, grid.n_y, grid.n_z)
    truncation = math.nan
    if check_truncation:
        half = solve_u(m, f, grid.with_height(grid.height / 2.0), eps=eps,
                       check_truncation=False, _regime=verdict)
        truncation = abs(full[-1].mean() - half.ubar)
    return _finish_solution(full, disc, f_vals, truncation)


def solve_h(m: ChartModel, grid: HalfCylinderGrid | None = None,
            _regime: Verdict | None = None) -> HalfCylinderSolution:
    """Hitting probability of the boundary for a repelling model.

    h = 1 at the boundary and decays; the far field is cut with h(Z) = 0
    and the truncation error is bounded by comparing with a solve on a
    grid PAD_FACTOR times taller (matching nodes).  That padded h, on this
    grid's nodes, is kept as h_grid: solve_conditioned takes it from here.
    """
    grid = grid or HalfCylinderGrid()
    verdict = _regime or _verdict(m)
    if verdict is not Verdict.REPELLING:
        raise WrongRegime("hitting probability is identically 1 unless repelling")
    gc = assemble(m, None, Flavor.LIMIT)
    full, disc = _h_grid(gc, grid)
    padded = _padded_h(gc, grid)
    truncation = float(np.max(np.abs(padded - full)))
    # data are 1 at the bottom and 0 at the cut: bounds [0, 1]
    return _finish_solution(full, disc, np.ones(grid.n_y), truncation, h_grid=padded,
                            bounds=(0.0, 1.0))


def solve_conditioned(m: ChartModel, f, grid: HalfCylinderGrid | None = None,
                      check_truncation: bool = True,
                      _regime: Verdict | HalfCylinderSolution | None = None
                      ) -> HalfCylinderSolution:
    """Conditioned-exit solution for a repelling model.

    Forms the discrete limit operator, conjugates it by the diagonal of the
    hitting probability h (solved on a taller matching grid so h > 0 on
    every node used), and solves with the boundary data at height zero and
    a Neumann far field for the conditioned solution itself.  _regime is
    what a caller already holds: its verdict, or its solve_h(m, grid)
    result, which stands for the repelling verdict and supplies the padded
    h, so that system is not factored again.
    """
    grid = grid or conditioned_default_grid()
    h = None
    if isinstance(_regime, HalfCylinderSolution):
        if _regime.y_nodes.size != grid.n_y or \
                not np.array_equal(_regime.z_nodes, grid.z_nodes()):
            raise ModelError("the solve_h result passed down is on another grid")
        verdict, h = Verdict.REPELLING, _regime.h_grid
    else:
        verdict = _regime or _verdict(m)
    if verdict is not Verdict.REPELLING:
        raise WrongRegime("conditioning applies to repelling boundaries only")
    gc = assemble(m, None, Flavor.LIMIT)
    if h is None:
        h = _padded_h(gc, grid)

    disc, mat, bottom = _neumann_system(gc, grid, h)
    f_vals = _boundary_values(f, disc.y)
    u = Factors(mat).solve(-(bottom @ f_vals), _RESIDUAL_TARGET)
    full = _grid_from_unknowns(u, f_vals, grid.n_y, grid.n_z)
    truncation = math.nan
    if check_truncation:
        # re-solve on the node-aligned sub-grid nearest half height
        k_half = int(np.searchsorted(disc.z, grid.height / 2.0))
        k_half = min(max(k_half, 101), grid.n_z - 1)
        half = _ExplicitGrid(n_y=grid.n_y, n_z=k_half, height=float(disc.z[k_half]),
                             nodes=disc.z[:k_half + 1])
        _, mat_half, bottom_half = _neumann_system(gc, half, h)
        u_half = Factors(mat_half).solve(-(bottom_half @ f_vals), _RESIDUAL_TARGET)
        truncation = abs(float(u[-grid.n_y:].mean()) - float(u_half[-grid.n_y:].mean()))
    return _finish_solution(full, disc, f_vals, truncation, h_grid=h)


def radial_oracle(alpha_c: float, beta_c: float, rho_c: float):
    """Closed-form hitting probability for angle-independent coefficients.

    The height marginal solves (alpha zz^2 + rho) h'' + beta zz h' = 0, so
    h(zz) is the normalized tail integral of (1 + alpha u^2 / rho)^(-beta/2alpha);
    integrable exactly when beta/alpha > 1.  Returns (h, exit_probability)
    where exit_probability(zz, wall) is the chance of reaching height 0
    before the wall.
    """
    if alpha_c <= 0 or rho_c <= 0:
        raise NotIntegrable("alpha and rho must be positive")
    if beta_c / alpha_c <= 1.0:
        raise NotIntegrable(
            f"tail integral diverges: beta/alpha = {beta_c / alpha_c:.3f} <= 1"
        )
    p = beta_c / (2.0 * alpha_c)

    def density(u):
        return (1.0 + alpha_c * u * u / rho_c) ** (-p)

    total, _ = scipy.integrate.quad(density, 0.0, np.inf)

    def h(zz):
        zz = float(zz)
        if zz <= 0.0:
            return 1.0
        tail, _ = scipy.integrate.quad(density, zz, np.inf)
        return tail / total

    def exit_probability(zz: float, wall: float) -> float:
        return (h(zz) - h(wall)) / (1.0 - h(wall))

    return h, exit_probability


def variation_decay(sol: HalfCylinderSolution, psi, levels) -> LevelDecay:
    """Oscillation of u over the level sets {psi(y) + ln zz = n}.

    Each level is interpolated along every y-column (linear in ln z);
    a level crossed by fewer than 8 columns raises LevelSetUnresolved.
    Returns the per-level oscillation and a log-linear fit of its decay.
    """
    z = sol.z_nodes
    y = sol.y_nodes
    lo, hi = z[1], z[-1]
    lnz = np.log(z[1:])
    levels = np.asarray(levels, dtype=float)
    osc = np.empty(levels.size)
    psi_vals = np.asarray(psi(y), dtype=float) + np.zeros_like(y)
    for k, n in enumerate(levels):
        target = n - psi_vals  # ln zz per column
        inside = (target >= np.log(lo)) & (target <= np.log(hi))
        if np.count_nonzero(inside) < 8:
            raise LevelSetUnresolved(
                f"level {n}: only {np.count_nonzero(inside)} columns cross the grid"
            )
        vals = np.empty(np.count_nonzero(inside))
        for c, i in enumerate(np.nonzero(inside)[0]):
            vals[c] = np.interp(target[i], lnz, sol.u_grid[1:, i])
        osc[k] = vals.max() - vals.min()
    positive = osc > 0
    if np.count_nonzero(positive) >= 2:
        coeffs, res = np.polyfit(levels[positive], np.log(osc[positive]), 1, full=True)[:2]
        rate = -float(coeffs[0])
        ln_osc = np.log(osc[positive])
        ss_tot = float(np.sum((ln_osc - ln_osc.mean()) ** 2))
        ss_res = float(res[0]) if res.size else 0.0
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    else:
        rate, r2 = math.nan, math.nan
    return LevelDecay(levels=levels, oscillation=osc, rate=rate, r_squared=r2)


def exit_measure(m: ChartModel, start: RescaledPoint | None,
                 grid: HalfCylinderGrid | None = None, mode: str = "adjoint",
                 params: sde.SimulationParams | None = None,
                 bins: int | None = None) -> ExitMeasure:
    """Exit-angle law of the layer process, by duality or Monte Carlo.

    Adjoint mode: the weight of y-node k is the forward solution with data
    e_k (the k-th basis function), read at the start point, or as the
    top-row mean for start=None, the deep-layer limit law.  All n_y
    weights come from one factorization and one transposed solve (see
    _adjoint_weights).  Monte Carlo mode histograms simulated exit angles
    (conditioned on exit for repelling models).
    """
    verdict = _verdict(m)
    if grid is None:
        grid = conditioned_default_grid() if verdict is Verdict.REPELLING \
            else HalfCylinderGrid()
    if mode == "adjoint":
        gc = assemble(m, None, Flavor.LIMIT)
        h = _padded_h(gc, grid) if verdict is Verdict.REPELLING else None
        weights = _adjoint_weights(gc, grid, start, h)
        total = weights.sum()
        if abs(total - 1.0) > 1e-8:
            raise NoConvergence(f"exit weights sum to {total:.10f}, not 1")
        weights = weights / total
        y = grid.y_nodes()
        density = weights / (TWO_PI / grid.n_y)
        return ExitMeasure(y_nodes=y, density=density, weights=weights, source="adjoint")
    if mode == "mc":
        if params is None:
            raise ModelError("Monte Carlo exit measure needs simulation params")
        gc = assemble(m, None, Flavor.LIMIT)
        if start is None:
            raise ModelError("Monte Carlo exit measure needs a start point")
        batch = sde.simulate(gc, start, params)
        n_bins = bins or grid.n_y
        edges = np.linspace(0.0, TWO_PI, n_bins + 1)
        counts, _ = np.histogram(batch.exit_y[batch.exited_mask], bins=edges)
        if not counts.sum():
            raise NoConvergence("no path exited within max_time")
        weights = counts / counts.sum()
        centers = 0.5 * (edges[:-1] + edges[1:])
        return ExitMeasure(y_nodes=centers, density=weights / (TWO_PI / n_bins),
                           weights=weights, source="mc")
    raise ModelError(f"unknown exit-measure mode {mode!r}")


def _adjoint_weights(gc, grid, start, h=None) -> np.ndarray:
    """Exit weight of each y-node at start, or in the deep-layer limit for start=None.

    Each weight is a linear functional c of a forward solution: the
    top-row mean for start=None, else the interpolation at start, whose
    row 0 acts on the boundary data.  The solution with data e_k has
    unknowns u = -A^-1 B e_k, so the weights are c[0] - B^T A^-T c[1:],
    one transposed solve.  Given the padded h, they are those of the
    h-conditioned process.
    """
    disc, mat, bottom = _neumann_system(gc, grid, h)
    c = np.zeros((grid.n_z + 1, grid.n_y))
    if start is None:
        c[-1] = 1.0 / grid.n_y
    else:
        rows, cols, weights = _interp_functional(disc.z, disc.y, start.y, start.zz)
        c[rows, cols] = weights
    x = Factors(mat).solve_transposed(c[1:].ravel(), _RESIDUAL_TARGET)
    return c[0] - bottom.T @ x


def _interp_functional(z: np.ndarray, y: np.ndarray, yq: float, zq: float):
    """(rows, cols, weights) of the grid interpolation at (yq, zq).

    Linear and periodic in y.  In z: linear between the boundary row and
    the first interior row below z[1], linear in ln(z) above it, and the
    top row past the top node.
    """
    n_y = y.size
    dy = TWO_PI / n_y
    s = (yq % TWO_PI) / dy
    i0 = int(s) % n_y
    fy = s - int(s)
    if zq <= z[1]:
        j0, t = 0, zq / z[1]
    elif zq >= z[-1]:
        j0, t = z.size - 2, 1.0
    else:
        j0 = int(np.searchsorted(z, zq)) - 1   # z[j0] < zq <= z[j0 + 1]
        t = math.log(zq / z[j0]) / math.log(z[j0 + 1] / z[j0])
    rows = np.array([j0, j0, j0 + 1, j0 + 1])
    cols = np.array([i0, (i0 + 1) % n_y] * 2)
    return rows, cols, np.outer([1.0 - t, t], [1.0 - fy, fy]).ravel()
