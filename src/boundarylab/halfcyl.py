"""Finite-difference solver on the truncated half-cylinder S^1 x [0, Z].

Solves the boundary-layer limit problems: the Dirichlet-data solution u
(attracting/neutral boundaries), the hitting probability h (repelling),
and the problem conditioned to exit, the Doob h-transform of the limit
operator.  Everything is a second-order central-difference
discretization on a tensor grid, periodic in y, with per-cell first-order
upwinding of a drift whose cell Peclet number exceeds 2 (which keeps the
matrix an M-matrix, so the discrete maximum principle holds).  The
stencil and the block elimination over height levels live in ``fd``,
shared with the polar disk solve; this module adds the boundary rows.
The far field is cut at a finite height Z: homogeneous Neumann for u
(the solution flattens to a constant), Dirichlet zero for h (it decays).
The conditioned operator is the h problem's under the substitution v = h u,
so one elimination of h serves both, each a cut of it closed by its own
far-field row.  A geometrically stretched grid reaches the very large
heights needed for the top-row oscillation to die out.  Truncation error
is estimated from one elimination: the same level sweep, cut at a lower
node (u and the conditioned solution) or continued past the top (h),
gives the second far-field height to compare with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
from .fd import Elimination, boundary_values, level_bands, within_data
from .fields import ChartModel, Flavor, GeneratorCoefficients, assemble
from .geometry import RescaledPoint, TWO_PI

_H_FLOOR = 1e-250  # conditioning guard: far-field h underflow, not a grid artifact
PAD_FACTOR = 16.0  # the h sweep behind the conditioned problem runs on a grid this much taller
# far-field rows as the (below, top) weights of _top_row
DIRICHLET_ZERO = (0.0, 1.0)
NEUMANN = (1.0, 1.0)

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
        if self.stretching == "geometric" and not 0 < self.dz0 * self.n_z < self.height:
            raise ModelError("geometric grid: dz0 must be positive and dz0 * n_z below the height")

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

    def extended(self, factor: float) -> np.ndarray:
        """Nodes of a grid about factor times taller whose first n_z + 1 are this grid's.

        The added steps continue this grid's: equal ones for a uniform
        grid, growing by the geometric ratio for a stretched one.
        """
        nodes = self.z_nodes()
        if self.stretching == "uniform":
            steps = np.full(int(math.ceil((factor - 1.0) * self.n_z)), self.height / self.n_z)
        else:
            q = _geometric_ratio(self.dz0, self.n_z, self.height)
            extra = max(8, int(math.ceil(math.log(factor) / math.log(q))))
            steps = (nodes[-1] - nodes[-2]) * q ** np.arange(1, extra + 1)
        return np.concatenate([nodes, nodes[-1] + np.cumsum(steps)])


def _geometric_ratio(dz0: float, n: int, height: float) -> float:
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
    h: HalfCylinderSolution | None = None   # a conditioned solution's solve_h result

    def interp(self, y: float, zz: float) -> float:
        """Bilinear (periodic in y, log-height in z) interpolation of u."""
        rows, cols, weights = _interp_functional(self.z_nodes, self.y_nodes, y, zz)
        return float(weights @ self.u_grid[rows, cols])


@dataclass(frozen=True)
class ExitMeasure:
    """Exit-angle density on the y-grid; integrates to one.

    A Monte Carlo law is conditioned on exit: ``censored_fraction`` is the
    share of paths it leaves out (still inside at max_time, or stopped at
    an outer wall), and ``unstable_fraction`` the share whose step failed
    the displacement guard.  Both are 0 in adjoint mode.
    """

    y_nodes: np.ndarray
    density: np.ndarray
    weights: np.ndarray
    source: str
    censored_fraction: float = 0.0
    unstable_fraction: float = 0.0

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

def _discretize(gc: GeneratorCoefficients, z: np.ndarray, n_y: int, top) -> np.ndarray:
    """Level bands (see fd.stencil) of the problem on heights z: level j is height z[j],
    the last level holds the far-field row of weights top (see _top_row), and level 1
    couples down to the boundary data."""
    y = np.linspace(0.0, TWO_PI, n_y, endpoint=False)
    Y, Z = np.meshgrid(y, z[1:-1])    # (n_z - 1, n_y)
    coeffs = gc.second_order(Y, Z) + gc.first_order(Y, Z)    # cyy, cyz, czz, by, bz
    return np.concatenate([level_bands(coeffs, z), _top_row(*top, n_y)[None]])


def _top_row(below, top, n_y: int) -> np.ndarray:
    """Row bands of the far-field condition top * u_top - below * u_below = 0: DIRICHLET_ZERO,
    NEUMANN, or the Neumann row on v = h u, (1 / h_below, 1 / h_top) per column."""
    row = np.zeros((3, 3, n_y))
    row[0, 1] -= below
    row[1, 1] = top
    return row


def _half_level(z: np.ndarray) -> int:
    """The node-aligned truncation check's cut: the first node at or past half height."""
    return min(max(int(np.searchsorted(z, z[-1] / 2.0)), 101), z.size - 2)


def _finish_solution(full: np.ndarray, z: np.ndarray, y: np.ndarray, data,
                     truncation: float) -> HalfCylinderSolution:
    """The solution with rows full at heights z; the range of its boundary data bounds it."""
    top = full[-1]
    return HalfCylinderSolution(u_grid=full, z_nodes=z, y_nodes=y, ubar=float(np.mean(top)),
                                top_oscillation=float(np.max(top) - np.min(top)),
                                variation=full.max(axis=1) - full.min(axis=1),
                                truncation_estimate=truncation,
                                max_principle_ok=within_data(full, data))


def _verdict(m: ChartModel) -> Verdict:
    return classify(m, grid_size=512).verdict


def _neumann_sweep(gc: GeneratorCoefficients, grid: HalfCylinderGrid):
    """The Neumann-top problem on grid, eliminated once: close(level), its cut at level
    closed by the Neumann row (at the grid's top, the sweep itself, closed there
    already)."""
    elim = Elimination(_discretize(gc, grid.z_nodes(), grid.n_y, NEUMANN))
    return lambda level: elim if level == grid.n_z else \
        elim.cut(level, _top_row(*NEUMANN, grid.n_y))


def _h_sweep(gc: GeneratorCoefficients, grid: HalfCylinderGrid):
    """The h problem on the grid PAD_FACTOR times taller (matching nodes, h = 0 at its top),
    eliminated once and solved: close(level), its cut at level closed by the Neumann row
    on v = h u, whose solves return u = v / h (see fd.Elimination.cut); and a function
    giving solve_h's result, its cut at the grid's top with h(Z) = 0."""
    elim = Elimination(_discretize(gc, grid.extended(PAD_FACTOR), grid.n_y, DIRICHLET_ZERO))
    ones = np.ones(grid.n_y)
    h = np.vstack([ones, elim.solve_data(ones)[:grid.n_z]])

    def close(level):
        if np.min(h[:level + 1]) < _H_FLOOR:
            raise HTransformSingular(f"hitting probability as small as "
                                     f"{np.min(h[:level + 1]):.3e} on the grid")
        return elim.cut(level, _top_row(1.0 / h[level - 1], 1.0 / h[level], grid.n_y),
                        cols=h[1:level + 1])

    def solution():
        cut = elim.cut(grid.n_z, _top_row(*DIRICHLET_ZERO, grid.n_y))
        full = np.vstack([ones, cut.solve_data(ones)])
        # data are 1 at the bottom and 0 at the cut
        return _finish_solution(full, grid.z_nodes(), grid.y_nodes(), (0.0, 1.0),
                                float(np.max(np.abs(h - full))))

    return close, solution


def _cut_solve(close, grid: HalfCylinderGrid, f, check_truncation: bool) -> HalfCylinderSolution:
    """The grid's problem with data f from a sweep's close: its cut at the top, and
    ubar's change from the cut at the first node at or past half height as truncation
    estimate."""
    z, y = grid.z_nodes(), grid.y_nodes()
    f_vals = boundary_values(f, y)
    full = np.vstack([f_vals, close(grid.n_z).solve_data(f_vals)])
    truncation = math.nan
    if check_truncation:
        k_half = _half_level(z)
        u_half = close(k_half).solve_data(f_vals)
        truncation = abs(float(full[-1].mean()) - float(u_half[-1].mean()))
    return _finish_solution(full, z, y, f_vals, truncation)


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
    The reported truncation_estimate is |ubar(Z) - ubar(Z_half)|, where
    Z_half is the first node at or past Z/2 and the problem cut there
    keeps the Neumann far field.  _regime is the verdict of a caller that
    has already classified m.
    """
    grid = grid or HalfCylinderGrid()
    verdict = _regime or _verdict(m)
    if verdict is Verdict.REPELLING:
        raise WrongRegime("u-solve needs an attracting or neutral boundary; "
                          "use solve_conditioned")
    gc = assemble(m, eps, Flavor.LIMIT if eps is None else Flavor.RESCALED)
    return _cut_solve(_neumann_sweep(gc, grid), grid, f, check_truncation)


def solve_h(m: ChartModel, grid: HalfCylinderGrid | None = None) -> HalfCylinderSolution:
    """Hitting probability of the boundary for a repelling model.

    h = 1 at the boundary and decays.  One sweep solves it on a grid
    PAD_FACTOR times taller (matching nodes) with h = 0 at its top; the
    same sweep cut at this grid's top, with h(Z) = 0 there, gives the
    returned h, and the truncation error is bounded by the largest
    difference of the two.  solve_conditioned carries this result.
    """
    grid = grid or HalfCylinderGrid()
    if _verdict(m) is not Verdict.REPELLING:
        raise WrongRegime("hitting probability is identically 1 unless repelling")
    return _h_sweep(assemble(m, None, Flavor.LIMIT), grid)[1]()


def solve_conditioned(m: ChartModel, f, grid: HalfCylinderGrid | None = None,
                      check_truncation: bool = True,
                      _regime: Verdict | None = None) -> HalfCylinderSolution:
    """Conditioned-exit solution for a repelling model.

    The conditioned operator is the h problem's under the substitution
    v = h u, so the sweep of solve_h, cut at the grid's top (and at half
    height for the truncation estimate) and closed by the Neumann row on
    v, gives v with the boundary data at height zero (h = 1 there), and
    u = v / h.  The result carries solve_h(m, grid) as h.  _regime is the
    verdict of a caller that has already classified m.
    """
    sol, h_solution = _conditioned(m, f, grid, check_truncation, _regime)
    sol.h = h_solution()
    return sol


def _conditioned(m: ChartModel, f, grid: HalfCylinderGrid | None, check_truncation: bool,
                 regime: Verdict | None):
    """solve_conditioned's result before it carries h, and a function giving that h: a
    caller that reads ubar alone skips h's cut and solve."""
    grid = grid or conditioned_default_grid()
    if (regime or _verdict(m)) is not Verdict.REPELLING:
        raise WrongRegime("conditioning applies to repelling boundaries only")
    close, h_solution = _h_sweep(assemble(m, None, Flavor.LIMIT), grid)
    return _cut_solve(close, grid, f, check_truncation), h_solution


def radial_oracle(alpha_c: float, beta_c: float, rho_c: float):
    """Closed-form hitting probability for angle-independent coefficients.

    The height marginal solves (alpha zz^2 + rho) h'' + beta zz h' = 0, so
    h(zz) is the normalized tail integral of (1 + alpha u^2 / rho)^(-beta/2alpha);
    integrable exactly when beta/alpha > 1.  Returns (h, exit_probability)
    where exit_probability(zz, wall) is the chance of reaching height 0
    before the wall.
    """
    import scipy.integrate  # only this oracle integrates; no run or solve imports it

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
    weights come from one elimination and one transposed solve, after the
    solve for h if repelling (see _adjoint_weights).  Monte Carlo mode
    histograms simulated exit angles (conditioned on exit for repelling
    models) and reports the shares of censored and unstable paths.
    """
    verdict = _verdict(m)
    if grid is None:
        grid = conditioned_default_grid() if verdict is Verdict.REPELLING \
            else HalfCylinderGrid()
    if mode == "adjoint":
        weights = _adjoint_weights(assemble(m, None, Flavor.LIMIT), grid, start,
                                   verdict is Verdict.REPELLING)
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
                           weights=weights, source="mc",
                           censored_fraction=1.0 - float(np.mean(batch.exited_mask)),
                           unstable_fraction=float(np.mean(batch.unstable_mask)))
    raise ModelError(f"unknown exit-measure mode {mode!r}")


def _adjoint_weights(gc, grid, start, repelling: bool) -> np.ndarray:
    """Exit weight of each y-node at start, or in the deep-layer limit for start=None.

    Each weight is a linear functional c of a forward solution: the
    top-row mean for start=None, else the interpolation at start, whose
    row 0 acts on the boundary data.  The solution with data e_k has
    unknowns u = -A^-1 B e_k, so the weights are c[0] - B^T A^-T c[1:],
    one transposed solve.  For a repelling model they are those of the
    h-conditioned process: A is the conditioned cut of the h sweep, whose
    transposed solve takes the functional c / h.
    """
    c = np.zeros((grid.n_z + 1, grid.n_y))
    if start is None:
        c[-1] = 1.0 / grid.n_y
    else:
        rows, cols, weights = _interp_functional(grid.z_nodes(), grid.y_nodes(),
                                                 start.y, start.zz)
        c[rows, cols] = weights
    close = _h_sweep(gc, grid)[0] if repelling else _neumann_sweep(gc, grid)
    return c[0] + close(grid.n_z).data_weights(c[1:])


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
