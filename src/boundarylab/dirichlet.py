"""The perturbed Dirichlet problem on the disk (and annulus).

A chart model only defines the operator near the boundary, so the disk
operator is completed inward: inside the chart strip the normal-form
coefficients apply verbatim (in (theta, 1-r) coordinates); past the strip
they are blended, through a C^1 ramp in the distance variable, into a
fixed non-degenerate reference operator (a scalar multiple of the
Laplacian).  The perturbation adds eps^2 times an isotropic elliptic
operator whose boundary normal diffusion is the model's rho.  The same
abstract operator is discretized two ways and cross-checked: a polar
finite-difference solve (second order, boundary-clustered radial grid,
per-cell upwinding, pole handled by one averaged unknown) and an ambient
Euler-Maruyama sampler of the exit functional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sde
from .classifier import Verdict, classify
from .errors import ExtensionUndefined, ModelError, NoConvergence
from .fd import Factors, check_residual, csr, stencil
from .fields import ChartModel
from .geometry import DomainKind, DomainModel, TWO_PI, wrap_angle
from .halfcyl import HalfCylinderGrid, solve_conditioned, solve_u


@dataclass(frozen=True)
class InteriorCompletion:
    """Reference operator scale * Laplacian used away from the boundary strip."""

    scale: float
    label: str = ""

    def __post_init__(self):
        if self.scale <= 0:
            raise ModelError("interior completion scale must be > 0")


def default_completions(m: ChartModel) -> tuple[InteriorCompletion, InteriorCompletion]:
    """Two deliberately different completions for insensitivity checks."""
    y = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    abar = float(np.mean(np.asarray(m.a(y))))
    return (InteriorCompletion(scale=0.5 * abar, label="half-mean-a"),
            InteriorCompletion(scale=2.0 * abar, label="double-mean-a"))


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


@dataclass(frozen=True)
class DiskOperator:
    """Blended uniformly elliptic operator on the closed domain."""

    model: ChartModel
    eps: float
    completion: InteriorCompletion
    dom: DomainModel = None

    def __post_init__(self):
        if self.eps < 0:
            raise ModelError("eps must be >= 0")
        if self.dom is None:
            object.__setattr__(self, "dom", DomainModel())

    # ramp: 1 inside z <= delta/2, 0 outside z >= delta
    def chart_weight(self, z):
        delta = self.dom.chart_radius
        return _smoothstep((delta - np.asarray(z, dtype=float)) / (delta / 2.0))

    def polar_coefficients(self, theta, r):
        """Operator-form (Ctt, Ctr, Crr, bt, br) at polar points (theta, r)."""
        theta = np.asarray(theta, dtype=float)
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0.0):
            raise ExtensionUndefined("polar form undefined at the pole; handled separately")
        m = self.model
        z = 1.0 - r
        chi = self.chart_weight(z)
        a = np.asarray(m.a(theta)) + 0.0 * r
        alpha = np.asarray(m.alpha(theta)) + 0.0 * r
        beta = np.asarray(m.beta(theta)) + 0.0 * r
        b = np.asarray(m.b(theta)) + 0.0 * r
        dmix = np.asarray(m.d(theta)) + 0.0 * r
        s = self.completion.scale
        pert = self.eps ** 2 * (np.asarray(m.tilde.czz(theta, z)) + 0.0 * r)
        ctt = chi * 0.5 * a + ((1.0 - chi) * s + pert) / r ** 2
        crr = chi * z * z * alpha + (1.0 - chi) * s + pert
        ctr = chi * (-0.5 * z * dmix)
        bt = chi * b
        br = chi * (-z * beta) + ((1.0 - chi) * s + pert) / r
        return ctt, ctr, crr, bt, br

    def cartesian_ito(self, x):
        """Drift (n, 2) and Ito diffusion entries (A11, A12, A22) at points x."""
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1)
        r_safe = np.maximum(r, 1e-12)
        z = 1.0 - r
        theta = np.arctan2(x[..., 1], x[..., 0])
        m = self.model
        chi = self.chart_weight(z)
        s = self.completion.scale
        pert = self.eps ** 2 * np.asarray(m.tilde.czz(theta, z))
        iso = 2.0 * ((1.0 - chi) * s + pert)  # Ito diffusion of (scale*Laplacian)

        a = np.asarray(m.a(theta))
        alpha = np.asarray(m.alpha(theta))
        beta = np.asarray(m.beta(theta))
        b = np.asarray(m.b(theta))
        dmix = np.asarray(m.d(theta))

        cos_t = x[..., 0] / r_safe
        sin_t = x[..., 1] / r_safe
        # chart (y, z) Ito data: A = [[a, z d], [z d, 2 z^2 alpha]], b = (b, z beta)
        ayy = a
        ayz = z * dmix
        azz = 2.0 * z * z * alpha
        # push forward through x = (1 - z)(cos y, sin y)
        xy1, xy2 = -r * sin_t, r * cos_t          # dx/dy
        xz1, xz2 = -cos_t, -sin_t                 # dx/dz
        a11 = ayy * xy1 * xy1 + 2.0 * ayz * xy1 * xz1 + azz * xz1 * xz1
        a12 = ayy * xy1 * xy2 + ayz * (xy1 * xz2 + xy2 * xz1) + azz * xz1 * xz2
        a22 = ayy * xy2 * xy2 + 2.0 * ayz * xy2 * xz2 + azz * xz2 * xz2
        # drift pushforward: b_y x_y + b_z x_z + 1/2 (A_yy x_yy + 2 A_yz x_yz)
        byy1, byy2 = -r * cos_t, -r * sin_t       # d2x/dy2
        byz1, byz2 = sin_t, -cos_t                # d2x/dydz
        bz = z * beta
        b1 = b * xy1 + bz * xz1 + 0.5 * (ayy * byy1 + 2.0 * ayz * byz1)
        b2 = b * xy2 + bz * xz2 + 0.5 * (ayy * byy2 + 2.0 * ayz * byz2)

        A11 = chi * a11 + iso
        A12 = chi * a12
        A22 = chi * a22 + iso
        drift = np.stack([chi * b1, chi * b2], axis=-1)
        return drift, A11, A12, A22

    def normal_diffusion(self, x):
        """Radial-radial Ito diffusion entry, for boundary bridge tests."""
        x = np.asarray(x, dtype=float)
        _, a11, a12, a22 = self.cartesian_ito(x)
        return _radial_component(x, a11, a12, a22)


def _radial_component(x, a11, a12, a22):
    """Radial-radial entry at points x of the matrix with entries (a11, a12, a22)."""
    r = np.maximum(np.linalg.norm(x, axis=-1), 1e-12)
    c = x[..., 0] / r
    s = x[..., 1] / r
    return a11 * c * c + 2.0 * a12 * c * s + a22 * s * s


# ---------------------------------------------------------------------------
# Polar finite differences
# ---------------------------------------------------------------------------

def radial_nodes(eps: float, dom: DomainModel, layer_cells: int = 22,
                 growth: float = 1.1, cap: float = 0.02) -> np.ndarray:
    """Boundary-clustered radial nodes; >= layer_cells cells within 1 - r < eps."""
    if eps <= 0:
        raise ModelError("eps must be > 0")
    dz_min = eps * (growth - 1.0) / (growth ** layer_cells - 1.0)
    inner_limit = dom.inner_radius if dom.kind is DomainKind.ANNULUS else 0.0
    steps = []
    total = 0.0
    k = 0
    span = 1.0 - inner_limit
    while total < span - 1e-12:
        h = min(dz_min * growth ** k, cap, span - total)
        steps.append(h)
        total += h
        k += 1
    nodes = 1.0 - np.concatenate([[0.0], np.cumsum(steps)])
    nodes = nodes[::-1]
    nodes[0] = inner_limit
    return nodes


@dataclass
class DirichletSolution:
    """Polar-grid solution: u[j, i] at radius r_nodes[j], angle theta_nodes[i]."""

    theta_nodes: np.ndarray
    r_nodes: np.ndarray
    u: np.ndarray
    pole_value: float | None
    eps: float
    completion: str
    max_principle_ok: bool
    probe_values: dict

    def probe(self, x1: float, x2: float) -> float:
        r = math.hypot(x1, x2)
        theta = wrap_angle(math.atan2(x2, x1))
        rn = self.r_nodes
        if self.pole_value is not None and r <= rn[1]:
            ring = _periodic_interp(self.u[1], self.theta_nodes, theta)
            t = r / rn[1]
            return float((1.0 - t) * self.pole_value + t * ring)
        j = np.clip(np.searchsorted(rn, r) - 1, 0, rn.size - 2)
        t = (r - rn[j]) / (rn[j + 1] - rn[j])
        lo = _periodic_interp(self.u[j], self.theta_nodes, theta)
        hi = _periodic_interp(self.u[j + 1], self.theta_nodes, theta)
        return float((1.0 - t) * lo + t * hi)


def _periodic_interp(row: np.ndarray, theta_nodes: np.ndarray, theta: float) -> float:
    n = theta_nodes.size
    dtheta = TWO_PI / n
    s = (theta % TWO_PI) / dtheta
    i0 = int(s) % n
    f = s - int(s)
    return float(row[i0] * (1.0 - f) + row[(i0 + 1) % n] * f)


def solve_fd(op: DiskOperator, psi_d, n_theta: int = 64,
             r_nodes: np.ndarray | None = None,
             psi_inner=None) -> DirichletSolution:
    """Second-order polar finite-difference solve of the blended operator.

    psi_d is the Dirichlet data on the outer circle (callable of theta or
    array on the theta grid); the annulus also needs psi_inner.  The disk
    pole is a single unknown closed by the zero-Laplacian average stencil.
    """
    dom = op.dom
    disk = dom.kind is DomainKind.DISK
    if r_nodes is None:
        r_nodes = radial_nodes(op.eps, dom)
    theta = np.linspace(0.0, TWO_PI, n_theta, endpoint=False)
    n_r = r_nodes.size - 1          # index of the outer boundary node
    dtheta = TWO_PI / n_theta

    f_outer = np.asarray(psi_d(theta), dtype=float) if callable(psi_d) \
        else np.asarray(psi_d, dtype=float) + np.zeros_like(theta)
    if not disk:
        if psi_inner is None:
            raise ModelError("annulus solve needs inner boundary data")
        f_inner = np.asarray(psi_inner(theta), dtype=float) if callable(psi_inner) \
            else np.asarray(psi_inner, dtype=float) + np.zeros_like(theta)

    # unknowns: rings j = 1..n_r-1 (idx = i + n_theta*(j-1)); disk adds pole unknown
    n_ring = n_r - 1
    n_unk = n_theta * n_ring + (1 if disk else 0)
    pole_idx = n_unk - 1 if disk else None

    jj = np.arange(1, n_r)
    TH, J = np.meshgrid(theta, jj, indexing="ij")
    ctt, ctr, crr, bt, br = op.polar_coefficients(TH, r_nodes[J])
    for arr_name, arr in (("ctt", ctt), ("crr", crr)):
        if np.any(~np.isfinite(arr)):
            raise NoConvergence(f"non-finite coefficient {arr_name}")
    entries = stencil(ctt, ctr, crr, bt, br, dtheta, r_nodes[J] - r_nodes[J - 1],
                      r_nodes[J + 1] - r_nodes[J])

    I = np.arange(n_theta)[:, None] + np.zeros_like(J)
    idx = lambda i, j: (i % n_theta) + n_theta * (j - 1)
    row = idx(I, J)

    rows, cols, vals = [], [], []
    rhs = np.zeros(n_unk)
    for di, dj, coeff in entries:
        col_i, col_j = I + di, J + dj
        outer_bnd = col_j == n_r
        center = col_j == 0
        keep = (col_j >= 1) & ~outer_bnd
        rows.append(row[keep])
        cols.append(idx(col_i[keep], col_j[keep]))
        vals.append(coeff[keep])
        if np.any(outer_bnd):
            np.add.at(rhs, row[outer_bnd], -coeff[outer_bnd] * f_outer[col_i[outer_bnd] % n_theta])
        if np.any(center):
            if disk:
                rows.append(row[center])
                cols.append(np.full(np.count_nonzero(center), pole_idx))
                vals.append(coeff[center])
            else:
                np.add.at(rhs, row[center], -coeff[center] * f_inner[col_i[center] % n_theta])

    if disk:
        # pole row: vanishing Laplacian average over the first ring
        prow = np.full(n_theta, pole_idx)
        rows.append(prow)
        cols.append(idx(np.arange(n_theta), np.ones(n_theta, dtype=int)))
        vals.append(np.full(n_theta, 1.0 / n_theta))
        rows.append(np.array([pole_idx]))
        cols.append(np.array([pole_idx]))
        vals.append(np.array([-1.0]))

    mat = csr(rows, cols, vals, (n_unk, n_unk))
    u_vec = Factors(mat).solve(rhs)
    check_residual(mat, u_vec, rhs, 1e-8)

    u = np.empty((n_r + 1, n_theta))
    u[n_r] = f_outer
    u[1:n_r] = u_vec[:n_theta * n_ring].reshape(n_ring, n_theta)
    pole_value = None
    if disk:
        pole_value = float(u_vec[pole_idx])
        u[0] = pole_value
    else:
        u[0] = f_inner

    lo = float(np.min(f_outer)) if disk else min(float(np.min(f_outer)), float(np.min(f_inner)))
    hi = float(np.max(f_outer)) if disk else max(float(np.max(f_outer)), float(np.max(f_inner)))
    tol = 1e-9 * max(hi - lo, 1.0)
    ok = bool(np.all(u >= lo - tol) and np.all(u <= hi + tol))
    return DirichletSolution(theta_nodes=theta, r_nodes=r_nodes, u=u,
                             pole_value=pole_value, eps=op.eps,
                             completion=op.completion.label,
                             max_principle_ok=ok, probe_values={})


# ---------------------------------------------------------------------------
# Ambient Monte Carlo
# ---------------------------------------------------------------------------

@dataclass
class AmbientExitBatch:
    exit_theta: np.ndarray
    exit_time: np.ndarray
    exited_mask: np.ndarray
    exit_inner: np.ndarray      # annulus: exited through the inner circle
    checkpoints: np.ndarray | None
    positions: np.ndarray | None   # (n_checkpoints, n_paths, 2), NaN after exit
    n_paths: int
    seed: int


def sample_exit(op: DiskOperator, start, params: sde.SimulationParams,
                checkpoint_times=None) -> AmbientExitBatch:
    """Euler-Maruyama exit sampling of the ambient process from one start.

    Absorption on the outer (and annulus inner) circle uses the endpoint
    crossing with linear interpolation plus the distance-to-circle
    Brownian-bridge test.  Optional checkpoints record path positions at
    fixed times (NaN once a path has exited).
    """
    x0 = np.asarray(start, dtype=float)
    dom = op.dom
    inner_r = dom.inner_radius if dom.kind is DomainKind.ANNULUS else None
    n = params.n_paths
    dt = params.dt
    sqdt = math.sqrt(dt)
    cp = None
    positions = None
    if checkpoint_times is not None:
        cp, steps_at = sde._checkpoint_steps(checkpoint_times, dt)
        positions = np.full((cp.size, n, 2), np.nan)

    exit_theta = np.full(n, np.nan)
    exit_time = np.full(n, float(params.max_time))
    exited = np.zeros(n, dtype=bool)
    exit_inner = np.zeros(n, dtype=bool)

    def start_state(size):
        x = np.tile(x0, (size, 1))
        return [x, *op.cartesian_ito(x)]

    def advance(k, state, noise, uniform, live, pids):
        # the coefficients at x ride in the state: each step evaluates them once, at x_new
        x, drift, a11, a12, a22 = state
        noise1, noise2 = sde._increments(sqdt, a11, a12, a22, noise)
        dx1 = drift[:, 0] * dt + noise1
        dx2 = drift[:, 1] * dt + noise2
        x_new = x + np.stack([dx1, dx2], axis=-1)
        t_now = k * dt
        r_new = np.linalg.norm(x_new, axis=-1)
        walls = [(1.0, False, r_new >= 1.0)]
        if inner_r is not None:
            walls.append((inner_r, True, r_new <= inner_r))
        for radius, inward, beyond in walls:
            crossed = live & beyond
            if np.any(crossed):
                dx = x_new[crossed] - x[crossed]
                frac = _circle_crossing(x[crossed], dx, radius, inward=inward)
                hit_pt = x[crossed] + frac[:, None] * dx
                g = pids[crossed]
                exited[g] = True
                exit_inner[g] = inward
                exit_time[g] = t_now + frac * dt
                exit_theta[g] = wrap_angle(np.arctan2(hit_pt[:, 1], hit_pt[:, 0]))
                live = live & ~crossed
        drift_new, a11_new, a12_new, a22_new = op.cartesian_ito(x_new)
        if params.bridge_absorption:
            z_old = 1.0 - np.linalg.norm(x, axis=-1)
            z_new = 1.0 - r_new
            ann = _radial_component(x, a11, a12, a22)
            ann_end = _radial_component(x_new, a11_new, a12_new, a22_new)
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                p_hit = np.exp(-4.0 * np.maximum(z_old, 0.0) * np.maximum(z_new, 0.0)
                               / ((ann + ann_end) * dt))
            hit = live & (z_new > 0.0) & (uniform < p_hit)
            if np.any(hit):
                mid = 0.5 * (x[hit] + x_new[hit])
                g = pids[hit]
                exited[g] = True
                exit_time[g] = t_now + 0.5 * dt
                exit_theta[g] = wrap_angle(np.arctan2(mid[:, 1], mid[:, 0]))
                live = live & ~hit
        x = np.where(live[:, None], x_new, x)
        if cp is not None:
            for c in np.flatnonzero(steps_at == k + 1):
                positions[c, pids[live]] = x[live]
        return [x, np.where(live[:, None], drift_new, drift), np.where(live, a11_new, a11),
                np.where(live, a12_new, a12), np.where(live, a22_new, a22)], live

    sde._run_paths(params, int(round(params.max_time / dt)), start_state, advance)
    return AmbientExitBatch(exit_theta=exit_theta, exit_time=exit_time,
                            exited_mask=exited, exit_inner=exit_inner,
                            checkpoints=cp, positions=positions,
                            n_paths=n, seed=params.seed)


def _circle_crossing(x, dx, radius, inward=False):
    """Fraction s in [0, 1] with |x + s dx| = radius."""
    a = np.sum(dx * dx, axis=-1)
    b = np.sum(x * dx, axis=-1)
    c = np.sum(x * x, axis=-1) - radius * radius
    disc = np.maximum(b * b - a * c, 0.0)
    root = np.sqrt(disc)
    if inward:
        s = (-b - root) / np.maximum(a, 1e-300)
    else:
        s = (-b + root) / np.maximum(a, 1e-300)
    return np.clip(s, 0.0, 1.0)


def solve_mc(op: DiskOperator, psi_d, start, params: sde.SimulationParams,
             psi_inner=None) -> tuple[float, float, float]:
    """Exit-functional estimate of the solution at one point.

    Returns (estimate, stderr, censored_fraction); censored paths are
    excluded from the average, so the estimate is conditional on exit and
    the caller should keep the censored fraction negligible.
    """
    if op.dom.kind is DomainKind.ANNULUS and psi_inner is None:
        raise ModelError("annulus solve needs inner boundary data")
    batch = sample_exit(op, start, params)
    mask = batch.exited_mask
    if not np.any(mask):
        raise NoConvergence("no path exited within max_time")
    vals = np.where(batch.exit_inner[mask],
                    np.asarray(psi_inner(batch.exit_theta[mask]))
                    if psi_inner is not None else np.nan,
                    np.asarray(psi_d(batch.exit_theta[mask])))
    est = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
    return est, se, 1.0 - float(np.mean(mask))


# ---------------------------------------------------------------------------
# Convergence experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceRow:
    eps: float
    probe: tuple
    method: str
    value: float
    abs_error: float
    mc_stderr: float
    completion: str
    mc_censored: float          # share of MC paths still inside at max_time; 0 on FD rows


@dataclass
class ConvergenceTable:
    ubar: float
    rows: list
    non_monotone_flags: list
    final_solution: DirichletSolution   # the FD solution at the smallest eps

    def errors_for(self, probe, completion=None, method="fd"):
        sel = [r for r in self.rows
               if r.probe == tuple(probe) and r.method == method
               and (completion is None or r.completion == completion)]
        sel.sort(key=lambda r: -r.eps)
        return [r.abs_error for r in sel]

    def final_errors(self, method="fd"):
        eps_min = min(r.eps for r in self.rows)
        return [r.abs_error for r in self.rows if r.eps == eps_min and r.method == method]


def limit_value(m: ChartModel, f, grid: HalfCylinderGrid | None = None) -> float:
    """The eps-free limit of the solution, per the boundary verdict.

    Only ubar is kept, so the truncation re-solve is skipped.
    """
    verdict = classify(m, grid_size=512).verdict
    if verdict is Verdict.REPELLING:
        return solve_conditioned(m, f, grid, check_truncation=False, _regime=verdict).ubar
    return solve_u(m, f, grid, check_truncation=False, _regime=verdict).ubar


def convergence_experiment(m: ChartModel, psi_d, eps_list, probes,
                           completion: InteriorCompletion | None = None,
                           dom: DomainModel | None = None, n_theta: int = 64,
                           mc_params: sde.SimulationParams | None = None,
                           ubar: float | None = None) -> ConvergenceTable:
    """Table of |u^eps(probe) - ubar| across a decreasing eps list.

    The limit value comes from the boundary-layer solve matching the
    model's verdict; each eps gets one finite-difference solve (and an
    optional Monte Carlo cross-estimate per probe).  Error sequences that
    fail to decrease monotonically are flagged, not discarded.
    """
    eps_list = list(eps_list)
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise ModelError("eps_list must be strictly decreasing")
    dom = dom or DomainModel()
    completion = completion or default_completions(m)[0]
    if ubar is None:
        ubar = limit_value(m, psi_d)
    rows = []
    for eps in eps_list:
        op = DiskOperator(model=m, eps=eps, completion=completion, dom=dom)
        sol = solve_fd(op, psi_d, n_theta=n_theta)
        if not sol.max_principle_ok:
            raise NoConvergence(f"maximum principle violated at eps={eps}")
        for probe in probes:
            val = sol.probe(*probe)
            rows.append(ConvergenceRow(eps=eps, probe=tuple(probe), method="fd",
                                       value=val, abs_error=abs(val - ubar),
                                       mc_stderr=0.0, completion=completion.label,
                                       mc_censored=0.0))
        if mc_params is not None:
            for probe in probes:
                est, se, cens = solve_mc(op, psi_d, probe, mc_params)
                rows.append(ConvergenceRow(eps=eps, probe=tuple(probe), method="mc",
                                           value=est, abs_error=abs(est - ubar),
                                           mc_stderr=se, completion=completion.label,
                                           mc_censored=cens))
    table = ConvergenceTable(ubar=ubar, rows=rows, non_monotone_flags=[],
                             final_solution=sol)
    for probe in probes:
        errs = table.errors_for(probe, completion=completion.label)
        if any(e2 > e1 for e1, e2 in zip(errs, errs[1:])):
            table.non_monotone_flags.append(tuple(probe))
    return table
