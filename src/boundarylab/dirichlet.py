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
from .coefficients import Const, folded, is_plus_zero
from .errors import ExtensionUndefined, ModelError, NoConvergence
from .fd import Elimination, boundary_values, level_bands, within_data
from .fields import ChartModel, Flavor, assemble
from .geometry import DomainKind, DomainModel, TWO_PI, wrap_angle
from .halfcyl import HalfCylinderGrid, _conditioned, conditioned_default_grid, solve_u


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
    t = np.minimum(np.maximum(t, 0.0), 1.0)
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
        # cartesian_ito's terms, decided once: a multiply by a Const(1.0) a goes, and so do
        # the terms of A that a Const(+0.0) d makes zeros.  The drift's terms of b, beta and
        # d go only together, all three Const(+0.0), and one + 0.0 then gives the full
        # sum's zero sign, since that sum is never -0.0 where a >= 0; with one of them
        # kept, a zero drift's sign would follow the kept term.  A Const(-0.0) keeps its terms.
        m = self.model
        object.__setattr__(self, "_terms", (
            isinstance(m.a, Const) and m.a.c == 1.0,
            not is_plus_zero(m.d),
            not (is_plus_zero(m.b) and is_plus_zero(m.beta) and is_plus_zero(m.d))))

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
        a = folded(m.a, theta) + 0.0 * r
        alpha = folded(m.alpha, theta) + 0.0 * r
        beta = folded(m.beta, theta) + 0.0 * r
        b = folded(m.b, theta) + 0.0 * r
        dmix = folded(m.d, theta) + 0.0 * r
        s = self.completion.scale
        pert = self.eps ** 2 * (m.tilde.czz(theta, z) + 0.0 * r)
        ctt = chi * 0.5 * a + ((1.0 - chi) * s + pert) / r ** 2
        crr = chi * z * z * alpha + (1.0 - chi) * s + pert
        ctr = chi * (-0.5 * z * dmix)
        bt = chi * b
        br = chi * (-z * beta) + ((1.0 - chi) * s + pert) / r
        return ctt, ctr, crr, bt, br

    def cartesian_ito(self, x1, x2, r, eps2=None):
        """Drift (b1, b2), Ito diffusion entries (A11, A12, A22) and the radial-radial
        entry A(x/|x|, x/|x|), for the boundary bridge tests, at the points (x1, x2).

        The coordinates come as two arrays and r is the points' norm, which
        the caller has already computed; every result is an array of their
        shape.  eps2, when given, is eps^2 point by point (an array of that
        shape), in place of this operator's own: the stacked sampler steps
        operators that differ in eps alone.  The terms that the model's
        ``Const`` coefficients make exact are skipped (see ``_terms``).
        """
        unit_a, with_d, with_drift = self._terms
        r_safe = np.maximum(r, 1e-12)
        z = 1.0 - r
        theta = np.arctan2(x2, x1)
        m = self.model
        chi = self.chart_weight(z)
        s = self.completion.scale
        pert = (self.eps ** 2 if eps2 is None else eps2) * m.tilde.czz(theta, z)
        iso = 2.0 * ((1.0 - chi) * s + pert)  # Ito diffusion of (scale*Laplacian)

        cos_t = x1 / r_safe
        sin_t = x2 / r_safe
        # chart (y, z) Ito data A = [[a, z d], [z d, 2 z^2 alpha]], b = (b, z beta), pushed
        # forward through x = (1 - z)(cos y, sin y)
        neg_r = -r
        xy1, xy2 = neg_r * sin_t, r * cos_t       # dx/dy
        xz1, xz2 = -cos_t, -sin_t                 # dx/dz
        a = folded(m.a, theta)
        ay1 = xy1 if unit_a else a * xy1          # a x_y1, shared by A11, A12 and b2
        azz = 2.0 * z * z * folded(m.alpha, theta)
        az1 = azz * xz1                           # shared by A11 and A12
        a11 = ay1 * xy1
        a12 = ay1 * xy2
        a22 = xy2 * xy2 if unit_a else a * xy2 * xy2
        if with_drift:
            ayz = z * folded(m.d, theta)
            ayz2 = 2.0 * ayz
        if with_d:
            a11 = a11 + ayz2 * xy1 * xz1
            a12 = a12 + ayz * (xy1 * xz2 + xy2 * xz1)
            a22 = a22 + ayz2 * xy2 * xz2
        a11 = chi * (a11 + az1 * xz1) + iso
        a12 = chi * (a12 + az1 * xz2)
        a22 = chi * (a22 + azz * xz2 * xz2) + iso
        # drift pushforward: b_y x_y + b_z x_z + 1/2 (A_yy x_yy + 2 A_yz x_yz), where
        # x_yy = (-r cos y, x_y1) and x_yz = (sin y, x_z1)
        ar = neg_r * cos_t if unit_a else a * (neg_r * cos_t)
        if with_drift:
            b = folded(m.b, theta)
            bz = z * folded(m.beta, theta)
            b1 = b * xy1 + bz * xz1 + 0.5 * (ar + ayz2 * sin_t)
            b2 = b * xy2 + bz * xz2 + 0.5 * (ay1 + ayz2 * xz1)
        else:
            b1 = 0.5 * ar + 0.0
            b2 = 0.5 * ay1 + 0.0
        ann = a11 * cos_t * cos_t + 2.0 * a12 * cos_t * sin_t + a22 * sin_t * sin_t
        return chi * b1, chi * b2, a11, a12, a22, ann

    def normal_diffusion(self, x):
        """Radial-radial Ito diffusion entry at points x (..., 2), for boundary bridge tests."""
        x = np.asarray(x, dtype=float)
        x1, x2 = x[..., 0], x[..., 1]
        return self.cartesian_ito(x1, x2, np.sqrt(x1 * x1 + x2 * x2))[5]


# ---------------------------------------------------------------------------
# Polar finite differences
# ---------------------------------------------------------------------------

LAYER_CELLS = 22     # radial cells within the boundary layer 1 - r < eps
GROWTH = 1.1         # ratio of neighbouring radial steps, from the boundary inwards
STEP_CAP = 0.02      # the longest radial step


def radial_nodes(eps: float, dom: DomainModel) -> np.ndarray:
    """Boundary-clustered radial nodes; >= LAYER_CELLS cells within 1 - r < eps."""
    if eps <= 0:
        raise ModelError("eps must be > 0")
    dz_min = eps * (GROWTH - 1.0) / (GROWTH ** LAYER_CELLS - 1.0)
    inner_limit = dom.inner_radius if dom.kind is DomainKind.ANNULUS else 0.0
    steps = []
    total = 0.0
    k = 0
    span = 1.0 - inner_limit
    while total < span - 1e-12:
        h = min(dz_min * GROWTH ** k, STEP_CAP, span - total)
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
    max_principle_ok: bool

    def probe(self, x1: float, x2: float) -> float:
        """The solution at (x1, x2), interpolated between rings and angles; a point off
        the solved rings (outside the closed domain) is a ``ModelError``."""
        r = math.hypot(x1, x2)
        if not self.r_nodes[0] <= r <= self.r_nodes[-1]:
            raise ModelError(f"probe ({x1}, {x2}) lies outside the closed domain, "
                             f"radii [{self.r_nodes[0]}, {self.r_nodes[-1]}]")
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
             psi_inner=None) -> DirichletSolution:
    """Second-order polar finite-difference solve of the blended operator.

    psi_d is the Dirichlet data on the outer circle (callable of theta or
    array on the theta grid); the annulus also needs psi_inner.  The disk
    pole is a single value closed by the zero-Laplacian average stencil,
    the mean of the first ring, and eliminated into that ring's rows, so
    disk and annulus are both one block sweep over the rings, solved
    against their data.
    """
    disk = op.dom.kind is DomainKind.DISK
    if not disk and psi_inner is None:
        raise ModelError("annulus solve needs inner boundary data")
    r_nodes = radial_nodes(op.eps, op.dom)
    theta = np.linspace(0.0, TWO_PI, n_theta, endpoint=False)
    f_outer = boundary_values(psi_d, theta)
    f_inner = None if disk else boundary_values(psi_inner, theta)

    # unknowns: rings j = 1..n_r-1, one level each
    coeffs = op.polar_coefficients(*np.meshgrid(theta, r_nodes[1:-1]))
    for arr_name, arr in (("ctt", coeffs[0]), ("crr", coeffs[2])):
        if np.any(~np.isfinite(arr)):
            raise NoConvergence(f"non-finite coefficient {arr_name}")
    bands = level_bands(coeffs, r_nodes)
    first = None
    if disk:
        # the pole value is the mean of ring 1 (a vanishing Laplacian average),
        # which puts every inward coupling of ring 1 on all of ring 1
        first = np.outer(bands[0, 0].sum(axis=0), np.full(n_theta, 1.0 / n_theta))
    rings = Elimination(bands, first).solve_data(f_inner, f_outer)
    pole_value = float(np.mean(rings[0])) if disk else None
    u = np.vstack([np.full(n_theta, pole_value) if disk else f_inner, rings, f_outer])
    data = (f_outer,) if disk else (f_outer, f_inner)
    return DirichletSolution(theta_nodes=theta, r_nodes=r_nodes, u=u,
                             pole_value=pole_value, eps=op.eps,
                             max_principle_ok=within_data(u, *data))


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


def sample_exit(op: DiskOperator | list[DiskOperator], start, params: sde.SimulationParams,
                checkpoint_times=None) -> AmbientExitBatch:
    """Euler-Maruyama exit sampling of the ambient process from one start.

    The start must lie in the closed domain (``ModelError`` otherwise; the
    annulus hole is outside).  Absorption on the outer circle, and on the
    annulus inner circle, uses the endpoint crossing with linear
    interpolation; the outer circle alone adds the distance-to-circle
    Brownian-bridge test.  Optional checkpoints record path positions at
    fixed times (NaN once a path has exited).  The step works on the two
    coordinates as separate arrays: each step makes one ``cartesian_ito``
    call at the endpoint, which also gives the bridge test its radial
    entry, and takes the endpoint's norm as sqrt(x1^2 + x2^2).

    ``op`` may also be a sequence of operators that differ in eps alone,
    with ``checkpoint_times`` one list per operator: they run stacked in one
    driver run.  Operator e steps rows e * n_paths + p, and row e * n_paths + p
    reads path p's noise stream, so every operator sees the same noise (common
    random numbers) and each stream is drawn once.  Operator e's rows are
    censored one step past its last checkpoint, which is their exit time
    then; params.max_time must cover the longest of these horizons.  The
    batch covers every row, and its checkpoints are the union of the lists.
    """
    n = params.n_paths
    dt = params.dt
    sqdt = math.sqrt(dt)
    n_steps = int(round(params.max_time / dt))
    if isinstance(op, DiskOperator):
        ops, horizons = [op], [float(params.max_time)]
    else:
        ops, horizons, checkpoint_times = _stack(list(op), checkpoint_times, dt, n_steps)
        op = ops[0]
    dom = op.dom
    x0 = check_start(dom, start)
    inner_r = dom.inner_radius if dom.kind is DomainKind.ANNULUS else None
    rows = n * len(ops)
    cp = None
    positions = None
    if checkpoint_times is not None:
        cp, _, cp_at = sde._checkpoint_steps(checkpoint_times, dt)
        positions = sde.shared((cp.size, rows, 2), np.nan)
    # steps after which an operator's rows are censored, short of the driver's last
    stop_at = {}
    for e, h in enumerate(horizons):
        k = int(round(h / dt))
        if k < n_steps:
            stop_at.setdefault(k, []).append(e)

    exit_theta = sde.shared(rows, np.nan)
    exit_time = sde.shared(rows, np.repeat(horizons, n))
    exited = sde.shared(rows, False, bool)
    exit_inner = sde.shared(rows, False, bool)
    if len(ops) == 1:
        streams = None

        def ito(x1, x2, r, pids):
            return op.cartesian_ito(x1, x2, r)
    else:
        streams = np.tile(np.arange(n), len(ops))
        eps2 = np.repeat([o.eps ** 2 for o in ops], n)

        def ito(x1, x2, r, pids):
            return op.cartesian_ito(x1, x2, r, eps2=eps2[pids])

    def start_state(pids):
        x1, x2 = np.full(pids.size, x0[0]), np.full(pids.size, x0[1])
        r = np.sqrt(x1 * x1 + x2 * x2)
        return [x1, x2, np.maximum(1.0 - r, 0.0), *ito(x1, x2, r, pids)]

    def advance(k, state, noise, uniform, live, pids):
        # the clipped distance to the outer circle max(1 - |x|, 0) and the coefficients
        # at x, with their radial entry for the bridge test, ride in the state, made once
        # at the endpoint
        x1, x2, zc, b1, b2, a11, a12, a22, ann = state
        noise1, noise2 = sde._increments(sqdt, a11, a12, a22, noise)
        x1_new = x1 + (b1 * dt + noise1)
        x2_new = x2 + (b2 * dt + noise2)
        t_now = k * dt
        r_new = np.sqrt(x1_new * x1_new + x2_new * x2_new)
        walls = [(1.0, False, r_new >= 1.0)]
        if inner_r is not None:
            walls.append((inner_r, True, r_new <= inner_r))
        for radius, inward, beyond in walls:
            crossed = live & beyond
            if np.count_nonzero(crossed):
                c1, c2 = x1[crossed], x2[crossed]
                d1, d2 = x1_new[crossed] - c1, x2_new[crossed] - c2
                frac = _circle_crossing(c1, c2, d1, d2, radius, inward=inward)
                g = pids[crossed]
                exited[g] = True
                exit_inner[g] = inward
                exit_time[g] = t_now + frac * dt
                exit_theta[g] = wrap_angle(np.arctan2(c2 + frac * d2, c1 + frac * d1))
                live = live & ~crossed
        coeffs = ito(x1_new, x2_new, r_new, pids)
        zc_new = zc
        if params.bridge_absorption:
            zc_new = np.maximum(1.0 - r_new, 0.0)
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                p_hit = np.exp(-4.0 * zc * zc_new / ((ann + coeffs[5]) * dt))
            hit = live & (zc_new > 0.0) & (uniform < p_hit)
            if np.count_nonzero(hit):
                g = pids[hit]
                exited[g] = True
                exit_time[g] = t_now + 0.5 * dt
                exit_theta[g] = wrap_angle(np.arctan2(0.5 * (x2[hit] + x2_new[hit]),
                                                      0.5 * (x1[hit] + x1_new[hit])))
                live = live & ~hit
        if cp is not None:
            for c in cp_at.get(k + 1, ()):
                g = pids[live]
                positions[c, g, 0] = x1_new[live]
                positions[c, g, 1] = x2_new[live]
        for e in stop_at.get(k + 1, ()):
            live = live & (pids // n != e)
        # a stopped row steps on unread until the driver drops it
        return [x1_new, x2_new, zc_new, *coeffs], live

    sde._run_paths(params, n_steps, start_state, advance, streams, probe=True,
                   reads=(2, params.bridge_absorption))
    return AmbientExitBatch(exit_theta=exit_theta, exit_time=exit_time,
                            exited_mask=exited, exit_inner=exit_inner,
                            checkpoints=cp, positions=positions,
                            n_paths=rows, seed=params.seed)


def check_start(dom: DomainModel, start) -> np.ndarray:
    """The start point as an array; ``ModelError`` unless it lies in the closed domain."""
    x0 = np.asarray(start, dtype=float)
    if not dom.contains(*x0):
        raise ModelError(f"start {tuple(x0.tolist())} lies outside the closed {dom.kind.value}")
    return x0


def _stack(ops, checkpoint_times, dt: float, n_steps: int):
    """sample_exit's stacked form checked: the operators, their horizons (one step past
    each list's last checkpoint) and the union of the checkpoint lists."""
    if not ops or any((o.model, o.completion, o.dom) != (ops[0].model, ops[0].completion,
                                                          ops[0].dom) for o in ops):
        raise ModelError("stacked operators must share model, completion and domain")
    if checkpoint_times is None or len(checkpoint_times) != len(ops):
        raise ModelError("stacked operators need one checkpoint list each")
    horizons = [float(sde._checkpoint_steps(ts, dt)[0][-1]) + dt for ts in checkpoint_times]
    if max(int(round(h / dt)) for h in horizons) > n_steps:
        raise ModelError("params.max_time must cover every stacked horizon")
    return ops, horizons, sorted({float(t) for ts in checkpoint_times for t in ts})


def _circle_crossing(x1, x2, dx1, dx2, radius, inward=False):
    """Fraction s in [0, 1] with |x + s dx| = radius, x and dx given by their coordinates."""
    a = dx1 * dx1 + dx2 * dx2
    b = x1 * dx1 + x2 * dx2
    c = (x1 * x1 + x2 * x2) - radius * radius
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


def limit_value(m: ChartModel, f, grid: HalfCylinderGrid | None = None) -> float:
    """The eps-free limit of the solution, per the boundary verdict.

    The model is classified first, so a model the classifier rejects
    raises here too, and the data are read on the y-nodes of the grid the
    sweep would use (``conditioned_default_grid`` for a repelling model,
    else the default ``HalfCylinderGrid``, unless grid is given).  Two
    inputs fix ubar on the discrete system without a sweep:

    - data that all equal some c give c.  The limit operator has no
      zeroth-order term, so every row of the plain system sums to zero,
      the Neumann top row included, and the constant c solves it; the
      conditioned system then has v = c h, which its Neumann row on v
      closes.
    - otherwise, a rotation-invariant limit operator
      (``GeneratorCoefficients.rotation_invariant``) gives the mean of the
      data.  Its system is block-circulant in y, so the mean over y of
      each level decouples from the other Fourier modes and solves the
      1D system of the mean mode, whose constant solution carries the
      data's mean to the top row unchanged (divided by an h that is
      itself constant in y, when conditioned).

    Data with a NaN or an infinity raise ``ModelError`` as they are read.
    Every other input sweeps; only ubar is kept, so the truncation check is
    skipped, and a repelling model's conditioned solve does not build the h
    it would carry.
    """
    verdict = classify(m, grid_size=512).verdict
    repelling = verdict is Verdict.REPELLING
    grid = grid or (conditioned_default_grid() if repelling else HalfCylinderGrid())
    data = boundary_values(f, grid.y_nodes())
    if np.all(data == data[0]):
        return float(data[0])
    if assemble(m, None, Flavor.LIMIT).rotation_invariant:
        return float(np.mean(data))
    if repelling:
        return _conditioned(m, data, grid, False, verdict)[0].ubar
    return solve_u(m, data, grid, check_truncation=False, _regime=verdict).ubar


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
