"""Path sampling for the boundary-layer operators.

All samplers here and the ambient sampler ``dirichlet.sample_exit`` run
on one Euler-Maruyama driver, ``_run_paths``: path p of a run draws its
noise from its own counter-based stream keyed by (seed, p) (Philox; the
rows of a stacked run may share a stream), consumed in fixed-size blocks,
and paths that stop are dropped inside and between blocks, so results are
bit-identical however paths are chunked or scheduled; aggregation always runs in path order.  Each
sampler supplies its start state and one step on the Ito form, whose
coefficients the absorbing samplers evaluate once, at the endpoint.
A chunk stops stepping once its last path has stopped.  ``simulate``
always absorbs at height zero, detected by endpoint crossing (with the
crossing time and location linearly interpolated inside the step) plus
a Brownian-bridge test for excursions the endpoints miss (Gobet, "Weak
approximation of killed diffusion using Euler schemes", SPA 87, 2000);
the bridge test removes the order-sqrt(dt) exit bias of pure endpoint
monitoring and can be disabled per run.  When ``SimulationParams.wall``
is set, paths reaching that height are censored there as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classifier import ClassificationReport
from .coefficients import Const, folded
from .errors import ModelError
from .fields import ChartModel, Flavor, GeneratorCoefficients, assemble
from .geometry import RescaledPoint, TWO_PI, wrap_angle

NOISE_BLOCK = 256  # steps of noise drawn per path per block; part of the sampler definition
DROP_SHARE = 8     # stopped rows are dropped inside a block once 1/DROP_SHARE have stopped


@dataclass(frozen=True)
class SimulationParams:
    dt: float
    seed: int
    n_paths: int
    max_time: float
    wall: float | None = None     # outer censoring height of ``simulate``; None: no wall
    bridge_absorption: bool = True
    chunk_size: int = 8192

    def __post_init__(self):
        for name in ("dt", "max_time", "wall"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ModelError(f"{name} must be finite, got {value}")
        if self.dt <= 0:
            raise ModelError(f"dt must be > 0, got {self.dt}")
        if self.n_paths < 1:
            raise ModelError("n_paths must be >= 1")
        if self.chunk_size < 1:
            raise ModelError("chunk_size must be >= 1")
        if self.max_time <= 0:
            raise ModelError("max_time must be > 0")
        if self.wall is not None:
            if self.wall <= 0:
                raise ModelError(f"wall must be a positive height, got {self.wall}")
            cap = 1e-2 * min(1.0, self.wall * self.wall)
            if self.dt > cap:
                raise ModelError(
                    f"dt={self.dt} too coarse for wall at {self.wall}; need dt <= {cap:.3g}"
                )


@dataclass
class ExitSampleBatch:
    """Exit angles/times of a path batch; censored rows carry no exit angle.

    ``unstable_mask`` marks paths whose step failed the displacement guard
    (a step over ten standard deviations, or a non-finite one).
    """

    exit_y: np.ndarray
    exit_time: np.ndarray
    exited_mask: np.ndarray
    unstable_mask: np.ndarray
    n_paths: int
    seed: int

    def exit_fraction(self) -> tuple[float, float]:
        """Exited-path fraction and its binomial standard error."""
        p = float(np.mean(self.exited_mask))
        se = math.sqrt(max(p * (1.0 - p), 1e-300) / self.n_paths)
        return p, se

    def exit_mean(self, f) -> tuple[float, float]:
        """Mean and stderr of f(exit_y) over exited paths."""
        vals = f(self.exit_y[self.exited_mask])
        n = vals.size
        if n == 0:
            raise ModelError("no exited paths to average over")
        return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(n)) if n > 1 else 0.0


@dataclass(frozen=True)
class MartingaleTrace:
    times: np.ndarray
    values: np.ndarray
    stderrs: np.ndarray
    start_value: float


@dataclass(frozen=True)
class AttractionRow:
    start_y: float
    start_z: float
    fraction_near: float
    stderr: float
    min_distance: float
    max_distance: float
    near_threshold: float


@dataclass(frozen=True)
class BoundaryRun:
    bin_edges: np.ndarray
    histogram: np.ndarray
    averages: dict
    n_paths: int
    total_time: float


def _path_generators(seed: int, path_ids):
    """One Philox stream per (seed, path), keyed by the pair; path ids are non-negative."""
    keys = np.empty((len(path_ids), 2), dtype=np.uint64)
    keys[:, 0] = int(seed) & 0xFFFFFFFFFFFFFFFF
    keys[:, 1] = path_ids
    return [np.random.Generator(np.random.Philox(key=key)) for key in keys]


def _draw_block(gens):
    """Noise for one block: normals (n, B, 2) and uniforms (n, B)."""
    n = len(gens)
    normals = np.empty((n, NOISE_BLOCK, 2))
    uniforms = np.empty((n, NOISE_BLOCK))
    for i, g in enumerate(gens):
        g.standard_normal(out=normals[i])
        g.random(out=uniforms[i])
    return normals, uniforms


def _run_paths(params: SimulationParams, n_steps: int, start_state, advance, streams=None):
    """The one Euler-Maruyama driver behind every sampler.

    Paths run chunk by chunk.  ``start_state(pids)`` returns the state of the
    fresh paths with global ids ``pids``: a list of arrays whose first axis
    runs over paths.
    ``advance(k, state, noise, uniform, live, pids)`` takes step k (from
    time k dt to (k + 1) dt) on every row with noise (n, 2) and uniforms
    (n,), writes exits and checkpoints into the sampler's own per-path
    arrays through the global path ids ``pids``, keeps the state of the
    rows that stop frozen, and returns the new state and live mask: the
    very ``live`` it was given (not modified in place) when no row stopped,
    which spares the driver a recount.
    Stopped rows are dropped once 1/DROP_SHARE of a block's rows have stopped,
    and at its end; a drop inside a block keeps the survivors' unread noise
    columns (one copy per drop; a gather per step cost more), and later
    blocks draw noise for live paths only.  A chunk whose rows have all
    stopped takes no further step.
    By default path p reads stream p.  ``streams`` instead gives each of its
    rows a stream id, and rows may share one: a block draws each id's noise
    once, when any of its rows is live, and copies it to those rows, so
    every row sees the noise its stream alone would give it.
    """
    n_rows = params.n_paths if streams is None else streams.size
    for lo in range(0, n_rows, params.chunk_size):
        pids = np.arange(lo, min(lo + params.chunk_size, n_rows))
        if streams is None:
            slot = None
            gens = _path_generators(params.seed, pids)
        else:
            ids, slot = np.unique(streams[pids], return_inverse=True)
            gens = _path_generators(params.seed, ids)
        state = start_state(pids)
        step = 0
        while step < n_steps and pids.size:
            if slot is None:
                normals, uniforms = _draw_block([gens[p - lo] for p in pids])
            else:
                drawn, rows = np.unique(slot[pids - lo], return_inverse=True)
                normals, uniforms = _draw_block([gens[i] for i in drawn])
                normals, uniforms = normals[rows], uniforms[rows]
            live = np.ones(pids.size, dtype=bool)
            width = min(NOISE_BLOCK, n_steps - step)
            cut = 0             # block columns cut off the noise when rows were dropped
            stopped = 0         # stopped rows not yet dropped
            for s in range(width):
                state, new_live = advance(step + s, state, normals[:, s - cut],
                                          uniforms[:, s - cut], live, pids)
                if new_live is not live:
                    live = new_live
                    stopped = live.size - np.count_nonzero(live)
                if stopped and (stopped * DROP_SHARE >= live.size or s == width - 1):
                    state, pids = [a[live] for a in state], pids[live]
                    normals, uniforms = normals[live, s + 1 - cut:], uniforms[live, s + 1 - cut:]
                    live, cut, stopped = live[live], s + 1, 0
                    if not pids.size:
                        break
            step += NOISE_BLOCK


def _increments(sqdt: float, a11, a12, a22, noise):
    """Noise terms of one step of a 2-D path: sqrt(dt) times the Cholesky factor times noise.

    ``a12`` None stands for a zero off-diagonal (``GeneratorCoefficients.cross_free``):
    s2 = 0 / s1 and s3 = sqrt(max(a22, 0)) give the bits of the general form
    at a12 = +0.0, and s2 keeps NaN from s1 and, through s2 * n1, from the
    noise.  The caller adds its own drift; the order of that sum is part of
    each sampler's results.
    """
    s1 = np.sqrt(a11)
    if a12 is None:
        s2 = 0.0 / s1
        s3 = np.sqrt(np.maximum(a22, 0.0))
    else:
        s2 = a12 / s1
        s3 = np.sqrt(np.maximum(a22 - s2 * s2, 0.0))
    n1, n2 = noise[:, 0], noise[:, 1]
    return sqdt * s1 * n1, sqdt * (s2 * n1 + s3 * n2)


def _checkpoint_steps(checkpoint_times, dt: float):
    """Sorted checkpoint times, their step numbers, and a map from a step number to the
    indices of the checkpoints at that step; each time must be a positive multiple of dt."""
    times = np.asarray(sorted(checkpoint_times), dtype=float)
    steps_at = np.round(times / dt).astype(int)
    if np.any(np.abs(steps_at * dt - times) > 1e-9):
        raise ModelError("checkpoint times must be multiples of dt")
    if np.any(steps_at <= 0):
        raise ModelError(f"checkpoint times must be at least dt = {dt}, got {times[0]}")
    at_step = {}
    for c, k in enumerate(steps_at.tolist()):
        at_step.setdefault(k, []).append(c)
    return times, steps_at, at_step


def _resolve_start(start):
    if isinstance(start, RescaledPoint):
        return start.y, start.zz
    y, v = start
    return float(y), float(v)


def simulate(gc: GeneratorCoefficients, start, params: SimulationParams) -> ExitSampleBatch:
    """Sample exit angle/time of the (y, height) process of the given flavor.

    Paths are absorbed at height zero and censored at max_time, and at
    params.wall when it is set.  The flavor's height
    coordinate is interpreted verbatim (z for CHART, zz for RESCALED/LIMIT).
    """
    if gc.flavor is Flavor.LOG:
        raise ModelError("log-flavor paths never reach the boundary; simulate LIMIT instead")
    y0, v0 = _resolve_start(start)
    n = params.n_paths
    exit_y = np.full(n, np.nan)
    exit_time = np.full(n, float(params.max_time))
    exited = np.zeros(n, dtype=bool)
    unstable = np.zeros(n, dtype=bool)
    dt = params.dt
    sqdt = math.sqrt(dt)
    cross = not gc.cross_free

    def advance(k, state, noise, uniform, live, pids):
        # the Ito coefficients at (y, v) ride in the state, made once per step at the endpoint
        y, v, by, bv, ayy, ayv, avv = state
        noise_y, noise_v = _increments(sqdt, ayy, ayv if cross else None, avv, noise)
        dy = by * dt + noise_y
        dv = bv * dt + noise_v
        guard = 10.0 * np.sqrt(dt * np.maximum(ayy, avv)) + \
            10.0 * dt * np.maximum(np.abs(by), np.abs(bv))
        disp = np.maximum(np.abs(dy), np.abs(dv))
        bad = live & ((disp > guard) | ~np.isfinite(disp))
        if np.count_nonzero(bad):
            unstable[pids[bad]] = True
        y_new = y + dy
        v_new = v + dv
        t_now = k * dt
        coeffs = gc.ito(y_new, np.maximum(v_new, 0.0))
        crossed = live & (v_new <= 0.0)
        if np.count_nonzero(crossed):
            frac = v[crossed] / (v[crossed] - v_new[crossed])
            g = pids[crossed]
            exited[g] = True
            exit_time[g] = t_now + frac * dt
            exit_y[g] = wrap_angle(y[crossed] + frac * dy[crossed])
            live = live & ~crossed
        if params.bridge_absorption:
            # endpoint-averaged diffusion keeps the crossing test O(dt)
            with np.errstate(over="ignore", divide="ignore"):
                p_hit = np.exp(-4.0 * np.maximum(v, 0.0) *
                               np.maximum(v_new, 0.0) / ((avv + coeffs[4]) * dt))
            hit = live & (v_new > 0.0) & (uniform < p_hit)
            if np.count_nonzero(hit):
                g = pids[hit]
                exited[g] = True
                exit_time[g] = t_now + 0.5 * dt
                exit_y[g] = wrap_angle(0.5 * (y[hit] + y_new[hit]))
                live = live & ~hit
        if params.wall is not None:
            over = live & (v_new >= params.wall)
            if np.count_nonzero(over):
                exit_time[pids[over]] = t_now + dt
                live = live & ~over
        return [np.where(live, new, old) for new, old in zip((y_new, v_new, *coeffs), state)], live

    if v0 <= 0.0:
        exited[:] = True
        exit_y[:] = wrap_angle(y0)
        exit_time[:] = 0.0
    else:
        _run_paths(params, int(round(params.max_time / dt)),
                   lambda pids: [np.full(pids.size, y0), np.full(pids.size, v0),
                                 *gc.ito(np.full(pids.size, y0), np.full(pids.size, v0))],
                   advance)
    return ExitSampleBatch(exit_y=exit_y, exit_time=exit_time, exited_mask=exited,
                           unstable_mask=unstable, n_paths=n, seed=params.seed)


def simulate_boundary(m: ChartModel, start_y: float, params: SimulationParams,
                      burn_in: float = 0.0, bins: int = 64,
                      observables: dict | None = None) -> BoundaryRun:
    """Boundary-restricted diffusion: occupation histogram and ergodic averages.

    Runs n_paths independent circles for max_time each; the histogram and
    the time averages of the requested observables use only times past
    burn_in.  Stderrs come from the spread of per-path means.
    """
    if not burn_in >= 0.0:
        raise ModelError(f"burn_in must be >= 0, got {burn_in}")
    if bins < 1:
        raise ModelError(f"bins must be >= 1, got {bins}")
    n_steps = int(round(params.max_time / params.dt))
    burn_steps = int(round(burn_in / params.dt))
    if burn_steps >= n_steps:
        raise ModelError("burn_in must be shorter than max_time")
    dt = params.dt
    sqdt = math.sqrt(dt)
    edges = np.linspace(0.0, TWO_PI, bins + 1)
    counts = np.zeros(bins)
    observables = observables or {}
    sums = {k: np.zeros(params.n_paths) for k in observables}
    kept = n_steps - burn_steps

    def advance(k, state, noise, uniform, live, pids):
        nonlocal counts
        y, = state
        a, b = folded(m.a, y), folded(m.b, y)
        y = y + b * dt + sqdt * np.sqrt(a) * noise[:, 0]
        if k >= burn_steps:
            wrapped = wrap_angle(y)
            counts += np.bincount(
                np.minimum((wrapped / TWO_PI * bins).astype(int), bins - 1),
                minlength=bins,
            )
            # no path stops, so a chunk's ids stay one contiguous run and a slice adds in place
            rows = slice(pids[0], pids[0] + pids.size)
            for name, fn in observables.items():
                sums[name][rows] += fn(wrapped)
        return [y], live

    _run_paths(params, n_steps, lambda pids: [np.full(pids.size, float(start_y))], advance)
    hist = counts / counts.sum() / (TWO_PI / bins)
    averages = {}
    for k in observables:
        per_path = sums[k] / kept
        mean = float(np.mean(per_path))
        se = float(np.std(per_path, ddof=1) / math.sqrt(params.n_paths)) \
            if params.n_paths > 1 else 0.0
        averages[k] = (mean, se)
    return BoundaryRun(bin_edges=edges, histogram=hist, averages=averages,
                       n_paths=params.n_paths, total_time=params.max_time)


def attraction_stats(m: ChartModel, starts, horizon: float, params: SimulationParams,
                     near_threshold: float = 0.01, far_wall: float = 50.0,
                     eps: float = 0.0) -> list:
    """Long-run distance-to-boundary statistics of the unperturbed chart flow.

    Paths run the CHART flavor (eps = 0 unless overridden) for the horizon;
    a path wandering beyond far_wall is frozen there and counted as not
    near.  Returns one row per start with the near fraction and the
    recorded min/max distances.
    """
    gc = assemble(m, eps, Flavor.CHART)
    cross = not gc.cross_free
    n_steps = int(round(horizon / params.dt))
    dt = params.dt
    sqdt = math.sqrt(dt)
    n = params.n_paths
    rows = []
    for start in starts:
        y0, z0 = _resolve_start(start)
        final, mins, maxs = np.full(n, z0), np.full(n, z0), np.full(n, z0)

        def advance(k, state, noise, uniform, live, pids):
            y, z, zmin, zmax, frozen = state
            by, bz, ayy, ayz, azz = gc._ito(y, z, cross)
            noise_y, noise_z = _increments(sqdt, ayy, ayz, azz, noise)
            y = y + by * dt + noise_y
            z_new = np.maximum(z + bz * dt + noise_z, 0.0)
            hit_wall = z_new >= far_wall
            frozen = frozen | hit_wall
            z = np.where(frozen, np.where(hit_wall, far_wall, z), z_new) if frozen.any() else z_new
            zmin = np.minimum(zmin, z)
            zmax = np.maximum(zmax, z)
            if k + 1 == n_steps:
                final[pids], mins[pids], maxs[pids] = z, zmin, zmax
            return [y, z, zmin, zmax, frozen], live

        _run_paths(params, n_steps,
                   lambda pids: [np.full(pids.size, y0), np.full(pids.size, z0),
                                 np.full(pids.size, z0), np.full(pids.size, z0),
                                 np.zeros(pids.size, dtype=bool)],
                   advance)
        near = final < near_threshold
        p = float(np.mean(near))
        se = math.sqrt(max(p * (1 - p), 1e-300) / n)
        rows.append(AttractionRow(start_y=y0, start_z=z0, fraction_near=p, stderr=se,
                                  min_distance=float(mins.min()),
                                  max_distance=float(maxs.max()),
                                  near_threshold=near_threshold))
    return rows


def martingale_trace(m: ChartModel, report: ClassificationReport, start,
                     params: SimulationParams, band: tuple,
                     checkpoint_times, rho_weight: float = 1.0) -> MartingaleTrace:
    """Estimate the stopped drift-compensated height functional at checkpoints.

    The functional is psi(Y) + ln Z + int rho(Y) Z^-2 ds + gap * t with
    gap = alpha_bar - beta_bar, evaluated along the limit-flavor process
    and frozen when the height leaves the band [band[0], band[1]].  Its
    expectation is constant in t; the trace reports the per-checkpoint
    Monte Carlo mean and standard error.  rho_weight scales the integrand
    (0 reduces the functional to psi + ln Z + gap*t, a bookkeeping check).
    """
    lo, hi = band
    if not 0.0 < lo < hi:
        raise ModelError("band must satisfy 0 < lo < hi")
    y0, zz0 = _resolve_start(start)
    if not lo < zz0 < hi:
        raise ModelError("start height must lie inside the band")
    gc = assemble(m, None, Flavor.LOG)
    cross = not gc.cross_free
    w_lo, w_hi = math.log(lo), math.log(hi)
    psi = report.corrector_fn()
    gap = report.alpha_bar - report.beta_bar
    dt = params.dt
    sqdt = math.sqrt(dt)
    if not len(checkpoint_times):
        raise ModelError("martingale_trace needs at least one checkpoint time")
    checkpoints, steps_at, at_step = _checkpoint_steps(checkpoint_times, dt)
    n = params.n_paths
    values = np.zeros((checkpoints.size, n))
    h0 = float(psi(y0)) + math.log(zz0)
    rho_angle = (lambda y: y) if isinstance(m.rho, Const) else wrap_angle  # a Const reads no angle

    def advance(k, state, noise, uniform, live, pids):
        y, w, integral = state
        e2w = np.exp(-2.0 * w)
        by, bw, ayy, ayw, aww = gc._ito(y, w, cross, e2w)
        integrand = rho_weight * folded(m.rho, rho_angle(y)) * e2w
        noise_y, noise_w = _increments(sqdt, ayy, ayw, aww, noise)
        y_new = y + by * dt + noise_y
        w_new = w + bw * dt + noise_w
        integral_new = integral + integrand * dt
        t_new = (k + 1) * dt
        out = live & ((w_new <= w_lo) | (w_new >= w_hi))
        if np.count_nonzero(out):
            # a path leaving the band keeps its value at every later checkpoint
            values[np.searchsorted(steps_at, k + 1):, pids[out]] = (
                np.asarray(psi(wrap_angle(y_new[out]))) + w_new[out]
                + integral_new[out] + gap * t_new)
            live = live & ~out
        y = np.where(live, y_new, y)
        w = np.where(live, w_new, w)
        integral = np.where(live, integral_new, integral)
        for c in at_step.get(k + 1, ()):
            h_live = np.asarray(psi(wrap_angle(y))) + w + integral + gap * t_new
            values[c, pids[live]] = h_live[live]
        return [y, w, integral], live

    _run_paths(params, int(steps_at.max()),
               lambda pids: [np.full(pids.size, y0), np.full(pids.size, math.log(zz0)),
                             np.zeros(pids.size)],
               advance)
    means = values.mean(axis=1)
    stderrs = values.std(axis=1, ddof=1) / math.sqrt(n)
    return MartingaleTrace(times=checkpoints, values=means, stderrs=stderrs,
                           start_value=h0)
