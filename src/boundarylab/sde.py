"""Path sampling for the boundary-layer operators.

All samplers here and the ambient sampler ``dirichlet.sample_exit`` run
on one Euler-Maruyama driver, ``_run_paths``: path p of a run draws its
noise from its own counter-based stream keyed by (seed, p) (Philox; the
rows of a stacked run may share a stream), consumed in fixed-size blocks,
and paths that stop are dropped inside and between blocks, so results are
bit-identical however paths are chunked or scheduled.  Past its first noise
block, a chunk whose live rows read at least 2 * MIN_ROWS streams is split
over worker processes, one per CPU the process may use: each forked worker
steps a contiguous range of stream ids and writes its paths' results into
arrays in shared memory.  The bits are the same however the paths are
split, and aggregation always runs in path order, in the calling process;
``taskset -c 0`` (one usable CPU) runs a sampler in one process.  Each
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

import ctypes
import math
import mmap
import os
import pickle
import signal
import traceback
from dataclasses import dataclass

import numpy as np

from .classifier import ClassificationReport
from .coefficients import Const, folded
from .errors import ModelError
from .fields import ChartModel, Flavor, GeneratorCoefficients, assemble
from .geometry import RescaledPoint, TWO_PI, wrap_angle

NOISE_BLOCK = 256  # steps of noise drawn per path per block; part of the sampler definition
DROP_SHARE = 8     # stopped rows are dropped inside a block once 1/DROP_SHARE have stopped
MIN_ROWS = 256     # fewest live streams a worker process is given; fewer stay in one process
PR_SET_PDEATHSIG = 1   # prctl(2) option: the signal a process gets when its parent ends


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


def _run_paths(params: SimulationParams, n_steps: int, start_state, advance, streams=None,
               totals=()):
    """The one Euler-Maruyama driver behind every sampler.

    Paths run chunk by chunk.  ``start_state(pids)`` returns the state of the
    fresh paths with global ids ``pids``: a list of arrays whose first axis
    runs over paths.
    ``advance(k, state, noise, uniform, live, pids)`` takes step k (from
    time k dt to (k + 1) dt) on every row with noise (n, 2) and uniforms
    (n,), writes exits and checkpoints into the sampler's own per-path
    arrays through the global path ids ``pids``, and returns the new state
    and live mask: the very ``live`` it was given (not modified in place)
    when no row stopped, which spares the driver a recount.  The state of a
    stopped row is undefined until the driver drops it: ``advance`` may step
    it on, so it masks every write of exits and checkpoints by ``live``, and
    no run reads it.
    Stopped rows are dropped once 1/DROP_SHARE of a block's rows have stopped,
    and at its end; a drop inside a block keeps the survivors' unread noise
    columns (one copy per drop; a gather per step cost more), and later
    blocks draw noise for live paths only.  A chunk whose rows have all
    stopped takes no further step.
    By default path p reads stream p.  ``streams`` instead gives each of its
    rows a stream id, and rows may share one: a block draws each id's noise
    once, when any of its rows is live, and copies it to those rows, so
    every row sees the noise its stream alone would give it.
    After a chunk's first block, its live rows are split over worker
    processes (``_worker_count`` of them, by the streams they read): each
    takes a contiguous range of those stream ids with every live row that
    reads one, and steps them to the end of the chunk (``_fork_each``).  The
    first block shows how many rows stay live: a run whose rows mostly stop
    in it would not repay a fork.  So the per-path arrays ``advance`` writes
    must come from ``shared``, and ``totals`` names the arrays that it only
    adds into, which the parent sums over the workers.
    """
    n_rows = params.n_paths if streams is None else streams.size
    for lo in range(0, n_rows, params.chunk_size):
        pids = np.arange(lo, min(lo + params.chunk_size, n_rows))
        ids = pids if streams is None else np.unique(streams[pids])
        gens = dict(zip(ids.tolist(), _path_generators(params.seed, ids)))
        pids, state = _run_blocks(n_steps, advance, streams, gens, pids, start_state(pids),
                                  0, NOISE_BLOCK)
        if n_steps <= NOISE_BLOCK or not pids.size:
            continue
        key = pids if streams is None else streams[pids]
        ids = np.unique(key)
        workers = _worker_count(ids.size)
        parts = [slice(None)]
        if workers > 1:
            part = np.searchsorted(ids[[j * ids.size // workers for j in range(1, workers)]],
                                   key, side="right")
            parts = [np.flatnonzero(part == j) for j in range(workers)]
        _fork_each(parts, lambda rows: _run_blocks(n_steps, advance, streams, gens, pids[rows],
                                                   [a[rows] for a in state], NOISE_BLOCK,
                                                   n_steps), totals)


def _run_blocks(n_steps: int, advance, streams, gens, pids, state, step: int, stop: int):
    """Step the rows ``pids`` of one chunk, in state ``state``, through the noise blocks
    from step ``step`` up to ``stop``; returns the rows still live and their state."""
    while step < min(stop, n_steps) and pids.size:
        if streams is None:
            normals, uniforms = _draw_block([gens[p] for p in pids.tolist()])
        else:
            drawn, at = np.unique(streams[pids], return_inverse=True)
            normals, uniforms = _draw_block([gens[i] for i in drawn.tolist()])
            normals, uniforms = normals[at], uniforms[at]
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
    return pids, state


def shared(shape, fill, dtype=float) -> np.ndarray:
    """A new array, set to ``fill``, in anonymous shared memory: what the forked workers
    of ``_run_paths`` write into it shows in every process.  The samplers allocate
    each per-path output that their steps write here."""
    dtype = np.dtype(dtype)
    size = int(np.prod(shape))
    out = np.frombuffer(mmap.mmap(-1, max(size * dtype.itemsize, 1)), dtype=dtype,
                        count=size).reshape(shape)
    out[...] = fill
    return out


def _worker_count(n_streams: int) -> int:
    """Processes that rows reading ``n_streams`` streams are split over: one per CPU this
    process may use, each taking at least MIN_ROWS streams; one where fork is missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_streams // MIN_ROWS))


def _fork_each(parts, run, totals=()):
    """Call ``run(part)`` for every part: the first in this process, each other in a
    forked worker, all at once.

    A worker shares nothing with the parent but ``shared`` arrays, so ``run``
    writes its results there; each array in ``totals`` is one that every
    process only adds into, its own copy, and what each worker added is added
    into the parent's.  An exception in a worker is raised again here; a
    worker that ends any other way than by returning raises ``RuntimeError``.
    Once the parent itself raises, it kills the workers it has not yet
    reaped, and every worker is reaped before this returns or raises.
    """
    if len(parts) == 1:
        run(parts[0])
        return
    slots = [shared((len(parts) - 1, *total.shape), 0, total.dtype) for total in totals]
    parent = os.getpid()
    workers = {}            # pid -> the worker's error pipe, in fork order, until reaped
    try:
        for j, part in enumerate(parts[1:]):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                os.close(read)
                _work(parent, write, run, part, [(s[j], t) for s, t in zip(slots, totals)])
            os.close(write)
            workers[pid] = open(read, "rb")
        run(parts[0])
        for pid, pipe in list(workers.items()):
            error = pipe.read()
            pipe.close()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers[pid]
            if error:
                raise pickle.loads(error)
            if status:
                raise RuntimeError(f"sampler worker {pid} ended with status {status}")
        for slot, total in zip(slots, totals):
            total += slot.sum(axis=0)
    finally:
        for pid, pipe in workers.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _work(parent: int, pipe: int, run, part, totals):
    """A forked worker from start to end: run its part, copy out what it added to its
    totals, report an exception through ``pipe``, and leave by ``os._exit``, so it never
    returns into the caller's frames and runs no exit handler nor flushes the parent's
    stdio buffers."""
    status = 1
    try:
        forked = [total.copy() for _, total in totals]
        # the kernel kills this worker when the parent ends; the check catches a parent
        # that ended before the request was made
        libc = ctypes.CDLL(None)
        if hasattr(libc, "prctl"):
            libc.prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
        if os.getppid() != parent:
            return
        run(part)
        for (slot, total), before in zip(totals, forked):
            slot[...] = total - before
        status = 0
    except BaseException as exc:
        if hasattr(exc, "add_note"):        # Python >= 3.11
            exc.add_note(f"raised in sampler worker {os.getpid()}:\n{traceback.format_exc()}")
        try:
            error = pickle.dumps(exc)
            pickle.loads(error)
        except Exception:                   # an exception that does not survive pickling
            error = pickle.dumps(RuntimeError(traceback.format_exc()))
        with open(pipe, "wb") as out:
            out.write(error)
    finally:
        os._exit(status)


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
    exit_y = shared(n, np.nan)
    exit_time = shared(n, float(params.max_time))
    exited = shared(n, False, bool)
    unstable = shared(n, False, bool)
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
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
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
        return [y_new, v_new, *coeffs], live

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
    sums = {k: shared(params.n_paths, 0.0) for k in observables}
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

    _run_paths(params, n_steps, lambda pids: [np.full(pids.size, float(start_y))], advance,
               totals=[counts])
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
    near.  Every start height must lie in [0, far_wall] (``ModelError``
    otherwise).  Returns one row per start with the near fraction and the
    recorded min/max distances.
    """
    starts = [_resolve_start(start) for start in starts]
    for _, z0 in starts:
        if not 0.0 <= z0 <= far_wall:
            raise ModelError(f"start height {z0} must lie in [0, far_wall = {far_wall}]")
    gc = assemble(m, eps, Flavor.CHART)
    cross = not gc.cross_free
    n_steps = int(round(horizon / params.dt))
    dt = params.dt
    sqdt = math.sqrt(dt)
    n = params.n_paths
    rows = []
    for y0, z0 in starts:
        final, mins, maxs = shared(n, z0), shared(n, z0), shared(n, z0)

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
    values = shared((checkpoints.size, n), 0.0)
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
        for c in at_step.get(k + 1, ()):
            values[c, pids[live]] = (np.asarray(psi(wrap_angle(y_new[live]))) + w_new[live]
                                     + integral_new[live] + gap * t_new)
        return [y_new, w_new, integral_new], live

    # a row below the band keeps stepping, unread, until the driver drops it, and there
    # e^(-2w) may overflow
    with np.errstate(over="ignore", invalid="ignore"):
        _run_paths(params, int(steps_at.max()),
                   lambda pids: [np.full(pids.size, y0), np.full(pids.size, math.log(zz0)),
                                 np.zeros(pids.size)],
                   advance)
    means = values.mean(axis=1)
    stderrs = values.std(axis=1, ddof=1) / math.sqrt(n)
    return MartingaleTrace(times=checkpoints, values=means, stderrs=stderrs,
                           start_value=h0)
