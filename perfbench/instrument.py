"""Timers and a tracer that wrap boundarylab's functions from outside.

Nothing here edits the package.  ``Instrument`` replaces functions and
methods by timing wrappers, in every ``boundarylab`` module that holds a
reference to them, and puts the originals back on ``uninstall``.

Two modes:

* entry (untraced): only the sampling and finite-difference entry points
  are wrapped, timed at their outermost call.  They are called a few
  dozen times per pass, so the timers cost nothing measurable.
* trace: every layer boundary in ``SPAN_FUNCS`` and the per-step calls in
  ``STEP_FUNCS`` are wrapped too.  Layer-boundary calls are kept as spans
  (name, start, end, parent); per-step calls keep a count and a total
  time.  Each wrapped call's self time (its duration minus the time of the
  wrapped calls it makes) goes to its layer, so the layer self times plus
  the unattributed time of the operation roots add up to the traced wall
  time exactly.

A name that a later change removes is skipped and listed in ``missing``;
the metrics read from it are then reported absent.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
import time

import numpy as np

FD = "fd"
MC = "mc"
UNATTRIBUTED = "trace.unattributed"

# (module, attribute, layer bucket, entry category)
SPAN_FUNCS = [
    ("runner", "run_experiment", "runner", None),
    ("runner", "write_csv", "runner.write", None),
    ("runner", "write_json", "runner.write", None),
    ("runner", "_sha256", "runner.hash", None),
    ("classifier", "classify", "classifier", None),
    ("halfcyl", "solve_u", "halfcyl.solve", FD),
    ("halfcyl", "solve_h", "halfcyl.solve", FD),
    ("halfcyl", "solve_conditioned", "halfcyl.solve", FD),
    ("halfcyl", "exit_measure", "halfcyl.solve", FD),   # an FD entry in adjoint mode only
    ("halfcyl", "_discretize", "halfcyl.assemble", None),
    ("dirichlet", "solve_fd", "dirichlet.solve_fd", FD),
    ("dirichlet", "sample_exit", "dirichlet.sample_exit", MC),
    ("sde", "simulate", "sde.step", MC),
    ("sde", "simulate_boundary", "sde.step", MC),
    ("sde", "attraction_stats", "sde.step", MC),
    ("sde", "martingale_trace", "sde.step", MC),
    ("parabolic", "evolve_mc", "parabolic.sweep", None),
    ("parabolic", "timescale_sweep", "parabolic.sweep", None),
]

# per-step calls: (module, class or None, attribute, layer bucket)
STEP_FUNCS = [
    ("fields", "GeneratorCoefficients", "ito", "fields.ito"),
    ("fields", "GeneratorCoefficients", "diffusion_vv", "fields.ito"),
    ("fields", "GeneratorCoefficients", "second_order", "fields.fd_coeff"),
    ("fields", "GeneratorCoefficients", "first_order", "fields.fd_coeff"),
    ("dirichlet", "DiskOperator", "cartesian_ito", "dirichlet.coeff"),
    ("dirichlet", "DiskOperator", "normal_diffusion", "dirichlet.coeff"),
    ("sde", None, "_path_generators", "sde.streams"),
    ("sde", None, "_draw_block", "sde.noise"),
]

BUCKETS = sorted({s[2] for s in SPAN_FUNCS} | {s[3] for s in STEP_FUNCS}
                 | {"halfcyl.factor", "halfcyl.backsolve", UNATTRIBUTED})

COUNTERS = ("const_calls", "cartesian_calls", "cartesian_direct_calls",
            "streams_created", "normals_drawn", "uniforms_drawn", "normals_used",
            "simulate_calls",
            "unstable_paths", "absorbing_paths", "censored_paths", "factored_unknowns",
            "a_nnz", "lu_nnz", "solve_grid_unknowns", "solve_factored_unknowns",
            "artifact_bytes")

_HALFCYL_SOLVES = ("halfcyl.solve_u", "halfcyl.solve_h", "halfcyl.solve_conditioned")


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "boundarylab" or name.startswith("boundarylab."))]


def path_steps(exit_time, n_steps: int, dt: float) -> int:
    """Steps the paths advanced before being absorbed, stopped or censored.

    A path that leaves during step k (exit time in ((k-1) dt, k dt]) has
    advanced k steps; a censored path carries exit time max_time.
    """
    steps = np.ceil(np.asarray(exit_time, dtype=float) / dt - 1e-6)
    return int(np.sum(np.clip(steps, 0, n_steps)))


class _TracedLU:
    """SuperLU stand-in whose back-solves are timed; everything else passes through."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Instrument:
    """Installs the wrappers and holds the counters of the current pass.

    A stack frame is ``[start, child_time, bucket, span_index, tag]``.
    """

    def __init__(self, trace: bool):
        self.trace = trace
        self.missing = []
        self._patches = []
        self.stack = []
        self.spans = []
        self.agg = {b: [0, 0.0] for b in BUCKETS}
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.reset()

    def reset(self):
        """Zero every counter in place; called at the start of each pass."""
        self.fd_s = 0.0
        self.mc_s = 0.0
        self.path_steps = 0
        self.censored_shares = []     # one per absorbing sampler call, in call order
        self._depth = {FD: 0, MC: 0}
        self._halfcyl_depth = 0
        self.stack.clear()
        self.spans.clear()
        for a in self.agg.values():
            a[0], a[1] = 0, 0.0
        for k in self.counts:
            self.counts[k] = 0

    # -------------------------------------------------------------- patching
    def _patch_everywhere(self, orig, wrapper):
        for mod in _package_modules():
            for name, val in list(vars(mod).items()):
                if val is orig:
                    self._patches.append((mod, name, orig))
                    setattr(mod, name, wrapper)

    def _patch_attr(self, owner, name, wrapper):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def install(self):
        self.missing = []
        mods = {}
        for name in {s[0] for s in SPAN_FUNCS} | {s[0] for s in STEP_FUNCS} | {"coefficients"}:
            try:
                mods[name] = importlib.import_module(f"boundarylab.{name}")
            except ImportError:
                pass
        for modname, attr, bucket, entry in SPAN_FUNCS:
            if entry is None and not self.trace:
                continue
            orig = getattr(mods.get(modname), attr, None)
            if orig is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            self._patch_everywhere(orig, self._span_wrapper(orig, f"{modname}.{attr}",
                                                            bucket, entry))
        if not self.trace:
            return
        import scipy.sparse.linalg as spla
        self._patch_attr(spla, "splu", self._splu_wrapper(spla.splu))
        for modname, cls, attr, bucket in STEP_FUNCS:
            owner = mods.get(modname)
            if cls is not None:
                owner = getattr(owner, cls, None)
            orig = owner.__dict__.get(attr) if owner is not None else None
            if orig is None:
                self.missing.append(f"{modname}.{cls + '.' if cls else ''}{attr}")
                continue
            wrapper = self._step_wrapper(orig, bucket, attr)
            if cls is None:
                self._patch_everywhere(orig, wrapper)
            else:
                self._patch_attr(owner, attr, wrapper)
        const = getattr(mods.get("coefficients"), "Const", None)
        if const is None:
            self.missing.append("coefficients.Const")
        else:
            self._patch_attr(const, "__call__", self._count_wrapper(const.__call__))

    def uninstall(self):
        for owner, name, orig in reversed(self._patches):
            setattr(owner, name, orig)
        self._patches = []

    # ----------------------------------------------------------------- spans
    def _push(self, bucket, name=None):
        span = None
        t0 = time.perf_counter()
        if name is not None:
            span = len(self.spans)
            parent = next((f[3] for f in reversed(self.stack) if f[3] is not None), None)
            self.spans.append([name, t0, None, parent])
        frame = [t0, 0.0, bucket, span, None]
        self.stack.append(frame)
        return frame

    def _pop(self, frame):
        t1 = time.perf_counter()
        self.stack.pop()
        dur = t1 - frame[0]
        a = self.agg[frame[2]]
        a[0] += 1
        a[1] += dur - frame[1]
        if frame[3] is not None:
            self.spans[frame[3]][2] = t1
        if self.stack:
            self.stack[-1][1] += dur
        return dur

    def op(self, name):
        """Context for one operation; in trace mode its span roots the pass tree."""
        return _OpSpan(self, name)

    # -------------------------------------------------------------- wrappers
    def _span_wrapper(self, orig, qualname, bucket, entry):
        inst = self
        sig = inspect.signature(orig)
        after = _AFTER.get(qualname)
        is_exit_measure = qualname == "halfcyl.exit_measure"
        halfcyl_solve = qualname in _HALFCYL_SOLVES

        def wrapper(*args, **kwargs):
            bound = None
            if after is not None or is_exit_measure:
                ba = sig.bind(*args, **kwargs)
                ba.apply_defaults()
                bound = ba.arguments
            cat, own_bucket = entry, bucket
            if is_exit_measure and bound["mode"] != "adjoint":
                cat, own_bucket = None, UNATTRIBUTED
            outer = cat is not None and inst._depth[cat] == 0
            if cat is not None:
                inst._depth[cat] += 1
            if halfcyl_solve:
                inst._halfcyl_depth += 1
            frame = inst._push(own_bucket, qualname) if inst.trace else None
            t0 = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                if frame is not None:
                    inst._pop(frame)
                if cat is not None:
                    inst._depth[cat] -= 1
                    if outer and cat == FD:
                        inst.fd_s += t1 - t0
                    elif outer:
                        inst.mc_s += t1 - t0
                if halfcyl_solve:
                    inst._halfcyl_depth -= 1
            if after is not None:
                after(inst, bound, result, outer or (halfcyl_solve and not inst._halfcyl_depth))
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    def _step_wrapper(self, orig, bucket, tag):
        stack, agg, counts = self.stack, self.agg[bucket], self.counts
        pc = time.perf_counter
        fd_coeff = bucket == "fields.fd_coeff"
        cartesian = tag == "cartesian_ito"

        def wrapper(*args, **kwargs):
            if fd_coeff and stack and stack[-1][2] == "fields.ito":
                return orig(*args, **kwargs)      # part of an ito call, not FD assembly
            if cartesian:
                counts["cartesian_calls"] += 1
                if not (stack and stack[-1][4] == "normal_diffusion"):
                    counts["cartesian_direct_calls"] += 1
            frame = [pc(), 0.0, bucket, None, tag]
            stack.append(frame)
            try:
                result = orig(*args, **kwargs)
            finally:
                stack.pop()
                dur = pc() - frame[0]
                agg[0] += 1
                agg[1] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if tag == "_path_generators":
                counts["streams_created"] += len(result)
            elif tag == "_draw_block":
                counts["normals_drawn"] += result[0].size
                counts["uniforms_drawn"] += result[1].size
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    def _count_wrapper(self, orig):
        counts = self.counts

        def wrapper(self_, y):
            counts["const_calls"] += 1
            return orig(self_, y)

        wrapper.__wrapped__ = orig
        return wrapper

    def _splu_wrapper(self, orig):
        inst = self

        def timed_solve(lu_solve):
            def solve(*args, **kwargs):
                frame = inst._push("halfcyl.backsolve")
                try:
                    return lu_solve(*args, **kwargs)
                finally:
                    inst._pop(frame)
            return solve

        def splu(a, *args, **kwargs):
            frame = inst._push("halfcyl.factor", "scipy.sparse.linalg.splu")
            try:
                lu = orig(a, *args, **kwargs)
            finally:
                inst._pop(frame)
            c = inst.counts
            c["factored_unknowns"] += a.shape[0]
            c["a_nnz"] += a.nnz
            c["lu_nnz"] += lu.L.nnz + lu.U.nnz
            if inst._halfcyl_depth:
                c["solve_factored_unknowns"] += a.shape[0]
            return _TracedLU(lu, timed_solve(lu.solve))

        splu.__wrapped__ = orig
        return splu


class _OpSpan:
    def __init__(self, inst, name):
        self.inst = inst
        self.name = name
        self.duration = None

    def __enter__(self):
        if self.inst.trace:
            self.frame = self.inst._push(UNATTRIBUTED, f"op:{self.name}")
        else:
            self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if self.inst.trace:
            self.duration = self.inst._pop(self.frame)
        else:
            self.duration = time.perf_counter() - self.t0
        return False


# ------------------------------------------------------------------ after hooks
# hook(instrument, bound arguments, result, outermost)

def _advance(inst, steps, normals_per_step):
    inst.path_steps += steps
    inst.counts["normals_used"] += normals_per_step * steps


def _fixed_horizon(count, normals_per_step):
    def hook(inst, a, result, outer):
        _advance(inst, count(a, result), normals_per_step)
    return hook


def _absorbing(is_simulate):
    def hook(inst, a, result, outer):
        p = a["params"]
        _advance(inst, path_steps(result.exit_time, int(round(p.max_time / p.dt)), p.dt), 2)
        exited = np.asarray(result.exited_mask)
        censored = int(np.count_nonzero(
            ~exited & (np.asarray(result.exit_time) >= p.max_time - 0.5 * p.dt)))
        c = inst.counts
        c["absorbing_paths"] += exited.size
        c["censored_paths"] += censored
        inst.censored_shares.append(censored / exited.size if exited.size else 0.0)
        if is_simulate:
            c["simulate_calls"] += 1
            c["unstable_paths"] += int(np.count_nonzero(result.unstable_mask))
    return hook


def _solution_grid(inst, a, result, outermost):
    if outermost:
        grid = result.u_grid
        inst.counts["solve_grid_unknowns"] += grid.size - grid.shape[1]


def _artifact_bytes(inst, a, result, outer):
    manifest, _ = result
    inst.counts["artifact_bytes"] += sum(e["bytes"] for e in manifest.artifacts)


def _steps(p, horizon):
    return int(round(horizon / p.dt))


# normals used per path-step: simulate_boundary moves y alone and reads one of
# the pair _draw_block draws; the other samplers read both
_AFTER = {
    "sde.attraction_stats": _fixed_horizon(
        lambda a, rows: len(rows) * a["params"].n_paths * _steps(a["params"], a["horizon"]),
        2),
    "sde.martingale_trace": _fixed_horizon(
        lambda a, tr: a["params"].n_paths * _steps(a["params"], max(a["checkpoint_times"])),
        2),
    "sde.simulate_boundary": _fixed_horizon(
        lambda a, run: a["params"].n_paths * _steps(a["params"], a["params"].max_time), 1),
    "sde.simulate": _absorbing(True),
    "dirichlet.sample_exit": _absorbing(False),
    "halfcyl.solve_u": _solution_grid,
    "halfcyl.solve_h": _solution_grid,
    "halfcyl.solve_conditioned": _solution_grid,
    "runner.run_experiment": _artifact_bytes,
}


# ------------------------------------------------------------- per-layer view
# layer self-time metric of each bucket: these and trace.unattributed_s sum to the wall
SELF_TIME = {
    "fields.ito": "fields.ito_s",
    "fields.fd_coeff": "fields.fd_coeff_s",
    "sde.streams": "sde.streams_s",
    "sde.noise": "sde.noise_s",
    "sde.step": "sde.step_self_s",
    "dirichlet.coeff": "dirichlet.coeff_s",
    "dirichlet.sample_exit": "dirichlet.sample_exit_s",
    "dirichlet.solve_fd": "dirichlet.solve_fd_s",
    "classifier": "classifier.s",
    "halfcyl.solve": "halfcyl.solve_self_s",
    "halfcyl.assemble": "halfcyl.assemble_s",
    "halfcyl.factor": "halfcyl.factor_s",
    "halfcyl.backsolve": "halfcyl.backsolve_s",
    "parabolic.sweep": "parabolic.sweep_self_s",
    "runner": "runner.self_s",
    "runner.write": "runner.write_s",
    "runner.hash": "runner.hash_s",
    UNATTRIBUTED: "trace.unattributed_s",
}


def _ratio(num, den):
    return num / den if den else math.nan


def layer_metrics(inst: Instrument) -> dict:
    """Per-layer figures of the pass just traced; NaN marks a layer never entered."""
    c = inst.counts
    calls = {b: a[0] for b, a in inst.agg.items()}
    out = {}
    for bucket, name in SELF_TIME.items():
        out[name] = inst.agg[bucket][1] if calls[bucket] or bucket == UNATTRIBUTED \
            else math.nan

    def counted(value, present=True):
        return float(value) if present else math.nan

    sampled = calls["sde.step"] + calls["dirichlet.sample_exit"]
    out.update({
        "fields.ito_calls": counted(calls["fields.ito"]),
        "coefficients.const_calls": counted(c["const_calls"],
                                            "coefficients.Const" not in inst.missing),
        "sde.streams_created": counted(c["streams_created"], calls["sde.streams"]),
        "sde.normals_drawn": counted(c["normals_drawn"], calls["sde.noise"]),
        "sde.uniforms_drawn": counted(c["uniforms_drawn"], calls["sde.noise"]),
        "sde.noise_used_ratio": _ratio(c["normals_used"], c["normals_drawn"]),
        "sde.path_steps_advanced": counted(inst.path_steps, sampled),
        "sde.censored_ratio": _ratio(c["censored_paths"], c["absorbing_paths"]),
        "sde.unstable_paths": counted(c["unstable_paths"], c["simulate_calls"]),
        "dirichlet.coeff_calls": counted(c["cartesian_calls"], c["cartesian_calls"]),
        "dirichlet.coeff_calls_per_step": _ratio(c["cartesian_calls"],
                                                 c["cartesian_direct_calls"]),
        "dirichlet.solve_fd_calls": counted(calls["dirichlet.solve_fd"]),
        "classifier.calls": counted(calls["classifier"]),
        "halfcyl.assemble_calls": counted(calls["halfcyl.assemble"]),
        "halfcyl.factor_calls": counted(calls["halfcyl.factor"]),
        "halfcyl.factored_unknowns": counted(c["factored_unknowns"], calls["halfcyl.factor"]),
        "halfcyl.factor_unknowns_per_s": _ratio(c["factored_unknowns"],
                                                inst.agg["halfcyl.factor"][1]),
        "halfcyl.lu_nnz": counted(c["lu_nnz"], calls["halfcyl.factor"]),
        "halfcyl.fill_ratio": _ratio(c["lu_nnz"], c["a_nnz"]),
        "halfcyl.backsolves": counted(calls["halfcyl.backsolve"], calls["halfcyl.factor"]),
        "halfcyl.requested_unknowns_ratio": _ratio(c["solve_grid_unknowns"],
                                                   c["solve_factored_unknowns"]),
        "runner.artifact_bytes": counted(c["artifact_bytes"], calls["runner"]),
    })
    return out
