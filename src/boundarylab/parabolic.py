"""Time-scale experiments for the stopped perturbed process.

The initial-boundary value problem's solution is the expectation of the
stopped functional: boundary data where the path has already exited,
initial data at the current position otherwise.  Sweeping the evaluation
time as a function of eps (constant rules against multiples of |ln eps|)
exhibits the metastable switch: for short times the estimate tracks the
interior functional of the initial data, past the logarithmic scale it
approaches the Dirichlet limit.  One sampler run serves every eps and rule:
each eps steps its own rows, which record path positions at its requested
checkpoint times, and path p reads the same noise stream under every eps.
The estimates are therefore coupled across t (monotone for indicator-type
data) and, through common random numbers, across eps.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from . import sde
from .dirichlet import (DiskOperator, InteriorCompletion, check_start, default_completions,
                        sample_exit)
from .errors import ModelError
from .fields import ChartModel
from .geometry import DomainModel

PLATEAU_MARGIN = 0.05   # a row is on a plateau within 3 sigma plus this of its value


@dataclass(frozen=True)
class StoppedProcessSpec:
    """Model plus initial data g on the domain and boundary data psi_d."""

    model: ChartModel
    g: object                      # callable: points (n, 2) -> values (n,)
    psi_d: object                  # callable: boundary angle -> values
    completion: InteriorCompletion | None = None
    dom: DomainModel = field(default_factory=DomainModel)

    def operator(self, eps: float) -> DiskOperator:
        comp = self.completion or default_completions(self.model)[0]
        return DiskOperator(model=self.model, eps=eps, completion=comp, dom=self.dom)


@dataclass(frozen=True)
class TimescaleRule:
    """t(eps) family: c (const), c * |ln eps| (log), or c * eps^-p (power)."""

    name: str
    kind: str
    c: float
    p: float = 1.0

    def time(self, eps: float) -> float:
        if self.kind == "const":
            return self.c
        if self.kind == "log":
            return self.c * abs(math.log(eps))
        if self.kind == "power":
            return self.c * eps ** (-self.p)
        raise ModelError(f"unknown time-scale rule kind {self.kind!r}")


@dataclass(frozen=True)
class SweepRow:
    eps: float
    rule: str
    rule_time: float
    estimate: float
    stderr: float
    plateau_id: str


@dataclass
class TimescaleSweep:
    rows: list
    interior_ref: float
    boundary_ref: float


def evolve_mc(spec: StoppedProcessSpec, eps: float, times, start,
              params: sde.SimulationParams):
    """Stopped-functional estimates at the requested times from one batch.

    Returns a list of (t, estimate, stderr); the same paths underlie every
    t, so estimates are coupled across times.  t = 0 returns g(start)
    exactly.  A start outside the closed domain raises ``ModelError``,
    whatever the times.
    """
    return _evolve(spec, [(eps, times)], start, params)[0]


def _evolve(spec: StoppedProcessSpec, runs, start, params: sde.SimulationParams):
    """evolve_mc's result for each (eps, times) of runs, from one stacked sampler call.

    Each eps with a positive time gets n_paths rows, which stop one step past
    its last time; path p reads the same noise stream under every eps, so the
    estimates are coupled across eps as they are across t.
    """
    check_start(spec.dom, start)
    dt = params.dt
    runs = [(eps, sorted(set(float(t) for t in np.atleast_1d(times)))) for eps, times in runs]
    # each positive time on the step grid, at least one step
    rounded = [{t: max(dt, round(t / dt) * dt) for t in times if t > 0} for _, times in runs]
    sampled = [(eps, sorted(set(r.values()))) for (eps, _), r in zip(runs, rounded) if r]
    if sampled:
        cps = [cp for _, cp in sampled]
        run_params = dataclasses.replace(params, max_time=max(cp[-1] for cp in cps) + dt)
        batch = sample_exit([spec.operator(eps) for eps, _ in sampled], start, run_params,
                            checkpoint_times=cps)
        checkpoints = list(batch.checkpoints)
    results = []
    first = 0               # the first row of the next sampled eps
    for (_, times), on_grid in zip(runs, rounded):
        if on_grid:
            rows = slice(first, first + params.n_paths)
            first += params.n_paths
            exited, exit_time = batch.exited_mask[rows], batch.exit_time[rows]
            exit_vals = np.where(exited,
                                 np.asarray(spec.psi_d(np.where(exited, batch.exit_theta[rows],
                                                                0.0))),
                                 0.0)
        out = []
        for t in times:
            if t <= 0.0:
                g0 = float(np.asarray(spec.g(np.asarray([start], dtype=float)))[0])
                out.append((0.0, g0, 0.0))
                continue
            k = on_grid[t]
            exited_by_t = exited & (exit_time <= k)
            vals = np.where(exited_by_t, exit_vals, 0.0)
            alive = ~exited_by_t
            if np.any(alive):
                pos = batch.positions[checkpoints.index(k), rows][alive]
                good = ~np.isnan(pos[:, 0])
                g_vals = np.zeros(np.count_nonzero(alive))
                if np.any(good):
                    g_vals[good] = np.asarray(spec.g(pos[good]))
                vals[alive] = g_vals
            est = float(np.mean(vals))
            se = float(np.std(vals, ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
            out.append((t, est, se))
        results.append(out)
    return results


def timescale_sweep(spec: StoppedProcessSpec, eps_list, rules, start,
                    params: sde.SimulationParams, boundary_ref: float) -> TimescaleSweep:
    """Estimate the stopped functional under each (eps, rule) pair.

    boundary_ref is the Dirichlet-limit value the long-time plateau should
    approach; the short-time plateau's value, interior_ref, is g(start).
    Each row is tagged with the plateau it sits on (within 3 sigma +
    PLATEAU_MARGIN) or "crossover".
    """
    interior_ref = float(np.asarray(spec.g(np.asarray([start], dtype=float)))[0])
    eps_list = list(eps_list)
    runs = _evolve(spec, [(eps, [r.time(eps) for r in rules]) for eps in eps_list], start,
                   params)
    rows = []
    for eps, ests in zip(eps_list, runs):
        by_time = {round(t, 12): (e, s) for t, e, s in ests}
        for r in rules:
            t = r.time(eps)
            est, se = by_time[round(float(t), 12)]
            tol = 3.0 * se + PLATEAU_MARGIN
            if abs(est - interior_ref) <= tol:
                tag = "interior"
            elif abs(est - boundary_ref) <= tol:
                tag = "boundary"
            else:
                tag = "crossover"
            rows.append(SweepRow(eps=eps, rule=r.name, rule_time=float(t),
                                 estimate=est, stderr=se, plateau_id=tag))
    return TimescaleSweep(rows=rows, interior_ref=interior_ref,
                          boundary_ref=boundary_ref)
