"""Acceptance suite: one test per criterion, run at the stated scale.

Each test prints one PASS/FAIL line (visible under -s / on failure).
Criterion 7 asserts the pinned thresholds verbatim; the measured physics
of the pinned models cannot meet them (see the companion analysis tests
in test_dirichlet.py showing the errors do decrease toward zero), so that
test documents an honest failure rather than a loosened check.
"""

import math
import time

import numpy as np
import pytest

from boundarylab import dirichlet, halfcyl, parabolic, sde
from boundarylab.classifier import Verdict, classify
from boundarylab.dirichlet import convergence_experiment, default_completions
from boundarylab.fields import Flavor, assemble
from boundarylab.geometry import RescaledPoint
from boundarylab.halfcyl import HalfCylinderGrid, exit_measure
from boundarylab.parabolic import StoppedProcessSpec, TimescaleRule, timescale_sweep
from boundarylab.sde import SimulationParams


def report(n, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n:02d} {name}: {status} -- {detail}")
    return ok


def test_criterion_01_closed_form_h(zoo):
    t0 = time.time()
    grid = HalfCylinderGrid(n_y=64, n_z=400, height=40.0,
                            stretching="geometric", dz0=0.02)
    sol = halfcyl.solve_h(zoo["B"], grid)
    zz = sol.z_nodes
    exact = 1.0 - zz / np.sqrt(1.0 + zz * zz)
    err = float(np.max(np.abs(sol.u_grid - exact[:, None])))
    elapsed = time.time() - t0
    ok = err <= 1e-3 and elapsed < 10.0
    assert report(1, "closed-form hitting probability", ok,
                  f"max err {err:.2e} (<= 1e-3), {elapsed:.1f}s (< 10s)")


def test_criterion_02_classification(zoo):
    t0 = time.time()
    verdicts = {name: classify(zoo[name], grid_size=512).verdict
                for name in ("A", "B", "C")}
    ok = (verdicts["A"] is Verdict.ATTRACTING
          and verdicts["B"] is Verdict.REPELLING
          and verdicts["C"] is Verdict.NEUTRAL)
    m = zoo["tilted"]
    rep = classify(m, grid_size=1024)
    p = SimulationParams(dt=2e-3, seed=35, n_paths=64, max_time=170.0)
    run = sde.simulate_boundary(m, 0.0, p, burn_in=20.0,
                                observables={"alpha": m.alpha, "beta": m.beta})
    a_mc, a_se = run.averages["alpha"]
    b_mc, b_se = run.averages["beta"]
    dev_a = abs(a_mc - rep.alpha_bar) / a_se
    dev_b = abs(b_mc - rep.beta_bar) / b_se
    elapsed = time.time() - t0
    ok = ok and dev_a <= 3.0 and dev_b <= 3.0 and elapsed < 30.0
    assert report(2, "classification + ergodic cross-check", ok,
                  f"A/B/C verdicts ok; tilted devs {dev_a:.2f}/{dev_b:.2f} sigma, "
                  f"{elapsed:.1f}s (< 30s)")


def test_criterion_03_hitting_dichotomy(zoo):
    t0 = time.time()
    gA = assemble(zoo["A"], None, Flavor.LIMIT)
    pA = SimulationParams(dt=2.5e-3, seed=7, n_paths=20000, max_time=100.0)
    fracA = sde.simulate(gA, (0.0, 1.0), pA).exit_fraction()[0]

    gB = assemble(zoo["B"], None, Flavor.LIMIT)
    pB = SimulationParams(dt=1.25e-3, seed=1001, n_paths=100000, max_time=100.0,
                          wall=64.0)
    fracB, seB = sde.simulate(gB, (0.0, 2.0), pB).exit_fraction()
    target = 1.0 - 2.0 / math.sqrt(5.0)
    devB = abs(fracB - target) / seB
    elapsed = time.time() - t0
    ok = fracA >= 0.99 and devB <= 3.0 and elapsed < 60.0
    assert report(3, "hitting dichotomy", ok,
                  f"attracting frac {fracA:.4f} (>= 0.99); repelling dev "
                  f"{devB:.2f} sigma vs 1-2/sqrt(5); {elapsed:.1f}s (< 60s)")


def test_criterion_04_martingale_diagnostic(zoo, reports):
    t0 = time.time()
    worst = {}
    for name, seed in (("A", 51), ("B", 52)):
        p = SimulationParams(dt=1e-3, seed=seed, n_paths=20000, max_time=1.5)
        times = [0.15 * k for k in range(1, 11)]
        trace = sde.martingale_trace(zoo[name], reports[name], (0.0, 5.0), p,
                                     band=(1.0, 25.0), checkpoint_times=times)
        worst[name] = float(np.max(np.abs(trace.values - trace.start_value)
                                   / trace.stderrs))
    elapsed = time.time() - t0
    ok = worst["A"] <= 3.0 and worst["B"] <= 3.0 and elapsed < 60.0
    assert report(4, "martingale diagnostic", ok,
                  f"max devs A {worst['A']:.2f} / B {worst['B']:.2f} sigma over "
                  f"10 checkpoints; {elapsed:.1f}s (< 60s)")


def test_criterion_05_boundary_attraction(zoo):
    t0 = time.time()
    p = SimulationParams(dt=5e-3, seed=41, n_paths=1024, max_time=200.0)
    fa = sde.attraction_stats(zoo["A"], [(0.0, 0.3)], 200.0, p)[0].fraction_near
    fb = sde.attraction_stats(zoo["B"], [(0.0, 0.3)], 200.0, p)[0].fraction_near
    elapsed = time.time() - t0
    ok = fa >= 0.95 and fb <= 0.05 and elapsed < 60.0
    assert report(5, "boundary attraction dichotomy", ok,
                  f"near fractions A {fa:.3f} (>= 0.95) / B {fb:.3f} (<= 0.05); "
                  f"{elapsed:.1f}s (< 60s)")


def test_criterion_06_constant_at_infinity(zoo, reports):
    t0 = time.time()
    oscs = {}
    sol_d = halfcyl.solve_u(zoo["D"], np.cos, check_truncation=False)
    oscs["D"] = sol_d.top_oscillation
    oscs["A"] = halfcyl.solve_u(zoo["A"], np.cos,
                                check_truncation=False).top_oscillation
    oscs["C"] = halfcyl.solve_u(zoo["C"], np.cos,
                                check_truncation=False).top_oscillation
    oscs["B-asym"] = halfcyl.solve_conditioned(
        zoo["B-asym"], np.cos, check_truncation=False).top_oscillation
    decay = halfcyl.variation_decay(sol_d, reports["D"].corrector_fn(),
                                    np.arange(2.0, 22.0))
    elapsed = time.time() - t0
    worst = max(oscs.values())
    ok = worst <= 1e-4 and decay.r_squared > 0.95
    assert report(6, "constant at infinity", ok,
                  f"top oscillation <= {worst:.1e} over default solves "
                  f"(<= 1e-4); decay fit R^2 {decay.r_squared:.4f} (> 0.95); "
                  f"{elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_07_vanishing_perturbation_limit(zoo):
    t0 = time.time()
    eps_list = [0.4, 0.2, 0.1, 0.05]
    probes = [(0.0, 0.0), (0.2, 0.0), (0.4, 0.0)]
    failures = []
    lines = []
    for model_name in ("D", "B-asym"):
        m = zoo[model_name]
        comps = default_completions(m)
        if model_name == "D":
            ubar = halfcyl.solve_u(m, np.cos, check_truncation=False).ubar
        else:
            ubar = halfcyl.solve_conditioned(m, np.cos,
                                             check_truncation=False).ubar
        finals = {}
        for comp in comps:
            table = convergence_experiment(m, np.cos, eps_list, probes,
                                           completion=comp, ubar=ubar)
            for probe in probes:
                errs = table.errors_for(probe, completion=comp.label)
                lines.append(f"  {model_name}/{comp.label} probe {probe}: "
                             + " ".join(f"{e:.4f}" for e in errs))
                if comp is comps[0]:
                    if any(b >= a for a, b in zip(errs, errs[1:])):
                        failures.append(
                            f"{model_name} probe {probe}: error not decreasing")
                    if errs[-1] > 0.05:
                        failures.append(
                            f"{model_name} probe {probe}: final error "
                            f"{errs[-1]:.4f} > 0.05")
                finals.setdefault(comp.label, {})[probe] = errs[-1]
        gap = max(abs(finals[comps[0].label][p] - finals[comps[1].label][p])
                  for p in probes)
        if gap > 1e-3:
            failures.append(f"{model_name}: completion swap changes final "
                            f"errors by {gap:.4f} > 1e-3")
    elapsed = time.time() - t0
    if elapsed >= 600.0:
        failures.append(f"runtime {elapsed:.0f}s >= 600s")
    detail = f"{len(failures)} sub-checks failed; {elapsed:.0f}s"
    ok = not failures
    report(7, "vanishing-perturbation limit (pinned thresholds)", ok, detail)
    for line in lines:
        print(line)
    assert ok, ("pinned thresholds unattainable for the pinned models "
                "(see decisions ledger): " + "; ".join(failures))


def test_criterion_08_duality(zoo):
    t0 = time.time()
    light = HalfCylinderGrid(n_y=64, n_z=640, height=1e13, dz0=0.02)
    nu_d = exit_measure(zoo["D"], None)
    ubar_d = halfcyl.solve_u(zoo["D"], np.cos, check_truncation=False).ubar
    gap_d = abs(nu_d.integrate(np.cos) - ubar_d)
    nu_b = exit_measure(zoo["B-asym"], None, light)
    ubar_b = halfcyl.solve_conditioned(zoo["B-asym"], np.cos, light,
                                       check_truncation=False).ubar
    gap_b = abs(nu_b.integrate(np.cos) - ubar_b)

    nu_limit = exit_measure(zoo["A"], None)
    uniform_gap = float(np.max(np.abs(nu_limit.density - 1 / (2 * math.pi))))

    start = RescaledPoint(0.0, 8.0)
    nu_fd = exit_measure(zoo["A"], start)
    p = SimulationParams(dt=2e-3, seed=77, n_paths=20000, max_time=80.0)
    nu_mc = exit_measure(zoo["A"], start, mode="mc", params=p, bins=16)
    fd_bins = nu_fd.weights.reshape(16, 4).sum(axis=1)
    sigma = np.sqrt(fd_bins * (1 - fd_bins) / 20000)
    worst_bin = float(np.max(np.abs(nu_mc.weights - fd_bins) / sigma))
    elapsed = time.time() - t0
    ok = gap_d < 1e-6 and gap_b < 1e-6 and uniform_gap < 1e-4 and worst_bin <= 3.0
    assert report(8, "duality of exit law and limit value", ok,
                  f"adjoint-vs-solve gaps {gap_d:.1e}/{gap_b:.1e} (< 1e-6); "
                  f"limit law uniform to {uniform_gap:.1e}; MC bins within "
                  f"{worst_bin:.2f} sigma; {elapsed:.0f}s")


def test_criterion_09_timescale_plateaus(zoo):
    t0 = time.time()
    spec = StoppedProcessSpec(model=zoo["A"],
                              g=lambda x: np.zeros(len(np.atleast_2d(x))),
                              psi_d=lambda th: np.ones_like(th))
    rules = [TimescaleRule("sublog", "const", 0.5),
             TimescaleRule("suplog", "log", 4.0)]
    p = SimulationParams(dt=2e-3, seed=5, n_paths=2048, max_time=15.0)
    sweep = timescale_sweep(spec, [0.2, 0.1, 0.05], rules, (0.0, 0.0), p,
                            boundary_ref=1.0)
    rows = {(r.eps, r.rule): r.estimate for r in sweep.rows}
    lo = rows[(0.05, "sublog")]
    hi = rows[(0.05, "suplog")]
    elapsed = time.time() - t0
    ok = lo <= 0.1 and hi >= 0.9 and elapsed < 300.0
    assert report(9, "time-scale plateau dichotomy", ok,
                  f"sub-log estimate {lo:.3f} (<= 0.1), log-rule estimate "
                  f"{hi:.3f} (>= 0.9) at eps=0.05; {elapsed:.0f}s (< 300s)")


def test_criterion_10_determinism(zoo, tmp_path):
    import json
    import os

    from boundarylab import cli

    t0 = time.time()
    cfg = os.path.join(os.path.dirname(__file__), "..", "configs",
                       "martingale_a.json")
    outs = []
    for sub in ("one", "two"):
        assert cli.main(["run", cfg, "--output-root",
                         str(tmp_path / sub)]) == 0
        outs.append((tmp_path / sub / "martingale_a" / "martingale.csv").read_bytes())
    byte_identical = outs[0] == outs[1]

    gc = assemble(zoo["B"], None, Flavor.LIMIT)
    batches = []
    for chunk in (100, 8192):
        pr = SimulationParams(dt=2e-3, seed=123, n_paths=2000, max_time=5.0,
                              wall=16.0,
                              chunk_size=chunk)
        batches.append(sde.simulate(gc, (0.0, 2.0), pr))
    chunk_invariant = (np.array_equal(batches[0].exit_time, batches[1].exit_time)
                       and np.allclose(batches[0].exit_y, batches[1].exit_y,
                                       equal_nan=True, atol=0))
    elapsed = time.time() - t0
    ok = byte_identical and chunk_invariant
    assert report(10, "determinism", ok,
                  f"CSV bytes identical: {byte_identical}; chunking-invariant "
                  f"paths: {chunk_invariant}; {elapsed:.0f}s")
