"""Print one ``name sha256`` line per reproducible output of this tree.

Two trees that print the same lines give the same bits: the artifacts of
the bundled configs, the operation digests of the benchmark workloads,
direct runs of every sampler and of the time-scale sweep (small ones, and
ones with enough paths to be split over worker processes, the horizon
samplers also at the edges of their split), direct FD
solves (cross terms, transposed solves, the conditioned problem and data
with signed zeros), the limit value of every zoo model
on constant and varying data, every operator flavor's coefficients, and
the coefficients and data of inline configs that reach every form of the
config's coefficient and chart-model parsers.
The first line is ``stream_version`` (``sde.STREAM_VERSION``), so a diff
between trees of different stream versions says why their Monte Carlo
lines moved.  A refactor that must keep behaviour is checked with one
``diff``:

    python tools/digests.py 1 2 > after.txt      # in the changed tree
    python tools/digests.py 1 2 > before.txt     # in the parent tree (same script)
    diff before.txt after.txt

The positional arguments are seeds: each keys one pass of every workload
and one set of direct sampler runs.  The script imports the tree it sits in
(``src/`` and ``perfbench/`` next to ``tools/``) and writes only into a
temporary directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

from boundarylab import config, dirichlet, halfcyl, models, parabolic, runner, sde  # noqa: E402
from boundarylab.classifier import classify  # noqa: E402
from boundarylab.coefficients import Const, Cosine, Fourier  # noqa: E402
from boundarylab.fields import ChartModel, Flavor, assemble  # noqa: E402
from boundarylab.geometry import RescaledPoint  # noqa: E402


# d != 0 and a sloped perturbation with rho != 1: terms the zoo leaves at zero
SLOPED = ChartModel(a=Const(1.5), b=Const(-0.25), alpha=Const(0.75), beta=Const(0.5),
                    d=Const(0.3), rho=Const(1.25), z_slope=2.0, name="sloped")
# a phased Cosine and a two-term Fourier series whose zero and unit coefficients and k = 1
# term the evaluation skips
PHASED = ChartModel(a=Const(1.0), b=Fourier(0.1, ((1, 0.0, 0.5), (2, 1.0, 0.0))),
                    alpha=Cosine(1.0, 0.5, phase=0.7), beta=Const(0.5), name="phased")
# a = Const(1.0) with b, beta and d Const(-0.0): multiplies by a are skipped, but a -0.0
# keeps the terms it multiplies, which a +0.0 would not
SIGNED_ZERO = ChartModel(a=Const(1.0), b=Const(-0.0), alpha=Const(0.75), beta=Const(-0.0),
                         d=Const(-0.0), name="signed-zero")
# Cosine a and d with a perturbation that falls off in z, for the coefficients alone: no
# sampler or solve here runs it
VARIED = ChartModel(a=Cosine(1.5, 0.5), b=Const(-0.25), alpha=Const(0.75), beta=Const(0.5),
                    d=Cosine(0.2, 0.1), rho=Const(1.25), z_slope=-0.5, name="varied")
# every operator flavor, the perturbed ones at two eps each
FLAVORS = ((Flavor.LOG, None), (Flavor.LIMIT, None), (Flavor.RESCALED, 0.05),
           (Flavor.RESCALED, 0.3), (Flavor.CHART, 0.0), (Flavor.CHART, 0.1))
# angles, and heights with signed zeros, subnormals, negatives, infinities and NaN
COEFF_Y = (0.0, -0.0, 0.7, -2.0, 10.0, np.nan)
COEFF_V = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 0.3, 1.0, -2.0, 7.5, 1e3, np.nan, np.inf,
           -np.inf)
CHUNKS = (8192, 7)
# enough paths, and starts deep enough inside, that rows on 512 or more streams are still
# live after the first noise block in every chunk: the runs are split over worker processes
# wherever two or more CPUs are usable
SPLIT_PATHS = 2000
SPLIT_CHUNKS = (8192, 1000)
# the edges of a horizon run's split before its first step, as (paths, chunk size, steps):
# a run of one noise block, which never forks however many paths it has; chunks that each
# split, the last too small to; and an odd stream count
HORIZON_EDGES = {"one-block": (600, 8192, sde.NOISE_BLOCK), "chunked": (1300, 600, 400),
                 "odd": (1025, 8192, 400)}
# boundary data that are zero on some or all nodes: the coupling to the data must keep the
# solutions' zero signs (sin is exactly 0.0 at node 0)
ZERO_DATA = {"zero": Const(0.0), "minus-zero": Const(-0.0),
             "sin": Fourier(0.0, ((1, 0.0, 1.0),))}
# constant data, which fix the limit value without a sweep, and two kinds of varying data,
# whose limit value a rotation-invariant model fixes at their mean
LIMIT_DATA = {"const": Const(0.7), "cos": np.cos,
              "fourier": Fourier(0.2, ((1, 0.0, 0.5), (2, 1.0, 0.3)))}

# inline configs, as (experiment, model block, numerics), that reach every form the config
# parsers read, which no bundled config or benchmark operation does: a chart block with
# every key (bare numbers, an integer one among them, a phased cosine, Fourier series with
# signed zeros, tilde_z_slope and a name), one with only the required keys, Fourier,
# cosine and bare-number data, a grid block naming one field, and constant initial data
# as an object and as a number
_MC = {"dt": 0.01, "n_paths": 4, "max_time": 1.0}
INLINE_CONFIGS = {
    "chart-full": ("classify", {"chart": {
        "a": 1.5, "rho": 2, "tilde_z_slope": -0.5, "name": "inline",
        "b": {"kind": "fourier", "constant": -0.0, "terms": [[1, 0.0, 0.5], [3, 1.0, -0.0]]},
        "alpha": {"kind": "cosine", "mean": 1.0, "amp": 0.5, "phase": 0.7},
        "beta": {"kind": "const", "c": 0.25},
        "d": {"kind": "fourier", "constant": 0.1, "terms": [[2, 0.2, 0.1]]}}}, {}),
    "chart-required": ("halfcyl", {"chart": {
        "a": 1, "b": 0.0, "alpha": {"kind": "cosine", "mean": 1.0, "amp": 0.25}, "beta": 3}},
        {"data": {"kind": "fourier", "constant": 0.2, "terms": [[1, 0.0, 0.5], [2, 1.0, 0.3]]},
         "grid": {"n_y": 32}}),
    "g-object": ("timescale", {"name": "D"}, {
        "eps_list": [0.1], "rules": [{"kind": "const", "c": 0.5}], "data": -0.5,
        "g": {"kind": "const", "c": 0.25}, "mc": _MC}),
    "g-number": ("timescale", {"name": "D"}, {
        "eps_list": [0.1], "rules": [{"kind": "log", "c": 0.5}], "g": 1, "mc": _MC,
        "data": {"kind": "cosine", "mean": 0.0, "amp": 1.0}}),
}


def _models():
    return {**{name: models.get_model(name) for name in models.model_names()},
            "sloped": SLOPED, "phased": PHASED, "signed-zero": SIGNED_ZERO}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=float)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def config_digests(tmp):
    """Every artifact of every bundled config, ``manifest.json`` aside (it holds a wall time)."""
    cfg_dir = os.path.join(ROOT, "configs")
    for name in sorted(os.listdir(cfg_dir)):
        if not name.endswith(".json"):
            continue
        cfg = config.parse_config(os.path.join(cfg_dir, name))
        _, out_dir = runner.run_experiment(cfg, os.path.join(tmp, "configs"))
        for art in sorted(os.listdir(out_dir)):
            if art != "manifest.json":
                yield f"configs/{name}/{art}", _file_digest(os.path.join(out_dir, art))


def workload_digests(seed, tmp):
    """Every operation digest of one pass of each benchmark workload."""
    import workloads

    for wname, build in workloads.WORKLOADS.items():
        for op in build(seed, os.path.join(tmp, f"{wname}-{seed}")):
            digest, _ = op.run({})
            if isinstance(digest, tuple):       # a config operation: its artifacts
                for path, sha in digest:
                    yield f"workload/{wname}/seed{seed}/{op.name}/{path}", sha
            else:
                yield f"workload/{wname}/seed{seed}/{op.name}", digest


def _exit_batch(b):
    return _digest(b.exit_y, b.exit_time, b.exited_mask, b.unstable_mask)


def direct_digests(seed):
    """Direct runs of every sampler and of the time-scale sweep: bridge on and off, two
    chunk sizes."""
    zoo = _models()
    for chunk in CHUNKS:
        def params(**kw):
            return sde.SimulationParams(**{"seed": seed, "chunk_size": chunk, **kw})

        for mname, m in zoo.items():
            comp = dirichlet.default_completions(m)[0]
            for eps in (0.05, 0.3):
                op = dirichlet.DiskOperator(model=m, eps=eps, completion=comp)
                for bridge in (True, False):
                    p = params(dt=0.005, n_paths=40, max_time=1.0, bridge_absorption=bridge)
                    b = dirichlet.sample_exit(op, (0.55, 0.25), p, checkpoint_times=[0.05, 0.5])
                    yield (f"direct/seed{seed}/chunk{chunk}/sample_exit/{mname}/eps{eps}/"
                           f"bridge{int(bridge)}",
                           _digest(b.exit_theta, b.exit_time, b.exited_mask, b.positions))
        for mname in ("A", "D", "tilted", "sloped", "phased"):
            m = zoo[mname]
            for flavor, eps in ((Flavor.LIMIT, None), (Flavor.CHART, 0.1)):
                gc = assemble(m, eps, flavor)
                for wall in (None, 3.0):
                    for bridge in (True, False):
                        p = params(dt=0.002, n_paths=30, max_time=0.5, wall=wall,
                                   bridge_absorption=bridge)
                        yield (f"direct/seed{seed}/chunk{chunk}/simulate/{mname}/"
                               f"{flavor.name}/wall{wall}/bridge{int(bridge)}",
                               _exit_batch(sde.simulate(gc, (0.3, 0.4), p)))
        for mname in ("A", "D", "tilted", "sloped", "phased"):
            m = zoo[mname]
            rep = classify(m, grid_size=256)
            t = sde.martingale_trace(m, rep, (0.3, 2.0), params(dt=0.002, n_paths=30,
                                                                max_time=1.0),
                                     (0.5, 8.0), [0.25, 0.5, 1.0])
            yield (f"direct/seed{seed}/chunk{chunk}/martingale_trace/{mname}",
                   _digest(t.values, t.stderrs))
            rows = sde.attraction_stats(m, [(0.3, 0.5), (2.0, 0.1)], 1.0,
                                        params(dt=0.005, n_paths=30, max_time=1.0),
                                        far_wall=3.0)
            yield (f"direct/seed{seed}/chunk{chunk}/attraction_stats/{mname}",
                   _digest([[r.fraction_near, r.min_distance, r.max_distance]
                            for r in rows]))
            run = sde.simulate_boundary(m, 1.0, params(dt=0.005, n_paths=30, max_time=1.0),
                                        burn_in=0.2, bins=16,
                                        observables={"alpha": m.alpha, "beta": m.beta})
            yield (f"direct/seed{seed}/chunk{chunk}/simulate_boundary/{mname}",
                   _digest(run.histogram, *[run.averages[k] for k in ("alpha", "beta")]))
        # three eps with three horizons; g reads the checkpoint positions, psi_d the exit angles
        rules = [parabolic.TimescaleRule("const", "const", 0.3),
                 parabolic.TimescaleRule("log", "log", 0.5)]
        for mname in ("D", "sloped"):
            spec = parabolic.StoppedProcessSpec(
                model=zoo[mname], g=lambda x: x[:, 0] + 0.5 * x[:, 1] ** 2, psi_d=np.cos)
            sweep = parabolic.timescale_sweep(spec, [0.3, 0.1, 0.05], rules, (0.55, 0.25),
                                              params(dt=0.005, n_paths=40, max_time=2.0),
                                              boundary_ref=0.0)
            yield (f"direct/seed{seed}/chunk{chunk}/timescale_sweep/{mname}",
                   _digest([[r.rule_time, r.estimate, r.stderr] for r in sweep.rows]))


def split_digests(seed):
    """Direct runs of every sampler with enough paths still live after the first noise
    block that a machine with two or more CPUs splits them over worker processes: all of
    them in one chunk, and also chunk by chunk at 1000 paths a chunk."""
    zoo = _models()
    for chunk in SPLIT_CHUNKS:
        def params(**kw):
            return sde.SimulationParams(**{"seed": seed, "chunk_size": chunk,
                                           "n_paths": SPLIT_PATHS, **kw})

        name = f"split/seed{seed}/chunk{chunk}"
        ops = [dirichlet.DiskOperator(model=zoo["D"], eps=eps,
                                      completion=dirichlet.default_completions(zoo["D"])[0])
               for eps in (0.3, 0.1)]
        p = params(dt=0.002, max_time=0.8)
        b = dirichlet.sample_exit(ops[1], (0.0, 0.0), p, checkpoint_times=[0.1, 0.5])
        yield (f"{name}/sample_exit",
               _digest(b.exit_theta, b.exit_time, b.exited_mask, b.positions))
        b = dirichlet.sample_exit(ops, (0.0, 0.0), p, checkpoint_times=[[0.2], [0.6, 0.7]])
        yield (f"{name}/sample_exit-stacked",
               _digest(b.exit_theta, b.exit_time, b.exited_mask, b.positions))
        gc = assemble(zoo["D"], None, Flavor.LIMIT)
        yield (f"{name}/simulate",
               _exit_batch(sde.simulate(gc, (0.3, 2.0), params(dt=0.002, max_time=1.0,
                                                                wall=5.0))))
        m = zoo["B"]
        t = sde.martingale_trace(m, classify(m, grid_size=256), (0.0, 3.0),
                                 params(dt=0.001, max_time=0.5), (0.5, 20.0), [0.1, 0.3, 0.5])
        yield f"{name}/martingale_trace", _digest(t.values, t.stderrs)
        rows = sde.attraction_stats(m, [(0.0, 0.3), (1.0, 2.0)], 2.0,
                                    params(dt=0.005, max_time=2.0), far_wall=2.5)
        yield (f"{name}/attraction_stats",
               _digest([[r.fraction_near, r.min_distance, r.max_distance] for r in rows]))
        m = zoo["tilted"]
        run = sde.simulate_boundary(m, 0.5, params(dt=0.002, max_time=1.0), burn_in=0.2,
                                    bins=16, observables={"alpha": m.alpha, "beta": m.beta})
        yield (f"{name}/simulate_boundary",
               _digest(run.histogram, *[run.averages[k] for k in ("alpha", "beta")]))


def horizon_split_digests(seed):
    """Direct runs of the horizon samplers, which split a chunk before its first step, at
    the edges of that split (``HORIZON_EDGES``)."""
    m = _models()["B"]
    report = classify(m, grid_size=256)
    for edge, (n_paths, chunk, n_steps) in HORIZON_EDGES.items():
        name = f"horizon-split/seed{seed}/{edge}"
        dt = 0.002
        p = sde.SimulationParams(dt=dt, seed=seed, n_paths=n_paths, max_time=n_steps * dt,
                                 chunk_size=chunk)
        t = sde.martingale_trace(m, report, (0.0, 3.0), p, (0.5, 20.0), [0.1, n_steps * dt])
        yield f"{name}/martingale_trace", _digest(t.values, t.stderrs)
        rows = sde.attraction_stats(m, [(0.0, 0.3), (1.0, 2.0)], n_steps * dt, p,
                                    far_wall=2.5)
        yield (f"{name}/attraction_stats",
               _digest([[r.fraction_near, r.min_distance, r.max_distance] for r in rows]))
        run = sde.simulate_boundary(m, 0.5, p, burn_in=0.2, bins=16,
                                    observables={"alpha": m.alpha, "beta": m.beta})
        yield (f"{name}/simulate_boundary",
               _digest(run.histogram, *[run.averages[k] for k in ("alpha", "beta")]))


def fd_digests():
    """Direct FD solves that no config or workload makes: the polar solve with a cross
    term (d != 0), the half-cylinder solve with a cross term, forward
    and transposed (adjoint exit law), and the conditioned problem of B-asym; and the
    polar, half-cylinder and conditioned solves on data whose zeros carry signs."""
    zoo = _models()
    for dname, zdata in ZERO_DATA.items():
        for mname in ("D", "sloped"):
            m = zoo[mname]
            comp = dirichlet.default_completions(m)[0]
            op = dirichlet.DiskOperator(model=m, eps=0.2, completion=comp)
            sol = dirichlet.solve_fd(op, zdata, n_theta=32)
            yield f"fd/{dname}/solve_fd/{mname}", _digest(sol.u)
            sol = halfcyl.solve_u(m, zdata, halfcyl.HalfCylinderGrid(n_y=32, n_z=200))
            yield f"fd/{dname}/solve_u/{mname}", _digest(sol.u_grid, [sol.truncation_estimate])
        sol = halfcyl.solve_conditioned(zoo["B-asym"], zdata,
                                        halfcyl.HalfCylinderGrid(n_y=32, n_z=200))
        yield (f"fd/{dname}/solve_conditioned/B-asym",
               _digest(sol.u_grid, sol.h.u_grid, [sol.truncation_estimate]))
    data = Cosine(mean=0.5, amp=1.0, phase=0.7)
    for mname in ("D", "sloped"):
        m = zoo[mname]
        comp = dirichlet.default_completions(m)[0]
        op = dirichlet.DiskOperator(model=m, eps=0.2, completion=comp)
        yield f"fd/solve_fd/{mname}", _digest(dirichlet.solve_fd(op, data, n_theta=32).u)
    grid = halfcyl.HalfCylinderGrid(n_y=32, n_z=200)
    sol = halfcyl.solve_u(SLOPED, data, grid)
    yield "fd/solve_u/sloped", _digest(sol.u_grid, [sol.truncation_estimate])
    for mname in ("sloped", "B-asym"):
        for start in (None, RescaledPoint(0.3, 2.0)):
            law = halfcyl.exit_measure(zoo[mname], start, grid, mode="adjoint")
            yield f"fd/exit_measure/{mname}/start{start is not None:d}", _digest(law.weights)
    sol = halfcyl.solve_conditioned(zoo["B-asym"], data, grid)
    yield "fd/solve_conditioned/B-asym", _digest(sol.u_grid, sol.h.u_grid,
                                                 [sol.truncation_estimate])


def limit_digests():
    """``dirichlet.limit_value`` of every zoo model and of SLOPED on each of LIMIT_DATA."""
    grid = halfcyl.HalfCylinderGrid(n_y=32, n_z=200)
    zoo = {name: models.get_model(name) for name in models.model_names()}
    for mname, m in {**zoo, "sloped": SLOPED}.items():
        for dname, data in LIMIT_DATA.items():
            yield (f"fd/limit_value/{mname}/{dname}",
                   _digest([dirichlet.limit_value(m, data, grid)]))


def coefficient_digests():
    """Every entry point of ``GeneratorCoefficients`` in every flavor, for every model here
    and VARIED, on a grid of angles and heights that reaches the entries' signed zeros and
    NaN."""
    y, v = (a.ravel() for a in np.meshgrid(COEFF_Y, COEFF_V, indexing="ij"))
    for mname, m in {**_models(), "varied": VARIED}.items():
        for flavor, eps in FLAVORS:
            gc = assemble(m, eps, flavor)
            with np.errstate(all="ignore"):
                for entry in ("ito", "second_order", "first_order", "diffusion_vv"):
                    out = getattr(gc, entry)(y, v)
                    yield (f"coefficients/{mname}/{flavor.name}/eps{eps}/{entry}",
                           _digest(*(out if isinstance(out, tuple) else (out,))))


def inline_config_digests():
    """Each of INLINE_CONFIGS through ``config.parse_config``: its model's coefficients,
    perturbation profile, data and initial data on COEFF_Y and COEFF_V, and its model
    name and other numerics as canonical JSON."""
    y, v = (a.ravel() for a in np.meshgrid(COEFF_Y, COEFF_V, indexing="ij"))
    for cname, (experiment, model, numerics) in INLINE_CONFIGS.items():
        cfg = config.parse_config({"version": 1, "experiment": experiment, "seed": 1,
                                   "model": model, "numerics": numerics})
        m, num = cfg.model, cfg.numerics
        with np.errstate(all="ignore"):
            values = [fn(y) for fn in (m.a, m.b, m.alpha, m.beta, m.d, m.rho)]
            values.append(m.profile(y, v))
            if "data" in num:
                values.append(num["data"](y))
            if "g" in num:
                values.append(num["g"](np.zeros((3, 2))))
        yield f"config/{cname}/values", _digest(*values)
        rest = {k: val for k, val in num.items() if not callable(val)}
        # a grid block is hashed by its fields (``vars`` of the HalfCylinderGrid)
        yield (f"config/{cname}/fields", hashlib.sha256(json.dumps(
            {"name": m.name, "numerics": rest}, sort_keys=True, default=vars).encode()).hexdigest())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("seeds", nargs="*", type=int, default=[1])
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="digests-") as tmp:
        lines = (list(config_digests(tmp)) + list(fd_digests()) + list(limit_digests())
                 + list(coefficient_digests()) + list(inline_config_digests()))
        for seed in args.seeds:
            lines += workload_digests(seed, tmp)
            lines += direct_digests(seed)
            lines += split_digests(seed)
            lines += horizon_split_digests(seed)
    # first, so that a diff between two trees shows why their Monte Carlo lines moved
    print("stream_version", sde.STREAM_VERSION)
    for name, sha in lines:
        print(name, sha)
    print(json.dumps({"digests": len(lines)}), file=sys.stderr)


if __name__ == "__main__":
    main()
