"""Print one ``name sha256`` line per reproducible output of this tree.

Two trees that print the same lines give the same bits: the artifacts of
the bundled configs, the operation digests of the benchmark workloads,
direct runs of every sampler and of the time-scale sweep (small ones, and
ones with enough paths to be split over worker processes), and direct FD
solves (cross terms, the annulus, transposed solves and the conditioned
problem).  A refactor that must keep behaviour is checked with one ``diff``:

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
from boundarylab.fields import ChartModel, Flavor, PerturbationSpec, assemble  # noqa: E402
from boundarylab.geometry import DomainKind, DomainModel, RescaledPoint  # noqa: E402

# d != 0 and a sloped perturbation with rho != 1: terms the zoo leaves at zero
SLOPED = ChartModel(a=Const(1.5), b=Const(-0.25), alpha=Const(0.75), beta=Const(0.5),
                    d=Const(0.3), rho=Const(1.25),
                    tilde=PerturbationSpec(Const(1.25), z_slope=2.0), name="sloped")
# a phased Cosine and a two-term Fourier series whose zero and unit coefficients and k = 1
# term the evaluation skips
PHASED = ChartModel(a=Const(1.0), b=Fourier(0.1, ((1, 0.0, 0.5), (2, 1.0, 0.0))),
                    alpha=Cosine(1.0, 0.5, phase=0.7), beta=Const(0.5), name="phased")
# a = Const(1.0) with b, beta and d Const(-0.0): multiplies by a are skipped, but a -0.0
# keeps the terms it multiplies, which a +0.0 would not
SIGNED_ZERO = ChartModel(a=Const(1.0), b=Const(-0.0), alpha=Const(0.75), beta=Const(-0.0),
                         d=Const(-0.0), name="signed-zero")
DOMAINS = {"disk": DomainModel(),
           "annulus": DomainModel(kind=DomainKind.ANNULUS, inner_radius=0.3,
                                  chart_radius=0.3)}
CHUNKS = (8192, 7)
# enough paths, and starts deep enough inside, that rows on 512 or more streams are still
# live after the first noise block in every chunk: the runs are split over worker processes
# wherever two or more CPUs are usable
SPLIT_PATHS = 2000
SPLIT_CHUNKS = (8192, 1000)
SPLIT_START = {"disk": (0.0, 0.0), "annulus": (0.65, 0.0)}


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
    """Direct runs of every sampler and of the time-scale sweep: both domains, bridge on and
    off, two chunk sizes."""
    zoo = _models()
    for chunk in CHUNKS:
        def params(**kw):
            return sde.SimulationParams(**{"seed": seed, "chunk_size": chunk, **kw})

        for mname, m in zoo.items():
            comp = dirichlet.default_completions(m)[0]
            for dname, dom in DOMAINS.items():
                for eps in (0.05, 0.3):
                    op = dirichlet.DiskOperator(model=m, eps=eps, completion=comp, dom=dom)
                    for bridge in (True, False):
                        p = params(dt=0.005, n_paths=40, max_time=1.0,
                                   bridge_absorption=bridge)
                        b = dirichlet.sample_exit(op, (0.55, 0.25), p,
                                                  checkpoint_times=[0.05, 0.5])
                        yield (f"direct/seed{seed}/chunk{chunk}/sample_exit/{mname}/{dname}/"
                               f"eps{eps}/bridge{int(bridge)}",
                               _digest(b.exit_theta, b.exit_time, b.exited_mask,
                                       b.exit_inner, b.positions))
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
            for dname, dom in DOMAINS.items():
                spec = parabolic.StoppedProcessSpec(
                    model=zoo[mname], g=lambda x: x[:, 0] + 0.5 * x[:, 1] ** 2,
                    psi_d=np.cos, dom=dom)
                sweep = parabolic.timescale_sweep(spec, [0.3, 0.1, 0.05], rules, (0.55, 0.25),
                                                  params(dt=0.005, n_paths=40, max_time=2.0),
                                                  boundary_ref=0.0)
                yield (f"direct/seed{seed}/chunk{chunk}/timescale_sweep/{mname}/{dname}",
                       _digest([[r.rule_time, r.estimate, r.stderr] for r in sweep.rows]))


def split_digests(seed):
    """Direct runs of every sampler with enough paths still live after the first noise
    block that a machine with two or more CPUs splits them over worker processes: all of
    them in one chunk, and the fixed-horizon ones and the disk's exit runs also chunk by
    chunk at 1000 paths a chunk."""
    zoo = _models()
    for chunk in SPLIT_CHUNKS:
        def params(**kw):
            return sde.SimulationParams(**{"seed": seed, "chunk_size": chunk,
                                           "n_paths": SPLIT_PATHS, **kw})

        name = f"split/seed{seed}/chunk{chunk}"
        for dname, dom in DOMAINS.items():
            ops = [dirichlet.DiskOperator(model=zoo["D"], eps=eps, dom=dom,
                                          completion=dirichlet.default_completions(zoo["D"])[0])
                   for eps in (0.3, 0.1)]
            p = params(dt=0.002, max_time=0.8)
            b = dirichlet.sample_exit(ops[1], SPLIT_START[dname], p, checkpoint_times=[0.1, 0.5])
            yield (f"{name}/sample_exit/{dname}",
                   _digest(b.exit_theta, b.exit_time, b.exited_mask, b.exit_inner, b.positions))
            b = dirichlet.sample_exit(ops, SPLIT_START[dname], p,
                                      checkpoint_times=[[0.2], [0.6, 0.7]])
            yield (f"{name}/sample_exit-stacked/{dname}",
                   _digest(b.exit_theta, b.exit_time, b.exited_mask, b.exit_inner, b.positions))
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


def fd_digests():
    """Direct FD solves that no config or workload makes: the polar solve with a cross
    term (d != 0) and on the annulus, the half-cylinder solve with a cross term, forward
    and transposed (adjoint exit law), and the conditioned problem of B-asym."""
    zoo = _models()
    data = Cosine(mean=0.5, amp=1.0, phase=0.7)
    for mname in ("D", "sloped"):
        m = zoo[mname]
        comp = dirichlet.default_completions(m)[0]
        for dname, dom in DOMAINS.items():
            op = dirichlet.DiskOperator(model=m, eps=0.2, completion=comp, dom=dom)
            sol = dirichlet.solve_fd(op, data, n_theta=32,
                                     psi_inner=None if dname == "disk" else 0.25)
            yield f"fd/solve_fd/{mname}/{dname}", _digest(sol.u)
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


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("seeds", nargs="*", type=int, default=[1])
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="digests-") as tmp:
        lines = list(config_digests(tmp)) + list(fd_digests())
        for seed in args.seeds:
            lines += workload_digests(seed, tmp)
            lines += direct_digests(seed)
            lines += split_digests(seed)
    for name, sha in lines:
        print(name, sha)
    print(json.dumps({"digests": len(lines)}), file=sys.stderr)


if __name__ == "__main__":
    main()
