"""One benchmark process: set up a workload, then run whole passes of it.

Started by run.py, never by hand.  Set-up is everything from process start
to the first operation: importing boundarylab (with numpy and scipy) and
parsing the workload's configs.  ``--setup-only`` stops there.  Otherwise
the worker runs whole passes until ``--seconds`` have gone (at least two;
a traced run alternates untraced and traced passes, at least five) and
prints one JSON line with its figures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# The machine's speed drifts by up to 1.6x over seconds to minutes (other
# tenants), so every time is divided by a slowness factor measured in the same
# process: the geometric mean of two fixed kernels' median times over their
# reference times, one a pure-Python loop (interpreter-bound like the
# samplers) and one a SuperLU factorisation (like the solves).  Times are
# reported in reference seconds: seconds on a machine where the kernels take
# PYTHON_REF_S and LU_REF_S.
PYTHON_REF_S = 0.005
LU_REF_S = 0.009
LU_SIDE = 48              # the factorised matrix is the 5-point Laplacian on LU_SIDE^2 nodes
OUT = os.path.join(HERE, "out")


class SpeedProbe:
    """Times the two fixed kernels; ``sample`` runs between operations."""

    def __init__(self):
        import scipy.sparse as sp
        from scipy.sparse.linalg import splu

        n = LU_SIDE
        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        self._matrix = (sp.kron(sp.eye(n), lap) + sp.kron(lap, sp.eye(n))).tocsc()
        self._splu = splu        # bound now, so a traced pass never sees these factorisations
        self.python_s = []
        self.lu_s = []

    def sample(self):
        t0 = time.perf_counter()
        s = 0
        for i in range(100_000):
            s += i
        t1 = time.perf_counter()
        self._splu(self._matrix)
        t2 = time.perf_counter()
        self.python_s.append(t1 - t0)
        self.lu_s.append(t2 - t1)

    def slowness(self) -> float:
        return math.sqrt(statistics.median(self.python_s) / PYTHON_REF_S
                         * statistics.median(self.lu_s) / LU_REF_S)


def _import_package():
    """Import the checkout's own boundarylab, never an installed copy."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    try:
        import boundarylab
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import boundarylab from {SRC}: {exc}")
    if not os.path.abspath(boundarylab.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: boundarylab came from {boundarylab.__file__}, not {SRC}")


def run_pass(ops, inst, first_digests, probe):
    """One pass through the workload's operations; checks run outside the timing.

    The speed probe samples before every operation.
    """
    import checks
    from instrument import layer_metrics

    inst.reset()
    ctx = {}
    times = {"wall_s": 0.0, "solve_s": 0.0, "sample_s": 0.0}
    failed = 0
    problems = []
    raised = []
    for op in ops:
        probe.sample()
        start = (inst.fd_s, inst.mc_s)
        calls = len(inst.censored_shares)
        span = inst.op(op.name)
        outcome = None
        try:
            with span:
                outcome = op.run(ctx)
        except Exception as exc:  # a failed operation is counted, the pass goes on
            failed += 1
            raised.append(f"{op.name}: {type(exc).__name__}: {exc}")
        times["wall_s"] += span.duration
        times["solve_s"] += inst.fd_s - start[0]
        times["sample_s"] += inst.mc_s - start[1]
        if outcome is None:
            continue
        digest, data = outcome
        ctx["censored_shares"] = inst.censored_shares[calls:]
        try:
            found = op.check(data, ctx)
        except Exception as exc:
            found = [f"check raised {type(exc).__name__}: {exc}"]
        found += checks.same_digest(op.name, first_digests.setdefault(op.name, digest),
                                    digest)
        if found:
            failed += 1
            problems += [f"{op.name}: {p}" for p in found]
        else:
            ctx[op.name] = data
    out = dict(times, path_steps=inst.path_steps, failed=failed, problems=problems,
               raised=raised, traced=inst.trace)
    if inst.trace:
        out["layers"] = layer_metrics(inst)
        out["spans"] = [list(s) for s in inst.spans]
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    _import_package()
    from boundarylab import config
    import instrument
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")
    work_dir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    parse_s = 0.0
    original_parse = config.parse_config

    def timed_parse(obj):
        nonlocal parse_s
        t0 = time.perf_counter()
        try:
            return original_parse(obj)
        finally:
            parse_s += time.perf_counter() - t0

    config.parse_config = timed_parse
    try:
        ops = workloads.WORKLOADS[args.workload](args.seed, work_dir)
    finally:
        config.parse_config = original_parse
    setup_s = time.monotonic() - args.spawned_at
    setup_probe = SpeedProbe()
    for _ in range(3):
        setup_probe.sample()
    setup_slowness = setup_probe.slowness()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_slowness": setup_slowness}))
        return 0

    entry = instrument.Instrument(trace=False)
    traced = instrument.Instrument(trace=True)
    first_digests = {}
    passes = []
    probe = SpeedProbe()
    t_begin = time.perf_counter()
    try:
        while True:
            inst = traced if args.trace and len(passes) % 2 else entry
            inst.install()
            try:
                passes.append(run_pass(ops, inst, first_digests, probe))
            finally:
                inst.uninstall()
            # a traced run goes untraced, traced, untraced, ... and ends untraced, so
            # leaving out the first (warm-up) pass leaves as many untraced as traced
            if args.trace:
                enough = len(passes) >= 5 and len(passes) % 2
            else:
                enough = len(passes) >= 2
            if enough and time.perf_counter() - t_begin >= args.seconds:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    result = {
        "setup_s": setup_s,
        "setup_slowness": setup_slowness,
        "slowness": probe.slowness(),
        "parse_s": parse_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_per_pass": len(ops),
        "missing": traced.missing if args.trace else entry.missing,
        "self_time": sorted(instrument.SELF_TIME.values()),
        "passes": passes,
    }
    print(json.dumps(result, allow_nan=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
