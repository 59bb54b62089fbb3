"""boundarylab benchmark: run one workload from a seed and print its metrics.

    python3 perfbench/run.py --workload mc-horizon --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The benchmark measures the checkout's
own ``src/boundarylab``.  Every process it starts pins BLAS and OpenMP to
one thread.

With ``--trace 0`` it starts SETUP_RUNS fresh processes that only set up,
then one worker that sets up and runs whole passes of the workload for
``--seconds``, timing the sampling and finite-difference entry points at
their outermost calls.  It prints the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` the worker alternates untraced and traced passes; it
prints the per-layer metrics, the self-time shares, the layers the
workload never enters, and the tracing overhead.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit).  The
result and, for traced runs, the spans of the last traced pass are also
written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")          # also the worker's; see worker.OUT
SETUP_RUNS = 2            # set-up-only processes; the worker's own set-up makes three
DEADLINE_S = 170.0        # every run ends well inside three minutes
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args, extra, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)], cwd=ROOT, env=_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:   # run() has killed and reaped the child
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(result, setups):
    """Medians over the passes, times in reference seconds (see worker.SpeedProbe)."""
    passes, slow = result["passes"], result["slowness"]
    rates = [p["path_steps"] / p["sample_s"] for p in passes if p["sample_s"] > 0]
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "wall_s": _metric(statistics.median(p["wall_s"] for p in passes) / slow, "s"),
        "path_steps_per_s": _metric(statistics.median(rates) * slow if rates else 0.0,
                                    "path-steps/s"),
        "solve_s": _metric(statistics.median(p["solve_s"] for p in passes) / slow, "s"),
        "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
    }


def _scaled(value, unit, slow):
    if unit == "s":
        return value / slow
    if unit.endswith("/s"):
        return value * slow
    return value


def per_layer(result, units):
    """Means over the traced passes; a layer never entered reads 0 and is listed absent."""
    slow = result["slowness"]
    traced = [p for p in result["passes"] if p["traced"]]
    untraced = [p for p in result["passes"][1:] if not p["traced"]]   # first warms up
    wall = statistics.fmean(p["wall_s"] for p in traced) / slow
    plain = statistics.fmean(p["wall_s"] for p in untraced) / slow
    metrics, absent = {}, []
    for name in traced[0]["layers"]:
        vals = [p["layers"][name] for p in traced]
        if any(math.isnan(v) for v in vals):
            absent.append(name)
            metrics[name] = _metric(0.0, units[name])
        else:
            metrics[name] = _metric(_scaled(statistics.fmean(vals), units[name], slow),
                                    units[name])
    metrics["config.parse_s"] = _metric(result["parse_s"] / result["setup_slowness"], "s")
    metrics["trace.wall_s"] = _metric(wall, "s")
    metrics["trace.untraced_wall_s"] = _metric(plain, "s")
    metrics["trace.overhead_s"] = _metric(wall - plain, "s")
    return metrics, absent, wall, plain


def main(argv=None):
    ap = argparse.ArgumentParser(description="Run one boundarylab benchmark workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "boundarylab", "__init__.py")):
        print(f"perfbench: no src/boundarylab under {ROOT}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        setup_runs = []
        if not args.trace:
            setup_runs = [_spawn(args, ["--setup-only"], deadline) for _ in range(SETUP_RUNS)]
        result = _spawn(args, [], deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setup_runs.append(result)
    setups = [p["setup_s"] / p["setup_slowness"] for p in setup_runs]

    passes = result["passes"]
    attempted = result["ops_per_pass"] * len(passes)
    failed = sum(p["failed"] for p in passes)
    problems = [q for p in passes for q in p["problems"]]
    raised = [q for p in passes for q in p["raised"]]
    # a wrong answer makes the run incorrect; an operation that raised is only failed
    correct = not problems
    for q in problems[:10] + raised[:10]:
        print(f"failed: {q}")
    print("as measured: " + ", ".join(
        f"{k} {statistics.median(p[k] for p in passes):.4f} s"
        for k in ("wall_s", "solve_s", "sample_s"))
        + f"; set-up {statistics.median(p['setup_s'] for p in setup_runs):.4f} s"
        + f"; slowness {result['slowness']:.3f} over {len(passes)} passes")
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics, absent, wall, plain = per_layer(result, units)
        shares = {n: metrics[n]["value"] / wall for n in result["self_time"]}
        print("self-time shares: " + ", ".join(
            f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1]) if v))
        print(f"absent (layer never entered): {', '.join(absent) or 'none'}")
        if result["missing"]:
            print(f"missing names (metrics absent): {', '.join(result['missing'])}")
        print(f"tracing overhead: traced wall {wall:.4f} s - untraced wall {plain:.4f} s = "
              f"{wall - plain:.4f} s ({(wall - plain) / plain:.1%})")
        with open(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"), "w",
                  encoding="utf-8") as fh:
            last = [p for p in passes if p["traced"]][-1]
            json.dump({"spans": last["spans"], "absent": absent,
                       "metrics": metrics}, fh, indent=1)
        metrics = {m["name"]: metrics[m["name"]] for m in spec["per_layer"]}
    else:
        metrics = end_to_end(result, setups)
        metrics = {m["name"]: metrics[m["name"]] for m in spec["end_to_end"]}
    line = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
                                ".json"), "w", encoding="utf-8") as fh:
        json.dump(line, fh, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
