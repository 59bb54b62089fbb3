"""Print, per module of ``src/boundarylab``, the executable lines that the traffic never enters.

The traffic is what the lab runs in use: every bundled ``configs/*.json``
through ``boundarylab validate`` and ``boundarylab run``, ``boundarylab
list-models``, and one pass of each benchmark workload
(``perfbench/workloads.py``).  A line is executable when a code object
compiled from its module maps bytecode to it; a line is entered when
``sys.settrace`` sees it run in this process.  The samplers' forked
worker processes are not traced, so their lines count only when this
process steps the same code: run the script on one CPU, where no sampler
forks,

    taskset -c 0 python tools/reach.py

The script imports the tree it sits in (``src/`` and ``perfbench/`` next
to ``tools/``) and writes only into a temporary directory.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import os
import sys
import tempfile
import time
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "boundarylab")
CONFIGS = os.path.join(ROOT, "configs")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]


def executable_lines(path: str) -> set:
    """The lines of the module at path that some code object compiled from it maps to."""
    def walk(code):
        for _, _, line in code.co_lines():
            if line:
                yield line
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                yield from walk(const)

    with open(path, encoding="utf-8") as fh:
        return set(walk(compile(fh.read(), path, "exec")))


def entered_lines(run) -> dict:
    """{file: lines} of ``src/boundarylab`` that run() enters in this process."""
    entered = collections.defaultdict(set)
    prefix = SRC + os.sep

    def lines(frame, event, arg):
        if event == "line":
            entered[frame.f_code.co_filename].add(frame.f_lineno)
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(calls)
    try:
        run()
    finally:
        sys.settrace(None)
    return entered


def traffic(out_root: str):
    """The bundled configs through validate and run, list-models, and one pass of each
    benchmark workload at seed 1; imports happen here, so module-level lines are traced
    too."""
    from boundarylab import cli

    import workloads

    with contextlib.redirect_stdout(io.StringIO()):
        for name in sorted(os.listdir(CONFIGS)):
            path = os.path.join(CONFIGS, name)
            for argv in (["validate", path], ["run", path, "--output-root", out_root]):
                if cli.main(argv) != 0:
                    raise SystemExit(f"boundarylab {' '.join(argv)} failed")
        cli.main(["list-models"])
    for wname, build in workloads.WORKLOADS.items():
        for op in build(1, os.path.join(out_root, wname)):
            op.run({})


def _ranges(lines) -> str:
    """Sorted line numbers with each run of consecutive ones written a-b."""
    runs = []
    for line in sorted(lines):
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in runs)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.parse_args(argv)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if cpus > 1:
        print(f"{cpus} CPUs usable: lines that only forked workers run count as unreached; "
              "run under taskset -c 0", file=sys.stderr)
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        entered = entered_lines(lambda: traffic(tmp))
    seconds = time.perf_counter() - start
    total = missed = 0
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        lines = executable_lines(path)
        unreached = lines - entered.get(path, set())
        total += len(lines)
        missed += len(unreached)
        print(f"{name}: {len(unreached)} of {len(lines)} unreached"
              + (f": {_ranges(unreached)}" if unreached else ""))
    print(f"total: {missed} of {total} executable lines unreached ({seconds:.1f} s traced)")


if __name__ == "__main__":
    main()
