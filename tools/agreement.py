"""Check that two trees' Monte Carlo samplers agree in law: the second proof of a change.

A change that keeps every bit is checked by ``tools/digests.py``.  A change
that moves Monte Carlo bits on purpose (a new ``sde.STREAM_VERSION``) is
checked here instead: both trees run the same fixed list of sampler runs
(the direct runs of ``tools/digests.py``, with many more paths and several
noise blocks), each on its own seed, and every reported quantity is
compared:

* a mean with its standard error (an ergodic average, a martingale
  checkpoint, a near fraction, a mean exit time, a time-scale estimate) by
  the two-sample z = (a - b) / sqrt(se_a^2 + se_b^2);
* an exit law (exit angle in 16 fixed bins, the annulus' two circles
  apart, plus one cell for censored paths) by the two-sample chi-square
  test of the 2 x K table, with K - 1 degrees of freedom.  Cells that the
  two trees together fill with fewer than ``MIN_CELL`` paths are pooled
  into one, so that every expected count is large enough for the
  chi-square law.  The occupation histogram of ``simulate_boundary`` is
  correlated in time, so no multinomial test applies to it; its shape is
  compared through the ergodic averages of cos ky and sin ky (k = 1, 2),
  each a mean over independent paths.

The number of comparisons, ``COMPARISONS``, and the family-wise false-alarm
rate, ``ALPHA`` = 0.01, are fixed before any run, and each comparison fails
below the Bonferroni level ALPHA / COMPARISONS.  Each line
prints the comparison's power: the smallest shift it detects with
probability 0.8 at that level.  For a mean that is the shift itself; for an
exit law it is Cohen's w = sqrt(sum (p_a - p_b)^2 / p), where moving a mass
d from one cell of probability p to another gives w = d * sqrt(2 / p).

    python tools/agreement.py ../parent .                 # parent tree against this one
    python tools/agreement.py . . --seeds 11 12           # two seeds of one tree

Each tree runs in its own interpreter, importing the ``src/`` it holds, so
the other tree needs no copy of this script.  The exit status is 0 when
every comparison passes, 1 otherwise; the failing comparisons are named.
Both trees together take about a minute on two CPUs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import zlib

POWER = 0.8
PATHS = 16384
BINS = 16
MIN_CELL = 20       # exit-law cells whose two trees hold fewer paths together are pooled
# the runs below make exactly this many comparisons, whatever the trees give
COMPARISONS = 61
ALPHA = 0.01        # family-wise false-alarm rate


# --------------------------------------------------------------- collection
def _runs():
    """(name, run) for every sampler run; run(seed) returns the run's comparisons as
    {name: ("z", mean, se)} or {name: ("chi2", counts)}."""
    import numpy as np

    from boundarylab import dirichlet, models, parabolic, sde
    from boundarylab.classifier import classify
    from boundarylab.fields import Flavor, assemble
    from boundarylab.geometry import DomainKind, DomainModel

    zoo = {name: models.get_model(name) for name in models.model_names()}
    domains = {"disk": DomainModel(),
               "annulus": DomainModel(kind=DomainKind.ANNULUS, inner_radius=0.3,
                                      chart_radius=0.3)}

    def params(seed, **kw):
        return sde.SimulationParams(**{"seed": seed, "n_paths": PATHS, **kw})

    def z(values):
        values = np.asarray(values, dtype=float)
        return ("z", float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size)))

    def law(angle, exited, inner=None):
        """Paths per exit-angle bin (the outer circle's bins first), then censored ones."""
        circles = 1 if inner is None else 2
        cell = np.full(exited.size, circles * BINS)
        k = np.minimum((angle[exited] / (2 * math.pi) * BINS).astype(int), BINS - 1)
        cell[exited] = k if inner is None else k + BINS * inner[exited]
        return ("chi2", np.bincount(cell, minlength=circles * BINS + 1).tolist())

    def martingale(mname):
        def run(seed):
            m = zoo[mname]
            tr = sde.martingale_trace(m, classify(m, grid_size=256), (0.3, 2.0),
                                      params(seed, dt=0.002, max_time=1.0), (0.5, 8.0),
                                      [0.25, 0.5, 1.0])
            return {f"t{t:g}": ("z", float(v), float(s))
                    for t, v, s in zip(tr.times, tr.values, tr.stderrs)}
        return run

    def attraction(mname):
        def run(seed):
            rows = sde.attraction_stats(zoo[mname], [(0.3, 0.5), (2.0, 0.1)], 1.0,
                                        params(seed, dt=0.002, max_time=1.0),
                                        near_threshold=0.2, far_wall=3.0)
            return {f"near{j}": ("z", r.fraction_near, r.stderr) for j, r in enumerate(rows)}
        return run

    def boundary(mname):
        def run(seed):
            m = zoo[mname]
            obs = {"cos1": np.cos, "sin1": np.sin, "cos2": lambda y: np.cos(2 * y),
                   "sin2": lambda y: np.sin(2 * y)}
            out = sde.simulate_boundary(m, 1.0, params(seed, dt=0.005, max_time=2.0),
                                        burn_in=0.2, bins=BINS, observables=obs)
            return {k: ("z", *out.averages[k]) for k in obs}
        return run

    def simulate(mname, bridge):
        def run(seed):
            gc = assemble(zoo[mname], None, Flavor.LIMIT)
            b = sde.simulate(gc, (0.3, 0.4), params(seed, dt=0.002, max_time=1.0, wall=3.0,
                                                    bridge_absorption=bridge))
            return {"law": law(b.exit_y, b.exited_mask), "time": z(b.exit_time)}
        return run

    def sample_exit(mname, dname, bridge):
        def run(seed):
            m = zoo[mname]
            op = dirichlet.DiskOperator(model=m, eps=0.3, dom=domains[dname],
                                        completion=dirichlet.default_completions(m)[0])
            b = dirichlet.sample_exit(op, (0.55, 0.25),
                                      params(seed, dt=0.002, max_time=1.0,
                                             bridge_absorption=bridge))
            inner = b.exit_inner.astype(int) if dname == "annulus" else None
            return {"law": law(b.exit_theta, b.exited_mask, inner), "time": z(b.exit_time)}
        return run

    def timescale(seed):
        rules = [parabolic.TimescaleRule("const", "const", 0.3),
                 parabolic.TimescaleRule("log", "log", 0.5)]
        spec = parabolic.StoppedProcessSpec(model=zoo["D"],
                                            g=lambda x: x[:, 0] + 0.5 * x[:, 1] ** 2,
                                            psi_d=np.cos)
        sweep = parabolic.timescale_sweep(spec, [0.3, 0.1, 0.05], rules, (0.55, 0.25),
                                          params(seed, dt=0.005, max_time=2.0),
                                          boundary_ref=0.0)
        return {f"eps{r.eps:g}/{r.rule}": ("z", r.estimate, r.stderr) for r in sweep.rows}

    runs = []
    for mname in ("A", "D", "tilted"):
        runs += [(f"martingale_trace/{mname}", martingale(mname)),
                 (f"attraction_stats/{mname}", attraction(mname)),
                 (f"simulate_boundary/{mname}", boundary(mname))]
        for bridge in (True, False):
            runs.append((f"simulate/{mname}/bridge{int(bridge)}", simulate(mname, bridge)))
    for mname in ("D", "tilted"):
        for dname in domains:
            for bridge in (True, False):
                runs.append((f"sample_exit/{mname}/{dname}/bridge{int(bridge)}",
                             sample_exit(mname, dname, bridge)))
    runs.append(("timescale_sweep/D", timescale))
    return runs


def collect(seed: int) -> dict:
    """Every comparison's data from the tree on ``sys.path``, each run on its own seed."""
    out = {}
    for name, run in _runs():
        for key, value in run(zlib.crc32(f"{seed}:{name}".encode())).items():
            out[f"{name}/{key}"] = value
    return out


def _collect_in(tree: str, seed: int) -> dict:
    """``collect(seed)`` in a fresh interpreter that imports ``tree``'s package."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.join(os.path.abspath(tree), "src"), os.path.dirname(os.path.abspath(__file__))]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    code = f"import json, sys; from agreement import collect; json.dump(collect({seed}), sys.stdout)"
    done = subprocess.run([sys.executable, "-c", code],
                          env=env, check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(done.stdout)


# --------------------------------------------------------------- comparison
def _z_test(a, b, level):
    from scipy import stats

    se = math.hypot(a[2], b[2])
    diff = a[1] - b[1]
    if se == 0.0:
        p = 1.0 if diff == 0.0 else 0.0
    else:
        p = float(2.0 * stats.norm.sf(abs(diff) / se))
    detectable = (stats.norm.isf(level / 2.0) + stats.norm.ppf(POWER)) * se
    return f"z {diff / se if se else 0.0:+.2f}", p, f"|shift| >= {detectable:.3g}"


def _chi2_test(a, b, level):
    import numpy as np
    from scipy import optimize, stats

    table = np.array([a[1], b[1]], dtype=float)
    sparse = table.sum(axis=0) < MIN_CELL
    table = np.column_stack([table[:, ~sparse], table[:, sparse].sum(axis=1)])
    table = table[:, table.sum(axis=0) > 0]
    df = table.shape[1] - 1
    n_a, n_b = table.sum(axis=1)
    if df == 0:
        return "chi2 0.0 (df 0)", 1.0, "no cells to compare"
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
    stat = float(((table - expected) ** 2 / expected).sum())
    p = float(stats.chi2.sf(stat, df))
    crit = stats.chi2.isf(level, df)
    lam = optimize.brentq(lambda nc: stats.ncx2.sf(crit, df, nc) - POWER, 1e-9, 1e6)
    w = math.sqrt(lam * (n_a + n_b) / (n_a * n_b))
    return f"chi2 {stat:.1f} (df {df})", p, f"w >= {w:.3g}"


def compare(a: dict, b: dict) -> list:
    """One (name, statistic, p, detectable shift, passed) row per comparison."""
    if sorted(a) != sorted(b) or len(a) != COMPARISONS:
        raise SystemExit(f"expected the same {COMPARISONS} comparisons from both trees, "
                         f"got {len(a)} and {len(b)}")
    level = ALPHA / COMPARISONS
    rows = []
    for name in sorted(a):
        test = _z_test if a[name][0] == "z" else _chi2_test
        stat, p, detectable = test(a[name], b[name], level)
        rows.append((name, stat, p, detectable, p >= level))
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", nargs=2, help="the two trees to compare")
    ap.add_argument("--seeds", nargs=2, type=int, default=[1, 2],
                    help="the first tree's seed and the second's; they must differ")
    args = ap.parse_args(argv)
    if args.seeds[0] == args.seeds[1]:
        ap.error("the two trees need independent seeds")
    a, b = (_collect_in(t, s) for t, s in zip(args.trees, args.seeds))
    rows = compare(a, b)
    width = max(len(r[0]) for r in rows)
    for name, stat, p, detectable, passed in rows:
        print(f"{name:<{width}}  {stat:<20}  p {p:.2e}  {detectable:<18}  "
              f"{'ok' if passed else 'FAIL'}")
    failed = [r[0] for r in rows if not r[4]]
    print(f"{COMPARISONS} comparisons, family-wise rate {ALPHA:g}, Bonferroni level "
          f"{ALPHA / COMPARISONS:.3g}: "
          + ("PASS" if not failed else "FAIL: " + ", ".join(failed)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
