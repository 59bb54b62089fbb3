"""The benchmark's workloads: configs built from templates and a seed.

An operation is one experiment config run through
``runner.run_experiment`` (the path ``boundarylab run`` takes) or, where
no experiment kind reaches the code, one public library call.  The seed
keys every Monte Carlo stream and, for the rotation-invariant model A,
the start angle; grid and path sizes are fixed, so every seed costs the
same work.  The absorbing samplers stop at a max_time that a few paths
outlive, so their step loops run the same length on every seed.

A check gets the operation's output and ``ctx``: the outputs of the
operations that passed earlier in the pass, and ``censored_shares``, the
share of paths censored at max_time in each absorbing sampler call the
operation made, in call order.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np

from boundarylab import config, halfcyl, models, runner, sde
from boundarylab.geometry import RescaledPoint

import checks

COS = {"kind": "cosine", "mean": 0.0, "amp": 1.0, "phase": 0.0}
D_GRID = {"n_y": 32, "n_z": 640, "height": 1e13, "stretching": "geometric", "dz0": 0.02}


@dataclass
class Op:
    """One operation: ``run(ctx)`` returns (digest, data), ``check(data, ctx)`` problems."""

    name: str
    run: object
    check: object


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _array_digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _config_op(name, experiment, seed, model, numerics, check, out_root):
    """An operation running one config; its config is parsed here, in set-up."""
    cfg = config.parse_config({"version": 1, "experiment": experiment, "seed": seed,
                               "output_dir": name, "model": {"name": model},
                               "numerics": numerics})

    def run(ctx):
        manifest, out_dir = runner.run_experiment(cfg, out_root)
        return tuple((e["path"], e["sha256"]) for e in manifest.artifacts), out_dir

    return Op(name, run, lambda out_dir, ctx: check(cfg, out_dir, ctx))


# ----------------------------------------------------------------- mc-horizon
def _check_attraction(cfg, out_dir, ctx):
    num = cfg.numerics
    row = _read_csv(os.path.join(out_dir, "attraction.csv"))[0]
    return checks.attraction(float(row["fraction_near"]), num["mc"]["n_paths"],
                             num["starts"][0][1], num["far_wall"], num["mc"]["dt"],
                             num["horizon"], num["near"])


def _check_martingale(cfg, out_dir, ctx):
    rows = _read_csv(os.path.join(out_dir, "martingale.csv"))
    start = _read_json(os.path.join(out_dir, "summary.json"))["start_value"]
    return checks.martingale([float(r["mean"]) for r in rows],
                             [float(r["stderr"]) for r in rows], start)


def _check_polar_a(cfg, out_dir, ctx):
    ubar = _read_json(os.path.join(out_dir, "summary.json"))["ubar"]
    rows = _read_csv(os.path.join(out_dir, "convergence.csv"))
    centre = [float(r["value"]) for r in rows if r["method"] == "fd"
              and float(r["probe_x1"]) == 0.0 and float(r["probe_x2"]) == 0.0]
    return checks.rotation_symmetric(ubar, centre)


def mc_horizon(seed: int, out_root: str) -> list:
    rng = random.Random(f"mc-horizon:{seed}")
    y_attr, y_mart = rng.uniform(0.0, 2 * math.pi), rng.uniform(0.0, 2 * math.pi)
    ops = [
        _config_op("attraction-A", "attraction", rng.randrange(2**31), "A", {
            "starts": [[y_attr, 0.5]], "horizon": 20.0, "near": 0.01, "far_wall": 2.0,
            "mc": {"dt": 0.005, "n_paths": 512, "max_time": 20.0}},
            _check_attraction, out_root),
        _config_op("martingale-A", "martingale", rng.randrange(2**31), "A", {
            "start": [y_mart, 5.0], "band": [1.0, 25.0],
            "checkpoints": [round(0.1 * k, 10) for k in range(1, 11)],
            "mc": {"dt": 0.001, "n_paths": 2048, "max_time": 1.0}},
            _check_martingale, out_root),
    ]

    tilted = models.get_model("tilted")
    params = sde.SimulationParams(dt=0.005, seed=rng.randrange(2**31), n_paths=512,
                                  max_time=10.0)
    observables = {"alpha": tilted.alpha, "beta": tilted.beta}

    def run_boundary(ctx):
        res = sde.simulate_boundary(tilted, math.pi, params, burn_in=2.0, bins=64,
                                    observables=observables)
        avg = res.averages
        return _array_digest(res.histogram, avg["alpha"], avg["beta"]), res

    def check_boundary(res, ctx):
        (a, a_se), (b, b_se) = res.averages["alpha"], res.averages["beta"]
        return checks.tilted_ergodic(a, a_se, b, b_se)

    ops.append(Op("boundary-tilted", run_boundary, check_boundary))
    ops.append(_config_op("polar-A", "dirichlet-convergence", rng.randrange(2**31), "A", {
        "eps_list": [0.2, 0.1], "probes": [[0.0, 0.0], [0.2, 0.0]], "data": COS,
        "n_theta": 64}, _check_polar_a, out_root))
    return ops


# ------------------------------------------------------------------ mc-absorb
def _check_timescale(cfg, out_dir, ctx):
    rows = [(float(r["eps"]), r["rule"], float(r["t"]), float(r["estimate"]))
            for r in _read_csv(os.path.join(out_dir, "timescale.csv"))]
    ref = _read_json(os.path.join(out_dir, "summary.json"))["boundary_ref"]
    return checks.timescale(rows, ref, "sublog", "suplog")


def _check_mc_fd(cfg, out_dir, ctx):
    rows = _read_csv(os.path.join(out_dir, "convergence.csv"))
    fd = {(r["eps"], r["probe_x1"], r["probe_x2"]): float(r["value"])
          for r in rows if r["method"] == "fd"}
    mc = [r for r in rows if r["method"] == "mc"]
    shares = ctx["censored_shares"]      # one sample_exit call per MC row, in row order
    if len(shares) != len(mc):
        return [f"{len(mc)} MC rows but {len(shares)} sampler calls"]
    pairs = [(float(r["eps"]), (float(r["probe_x1"]), float(r["probe_x2"])),
              fd.get((r["eps"], r["probe_x1"], r["probe_x2"]), math.nan),
              float(r["value"]), float(r["mc_stderr"]), c)
             for r, c in zip(mc, shares)]
    return checks.mc_matches_fd(pairs)


def mc_absorb(seed: int, out_root: str) -> list:
    rng = random.Random(f"mc-absorb:{seed}")
    return [
        # the sweep's max_time is the longest rule time, 2 |ln 0.1|; ~3% of paths outlive it
        _config_op("timescale-D", "timescale", rng.randrange(2**31), "D", {
            "eps_list": [0.2, 0.1],
            "rules": [{"name": "sublog", "kind": "const", "c": 0.5},
                      {"name": "suplog", "kind": "log", "c": 2.0}],
            "start": [0.0, 0.0], "data": {"kind": "const", "c": 1.0},
            "g": {"kind": "const", "c": 0.0},
            "mc": {"dt": 0.005, "n_paths": 512, "max_time": 15.0}},
            _check_timescale, out_root),
        # u is about 0.25 at (0.3, 0), so an MC value of 0 or of the wrong sign fails
        _config_op("convergence-mc-D", "dirichlet-convergence", rng.randrange(2**31), "D", {
            "eps_list": [0.2, 0.1], "probes": [[0.3, 0.0]], "data": COS,
            "n_theta": 32, "mc": {"dt": 0.005, "n_paths": 1024, "max_time": 4.5}},
            _check_mc_fd, out_root),
    ]


# ------------------------------------------------------------------- fd-solve
def _check_halfcyl(cfg, out_dir, ctx):
    return checks.halfcyl_summary(_read_json(os.path.join(out_dir, "summary.json")))


def _check_halfcyl_b(cfg, out_dir, ctx):
    grid = np.loadtxt(os.path.join(out_dir, "h_grid.csv"), delimiter=",", skiprows=1)
    return _check_halfcyl(cfg, out_dir, ctx) + \
        checks.hitting_probability_b(grid[:, 0], grid[:, 1:])


def _check_convergence_d(cfg, out_dir, ctx):
    grid = np.loadtxt(os.path.join(out_dir, "solution_grid.csv"), delimiter=",",
                      skiprows=1)
    problems = checks.within_bounds(grid[:, 1:], -1.0, 1.0, "model D polar solve")
    rows = _read_csv(os.path.join(out_dir, "convergence.csv"))
    want = 2 * len(cfg.numerics["eps_list"]) * len(cfg.numerics["probes"])
    values = [float(r["value"]) for r in rows if r["method"] == "fd"]
    if len(values) != want:
        problems.append(f"model D sweep has {len(values)} FD rows, expected {want}")
    return problems + checks.within_bounds(values, -1.0, 1.0, "model D probe values")


def fd_solve(seed: int, out_root: str) -> list:
    rng = random.Random(f"fd-solve:{seed}")
    ops = [
        _config_op("halfcyl-Basym", "halfcyl", rng.randrange(2**31), "B-asym", {
            "data": COS, "levels": [2, 3, 4, 5, 6],
            "grid": {"n_y": 64, "n_z": 512, "height": 1e13, "stretching": "geometric",
                     "dz0": 0.02}},
            _check_halfcyl, out_root),
        # B's conditioned top oscillation decays like Z**-(1/4) (exit angles spread
        # over ln Z / 2 time units), so the 1e-4 bound needs a grid up to 1e24
        _config_op("halfcyl-B", "halfcyl", rng.randrange(2**31), "B", {
            "data": COS, "levels": [2, 3],
            "grid": {"n_y": 32, "n_z": 1600, "height": 1e24, "stretching": "geometric",
                     "dz0": 0.02}},
            _check_halfcyl_b, out_root),
        _config_op("halfcyl-D", "halfcyl", rng.randrange(2**31), "D", {
            "data": COS, "levels": list(range(2, 22)), "grid": D_GRID},
            _check_halfcyl, out_root),
        _config_op("convergence-D", "dirichlet-convergence", rng.randrange(2**31), "D", {
            "eps_list": [0.4, 0.2, 0.1, 0.05], "probes": [[0.0, 0.0], [0.2, 0.0], [0.4, 0.0]],
            "data": COS, "n_theta": 32, "both_completions": True},
            _check_convergence_d, out_root),
    ]

    model_d = models.get_model("D")
    grid = halfcyl.HalfCylinderGrid(**D_GRID)
    start = RescaledPoint(0.0, 1.0)
    # about 1% of paths are still alive at max_time, so every seed runs the same
    # number of steps; dropping them moves a bin by well under EXIT_BIN_ALLOWANCE
    params = sde.SimulationParams(dt=0.005, seed=rng.randrange(2**31), n_paths=2048,
                                  max_time=7.0)
    n_bins = 16

    def run_limit_law(ctx):
        law = halfcyl.exit_measure(model_d, None, grid, mode="adjoint")
        return _array_digest(law.weights), law

    def check_limit_law(law, ctx):
        out_dir = ctx.get("halfcyl-D")
        if out_dir is None:
            return ["exit law: the halfcyl-D solve it is compared with failed"]
        ubar = _read_json(os.path.join(out_dir, "summary.json"))["ubar"]
        return checks.probability_weights(law.weights) + \
            checks.duality(law.integrate(np.cos), ubar)

    def run_start_law(ctx):
        law = halfcyl.exit_measure(model_d, start, grid, mode="adjoint")
        return _array_digest(law.weights), law

    def run_histogram(ctx):
        hist = halfcyl.exit_measure(model_d, start, grid, mode="mc", params=params,
                                    bins=n_bins)
        return _array_digest(hist.weights), hist

    def check_histogram(hist, ctx):
        law = ctx.get("exitlaw-adjoint-D")
        if law is None:
            return ["exit histogram: the adjoint law it is compared with failed"]
        return checks.exit_histogram(hist.weights,
                                     checks.node_weights_to_bins(law.weights, n_bins),
                                     params.n_paths)

    return ops + [
        Op("exitlaw-limit-D", run_limit_law, check_limit_law),
        Op("exitlaw-adjoint-D", run_start_law,
           lambda law, ctx: checks.probability_weights(law.weights)),
        Op("exitlaw-mc-D", run_histogram, check_histogram),
    ]


WORKLOADS = {"mc-horizon": mc_horizon, "mc-absorb": mc_absorb, "fd-solve": fd_solve}
