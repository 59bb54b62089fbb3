"""Correctness checks for the benchmark's operations.

Every check compares an output with a closed form or with a property the
method must have, never with a stored copy of an earlier output.  Each
returns a list of problems; an empty list means the output passed.
Statistical checks allow K_SIGMA standard errors plus a stated
discretisation allowance, so a correct program fails them on any seed
with negligible probability even after its noise streams are redrawn.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import iv, ndtr

K_SIGMA = 5.0

# Monte Carlo against the polar FD solve, model D, dt = 0.005, probe (0.3, 0): the
# bias measured with 16384 paths at eps 0.2 and 0.1 was below 0.01 (stderr 0.0053).
MC_FD_ALLOWANCE = 0.02
# ergodic averages of `tilted` started at the density's mode with burn-in 2 and
# horizon 10: transient plus time-step bias measured below 0.005 with 4096 paths.
ERGODIC_ALLOWANCE = 0.01
# exit-angle histogram against the adjoint law, per bin of 16, dt = 0.005.
EXIT_BIN_ALLOWANCE = 0.005


def _close(label, value, expected, tol):
    if not (np.isfinite(value) and abs(value - expected) <= tol):
        return [f"{label}: {value!r} differs from {expected!r} by more than {tol:.3g}"]
    return []


# ----------------------------------------------------------------- mc-horizon
def attraction(fraction_near, n_paths, z0, wall, dt, horizon, near):
    """Model A, chart flavour: z is a driftless martingale and ln z is
    Brownian motion with drift -1 and variance 2.  A path is frozen at the
    far wall W or drifts to 0, so the near fraction tends to 1 - z0/W.

    Allowances: discrete monitoring lets paths overshoot W, which lowers
    the frozen share by at most the factor exp(-sqrt(2 dt)); paths neither
    frozen nor below `near` at the horizon are bounded by the free
    Brownian tail.
    """
    expected = 1.0 - z0 / wall
    se = math.sqrt(expected * (1.0 - expected) / n_paths)
    monitoring = (z0 / wall) * (1.0 - math.exp(-math.sqrt(2.0 * dt)))
    unfinished = 1.0 - float(ndtr((horizon - math.log(z0 / near)) / math.sqrt(2.0 * horizon)))
    return _close("attraction near fraction", fraction_near, expected,
                  K_SIGMA * se + monitoring + unfinished)


def martingale(means, stderrs, start_value):
    """The stopped drift-compensated height functional has constant expectation."""
    means = np.asarray(means, dtype=float)
    stderrs = np.asarray(stderrs, dtype=float)
    problems = []
    if means.size < 2 or not np.all(np.isfinite(stderrs) & (stderrs > 0)):
        return ["martingale: needs at least two checkpoints with positive stderr"]
    for i, (m, s) in enumerate(zip(means, stderrs)):
        problems += _close(f"martingale checkpoint {i}", m, start_value, K_SIGMA * s)
    return problems


def tilted_ergodic(alpha, alpha_se, beta, beta_se):
    """`tilted` has stationary density proportional to exp(-2 cos y), so
    E[alpha] = 1 - I1(2)/(2 I0(2)) and E[beta] = 1/2 by symmetry."""
    alpha_ref = 1.0 - 0.5 * float(iv(1, 2.0) / iv(0, 2.0))
    problems = []
    for label, se in (("alpha stderr", alpha_se), ("beta stderr", beta_se)):
        if not (np.isfinite(se) and se > 0):
            problems.append(f"tilted {label} {se!r} is not positive")
    if problems:
        return problems
    return (_close("tilted ergodic alpha", alpha, alpha_ref,
                   K_SIGMA * alpha_se + ERGODIC_ALLOWANCE)
            + _close("tilted ergodic beta", beta, 0.5, K_SIGMA * beta_se + ERGODIC_ALLOWANCE))


def rotation_symmetric(ubar, centre_values):
    """Model A is rotation invariant and the data is cos y: ubar and u(0, 0) vanish."""
    problems = _close("model A ubar", ubar, 0.0, 1e-9)
    if not len(centre_values):
        return problems + ["model A: no FD value at the centre"]
    for v in centre_values:
        problems += _close("model A polar value at (0, 0)", v, 0.0, 1e-9)
    return problems


# ------------------------------------------------------------------ mc-absorb
def timescale(rows, boundary_ref, const_rule, log_rule):
    """rows: (eps, rule, t, estimate).  Constant data 1 and g = 0 make each
    estimate the probability of having exited by t: in [0, 1], coupled
    across t and so non-decreasing in t; the limit value is exactly 1.
    At the smallest eps the sub-logarithmic time has not yet left and the
    logarithmic time has (the metastable switch)."""
    problems = _close("timescale boundary_ref", boundary_ref, 1.0, 1e-9)
    by_eps = {}
    for eps, rule, t, est in rows:
        if not 0.0 <= est <= 1.0:
            problems.append(f"timescale estimate {est!r} at eps={eps}, {rule} outside [0, 1]")
        by_eps.setdefault(eps, []).append((t, est, rule))
    if not by_eps:
        return problems + ["timescale: no rows"]
    for eps, items in by_eps.items():
        items.sort()
        ests = [e for _, e, _ in items]
        if any(b < a for a, b in zip(ests, ests[1:])):
            problems.append(f"timescale estimates decrease in t at eps={eps}: {ests}")
    smallest = {rule: est for _, est, rule in by_eps[min(by_eps)]}
    if not smallest.get(const_rule, math.inf) <= 0.1:
        problems.append(f"timescale {const_rule} estimate {smallest.get(const_rule)!r} > 0.1")
    if not smallest.get(log_rule, -math.inf) >= 0.9:
        problems.append(f"timescale {log_rule} estimate {smallest.get(log_rule)!r} < 0.9")
    return problems


def mc_matches_fd(pairs):
    """pairs: (eps, probe, fd value, mc value, mc stderr, censored share).

    The MC estimate averages over the paths that exited before max_time only,
    so with a censored share c of that estimate's paths and data bounded by 1
    it can differ from the unconditional value by up to 2c / (1 - c) on top
    of the noise.
    """
    problems = []
    if not pairs:
        return ["convergence: no MC rows"]
    for eps, probe, fd, mc, se, censored in pairs:
        where = f"eps={eps}, probe={probe}"
        if not 0.0 <= censored < 0.5:
            problems.append(f"censored share {censored!r} at {where} outside [0, 0.5)")
            continue
        if not (np.isfinite(se) and se > 0):
            problems.append(f"MC stderr {se!r} at {where} is not positive")
            continue
        problems += _close(f"MC at {where}", mc, fd,
                           K_SIGMA * se + MC_FD_ALLOWANCE + 2.0 * censored / (1.0 - censored))
    return problems


# ------------------------------------------------------------------- fd-solve
def hitting_probability_b(z_nodes, h_grid):
    """Model B (alpha 1, beta 3, rho 1): h(zz) = 1 - zz / sqrt(1 + zz^2)."""
    z = np.asarray(z_nodes, dtype=float)
    h = np.asarray(h_grid, dtype=float)
    exact = 1.0 - z / np.sqrt(1.0 + z * z)
    err = float(np.max(np.abs(h - exact[:, None])))
    return [] if err <= 1e-3 else [f"model B h differs from the closed form by {err:.3e}"]


def halfcyl_summary(summary):
    """Every half-cylinder solve keeps the discrete maximum principle and
    flattens to a constant at the top of the grid."""
    problems = []
    if summary.get("max_principle_ok") is not True:
        problems.append("half-cylinder solve violates the maximum principle")
    osc = summary.get("top_oscillation")
    if not (isinstance(osc, (int, float)) and 0.0 <= osc <= 1e-4):
        problems.append(f"top oscillation {osc!r} above 1e-4")
    return problems


def within_bounds(values, lo, hi, label):
    """Discrete maximum principle of a polar solve: values within the data range."""
    v = np.asarray(values, dtype=float)
    tol = 1e-9 * max(hi - lo, 1.0)
    if v.size == 0 or not np.all(np.isfinite(v)):
        return [f"{label}: empty or non-finite solution grid"]
    if v.min() < lo - tol or v.max() > hi + tol:
        return [f"{label}: values in [{v.min():.6g}, {v.max():.6g}] leave [{lo}, {hi}]"]
    return []


def duality(exit_integral, ubar):
    """The exit law integrated against the data is the solve's far-field constant."""
    return _close("adjoint exit law against cos", exit_integral, ubar, 1e-6)


def probability_weights(weights):
    w = np.asarray(weights, dtype=float)
    if w.size == 0 or not np.all(np.isfinite(w)) or w.min() < -1e-12:
        return ["exit weights are empty, non-finite or negative"]
    return _close("exit weights total", float(w.sum()), 1.0, 1e-9)


def node_weights_to_bins(weights, n_bins):
    """Masses of the bins [2 pi j / n_bins, 2 pi (j+1) / n_bins) from nodal weights.

    A nodal weight is the mass of the hat function around its node, so the
    nodes on a bin edge give half their weight to each side.
    """
    w = np.asarray(weights, dtype=float)
    r = w.size // n_bins
    if r * n_bins != w.size or r < 1:
        raise ValueError(f"{w.size} nodes do not split into {n_bins} bins")
    per_bin = w.reshape(n_bins, r)
    return per_bin[:, 1:].sum(axis=1) + 0.5 * per_bin[:, 0] + 0.5 * np.roll(per_bin[:, 0], -1)


def exit_histogram(mc_weights, adjoint_bins, n_paths):
    """MC exit-angle histogram against the adjoint law, bin by bin."""
    mc = np.asarray(mc_weights, dtype=float)
    fd = np.asarray(adjoint_bins, dtype=float)
    if mc.shape != fd.shape or mc.size == 0:
        return [f"exit histogram shape {mc.shape} differs from {fd.shape}"]
    sigma = np.sqrt(np.clip(fd * (1.0 - fd), 0.0, None) / n_paths)
    tol = K_SIGMA * sigma + EXIT_BIN_ALLOWANCE
    bad = np.nonzero(~(np.abs(mc - fd) <= tol))[0]
    return [f"exit bin {k}: MC {mc[k]:.4f} against adjoint {fd[k]:.4f}" for k in bad]


# -------------------------------------------------------------- all workloads
def same_digest(name, first, now):
    """Two passes with one seed give byte-identical artifacts."""
    return [] if first == now else [f"{name}: artifacts differ from the first pass"]
