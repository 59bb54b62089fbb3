"""Experiment dispatch and reproducible artifact writing.

Every run lands in its own output directory: CSV tables (comma separator,
'.' decimal point, UTF-8, LF line endings, shortest-roundtrip float
formatting, so numeric content is byte-reproducible), a JSON summary, and
a manifest listing each artifact with its sha256.  Re-running the same
config and seed reproduces the numeric files byte for byte; only the
manifest's wall-clock field differs.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass

import numpy as np

from . import __version__, dirichlet, halfcyl, parabolic, sde
from .classifier import Verdict, classify
from .config import ExperimentConfig
from .errors import BoundaryLabError

OUTPUT_ROOT_ENV = "BOUNDARYLAB_OUTPUT_ROOT"


def _fmt(x) -> str:
    if type(x) is float:        # most cells: rows from .tolist() hold Python floats
        return repr(x)
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return str(int(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_fmt, row)) + "\n")


def write_json(path, obj):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


@dataclass(frozen=True)
class RunManifest:
    config_hash: str
    tool_version: str
    stream_version: int       # sde.STREAM_VERSION: what the run's Monte Carlo streams draw
    wall_clock_seconds: float
    artifacts: list

    def to_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "tool_version": self.tool_version,
            "stream_version": self.stream_version,
            "wall_clock_seconds": self.wall_clock_seconds,
            "artifacts": self.artifacts,
        }


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _mc_params(cfg: ExperimentConfig, block: dict, **overrides) -> sde.SimulationParams:
    kw = dict(dt=block["dt"], seed=cfg.seed, n_paths=block["n_paths"],
              max_time=block["max_time"])
    kw.update(overrides)
    return sde.SimulationParams(**kw)


def _grid_csv(path, node, column, nodes, grid):
    """Row j: nodes[j], then grid[j] under the headers column0, column1, ..."""
    write_csv(path, [node] + [f"{column}{i}" for i in range(grid.shape[1])],
              np.column_stack([nodes, grid]).tolist())


def run_experiment(cfg: ExperimentConfig, output_root: str | None = None):
    """Execute one experiment; returns (manifest, output_dir)."""
    root = output_root or os.environ.get(OUTPUT_ROOT_ENV, ".")
    out_dir = os.path.join(root, cfg.output_dir)
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.time()
    artifacts = _DISPATCH[cfg.experiment](cfg, out_dir)
    entries = []
    for name in sorted(artifacts):
        path = os.path.join(out_dir, name)
        entries.append({"path": name, "sha256": _sha256(path),
                        "bytes": os.path.getsize(path)})
    manifest = RunManifest(config_hash=cfg.config_hash, tool_version=__version__,
                           stream_version=sde.STREAM_VERSION,
                           wall_clock_seconds=time.time() - t0, artifacts=entries)
    write_json(os.path.join(out_dir, "manifest.json"), manifest.to_dict())
    return manifest, out_dir


def _run_classify(cfg: ExperimentConfig, out_dir: str) -> list:
    num = cfg.numerics
    rep = classify(cfg.model, tol=num["tol"], grid_size=num["grid_size"])
    y = rep.measure.y
    write_csv(os.path.join(out_dir, "invariant_measure.csv"), ["y", "density"],
              [[yy, dd] for yy, dd in zip(y, rep.measure.density)])
    write_csv(os.path.join(out_dir, "corrector.csv"), ["y", "psi"],
              [[yy, pp] for yy, pp in zip(y, rep.corrector)])
    write_json(os.path.join(out_dir, "classification.json"), rep.to_dict())
    return ["invariant_measure.csv", "corrector.csv", "classification.json"]


def _run_halfcyl(cfg: ExperimentConfig, out_dir: str) -> list:
    num = cfg.numerics
    f, grid = num["data"], num["grid"]
    rep = classify(cfg.model, grid_size=512)
    files = []
    summary = {"verdict": rep.verdict.value, "alpha_bar": rep.alpha_bar,
               "beta_bar": rep.beta_bar}
    if rep.verdict is Verdict.REPELLING:
        sol = halfcyl.solve_conditioned(cfg.model, f, grid, _regime=rep.verdict)
        _grid_csv(os.path.join(out_dir, "h_grid.csv"), "z", "y", sol.h.z_nodes, sol.h.u_grid)
        files.append("h_grid.csv")
        summary["h_truncation"] = sol.h.truncation_estimate
    else:
        sol = halfcyl.solve_u(cfg.model, f, grid, _regime=rep.verdict)
    _grid_csv(os.path.join(out_dir, "u_grid.csv"), "z", "y", sol.z_nodes, sol.u_grid)
    write_csv(os.path.join(out_dir, "variation.csv"), ["z", "oscillation"],
              np.column_stack([sol.z_nodes, sol.variation]).tolist())
    files += ["u_grid.csv", "variation.csv", "summary.json"]
    summary.update({
        "ubar": sol.ubar,
        "top_oscillation": sol.top_oscillation,
        "truncation_estimate": sol.truncation_estimate,
        "max_principle_ok": sol.max_principle_ok,
    })
    try:
        decay = halfcyl.variation_decay(sol, rep.corrector_fn(), num["levels"])
        write_csv(os.path.join(out_dir, "level_decay.csv"), ["level", "oscillation"],
                  [[n, v] for n, v in zip(decay.levels, decay.oscillation)])
        files.append("level_decay.csv")
        summary["decay_rate"] = decay.rate
        summary["decay_r_squared"] = decay.r_squared
    except BoundaryLabError as exc:
        summary["level_decay_error"] = str(exc)
    write_json(os.path.join(out_dir, "summary.json"), summary)
    return files


def _run_convergence(cfg: ExperimentConfig, out_dir: str) -> list:
    num = cfg.numerics
    psi_d = num["data"]
    comps = dirichlet.default_completions(cfg.model)
    use = comps if num["both_completions"] else comps[:1]
    mc_params = None
    if "mc" in num:
        mc_params = _mc_params(cfg, num["mc"])
    ubar = dirichlet.limit_value(cfg.model, psi_d, num["grid"])
    tables = [dirichlet.convergence_experiment(
        cfg.model, psi_d, num["eps_list"], num["probes"], completion=comp,
        n_theta=num["n_theta"], mc_params=mc_params, ubar=ubar)
        for comp in use]
    rows = []
    flags = []
    finals = {}
    for comp, table in zip(use, tables):
        rows.extend(table.rows)
        flags.extend([(comp.label, f) for f in table.non_monotone_flags])
        finals[comp.label] = {str(p): table.errors_for(p, completion=comp.label)[-1]
                              for p in num["probes"]}
    write_csv(os.path.join(out_dir, "convergence.csv"),
              ["eps", "probe_x1", "probe_x2", "method", "completion", "value",
               "abs_error", "mc_stderr", "mc_censored"],
              [[r.eps, r.probe[0], r.probe[1], r.method, r.completion, r.value,
                r.abs_error, r.mc_stderr, r.mc_censored] for r in rows])
    # solution grid at the smallest eps, CSV plus its JSON header
    eps_min = num["eps_list"][-1]
    sol = tables[0].final_solution
    _grid_csv(os.path.join(out_dir, "solution_grid.csv"), "r", "theta", sol.r_nodes, sol.u)
    write_json(os.path.join(out_dir, "solution_grid.json"), {
        "model_hash": cfg.config_hash,
        "eps": eps_min,
        "completion": use[0].label,
        "n_theta": num["n_theta"],
        "n_r": int(sol.r_nodes.size - 1),
    })
    summary = {
        "ubar": ubar,
        "threshold": num["threshold"],
        "final_errors": finals,
        "non_monotone": [f"{label}:{probe}" for label, probe in flags],
        "all_final_below_threshold": all(
            e <= num["threshold"] for d in finals.values() for e in d.values()),
    }
    if len(use) == 2:
        a, b = (finals[c.label] for c in use)
        summary["completion_final_error_gap"] = max(
            abs(a[k] - b[k]) for k in a)
    write_json(os.path.join(out_dir, "summary.json"), summary)
    return ["convergence.csv", "solution_grid.csv", "solution_grid.json",
            "summary.json"]


def _run_attraction(cfg: ExperimentConfig, out_dir: str) -> list:
    num = cfg.numerics
    params = _mc_params(cfg, num["mc"], max_time=num["horizon"])
    rows = sde.attraction_stats(cfg.model, num["starts"], num["horizon"], params,
                                near_threshold=num["near"], far_wall=num["far_wall"])
    write_csv(os.path.join(out_dir, "attraction.csv"),
              ["start_y", "start_z", "fraction_near", "stderr", "min_distance",
               "max_distance", "near_threshold"],
              [[r.start_y, r.start_z, r.fraction_near, r.stderr, r.min_distance,
                r.max_distance, r.near_threshold] for r in rows])
    return ["attraction.csv"]


def _run_martingale(cfg: ExperimentConfig, out_dir: str) -> list:
    num = cfg.numerics
    rep = classify(cfg.model, grid_size=512)
    params = _mc_params(cfg, num["mc"], max_time=max(num["checkpoints"]))
    trace = sde.martingale_trace(cfg.model, rep, num["start"], params,
                                 band=num["band"], checkpoint_times=num["checkpoints"])
    write_csv(os.path.join(out_dir, "martingale.csv"), ["t", "mean", "stderr"],
              [[t, v, s] for t, v, s in zip(trace.times, trace.values, trace.stderrs)])
    write_json(os.path.join(out_dir, "summary.json"), {
        "start_value": trace.start_value,
        "max_abs_deviation": float(np.max(np.abs(trace.values - trace.start_value))),
        "max_sigma_deviation": float(np.max(
            np.abs(trace.values - trace.start_value) / np.maximum(trace.stderrs, 1e-30))),
    })
    return ["martingale.csv", "summary.json"]


def _run_timescale(cfg: ExperimentConfig, out_dir: str) -> list:
    num = cfg.numerics
    psi_d = num["data"]
    spec = parabolic.StoppedProcessSpec(model=cfg.model, g=num["g"], psi_d=psi_d)
    rules = [parabolic.TimescaleRule(name=r["name"], kind=r["kind"], c=r["c"],
                                     p=r["p"]) for r in num["rules"]]
    params = _mc_params(cfg, num["mc"])
    boundary_ref = dirichlet.limit_value(cfg.model, psi_d)
    sweep = parabolic.timescale_sweep(spec, num["eps_list"], rules, num["start"],
                                      params, boundary_ref=boundary_ref)
    write_csv(os.path.join(out_dir, "timescale.csv"),
              ["eps", "rule", "t", "estimate", "stderr", "plateau_id"],
              [[r.eps, r.rule, r.rule_time, r.estimate, r.stderr, r.plateau_id]
               for r in sweep.rows])
    write_json(os.path.join(out_dir, "summary.json"), {
        "interior_ref": sweep.interior_ref,
        "boundary_ref": sweep.boundary_ref,
    })
    return ["timescale.csv", "summary.json"]


_DISPATCH = {
    "classify": _run_classify,
    "halfcyl": _run_halfcyl,
    "dirichlet-convergence": _run_convergence,
    "attraction": _run_attraction,
    "martingale": _run_martingale,
    "timescale": _run_timescale,
}
