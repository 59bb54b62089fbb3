"""Each run eliminates every finite-difference system and classifies its model once."""

import collections
import sys

import numpy as np
import pytest

from boundarylab import classifier, config, dirichlet, fd, halfcyl, runner
from boundarylab.geometry import RescaledPoint

COS = {"kind": "cosine", "mean": 0.0, "amp": 1.0, "phase": 0.0}


@pytest.fixture
def calls(monkeypatch):
    """Counts block eliminations, their solves, classify and solve_fd calls, wherever made."""
    counts = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(fd.Elimination, "__init__",
                        counting("elimination", fd.Elimination.__init__))
    for method in ("solve", "solve_transposed"):
        monkeypatch.setattr(fd.Elimination, method,
                            counting(f"elimination.{method}", getattr(fd.Elimination, method)))
    for name, fn in (("classify", classifier.classify), ("solve_fd", dirichlet.solve_fd)):
        wrapper = counting(name, fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("boundarylab") and getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, wrapper)
    return counts


def _run(tmp_path, experiment, model, numerics):
    cfg = config.parse_config({"version": 1, "experiment": experiment, "seed": 7,
                               "output_dir": "out", "model": {"name": model},
                               "numerics": numerics})
    runner.run_experiment(cfg, str(tmp_path))


def test_repelling_halfcyl_run_eliminates_one_system_and_classifies_once(calls, tmp_path):
    # the padded h, whose cuts are the grid's h, the conditioned u and its
    # half-height check
    _run(tmp_path, "halfcyl", "B-asym", {
        "data": COS, "levels": [2, 3],
        "grid": {"n_y": 32, "n_z": 200, "height": 1e13, "dz0": 0.02}})
    assert calls["elimination"] == 1
    assert calls["elimination.solve"] == 4
    assert calls["classify"] == 1


def test_convergence_run_solves_each_eps_once(calls, tmp_path):
    eps_list = [0.4, 0.2]
    _run(tmp_path, "dirichlet-convergence", "A", {
        "eps_list": eps_list, "probes": [[0.0, 0.0]], "data": COS, "n_theta": 32,
        "both_completions": True, "grid": {"n_y": 32, "n_z": 200}})
    assert calls["solve_fd"] == 2 * len(eps_list)
    # one polar system per solve_fd, and the limit solve without a truncation cut
    assert calls["elimination"] == 2 * len(eps_list) + 1
    assert calls["classify"] == 1


@pytest.mark.parametrize("model, start, solves", [
    ("D", RescaledPoint(0.0, 1.0), 1),
    ("B-asym", None, 2),    # the padded h, then the transposed solve on its conditioned cut
])
def test_exit_law_takes_one_transposed_solve(calls, zoo, model, start, solves):
    grid = halfcyl.HalfCylinderGrid(n_y=32, n_z=200, height=1e13, dz0=0.02)
    halfcyl.exit_measure(zoo[model], start, grid)
    assert calls["elimination"] == 1
    assert calls["elimination.solve_transposed"] == 1
    assert calls["elimination.solve"] + calls["elimination.solve_transposed"] == solves


def test_conditioned_solution_carries_the_h_of_solve_h(zoo):
    grid = halfcyl.HalfCylinderGrid(n_y=32, n_z=200, height=1e13, dz0=0.02)
    sol_h = halfcyl.solve_h(zoo["B-asym"], grid)
    carried = halfcyl.solve_conditioned(zoo["B-asym"], np.cos, grid).h
    assert np.array_equal(carried.u_grid, sol_h.u_grid)
    assert np.array_equal(carried.z_nodes, sol_h.z_nodes)
    assert carried.truncation_estimate == sol_h.truncation_estimate


def test_repelling_limit_value_solves_no_h_it_would_discard(calls, zoo):
    # the padded h, then the conditioned cut: ubar needs no cut at the grid's top for h
    grid = halfcyl.HalfCylinderGrid(n_y=32, n_z=200, height=1e13, dz0=0.02)
    ubar = dirichlet.limit_value(zoo["B-asym"], np.cos, grid)
    assert calls["elimination"] == 1
    assert calls["elimination.solve"] == 2
    assert calls["classify"] == 1
    assert ubar == halfcyl.solve_conditioned(zoo["B-asym"], np.cos, grid,
                                             check_truncation=False).ubar
