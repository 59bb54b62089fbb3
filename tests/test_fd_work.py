"""Each run factors every finite-difference system and classifies its model once."""

import collections
import sys

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from boundarylab import classifier, config, dirichlet, halfcyl, runner
from boundarylab.errors import ModelError

COS = {"kind": "cosine", "mean": 0.0, "amp": 1.0, "phase": 0.0}


@pytest.fixture
def calls(monkeypatch):
    """Counts splu, classify and solve_fd calls, wherever they are made from."""
    counts = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(spla, "splu", counting("splu", spla.splu))
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


def test_repelling_halfcyl_run_factors_four_systems_and_classifies_once(calls, tmp_path):
    # h, padded h, conditioned u, and its half-height re-solve
    _run(tmp_path, "halfcyl", "B-asym", {
        "data": COS, "levels": [2, 3],
        "grid": {"n_y": 32, "n_z": 200, "height": 1e13, "dz0": 0.02}})
    assert calls["splu"] == 4
    assert calls["classify"] == 1


def test_convergence_run_solves_each_eps_once(calls, tmp_path):
    eps_list = [0.4, 0.2]
    _run(tmp_path, "dirichlet-convergence", "A", {
        "eps_list": eps_list, "probes": [[0.0, 0.0]], "data": COS, "n_theta": 32,
        "both_completions": True, "grid": {"n_y": 32, "n_z": 200}})
    assert calls["solve_fd"] == 2 * len(eps_list)
    assert calls["classify"] == 1


def test_conditioned_solve_takes_the_h_of_solve_h(zoo):
    grid = halfcyl.HalfCylinderGrid(n_y=32, n_z=200, height=1e13, dz0=0.02)
    sol_h = halfcyl.solve_h(zoo["B-asym"], grid)
    given = halfcyl.solve_conditioned(zoo["B-asym"], np.cos, grid, _regime=sol_h)
    own = halfcyl.solve_conditioned(zoo["B-asym"], np.cos, grid)
    assert np.array_equal(given.u_grid, own.u_grid)
    assert given.truncation_estimate == own.truncation_estimate
    other = halfcyl.HalfCylinderGrid(n_y=32, n_z=300, height=1e13, dz0=0.02)
    with pytest.raises(ModelError):
        halfcyl.solve_conditioned(zoo["B-asym"], np.cos, other, _regime=sol_h)
