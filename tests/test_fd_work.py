"""Each run eliminates every finite-difference system it needs once and classifies its
model once; a limit value that constant data or a rotation-invariant model fixes needs none."""

import collections
import json
import os
import sys

import numpy as np
import pytest

from boundarylab import classifier, config, dirichlet, fd, halfcyl, runner
from boundarylab.coefficients import Const, Fourier
from boundarylab.errors import ModelError
from boundarylab.fields import ChartModel
from boundarylab.geometry import DomainKind, DomainModel, RescaledPoint

COS = {"kind": "cosine", "mean": 0.0, "amp": 1.0, "phase": 0.0}
GRID = halfcyl.HalfCylinderGrid(n_y=32, n_z=200, height=1e13, dz0=0.02)
# rotation-invariant, with the drift b and the cross term d that the zoo leaves at zero
SLOPED = ChartModel(a=Const(1.5), b=Const(-0.25), alpha=Const(0.75), beta=Const(0.5),
                    d=Const(0.3), rho=Const(1.25), name="sloped")
TWO_TERMS = Fourier(0.2, ((1, 0.0, 0.5), (2, 1.0, 0.3)))


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
    """Run the experiment under tmp_path; its output directory."""
    cfg = config.parse_config({"version": 1, "experiment": experiment, "seed": 7,
                               "output_dir": "out", "model": {"name": model},
                               "numerics": numerics})
    return runner.run_experiment(cfg, str(tmp_path))[1]


def _sweep_ubar(m, f, grid):
    """ubar of the sweep that limit_value makes for inputs no rule fixes."""
    if classifier.classify(m, grid_size=512).verdict is classifier.Verdict.REPELLING:
        return halfcyl.solve_conditioned(m, f, grid, check_truncation=False).ubar
    return halfcyl.solve_u(m, f, grid, check_truncation=False).ubar


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
    _run(tmp_path, "dirichlet-convergence", "D", {
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
    halfcyl.exit_measure(zoo[model], start, GRID)
    assert calls["elimination"] == 1
    assert calls["elimination.solve_transposed"] == 1
    assert calls["elimination.solve"] + calls["elimination.solve_transposed"] == solves


def test_conditioned_solution_carries_the_h_of_solve_h(zoo):
    sol_h = halfcyl.solve_h(zoo["B-asym"], GRID)
    carried = halfcyl.solve_conditioned(zoo["B-asym"], np.cos, GRID).h
    assert np.array_equal(carried.u_grid, sol_h.u_grid)
    assert np.array_equal(carried.z_nodes, sol_h.z_nodes)
    assert carried.truncation_estimate == sol_h.truncation_estimate


def test_repelling_limit_value_solves_no_h_it_would_discard(calls, zoo):
    # the padded h, then the conditioned cut: ubar needs no cut at the grid's top for h
    ubar = dirichlet.limit_value(zoo["B-asym"], np.cos, GRID)
    assert calls["elimination"] == 1
    assert calls["elimination.solve"] == 2
    assert calls["classify"] == 1
    assert ubar == halfcyl.solve_conditioned(zoo["B-asym"], np.cos, GRID,
                                             check_truncation=False).ubar


@pytest.mark.parametrize("model, grid", [("D", None), ("C", None), ("B-asym", GRID)],
                         ids=["D", "C", "B-asym"])
def test_constant_data_give_their_constant_without_a_sweep(calls, zoo, model, grid):
    ubar = dirichlet.limit_value(zoo[model], Const(0.7), grid)
    assert ubar == 0.7
    assert calls["elimination"] == 0
    assert calls["classify"] == 1
    # the sweep stays the reference
    assert abs(ubar - _sweep_ubar(zoo[model], Const(0.7), grid)) <= 1e-12


@pytest.mark.parametrize("model", ["A", "B", "C", "sloped"])
def test_a_rotation_invariant_limit_is_the_mean_of_the_data(calls, zoo, model):
    m = SLOPED if model == "sloped" else zoo[model]
    ubar = dirichlet.limit_value(m, TWO_TERMS, GRID)
    assert ubar == float(np.mean(TWO_TERMS(GRID.y_nodes())))
    assert calls["elimination"] == 0
    assert calls["classify"] == 1
    assert abs(ubar - _sweep_ubar(m, TWO_TERMS, GRID)) <= 1e-12


def test_a_constant_data_timescale_run_solves_no_system(calls, tmp_path):
    out_dir = _run(tmp_path, "timescale", "D", {
        "eps_list": [0.2], "rules": [{"name": "short", "kind": "const", "c": 0.5}],
        "start": [0.0, 0.0], "data": {"kind": "const", "c": 0.7},
        "mc": {"dt": 0.01, "n_paths": 16, "max_time": 1.0}})
    assert calls["elimination"] == 0
    assert calls["classify"] == 1
    with open(os.path.join(out_dir, "summary.json")) as fh:
        assert json.load(fh)["boundary_ref"] == 0.7


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("model", ["A", "D", "B-asym"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_data_are_named_before_any_sweep(calls, zoo, model, bad):
    # constant, and one bad node in otherwise constant data: the error names the first
    for data, node in ((np.full(GRID.n_y, bad), 0),
                       (np.where(np.arange(GRID.n_y) == 5, bad, 0.7), 5)):
        with pytest.raises(ModelError, match=f"node {node} .* not finite: {bad}$"):
            dirichlet.limit_value(zoo[model], data, GRID)
    assert calls["elimination"] == 0


def test_non_finite_polar_data_are_named_before_the_sweep(calls, zoo):
    op = dirichlet.DiskOperator(model=zoo["D"], eps=0.1,
                                completion=dirichlet.default_completions(zoo["D"])[0])
    with pytest.raises(ModelError, match="node 3 .* not finite: nan$"):
        dirichlet.solve_fd(op, np.where(np.arange(32) == 3, np.nan, 0.7), n_theta=32)
    assert calls["elimination"] == 0


@pytest.mark.parametrize("circle", ["outer", "inner"])
def test_non_finite_annulus_data_name_their_circle(calls, zoo, circle):
    dom = DomainModel(kind=DomainKind.ANNULUS, inner_radius=0.3, chart_radius=0.3)
    op = dirichlet.DiskOperator(model=zoo["D"], eps=0.1, dom=dom,
                                completion=dirichlet.default_completions(zoo["D"])[0])
    data = {"outer": 0.7, "inner": 0.2}
    data[circle] = np.where(np.arange(32) == 3, np.nan, 0.7)
    with pytest.raises(ModelError, match=f"^{circle} data at node 3 .* not finite: nan$"):
        dirichlet.solve_fd(op, data["outer"], n_theta=32, psi_inner=data["inner"])
    assert calls["elimination"] == 0
