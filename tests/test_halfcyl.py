import math

import numpy as np
import pytest

from boundarylab import halfcyl, sde
from boundarylab.coefficients import Const
from boundarylab.errors import (
    HTransformSingular,
    LevelSetUnresolved,
    ModelError,
    NoConvergence,
    NotIntegrable,
    WrongRegime,
)
from boundarylab.fields import ChartModel, Flavor, assemble
from boundarylab.geometry import RescaledPoint
from boundarylab.halfcyl import HalfCylinderGrid, exit_measure, radial_oracle

CRITERION_GRID = HalfCylinderGrid(n_y=64, n_z=400, height=40.0,
                                  stretching="geometric", dz0=0.02)


def closed_form_h(zz):
    return 1.0 - zz / np.sqrt(1.0 + zz * zz)


def test_radial_oracle_examples():
    h, exit_p = radial_oracle(1.0, 3.0, 1.0)
    assert h(2.0) == pytest.approx(1.0 - 2.0 / math.sqrt(5.0), abs=1e-10)
    assert h(0.0) == 1.0
    vals = [h(zz) for zz in (1.0, 4.0, 16.0, 64.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-3
    assert exit_p(2.0, 64.0) < h(2.0)
    with pytest.raises(NotIntegrable):
        radial_oracle(1.0, 1.0, 1.0)
    with pytest.raises(NotIntegrable):
        radial_oracle(2.0, 1.0, 1.0)


def test_h_matches_closed_form(zoo):
    sol = halfcyl.solve_h(zoo["B"], CRITERION_GRID)
    exact = closed_form_h(sol.z_nodes)
    assert np.max(np.abs(sol.u_grid - exact[:, None])) <= 1e-3
    assert np.all(sol.u_grid[0] == 1.0)
    # monotone decreasing in height for the angle-independent model
    assert np.all(np.diff(sol.u_grid[:, 0]) <= 1e-12)
    assert sol.interp(0.0, 1.0) == pytest.approx(1.0 - 1.0 / math.sqrt(2.0), abs=1e-3)


def test_h_requires_repelling(zoo):
    with pytest.raises(WrongRegime):
        halfcyl.solve_h(zoo["A"], CRITERION_GRID)
    with pytest.raises(WrongRegime):
        halfcyl.solve_h(zoo["C"], CRITERION_GRID)


def test_solve_u_constant_data(zoo):
    sol = halfcyl.solve_u(zoo["A"], lambda y: np.full_like(y, 2.5))
    assert np.max(np.abs(sol.u_grid - 2.5)) < 1e-9
    assert sol.ubar == pytest.approx(2.5, abs=1e-9)
    assert sol.max_principle_ok


def test_solve_u_rotation_symmetry(zoo):
    sol = halfcyl.solve_u(zoo["A"], np.cos)
    assert abs(sol.ubar) < 1e-6
    assert sol.max_principle_ok
    assert sol.top_oscillation <= 1e-4


def test_solve_u_rejects_repelling(zoo):
    with pytest.raises(WrongRegime):
        halfcyl.solve_u(zoo["B"], np.cos)


def test_neutral_model_solves(zoo):
    sol = halfcyl.solve_u(zoo["C"], np.cos, check_truncation=False)
    assert sol.max_principle_ok


def test_model_d_ubar_against_monte_carlo(zoo):
    # pointwise probabilistic representation at two chart points
    sol = halfcyl.solve_u(zoo["D"], np.cos)
    gc = assemble(zoo["D"], None, Flavor.LIMIT)
    for y0, zz0, seed in ((0.0, 12.0, 17), (2.0, 3.0, 18)):
        p = sde.SimulationParams(dt=1e-3, seed=seed, n_paths=12000, max_time=100.0)
        batch = sde.simulate(gc, (y0, zz0), p)
        est, se = batch.exit_mean(np.cos)
        assert abs(est - sol.interp(y0, zz0)) <= 3 * se


LIGHT_TALL = HalfCylinderGrid(n_y=64, n_z=640, height=1e13, dz0=0.02)


def test_conditioned_constant_data(zoo):
    sol = halfcyl.solve_conditioned(zoo["B-asym"], lambda y: np.full_like(y, 1.7),
                                    LIGHT_TALL, check_truncation=False)
    assert np.max(np.abs(sol.u_grid - 1.7)) < 1e-9


def test_conditioned_symmetric_model_zero_mean(zoo):
    sol = halfcyl.solve_conditioned(zoo["B"], np.cos, LIGHT_TALL,
                                    check_truncation=False)
    assert abs(sol.ubar) < 1e-6


def test_conditioned_requires_repelling(zoo):
    with pytest.raises(WrongRegime):
        halfcyl.solve_conditioned(zoo["A"], np.cos)


def test_conditioned_against_conditional_monte_carlo(zoo):
    m = zoo["B-asym"]
    sol = halfcyl.solve_conditioned(m, np.cos, LIGHT_TALL, check_truncation=False)
    gc = assemble(m, None, Flavor.LIMIT)
    p = sde.SimulationParams(dt=1.25e-3, seed=5, n_paths=30000, max_time=100.0,
                             wall=64.0)
    batch = sde.simulate(gc, (math.pi / 2, 2.0), p)
    est, se = batch.exit_mean(np.cos)
    assert abs(est - sol.interp(math.pi / 2, 2.0)) <= 3 * se


def test_variation_decay_flat_for_angle_independent(zoo, reports):
    sol = halfcyl.solve_u(zoo["A"], np.cos, check_truncation=False)
    psi = reports["A"].corrector_fn()
    dec = halfcyl.variation_decay(sol, psi, np.arange(2.0, 10.0))
    # data oscillates but the model is angle-independent, so the level sets
    # are flat circles: oscillation decays but stays positive
    assert np.all(dec.oscillation >= 0.0)
    sol_flat = halfcyl.solve_u(zoo["A"], lambda y: np.full_like(y, 1.0),
                               check_truncation=False)
    dec_flat = halfcyl.variation_decay(sol_flat, psi, np.arange(2.0, 10.0))
    assert np.max(dec_flat.oscillation) < 1e-9


def test_variation_decay_model_d_geometric(zoo, reports):
    sol = halfcyl.solve_u(zoo["D"], np.cos, check_truncation=False)
    psi = reports["D"].corrector_fn()
    dec = halfcyl.variation_decay(sol, psi, np.arange(2.0, 22.0))
    assert dec.r_squared > 0.95
    assert dec.rate > 0.2
    assert np.all(np.diff(dec.oscillation) < 0)


def test_variation_decay_unresolved_level(zoo, reports):
    sol = halfcyl.solve_u(zoo["D"], np.cos, check_truncation=False)
    psi = reports["D"].corrector_fn()
    with pytest.raises(LevelSetUnresolved):
        halfcyl.variation_decay(sol, psi, [80.0])


def test_exit_measure_uniform_for_symmetric_model(zoo):
    # the deep-layer limit law of the rotation-invariant model is uniform;
    # note the law from a *finite* height is visibly non-uniform (its first
    # harmonic decays like a small power of the height), so the 1e-4 check
    # applies to the limit measure
    nu = exit_measure(zoo["A"], None)
    assert np.max(np.abs(nu.density - 1.0 / (2 * math.pi))) < 1e-4
    assert nu.weights.sum() == pytest.approx(1.0, abs=1e-8)
    nu8 = exit_measure(zoo["A"], RescaledPoint(0.0, 8.0))
    assert nu8.weights.sum() == pytest.approx(1.0, abs=1e-8)
    assert np.max(nu8.density) > 1.2 / (2 * math.pi)  # finite height: tilted


def test_exit_measure_depth_convergence(zoo):
    ref = exit_measure(zoo["D"], RescaledPoint(0.0, 16.0))
    tvs = [exit_measure(zoo["D"], RescaledPoint(0.0, zz)).total_variation(ref)
           for zz in (2.0, 4.0, 8.0)]
    assert tvs[0] > tvs[1] > tvs[2]


def test_exit_measure_duality_attracting(zoo):
    # integrating the boundary data against the deep-layer exit law equals
    # the far-field constant of the direct solve
    nu = exit_measure(zoo["D"], None)
    sol = halfcyl.solve_u(zoo["D"], np.cos, check_truncation=False)
    assert abs(nu.integrate(np.cos) - sol.ubar) < 1e-6


def test_exit_measure_duality_conditioned(zoo):
    nu = exit_measure(zoo["B-asym"], None, LIGHT_TALL)
    sol = halfcyl.solve_conditioned(zoo["B-asym"], np.cos, LIGHT_TALL,
                                    check_truncation=False)
    assert abs(nu.integrate(np.cos) - sol.ubar) < 1e-6


def test_exit_measure_monte_carlo_matches_adjoint(zoo):
    grid = HalfCylinderGrid()
    start = RescaledPoint(0.0, 8.0)
    nu_fd = exit_measure(zoo["A"], start, grid)
    p = sde.SimulationParams(dt=2e-3, seed=77, n_paths=20000, max_time=80.0)
    nu_mc = exit_measure(zoo["A"], start, grid, mode="mc", params=p, bins=16)
    # aggregate the 64 adjoint node weights into the 16 Monte Carlo bins
    fd_bins = nu_fd.weights.reshape(16, 4).sum(axis=1)
    n = 20000
    sigma = np.sqrt(fd_bins * (1 - fd_bins) / n)
    assert np.max(np.abs(nu_mc.weights - fd_bins) / sigma) <= 3.0


def test_exit_measure_reports_censored_and_unstable_shares(zoo, outlier_noise):
    start = RescaledPoint(0.0, 0.5)
    p = sde.SimulationParams(dt=1e-3, seed=6, n_paths=16, max_time=0.3,
                             bridge_absorption=False)
    nu = exit_measure(zoo["A"], start, mode="mc", params=p, bins=16)
    batch = sde.simulate(assemble(zoo["A"], None, Flavor.LIMIT), start, p)
    assert 0.0 < nu.unstable_fraction == np.mean(batch.unstable_mask) < 1.0
    assert 0.0 < nu.censored_fraction == 1.0 - np.mean(batch.exited_mask) < 1.0
    adjoint = exit_measure(zoo["A"], start)
    assert adjoint.censored_fraction == adjoint.unstable_fraction == 0.0


def test_exit_measure_monte_carlo_without_exits(zoo):
    # from deep in the repelling layer no path reaches the boundary in 0.01
    p = sde.SimulationParams(dt=1e-3, seed=78, n_paths=16, max_time=0.01)
    with pytest.raises(NoConvergence):
        exit_measure(zoo["B"], RescaledPoint(0.0, 50.0), mode="mc", params=p, bins=16)


def test_ubar_grid_convergence(zoo):
    base = halfcyl.solve_u(zoo["D"], np.cos, check_truncation=False)
    fine = halfcyl.solve_u(
        zoo["D"], np.cos,
        HalfCylinderGrid(n_y=128, n_z=900, height=2e13, dz0=0.01),
        check_truncation=False)
    assert abs(base.ubar - fine.ubar) < 1e-4


@pytest.mark.slow
def test_conditioned_ubar_grid_convergence(zoo):
    base = halfcyl.solve_conditioned(zoo["B-asym"], np.cos,
                                     check_truncation=False)
    g = halfcyl.conditioned_default_grid()
    doubled = HalfCylinderGrid(n_y=2 * g.n_y, n_z=2 * g.n_z,
                               height=2 * g.height, dz0=g.dz0)
    fine = halfcyl.solve_conditioned(zoo["B-asym"], np.cos, doubled,
                                     check_truncation=False)
    assert abs(base.ubar - fine.ubar) < 1e-4


def test_variation_nonincreasing_in_height(zoo):
    sol = halfcyl.solve_u(zoo["D"], np.cos, check_truncation=False)
    v = sol.variation
    # allow tiny discrete wiggles near the boundary row
    assert np.all(np.diff(v) <= 1e-8 + 0.02 * v[:-1])


def test_truncation_estimates_small(zoo):
    sol = halfcyl.solve_u(zoo["D"], np.cos)
    assert sol.truncation_estimate < 1e-4
    sol_h = halfcyl.solve_h(zoo["B"], CRITERION_GRID)
    assert sol_h.truncation_estimate < 5e-4


def test_h_transform_guard_fires_on_underflow():
    # steep decay over a very tall grid drives h below the conjugation floor
    m = ChartModel(a=Const(1.0), b=Const(0.0), alpha=Const(1.0), beta=Const(41.0))
    grid = HalfCylinderGrid(n_y=32, n_z=1280, height=1e120, dz0=0.05)
    with pytest.raises(HTransformSingular):
        halfcyl.solve_conditioned(m, np.cos, grid)


def test_grid_validation():
    with pytest.raises(ModelError):
        HalfCylinderGrid(n_y=48)
    with pytest.raises(ModelError):
        HalfCylinderGrid(n_z=50)
    with pytest.raises(ModelError):
        HalfCylinderGrid(height=2.0)
    with pytest.raises(ModelError):
        HalfCylinderGrid(stretching="cubic")
