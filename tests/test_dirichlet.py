import dataclasses
import math
import os
import sys

import numpy as np
import pytest

from boundarylab import dirichlet, parabolic, sde
from boundarylab.coefficients import Const, Cosine, Fourier
from boundarylab.dirichlet import (
    DiskOperator,
    convergence_experiment,
    default_completions,
    radial_nodes,
    sample_exit,
    solve_fd,
    solve_mc,
)
from boundarylab.errors import ModelError
from boundarylab.fields import ChartModel, PerturbationSpec
from boundarylab.geometry import DomainKind, DomainModel

# the benchmark's path-step count, which the stacked sampler must keep exact
sys.path.append(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench"))

# a mixed term and a sloped, angle-dependent perturbation: terms the zoo leaves at zero
MIXED = ChartModel(a=Cosine(1.5, 0.25), b=Fourier(0.1, ((1, 0.0, 0.3),)), alpha=Const(0.75),
                   beta=Cosine(0.5, 0.5, 1.0), d=Cosine(0.3, 0.2, 0.5), rho=Cosine(1.25, 0.25),
                   tilde=PerturbationSpec(Cosine(1.25, 0.25), z_slope=2.0), name="mixed")


def test_radial_nodes_resolve_the_layer():
    for eps in (0.4, 0.1, 0.05):
        nodes = radial_nodes(eps, DomainModel())
        assert nodes[0] == 0.0 and nodes[-1] == 1.0
        in_layer = np.count_nonzero(nodes > 1.0 - eps) - 1
        assert in_layer >= 20
    ann = radial_nodes(0.1, DomainModel(kind=DomainKind.ANNULUS, inner_radius=0.4,
                                        chart_radius=0.25))
    assert ann[0] == pytest.approx(0.4)


def test_solve_fd_resolves_layers_below_one_percent(zoo):
    comp = default_completions(zoo["D"])[0]
    eps = 0.005
    sol = solve_fd(DiskOperator(model=zoo["D"], eps=eps, completion=comp), np.cos)
    assert np.count_nonzero(1.0 - sol.r_nodes < eps) - 1 >= 20
    assert sol.max_principle_ok
    with pytest.raises(ModelError):
        solve_fd(DiskOperator(model=zoo["D"], eps=0.0, completion=comp), np.cos)


def test_constants_are_harmonic(zoo):
    comp = default_completions(zoo["A"])[0]
    for eps in (0.4, 0.1):
        op = DiskOperator(model=zoo["A"], eps=eps, completion=comp)
        sol = solve_fd(op, lambda th: np.full_like(th, 3.3))
        assert np.max(np.abs(sol.u - 3.3)) < 1e-9
        assert sol.max_principle_ok


def test_symmetric_model_center_value_vanishes(zoo):
    comp = default_completions(zoo["A"])[0]
    op = DiskOperator(model=zoo["A"], eps=0.2, completion=comp)
    sol = solve_fd(op, np.cos)
    assert abs(sol.pole_value) < 1e-10
    assert sol.max_principle_ok
    # probe interpolation agrees with the pole unknown at the center
    assert sol.probe(0.0, 0.0) == pytest.approx(sol.pole_value)


def test_mc_constant_data_pays_one(zoo):
    comp = default_completions(zoo["A"])[0]
    op = DiskOperator(model=zoo["A"], eps=0.2, completion=comp)
    p = sde.SimulationParams(dt=2e-3, seed=3, n_paths=500, max_time=200.0)
    est, se, cens = solve_mc(op, lambda th: np.ones_like(th), (0.3, 0.0), p)
    assert est == 1.0 and se == 0.0 and cens == 0.0


def test_mc_center_symmetry(zoo):
    comp = default_completions(zoo["A"])[0]
    op = DiskOperator(model=zoo["A"], eps=0.2, completion=comp)
    p = sde.SimulationParams(dt=2e-3, seed=4, n_paths=4000, max_time=200.0)
    est, se, cens = solve_mc(op, np.cos, (0.0, 0.0), p)
    assert cens == 0.0
    assert abs(est) <= 3 * se


def test_fd_mc_cross_agreement(zoo):
    comp = default_completions(zoo["D"])[0]
    op = DiskOperator(model=zoo["D"], eps=0.1, completion=comp)
    sol = solve_fd(op, np.cos)
    p = sde.SimulationParams(dt=1e-3, seed=5, n_paths=6000, max_time=400.0)
    est, se, cens = solve_mc(op, np.cos, (0.3, 0.0), p)
    assert cens < 1e-3
    assert abs(est - sol.probe(0.3, 0.0)) <= 3 * se


def test_convergence_rows_carry_the_censored_share(zoo):
    comp = default_completions(zoo["A"])[0]
    p = sde.SimulationParams(dt=0.01, seed=6, n_paths=64, max_time=0.3)
    table = convergence_experiment(zoo["A"], np.cos, [0.4, 0.2], [(0.3, 0.0)],
                                   completion=comp, n_theta=32, mc_params=p, ubar=0.0)
    for row in table.rows:
        if row.method == "fd":
            assert row.mc_censored == 0.0
        else:
            op = DiskOperator(model=zoo["A"], eps=row.eps, completion=comp)
            assert row.mc_censored == solve_mc(op, np.cos, row.probe, p)[2]
            assert row.mc_censored > 0.0
    assert table.final_solution.eps == 0.2


def test_convergence_experiment_symmetric_center(zoo):
    table = convergence_experiment(zoo["A"], np.cos, [0.4, 0.2, 0.1],
                                   [(0.0, 0.0)])
    assert abs(table.ubar) < 1e-6
    for err in table.errors_for((0.0, 0.0)):
        assert err < 1e-9


def test_convergence_errors_decrease_toward_zero(zoo):
    # the actual limit content: errors keep shrinking past the standard list
    table = convergence_experiment(zoo["D"], np.cos, [0.1, 0.05, 0.025],
                                   [(0.0, 0.0)])
    errs = table.errors_for((0.0, 0.0))
    assert errs[0] > errs[1] > errs[2]
    # the center error tracks the layer solution's mean-mode defect at
    # height (chart ramp)/eps, about 0.09 at eps = 0.025
    assert errs[2] < 0.1


def test_probe_uniformity_improves(zoo):
    probes = [(0.0, 0.0), (0.2, 0.0), (0.4, 0.0)]
    comp = default_completions(zoo["D"])[0]
    spreads = []
    for eps in (0.4, 0.05):
        op = DiskOperator(model=zoo["D"], eps=eps, completion=comp)
        sol = solve_fd(op, np.cos)
        vals = [sol.probe(*p) for p in probes]
        spreads.append(max(vals) - min(vals))
    assert spreads[1] < spreads[0]


def test_completion_insensitivity_of_the_limit_trend(zoo):
    c1, c2 = default_completions(zoo["D"])
    assert c1.scale != c2.scale
    tables = [convergence_experiment(zoo["D"], np.cos, [0.1, 0.05],
                                     [(0.0, 0.0)], completion=c)
              for c in (c1, c2)]
    e1 = tables[0].errors_for((0.0, 0.0), completion=c1.label)
    e2 = tables[1].errors_for((0.0, 0.0), completion=c2.label)
    # a 4x change of the interior operator moves the finite-eps value only
    # a little, and less as eps shrinks: the limit is a boundary-layer
    # quantity (the pinned 1e-3 figure is checked in the acceptance suite)
    gaps = [abs(a - b) for a, b in zip(e1, e2)]
    assert gaps[-1] < 5e-3
    assert gaps[-1] < gaps[0]


def test_ubar_robust_to_small_eps_rederivation(zoo):
    # re-deriving the limit constant from the rescaled operator at small eps
    # (full height-dependent perturbation profile) converges to the eps-free one
    from boundarylab.coefficients import Cosine
    from boundarylab.fields import ChartModel, PerturbationSpec
    from boundarylab.halfcyl import solve_u

    m = ChartModel(a=Const(1.0), b=Const(0.0), alpha=Cosine(1.0, 0.5),
                   beta=Const(0.0), tilde=PerturbationSpec(Const(1.0), z_slope=2.0))
    base = solve_u(m, np.cos, check_truncation=False).ubar
    gaps = []
    for eps in (0.2, 0.1, 0.05):
        u_eps = solve_u(m, np.cos, eps=eps, check_truncation=False).ubar
        gaps.append(abs(u_eps - base))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < gaps[0] / 2
    assert gaps[2] < 5e-3


def test_annulus_constant_data(zoo):
    dom = DomainModel(kind=DomainKind.ANNULUS, inner_radius=0.4, chart_radius=0.25)
    comp = default_completions(zoo["A"])[0]
    op = DiskOperator(model=zoo["A"], eps=0.2, completion=comp, dom=dom)
    sol = solve_fd(op, lambda th: np.full_like(th, 2.0),
                   psi_inner=lambda th: np.full_like(th, 2.0))
    assert np.max(np.abs(sol.u - 2.0)) < 1e-9
    with pytest.raises(ModelError):
        solve_fd(op, np.cos)  # inner data missing


def test_annulus_exit_sampling(zoo):
    dom = DomainModel(kind=DomainKind.ANNULUS, inner_radius=0.4, chart_radius=0.25)
    comp = default_completions(zoo["A"])[0]
    op = DiskOperator(model=zoo["A"], eps=0.3, completion=comp, dom=dom)
    p = sde.SimulationParams(dt=1e-3, seed=8, n_paths=800, max_time=300.0)
    batch = sample_exit(op, (0.6, 0.0), p)
    assert batch.exited_mask.mean() > 0.99
    assert 0.05 < batch.exit_inner[batch.exited_mask].mean() < 0.95


def test_annulus_mc_needs_inner_data(zoo, monkeypatch):
    dom = DomainModel(kind=DomainKind.ANNULUS, inner_radius=0.3, chart_radius=0.3)
    comp = default_completions(zoo["D"])[0]
    op = DiskOperator(model=zoo["D"], eps=0.2, completion=comp, dom=dom)
    p = sde.SimulationParams(dt=5e-3, seed=1, n_paths=256, max_time=50.0)

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the inner data was checked")

    monkeypatch.setattr(dirichlet, "sample_exit", no_sampling)
    with pytest.raises(ModelError, match="inner boundary data"):
        solve_mc(op, np.cos, (0.5, 0.0), p)


ANNULUS = DomainModel(kind=DomainKind.ANNULUS, inner_radius=0.4, chart_radius=0.25)


@pytest.mark.parametrize("dom, point", [
    (DomainModel(), (1.5, 0.0)), (DomainModel(), (0.0, -1.0 - 1e-9)),
    (DomainModel(), (math.nan, 0.0)), (ANNULUS, (1.2, 0.0)),
    (ANNULUS, (0.1, 0.1)), (ANNULUS, (0.0, 0.0))])   # the annulus hole is outside
def test_points_outside_the_closed_domain_are_rejected(zoo, dom, point):
    comp = default_completions(zoo["D"])[0]
    op = DiskOperator(model=zoo["D"], eps=0.2, completion=comp, dom=dom)
    p = sde.SimulationParams(dt=5e-3, seed=1, n_paths=8, max_time=1.0)
    inner = None if dom.kind is DomainKind.DISK else np.sin
    spec = parabolic.StoppedProcessSpec(model=zoo["D"], g=lambda x: x[:, 0], psi_d=np.cos,
                                        dom=dom)
    sol = solve_fd(op, np.cos, n_theta=32, psi_inner=inner)
    for run in (lambda: sample_exit(op, point, p),
                lambda: sample_exit([op, dataclasses.replace(op, eps=0.1)], point, p,
                                    checkpoint_times=[[0.5], [0.5]]),
                lambda: solve_mc(op, np.cos, point, p, psi_inner=inner),
                lambda: parabolic.timescale_sweep(
                    spec, [0.2], [parabolic.TimescaleRule("c", "const", 0.5)], point, p,
                    boundary_ref=0.0),
                lambda: sol.probe(*point)):
        with pytest.raises(ModelError, match="outside the closed"):
            run()


@pytest.mark.parametrize("dom, point", [(DomainModel(), (1.0, 0.0)), (DomainModel(), (0.0, 0.0)),
                                        (ANNULUS, (0.0, -0.4)), (ANNULUS, (-1.0, 0.0))])
def test_points_on_the_boundary_are_inside_the_closed_domain(zoo, dom, point):
    comp = default_completions(zoo["D"])[0]
    op = DiskOperator(model=zoo["D"], eps=0.2, completion=comp, dom=dom)
    inner = None if dom.kind is DomainKind.DISK else np.sin
    sol = solve_fd(op, np.cos, n_theta=32, psi_inner=inner)
    assert -1.0 <= sol.probe(*point) <= 1.0
    sample_exit(op, point, sde.SimulationParams(dt=5e-3, seed=1, n_paths=8, max_time=0.1))


def test_eps_list_must_decrease(zoo):
    with pytest.raises(ModelError):
        convergence_experiment(zoo["A"], np.cos, [0.1, 0.2], [(0.0, 0.0)])


def test_max_principle_reported(zoo):
    comp = default_completions(zoo["D"])[0]
    op = DiskOperator(model=zoo["D"], eps=0.05, completion=comp)
    sol = solve_fd(op, np.cos)
    assert sol.max_principle_ok
    assert np.max(sol.u) <= 1.0 + 1e-9 and np.min(sol.u) >= -1.0 - 1e-9


def test_sample_exit_checkpoints_after_time_zero(zoo):
    comp = default_completions(zoo["A"])[0]
    op = DiskOperator(model=zoo["A"], eps=0.2, completion=comp)
    p = sde.SimulationParams(dt=1e-3, seed=9, n_paths=8, max_time=0.2)
    with pytest.raises(ModelError):
        sample_exit(op, (0.0, 0.0), p, checkpoint_times=[0.0, 0.1])


def _polar_generator(op, theta, r):
    """The operator of ``polar_coefficients`` applied to x1, x2, x1^2, x1 x2 and x2^2."""
    ctt, ctr, crr, bt, br = op.polar_coefficients(theta, r)
    c, s = np.cos(theta), np.sin(theta)
    # (f_t, f_r, f_tt, f_tr, f_rr) of each test function, t the angle
    derivs = [(-r * s, c, -r * c, -s, 0.0 * r),
              (r * c, s, -r * s, c, 0.0 * r),
              (-2 * r * r * c * s, 2 * r * c * c, -2 * r * r * (c * c - s * s),
               -4 * r * c * s, 2 * c * c),
              (r * r * (c * c - s * s), 2 * r * c * s, -4 * r * r * c * s,
               2 * r * (c * c - s * s), 2 * c * s),
              (2 * r * r * c * s, 2 * r * s * s, 2 * r * r * (c * c - s * s),
               4 * r * c * s, 2 * s * s)]
    return [bt * ft + br * fr + ctt * ftt + 2.0 * ctr * ftr + crr * frr
            for ft, fr, ftt, ftr, frr in derivs]


def _cartesian_generator(op, x1, x2):
    """Drift plus half the Ito matrix of ``cartesian_ito``, on the same test functions."""
    b1, b2, a11, a12, a22, _ = op.cartesian_ito(x1, x2, np.sqrt(x1 * x1 + x2 * x2))
    return [b1, b2, 2 * x1 * b1 + a11, x2 * b1 + x1 * b2 + a12, 2 * x2 * b2 + a22]


@pytest.mark.parametrize("eps", [0.0, 0.3])
def test_cartesian_and_polar_forms_are_one_operator(zoo, eps):
    # chart strip (z < delta/2), blend zone and interior of the default chart radius 0.5
    r = np.array([0.999, 0.9, 0.8, 0.74, 0.7, 0.6, 0.51, 0.45, 0.2, 0.03])
    theta = np.linspace(0.1, 6.2, 13)
    theta, r = [a.ravel() for a in np.meshgrid(theta, r)]
    x1, x2 = r * np.cos(theta), r * np.sin(theta)
    for m in [*zoo.values(), MIXED]:
        op = DiskOperator(model=m, eps=eps, completion=default_completions(m)[1])
        for cart, polar in zip(_cartesian_generator(op, x1, x2),
                               _polar_generator(op, theta, r)):
            scale = np.max(np.abs(polar))
            np.testing.assert_allclose(cart, polar, rtol=1e-12, atol=1e-12 * scale)


# three eps whose checkpoint lists end at three different steps, two of them past the
# first noise block
STACK_EPS = (0.3, 0.1, 0.05)
STACK_CHECKPOINTS = ([0.05, 0.3], [0.1, 0.3, 0.6], [0.05, 0.9])


def _stacked_run(model, dom, chunk, n_paths=40):
    comp = default_completions(model)[0]
    ops = [DiskOperator(model=model, eps=eps, completion=comp, dom=dom) for eps in STACK_EPS]
    p = sde.SimulationParams(dt=0.002, seed=41, n_paths=n_paths, max_time=0.902,
                             chunk_size=chunk)
    return ops, p, sample_exit(ops, (0.55, 0.25), p, checkpoint_times=STACK_CHECKPOINTS)


@pytest.mark.parametrize("chunk", [8192, 7])
@pytest.mark.parametrize("dom", [DomainModel(), DomainModel(
    kind=DomainKind.ANNULUS, inner_radius=0.3, chart_radius=0.3)], ids=["disk", "annulus"])
@pytest.mark.parametrize("model", ["D", "mixed"])
def test_stacked_sample_exit_is_the_per_eps_runs_bit_for_bit(zoo, model, dom, chunk):
    m = MIXED if model == "mixed" else zoo[model]
    ops, p, batch = _stacked_run(m, dom, chunk)
    n = p.n_paths
    assert batch.exit_time.size == len(ops) * n
    for e, (op, cps) in enumerate(zip(ops, STACK_CHECKPOINTS)):
        alone = sample_exit(op, (0.55, 0.25),
                            dataclasses.replace(p, max_time=cps[-1] + p.dt),
                            checkpoint_times=cps)
        rows = slice(e * n, (e + 1) * n)
        at = [list(batch.checkpoints).index(t) for t in cps]
        for got, want in ((batch.exit_theta[rows], alone.exit_theta),
                          (batch.exit_time[rows], alone.exit_time),
                          (batch.exited_mask[rows], alone.exited_mask),
                          (batch.exit_inner[rows], alone.exit_inner),
                          (batch.positions[at, rows], alone.positions)):
            np.testing.assert_array_equal(np.asarray(got, dtype=float).view(np.int64),
                                          np.asarray(want, dtype=float).view(np.int64))


def _counting_run_paths(monkeypatch, events):
    """Records, in order, the live rows' stream ids at each block's first step and the
    stream of every generator each block draws from, and counts the live rows of every step."""
    run_paths, draw_block = sde._run_paths, sde._draw_block

    def draw(gens):
        events.append(("drawn", [int(g.bit_generator.state["state"]["key"][1]) for g in gens]))
        return draw_block(gens)

    def spy(params, n_steps, start_state, advance, streams=None):
        def counted(k, state, noise, uniform, live, pids):
            ids = pids if streams is None else streams[pids]
            if k % sde.NOISE_BLOCK == 0:
                events.append(("live", ids[live].tolist()))
            events.append(("steps", int(np.count_nonzero(live))))
            return advance(k, state, noise, uniform, live, pids)
        return run_paths(params, n_steps, start_state, counted, streams)

    monkeypatch.setattr(sde, "_draw_block", draw)
    monkeypatch.setattr(sde, "_run_paths", spy)


def test_stacked_rows_censored_at_their_own_horizon_count_the_steps_they_took(
        zoo, monkeypatch):
    import instrument

    events = []
    _counting_run_paths(monkeypatch, events)
    ops, p, batch = _stacked_run(zoo["D"], DomainModel(), 8192, n_paths=200)
    n = p.n_paths
    for e, cps in enumerate(STACK_CHECKPOINTS):
        rows = slice(e * n, (e + 1) * n)
        censored = ~batch.exited_mask[rows]
        assert np.any(censored)
        assert np.all(batch.exit_time[rows][censored] == cps[-1] + p.dt)
    taken = sum(v for kind, v in events if kind == "steps")
    assert instrument.path_steps(batch.exit_time, round(p.max_time / p.dt), p.dt) == taken


@pytest.mark.parametrize("chunk", [8192, 7])
def test_a_stacked_block_draws_each_live_stream_once(zoo, monkeypatch, chunk):
    events = []
    _counting_run_paths(monkeypatch, events)
    # 451 steps: a chunk draws a second block after rows have exited and the shortest
    # horizon has passed
    ops, p, batch = _stacked_run(zoo["D"], DomainModel(), chunk)
    blocks = [v for kind, v in events if kind != "steps"]
    assert len(blocks) % 2 == 0 and len(blocks) > 2 * math.ceil(len(ops) * p.n_paths / chunk)
    for drawn, live in zip(blocks[::2], blocks[1::2]):
        assert drawn == sorted(set(live))
    if chunk > len(ops) * p.n_paths:
        # one chunk: every block draws fewer streams than it has live rows
        assert blocks[0] == list(range(p.n_paths))
        assert all(len(drawn) < len(live) for drawn, live in zip(blocks[::2], blocks[1::2]))
