import math

import numpy as np
import pytest

from boundarylab import parabolic, sde
from boundarylab.dirichlet import DiskOperator, default_completions, solve_fd
from boundarylab.errors import ModelError
from boundarylab.geometry import DomainKind, DomainModel
from boundarylab.parabolic import StoppedProcessSpec, TimescaleRule, timescale_sweep


def const_fn(c):
    return lambda x: np.full(len(np.atleast_2d(x)), c)


def spec_for(model, g_const, psi):
    return StoppedProcessSpec(model=model, g=const_fn(g_const), psi_d=psi)


def test_time_zero_returns_initial_data(zoo):
    spec = spec_for(zoo["A"], 0.7, np.cos)
    p = sde.SimulationParams(dt=1e-3, seed=1, n_paths=16, max_time=1.0)
    (t, est, se), = parabolic.evolve_mc(spec, 0.2, [0.0], (0.3, 0.0), p)
    assert t == 0.0 and est == pytest.approx(0.7) and se == 0.0


def test_a_start_outside_the_domain_is_rejected_at_every_time(zoo):
    p = sde.SimulationParams(dt=1e-3, seed=1, n_paths=16, max_time=1.0)
    annulus = DomainModel(kind=DomainKind.ANNULUS, inner_radius=0.4, chart_radius=0.25)
    for dom, start in ((DomainModel(), (3.0, 0.0)), (annulus, (0.1, 0.0))):
        spec = StoppedProcessSpec(model=zoo["A"], g=lambda x: x[:, 0], psi_d=np.cos, dom=dom)
        for times in ([0.0], [0.0, 0.5], [0.5]):
            with pytest.raises(ModelError, match="outside"):
                parabolic.evolve_mc(spec, 0.1, times, start, p)


def test_matching_data_gives_constant(zoo):
    spec = spec_for(zoo["A"], 0.4, lambda th: np.full_like(th, 0.4))
    p = sde.SimulationParams(dt=2e-3, seed=2, n_paths=400, max_time=20.0)
    out = parabolic.evolve_mc(spec, 0.2, [1.0, 5.0, 18.0], (0.0, 0.0), p)
    for _, est, _ in out:
        assert est == pytest.approx(0.4, abs=1e-12)


def test_long_time_recovers_dirichlet_value(zoo):
    spec = spec_for(zoo["A"], 0.0, np.cos)
    comp = default_completions(zoo["A"])[0]
    op = DiskOperator(model=zoo["A"], eps=0.2, completion=comp)
    target = solve_fd(op, np.cos).probe(0.3, 0.0)
    p = sde.SimulationParams(dt=2e-3, seed=3, n_paths=6000, max_time=80.0)
    (_, est, se), = parabolic.evolve_mc(spec, 0.2, [76.0], (0.3, 0.0), p)
    assert abs(est - target) <= 3 * max(se, 1e-4)


def test_exit_probability_monotone_in_time(zoo):
    spec = spec_for(zoo["A"], 0.0, lambda th: np.ones_like(th))
    p = sde.SimulationParams(dt=2e-3, seed=4, n_paths=3000, max_time=30.0)
    out = parabolic.evolve_mc(spec, 0.1, [0.5, 2.0, 4.0, 8.0, 16.0, 28.0],
                              (0.0, 0.0), p)
    ests = [e for _, e, _ in out]
    assert all(b >= a for a, b in zip(ests, ests[1:]))  # coupled paths: exact
    assert all(0.0 <= e <= 1.0 for e in ests)


def test_timescale_rules():
    assert TimescaleRule("a", "const", 0.5).time(0.01) == 0.5
    assert TimescaleRule("b", "log", 2.0).time(math.exp(-3)) == pytest.approx(6.0)
    assert TimescaleRule("c", "power", 1.5, p=0.5).time(0.04) == pytest.approx(7.5)
    with pytest.raises(ModelError):
        TimescaleRule("d", "exp", 1.0).time(0.1)


def test_sweep_plateau_dichotomy_small(zoo):
    spec = spec_for(zoo["A"], 0.0, lambda th: np.ones_like(th))
    rules = [TimescaleRule("sublog", "const", 0.5),
             TimescaleRule("suplog", "log", 4.0)]
    p = sde.SimulationParams(dt=2e-3, seed=5, n_paths=1500, max_time=15.0)
    sweep = timescale_sweep(spec, [0.1, 0.05], rules, (0.0, 0.0), p,
                            boundary_ref=1.0)
    rows = {(r.eps, r.rule): r for r in sweep.rows}
    for eps in (0.1, 0.05):
        lo = rows[(eps, "sublog")]
        hi = rows[(eps, "suplog")]
        assert lo.estimate <= 0.1
        assert hi.estimate >= 0.9
        assert lo.plateau_id == "interior"
        assert hi.plateau_id == "boundary"
        assert 0.0 <= lo.estimate <= 1.0 and 0.0 <= hi.estimate <= 1.0


def test_checkpoints_must_align_with_dt(zoo):
    spec = spec_for(zoo["A"], 0.0, np.cos)
    p = sde.SimulationParams(dt=2e-3, seed=6, n_paths=8, max_time=1.0)
    # times are rounded onto the step grid rather than rejected
    out = parabolic.evolve_mc(spec, 0.2, [0.0011], (0.0, 0.0), p)
    assert out[0][0] == pytest.approx(0.0011)


def _bits(values):
    return np.ascontiguousarray(values, dtype=float).view(np.int64)


ANNULUS = DomainModel(kind=DomainKind.ANNULUS, inner_radius=0.3, chart_radius=0.3)


@pytest.mark.parametrize("chunk", [8192, 7])
@pytest.mark.parametrize("dom", [DomainModel(), ANNULUS], ids=["disk", "annulus"])
def test_sweep_matches_the_per_eps_runs_bit_for_bit(zoo, dom, chunk):
    # g reads the checkpoint positions and psi_d the exit angles; the log rule gives
    # each eps its own horizon
    spec = StoppedProcessSpec(model=zoo["D"], g=lambda x: x[:, 0] + 0.5 * x[:, 1] ** 2,
                              psi_d=np.cos, dom=dom)
    rules = [TimescaleRule("const", "const", 0.3), TimescaleRule("log", "log", 0.5)]
    eps_list = [0.3, 0.1, 0.05]
    p = sde.SimulationParams(dt=0.005, seed=21, n_paths=40, max_time=2.0, chunk_size=chunk)
    sweep = timescale_sweep(spec, eps_list, rules, (0.55, 0.25), p, boundary_ref=0.0)
    assert len({round(r.time(eps) / p.dt) for eps in eps_list for r in rules[1:]}) == 3
    for eps in eps_list:
        ref = parabolic.evolve_mc(spec, eps, [r.time(eps) for r in rules], (0.55, 0.25), p)
        rows = [r for r in sweep.rows if r.eps == eps]
        assert len(rows) == len(ref) == 2
        for (t, est, se), row in zip(ref, rows):
            np.testing.assert_array_equal(_bits([row.rule_time, row.estimate, row.stderr]),
                                          _bits([t, est, se]))
