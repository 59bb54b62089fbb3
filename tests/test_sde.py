import collections
import math

import numpy as np
import pytest

from boundarylab import dirichlet, sde
from boundarylab.coefficients import Const, Cosine, Fourier
from boundarylab.errors import ModelError
from boundarylab.fields import (ChartModel, Flavor, GeneratorCoefficients, PerturbationSpec,
                                assemble)
from boundarylab.geometry import DomainKind, DomainModel
from boundarylab.halfcyl import radial_oracle
from boundarylab.sde import SimulationParams

from conftest import stationary_density_oracle

SIN = Fourier(constant=0.0, terms=((1, 0.0, 1.0),))


def test_params_validation():
    with pytest.raises(ModelError):
        SimulationParams(dt=0.0, seed=1, n_paths=10, max_time=1.0)
    with pytest.raises(ModelError):
        SimulationParams(dt=1e-3, seed=1, n_paths=0, max_time=1.0)
    for wall in (0.0, -4.0):
        with pytest.raises(ModelError):
            SimulationParams(dt=1e-3, seed=1, n_paths=10, max_time=1.0, wall=wall)
    with pytest.raises(ModelError):   # too coarse for the wall
        SimulationParams(dt=0.05, seed=1, n_paths=10, max_time=1.0, wall=4.0)
    for chunk in (0, -5):   # a negative size would run no path and censor them all
        with pytest.raises(ModelError):
            SimulationParams(dt=1e-3, seed=1, n_paths=10, max_time=1.0, chunk_size=chunk)
    # NaN passes every comparison, an infinite dt runs no step, an infinite max_time overflows
    for bad in ({"dt": math.nan}, {"dt": math.inf}, {"max_time": math.nan},
                {"max_time": math.inf}, {"wall": math.nan}, {"wall": math.inf}):
        with pytest.raises(ModelError, match="must be finite"):
            SimulationParams(**{"dt": 1e-3, "seed": 1, "n_paths": 10, "max_time": 1.0, **bad})


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True, np.float64(2.0), "1", None])
def test_a_seed_that_is_no_64_bit_key_is_rejected(seed):
    # -1 would read the streams of 2**64 - 1, 2**64 those of 0, and 1.5 and True those of 1
    with pytest.raises(ModelError, match="seed"):
        SimulationParams(dt=1e-3, seed=seed, n_paths=10, max_time=1.0)
    for good in (0, 2**64 - 1, np.uint64(2**64 - 1), np.int64(7)):
        SimulationParams(dt=1e-3, seed=good, n_paths=10, max_time=1.0)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_a_stream_is_the_philox_stream_of_its_key(seed):
    ids = [0, 3, 2**32 + 5]
    for path, g in zip(ids, sde._path_generators(seed, ids)):
        ref = np.random.Generator(np.random.Philox(key=np.array([seed, path], dtype=np.uint64)))
        # backed by its key itself, not by a SeedSequence drawn from OS entropy
        key = g.bit_generator.seed_seq
        assert not isinstance(key, np.random.SeedSequence)
        np.testing.assert_array_equal(key.generate_state(2, np.uint64), [seed, path])
        # the state holds small uint64 arrays, which repr prints in full
        assert repr(g.bit_generator.state) == repr(ref.bit_generator.state)
        for draw in (lambda r: r.standard_normal(1000), lambda r: r.random(256)):
            np.testing.assert_array_equal(draw(g).view(np.int64), draw(ref).view(np.int64))


def test_boundary_run_rejects_a_negative_burn_in_and_no_bins(zoo):
    p = SimulationParams(dt=0.01, seed=1, n_paths=64, max_time=1.0)
    for kw in ({"burn_in": -0.5}, {"burn_in": math.nan}, {"bins": 0}, {"bins": -3}):
        with pytest.raises(ModelError):
            sde.simulate_boundary(zoo["A"], 0.0, p, observables={"one": np.ones_like}, **kw)


def test_determinism_across_chunking(zoo):
    gc = assemble(zoo["B"], None, Flavor.LIMIT)
    batches = []
    for chunk in (64, 257, 5000):
        p = SimulationParams(dt=2e-3, seed=123, n_paths=600, max_time=5.0, wall=16.0,
                             chunk_size=chunk)
        batches.append(sde.simulate(gc, (0.0, 2.0), p))
    for b in batches[1:]:
        assert np.array_equal(b.exit_time, batches[0].exit_time)
        assert np.array_equal(b.exited_mask, batches[0].exited_mask)
        assert np.allclose(b.exit_y, batches[0].exit_y, equal_nan=True, atol=0)


def _run_simulate(zoo, reports, chunk):
    p = SimulationParams(dt=2e-3, seed=124, n_paths=90, max_time=1.2, chunk_size=chunk)
    b = sde.simulate(assemble(zoo["D"], None, Flavor.LIMIT), (0.3, 1.0), p)
    return b.exited_mask, (b.exit_y, b.exit_time, b.exited_mask, b.unstable_mask)


def _run_boundary(zoo, reports, chunk):
    p = SimulationParams(dt=2e-3, seed=125, n_paths=90, max_time=1.2, chunk_size=chunk)
    run = sde.simulate_boundary(zoo["tilted"], 0.5, p, burn_in=0.2, bins=16,
                                observables={"alpha": zoo["tilted"].alpha})
    return None, (run.histogram, run.averages["alpha"])


def _run_attraction(zoo, reports, chunk):
    p = SimulationParams(dt=5e-3, seed=126, n_paths=90, max_time=2.0, chunk_size=chunk)
    rows = sde.attraction_stats(zoo["B"], [(0.0, 0.3), (1.0, 2.0)], 2.0, p, far_wall=2.5)
    return None, ([(r.fraction_near, r.min_distance, r.max_distance) for r in rows],)


def _run_martingale(zoo, reports, chunk):
    p = SimulationParams(dt=1e-3, seed=127, n_paths=90, max_time=0.6, chunk_size=chunk)
    tr = sde.martingale_trace(zoo["B"], reports["B"], (0.0, 3.0), p, band=(1.5, 6.0),
                              checkpoint_times=[0.1, 0.3, 0.6])
    return None, (tr.values, tr.stderrs)


def _run_sample_exit(dom, model, start):
    def run(zoo, reports, chunk):
        comp = dirichlet.default_completions(zoo[model])[0]
        op = dirichlet.DiskOperator(model=zoo[model], eps=0.2, completion=comp, dom=dom)
        p = SimulationParams(dt=2e-3, seed=128, n_paths=90, max_time=0.8, chunk_size=chunk)
        b = dirichlet.sample_exit(op, start, p, checkpoint_times=[0.1, 0.4, 0.7])
        return b.exited_mask, (b.exit_theta, b.exit_time, b.exited_mask, b.exit_inner,
                               b.positions)
    return run


CHUNKED_SAMPLERS = {
    "simulate": _run_simulate,
    "simulate_boundary": _run_boundary,
    "attraction_stats": _run_attraction,
    "martingale_trace": _run_martingale,
    "sample_exit-disk": _run_sample_exit(None, "D", (0.3, 0.2)),
    "sample_exit-annulus": _run_sample_exit(
        DomainModel(kind=DomainKind.ANNULUS, inner_radius=0.4, chart_radius=0.25),
        "A", (0.6, 0.0)),
}


@pytest.mark.parametrize("sampler", sorted(CHUNKED_SAMPLERS))
def test_chunk_invariance(sampler, zoo, reports):
    # every run outlasts one noise block (256 steps), so stopped rows are dropped
    # inside blocks and between them
    run = CHUNKED_SAMPLERS[sampler]
    exited, ref = run(zoo, reports, 8192)
    if exited is not None:
        assert 0 < np.count_nonzero(exited) < exited.size
    for chunk in (7, 40):
        _, out = run(zoo, reports, chunk)
        for a, b in zip(out, ref):
            np.testing.assert_array_equal(a, b)


def _near_wall_simulate(zoo, chunk):
    p = SimulationParams(dt=2e-3, seed=130, n_paths=60, max_time=0.8, chunk_size=chunk)
    b = sde.simulate(assemble(zoo["D"], None, Flavor.LIMIT), (0.3, 0.2), p)
    return p, b.exit_time, (b.exit_y, b.exit_time, b.exited_mask, b.unstable_mask)


def _near_wall_sample_exit(zoo, chunk):
    comp = dirichlet.default_completions(zoo["D"])[0]
    op = dirichlet.DiskOperator(model=zoo["D"], eps=0.2, completion=comp)
    p = SimulationParams(dt=2e-3, seed=131, n_paths=60, max_time=0.8, chunk_size=chunk)
    b = dirichlet.sample_exit(op, (0.97, 0.0), p, checkpoint_times=[0.01, 0.1, 0.7])
    return p, b.exit_time, (b.exit_theta, b.exit_time, b.exited_mask, b.positions)


@pytest.mark.parametrize("run", [_near_wall_simulate, _near_wall_sample_exit])
def test_chunk_invariance_when_most_paths_stop_inside_the_first_block(run, zoo):
    p, exit_time, ref = run(zoo, 60)
    first_block = sde.NOISE_BLOCK * p.dt
    assert np.mean(exit_time < first_block) > 0.5
    assert np.any(exit_time > first_block)
    for chunk in (1, 7):
        _, _, out = run(zoo, chunk)
        for a, b in zip(out, ref):
            np.testing.assert_array_equal(a, b)


def _drawn_shapes(monkeypatch):
    """Records the shapes of the normals and uniforms of every block drawn from here on."""
    shapes = []
    draw_block = sde._draw_block

    def draw(gens, reads):
        normals, uniforms = draw_block(gens, reads)
        shapes.append((normals.shape, uniforms.shape))
        return normals, uniforms

    monkeypatch.setattr(sde, "_draw_block", draw)
    return shapes


def _absorbing_runs(zoo, bridge):
    p = SimulationParams(dt=2e-3, seed=132, n_paths=90, max_time=1.2,
                         bridge_absorption=bridge)
    sde.simulate(assemble(zoo["D"], None, Flavor.LIMIT), (0.3, 1.0), p)
    comp = dirichlet.default_completions(zoo["D"])[0]
    op = dirichlet.DiskOperator(model=zoo["D"], eps=0.2, completion=comp)
    dirichlet.sample_exit(op, (0.0, 0.0), p, checkpoint_times=[0.1])


@pytest.mark.parametrize("sampler", ["attraction_stats", "martingale_trace",
                                     "simulate_boundary", "absorbing-bridge",
                                     "absorbing-no-bridge"])
def test_a_stream_draws_only_the_noise_its_sampler_reads(sampler, zoo, reports, monkeypatch):
    # the 2-D samplers read two normals per step and simulate_boundary one; only the
    # absorbing samplers' bridge test reads uniforms
    shapes = _drawn_shapes(monkeypatch)
    if sampler.startswith("absorbing"):
        _absorbing_runs(zoo, sampler == "absorbing-bridge")
    else:
        CHUNKED_SAMPLERS[sampler](zoo, reports, 8192)
    per_step = 1 if sampler == "simulate_boundary" else 2
    uniforms = sde.NOISE_BLOCK if sampler == "absorbing-bridge" else 0
    assert len(shapes) > 2
    for normals_shape, uniforms_shape in shapes:
        n = normals_shape[0]
        assert normals_shape == (n, sde.NOISE_BLOCK, per_step)
        assert uniforms_shape == (n, uniforms)


def _path_zero_noise(monkeypatch):
    """Records the noise and uniform that path 0's row reads at each step while it is live."""
    read = {"noise": [], "uniform": []}
    run_paths = sde._run_paths

    def spy(params, n_steps, start_state, advance, *args, **kw):
        read["seed"] = params.seed

        def recorded(k, state, noise, uniform, live, pids):
            row = np.flatnonzero(pids == 0)
            if row.size and live[row[0]]:
                assert len(read["noise"]) == k
                read["noise"].append(noise[row[0]].copy())
                read["uniform"].append(None if uniform is None else uniform[row[0]])
            return advance(k, state, noise, uniform, live, pids)
        return run_paths(params, n_steps, start_state, recorded, *args, **kw)

    monkeypatch.setattr(sde, "_run_paths", spy)
    return read


def _philox(seed, path):
    return np.random.Generator(np.random.Philox(key=np.array([seed, path], dtype=np.uint64)))


def test_a_bridge_run_reads_each_block_s_normal_pairs_then_its_uniforms(zoo, monkeypatch):
    # stream version 2 keeps these bits: a bridge-on absorbing run reads, per block, the
    # block's normal pairs and then its uniforms, from its path's keyed Philox stream
    read = _path_zero_noise(monkeypatch)
    comp = dirichlet.default_completions(zoo["D"])[0]
    op = dirichlet.DiskOperator(model=zoo["D"], eps=0.2, completion=comp)
    p = SimulationParams(dt=1e-4, seed=133, n_paths=4, max_time=0.06)
    dirichlet.sample_exit(op, (0.0, 0.0), p)
    steps = 2 * sde.NOISE_BLOCK
    assert len(read["noise"]) >= steps      # path 0 is live through two blocks
    ref = _philox(read["seed"], 0)
    for b in range(2):
        normals = ref.standard_normal((sde.NOISE_BLOCK, 2))
        uniforms = ref.random(sde.NOISE_BLOCK)
        at = slice(b * sde.NOISE_BLOCK, (b + 1) * sde.NOISE_BLOCK)
        np.testing.assert_array_equal(np.array(read["noise"][at]).view(np.int64),
                                      normals.view(np.int64))
        np.testing.assert_array_equal(np.array(read["uniform"][at]).view(np.int64),
                                      uniforms.view(np.int64))


@pytest.mark.parametrize("sampler", ["martingale_trace", "simulate_boundary"])
def test_a_horizon_stream_is_one_sequence_of_normals(sampler, zoo, reports, monkeypatch):
    read = _path_zero_noise(monkeypatch)
    CHUNKED_SAMPLERS[sampler](zoo, reports, 8192)
    noise = np.array(read["noise"])
    assert noise.shape[0] > sde.NOISE_BLOCK and read["uniform"][-1] is None
    ref = _philox(read["seed"], 0).standard_normal(noise.shape)
    np.testing.assert_array_equal(noise.view(np.int64), ref.view(np.int64))


def _stacked_sample_exit(zoo, reports, chunk):
    comp = dirichlet.default_completions(zoo["D"])[0]
    ops = [dirichlet.DiskOperator(model=zoo["D"], eps=eps, completion=comp) for eps in (0.3, 0.1)]
    p = SimulationParams(dt=2e-3, seed=129, n_paths=60, max_time=1.0, chunk_size=chunk)
    b = dirichlet.sample_exit(ops, (0.5, 0.3), p, checkpoint_times=[[0.2], [0.4, 0.9]])
    return b.exited_mask, (b.exit_theta, b.exit_time, b.exited_mask, b.positions)


def _chart_simulate(zoo, reports, chunk):
    # at eps = 0 the height diffusion vanishes on the boundary, where a row that an outlier
    # step took across it sits on
    p = SimulationParams(dt=2e-3, seed=130, n_paths=60, max_time=1.0, wall=1.5,
                         chunk_size=chunk)
    b = sde.simulate(assemble(zoo["A"], 0.0, Flavor.CHART), (0.3, 0.2), p)
    return b.exited_mask, (b.exit_y, b.exit_time, b.exited_mask, b.unstable_mask)


def _deep_martingale(zoo, reports, chunk):
    # a row that leaves this band below steps on into heights where e^(-2w) overflows
    p = SimulationParams(dt=1e-3, seed=131, n_paths=60, max_time=1.0, chunk_size=chunk)
    tr = sde.martingale_trace(zoo["A"], reports["A"], (0.3, 5.0), p, band=(1.0, 25.0),
                              checkpoint_times=[0.3, 1.0])
    return None, (tr.values, tr.stderrs)


STOPPING_SAMPLERS = {
    "simulate": _run_simulate,
    "simulate-chart": _chart_simulate,
    "martingale_trace": _run_martingale,
    "martingale_trace-deep": _deep_martingale,
    "sample_exit-disk": CHUNKED_SAMPLERS["sample_exit-disk"],
    "sample_exit-annulus": CHUNKED_SAMPLERS["sample_exit-annulus"],
    "sample_exit-stacked": _stacked_sample_exit,
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("sampler", sorted(STOPPING_SAMPLERS))
def test_stopped_rows_are_never_read(sampler, zoo, reports, monkeypatch):
    # a stopped row's state is undefined until the driver drops it: in the step it stops
    # (10**9), once half of a block's rows have stopped (2), or only when all have or at
    # the block's end (1); each block's first row takes a -40 sigma first step, so some
    # rows stop far outside
    orig = sde._draw_block

    def spiked(gens, reads):
        normals, uniforms = orig(gens, reads)
        normals[0, 0, 1] = -40.0
        return normals, uniforms

    monkeypatch.setattr(sde, "_draw_block", spiked)
    run = STOPPING_SAMPLERS[sampler]
    _, ref = run(zoo, reports, 8192)
    for share in (1, 2, 10**9):
        monkeypatch.setattr(sde, "DROP_SHARE", share)
        _, out = run(zoo, reports, 8192)
        for a, b in zip(out, ref):
            a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
            assert a.shape == b.shape
            assert np.array_equal(a.view(np.int64), b.view(np.int64))


def test_attraction_rejects_a_start_outside_its_walls(zoo):
    p = SimulationParams(dt=5e-3, seed=1, n_paths=8, max_time=0.05)
    for z in (-1.0, 5.0, math.nan):
        with pytest.raises(ModelError, match="far_wall"):
            sde.attraction_stats(zoo["A"], [(0.0, 0.3), (0.0, z)], 0.05, p, far_wall=2.0)
    rows = sde.attraction_stats(zoo["A"], [(0.0, 0.0), (0.0, 2.0)], 0.05, p, far_wall=2.0)
    assert rows[0].min_distance == 0.0 and rows[1].max_distance == 2.0


def test_attraction_stops_a_path_at_the_far_wall(zoo, monkeypatch):
    # fewer than 2 MIN_ROWS paths: no worker process is forked, so every ito call is counted
    n_paths, n_steps, rows = sde.MIN_ROWS, 400, []
    ito = GeneratorCoefficients.ito

    def counting(self, y, v, *args):
        rows.append(np.size(y))
        return ito(self, y, v, *args)

    monkeypatch.setattr(GeneratorCoefficients, "ito", counting)
    p = SimulationParams(dt=5e-3, seed=1, n_paths=n_paths, max_time=2.0)
    row, = sde.attraction_stats(zoo["B"], [(0.0, 1.0)], n_steps * p.dt, p, far_wall=1.1)
    assert row.max_distance == 1.1
    assert sum(rows) < n_paths * n_steps


def _steps_advanced(exit_time, dt):
    """Steps each path advanced: a path stopping in step k (exit time in (k dt, (k+1) dt])
    advanced k + 1; a censored one, all of them."""
    return np.ceil(np.asarray(exit_time) / dt - 1e-6).astype(int)


def test_sample_exit_evaluates_coefficients_once_per_step_on_the_live_rows(zoo, monkeypatch):
    rows = []
    cartesian_ito = dirichlet.DiskOperator.cartesian_ito

    def counting(self, x1, x2, r):
        rows.append(len(r))
        return cartesian_ito(self, x1, x2, r)

    monkeypatch.setattr(dirichlet.DiskOperator, "cartesian_ito", counting)
    comp = dirichlet.default_completions(zoo["D"])[0]
    op = dirichlet.DiskOperator(model=zoo["D"], eps=0.2, completion=comp)
    p = SimulationParams(dt=5e-3, seed=132, n_paths=200, max_time=6.0)
    steps = _steps_advanced(dirichlet.sample_exit(op, (0.3, 0.0), p).exit_time, p.dt)
    # one call at the start, then one per step until the last path stops
    assert len(rows) == 1 + steps.max()
    # stopped rows ride along only until they are 1/8 of the rows stepped
    assert sum(rows) <= 8 / 7 * steps.sum() + p.n_paths


def test_simulate_evaluates_coefficients_once_per_step(zoo, monkeypatch):
    calls = collections.Counter()

    def counting(name):
        fn = getattr(GeneratorCoefficients, name)

        def wrapper(self, y, v):
            calls[name] += 1
            return fn(self, y, v)
        return wrapper

    for name in ("ito", "diffusion_vv"):
        monkeypatch.setattr(GeneratorCoefficients, name, counting(name))
    p = SimulationParams(dt=2e-3, seed=133, n_paths=60, max_time=0.8)
    batch = sde.simulate(assemble(zoo["D"], None, Flavor.LIMIT), (0.3, 0.2), p)
    assert calls["diffusion_vv"] == 0
    assert calls["ito"] == 1 + _steps_advanced(batch.exit_time, p.dt).max()


def test_fixed_horizon_samplers_call_ito_once_per_step(zoo, reports, monkeypatch):
    calls = collections.Counter()
    ito = GeneratorCoefficients.ito

    def counting(self, y, v, *args):
        calls[self.flavor] += 1
        return ito(self, y, v, *args)

    monkeypatch.setattr(GeneratorCoefficients, "ito", counting)
    # fewer than 2 * MIN_ROWS paths stay in this process, where the counter is
    p = SimulationParams(dt=1e-3, seed=29, n_paths=2 * sde.MIN_ROWS - 1, max_time=0.3)
    sde.attraction_stats(zoo["B"], [(0.0, 0.3), (1.0, 2.0)], 0.3, p, far_wall=50.0)
    sde.martingale_trace(zoo["B"], reports["B"], (0.0, 2.0), p, (1e-3, 1e3), [0.1, 0.3])
    # 300 steps cross a noise block's end; a wide band keeps paths live to the last one
    assert calls == {Flavor.CHART: 2 * 300, Flavor.LOG: 300}


@pytest.mark.parametrize("chunk", [8192, 7])
def test_a_chunk_takes_no_step_after_its_last_path_stops(zoo, monkeypatch, chunk):
    rows = []
    ito = GeneratorCoefficients.ito

    def counting(self, y, v):
        rows.append(len(y))
        return ito(self, y, v)

    monkeypatch.setattr(GeneratorCoefficients, "ito", counting)
    p = SimulationParams(dt=1e-3, seed=134, n_paths=40, max_time=1.0, chunk_size=chunk)
    batch = sde.simulate(assemble(zoo["A"], None, Flavor.LIMIT), (0.3, 1e-3), p)
    steps = _steps_advanced(batch.exit_time, p.dt)
    assert np.all(batch.exited_mask) and steps.max() < 16
    assert 0 not in rows
    if chunk > p.n_paths:
        assert len(rows) == 1 + steps.max()


@pytest.mark.parametrize("chunk", [8192, 7])
def test_a_wall_no_path_reaches_changes_nothing(zoo, chunk):
    gc = assemble(zoo["B"], None, Flavor.LIMIT)
    plain, walled = (sde.simulate(gc, (0.3, 2.0), SimulationParams(
        dt=2e-3, seed=135, n_paths=60, max_time=2.0, wall=wall, chunk_size=chunk))
        for wall in (None, 1e6))
    assert 0 < np.count_nonzero(plain.exited_mask) < plain.n_paths
    for a, b in ((plain.exit_y, walled.exit_y), (plain.exit_time, walled.exit_time),
                 (plain.exited_mask, walled.exited_mask),
                 (plain.unstable_mask, walled.unstable_mask)):
        np.testing.assert_array_equal(a, b)


def test_checkpoints_after_time_zero(zoo, reports):
    p = SimulationParams(dt=1e-3, seed=55, n_paths=8, max_time=0.2)
    for times in ([0.0, 0.1, 0.2], [-0.1, 0.1], [1e-12, 0.1], []):
        with pytest.raises(ModelError):
            sde.martingale_trace(zoo["A"], reports["A"], (0.0, 5.0), p, band=(1.0, 25.0),
                                 checkpoint_times=times)


def test_attracting_model_exits(zoo):
    gc = assemble(zoo["A"], None, Flavor.LIMIT)
    p = SimulationParams(dt=2.5e-3, seed=7, n_paths=4000, max_time=100.0)
    batch = sde.simulate(gc, (0.0, 1.0), p)
    assert batch.exit_fraction()[0] >= 0.99
    assert np.all(batch.exit_time[batch.exited_mask] <= 100.0)
    assert np.all(np.isnan(batch.exit_y[~batch.exited_mask]))


def test_repelling_exit_fractions_match_oracle(zoo):
    _, exit_p = radial_oracle(1.0, 3.0, 1.0)
    gc = assemble(zoo["B"], None, Flavor.LIMIT)
    wall = 64.0
    for start, seed in ((0.5, 21), (1.0, 22), (2.0, 23), (4.0, 24)):
        p = SimulationParams(dt=1.25e-3, seed=seed, n_paths=12000, max_time=100.0, wall=wall)
        batch = sde.simulate(gc, (0.0, start), p)
        frac, se = batch.exit_fraction()
        target = exit_p(start, wall)
        assert abs(frac - target) <= 3.0 * max(se, 1e-6), (start, frac, target)


def test_dt_halving_consistency(zoo):
    gc = assemble(zoo["B"], None, Flavor.LIMIT)
    ests = []
    for dt in (2.5e-3, 1.25e-3):
        p = SimulationParams(dt=dt, seed=99, n_paths=20000, max_time=60.0, wall=32.0)
        ests.append(sde.simulate(gc, (0.0, 2.0), p).exit_fraction())
    (f1, s1), (f2, s2) = ests
    assert abs(f1 - f2) <= 3.0 * math.hypot(s1, s2)


def test_start_on_boundary_exits_immediately(zoo):
    gc = assemble(zoo["A"], None, Flavor.LIMIT)
    p = SimulationParams(dt=1e-3, seed=5, n_paths=8, max_time=1.0)
    batch = sde.simulate(gc, (1.3, 0.0), p)
    assert np.all(batch.exited_mask)
    assert np.all(batch.exit_time == 0.0)
    assert batch.exit_y == pytest.approx(1.3)


def test_log_flavor_rejected_for_exit_sampling(zoo):
    gc = assemble(zoo["A"], None, Flavor.LOG)
    p = SimulationParams(dt=1e-3, seed=5, n_paths=8, max_time=1.0)
    with pytest.raises(ModelError):
        sde.simulate(gc, (0.0, 1.0), p)


def test_instability_flag_on_injected_outlier(zoo, outlier_noise):
    gc = assemble(zoo["A"], None, Flavor.LIMIT)
    p = SimulationParams(dt=1e-3, seed=6, n_paths=4, max_time=0.1,
                         bridge_absorption=False)
    batch = sde.simulate(gc, (0.0, 5.0), p)
    assert batch.unstable_mask[0]
    assert not np.all(batch.unstable_mask)


def test_boundary_histogram_uniform(zoo):
    p = SimulationParams(dt=2e-3, seed=31, n_paths=32, max_time=320.0)
    run = sde.simulate_boundary(zoo["A"], 0.0, p, burn_in=20.0, bins=32)
    width = 2 * np.pi / 32
    mass = np.sum(run.histogram) * width
    assert mass == pytest.approx(1.0, abs=1e-12)
    # per-bin occupation fluctuates with an effective sample size set by the
    # mixing time (~1); allow 3 sigma with that correlation accounted for
    n_eff = run.n_paths * (run.total_time - 20.0) / 2.0
    target = 1.0 / (2 * np.pi)
    sigma = math.sqrt(target / (n_eff * width))
    assert np.max(np.abs(run.histogram - target)) <= 3.5 * sigma


def test_boundary_histogram_matches_stationary_density(zoo):
    m = zoo["tilted"]
    p = SimulationParams(dt=2e-3, seed=32, n_paths=32, max_time=320.0)
    run = sde.simulate_boundary(m, 0.0, p, burn_in=20.0, bins=32)
    centers = 0.5 * (run.bin_edges[:-1] + run.bin_edges[1:])
    exact = stationary_density_oracle(m.b, m.a, centers)
    n_eff = run.n_paths * (run.total_time - 20.0) / 2.0
    width = 2 * np.pi / 32
    sigma = np.sqrt(exact / (n_eff * width))
    assert np.max(np.abs(run.histogram - exact) / sigma) <= 3.5


def test_ergodic_averages_match_quadrature(zoo, reports):
    m = zoo["tilted"]
    rep = reports["tilted"]
    p = SimulationParams(dt=2e-3, seed=35, n_paths=64, max_time=170.0)
    run = sde.simulate_boundary(
        m, 0.0, p, burn_in=20.0,
        observables={"alpha": m.alpha, "beta": m.beta})
    a_mc, a_se = run.averages["alpha"]
    b_mc, b_se = run.averages["beta"]
    assert abs(a_mc - rep.alpha_bar) <= 3 * a_se
    assert abs(b_mc - rep.beta_bar) <= 3 * b_se


def test_attraction_dichotomy(zoo):
    p = SimulationParams(dt=5e-3, seed=41, n_paths=512, max_time=200.0)
    rows_a = sde.attraction_stats(zoo["A"], [(0.0, 0.3)], 200.0, p)
    assert rows_a[0].fraction_near >= 0.95
    rows_b = sde.attraction_stats(zoo["B"], [(0.0, 0.3)], 200.0, p)
    assert rows_b[0].fraction_near <= 0.05
    assert rows_b[0].max_distance <= 50.0  # frozen at the far wall


def test_boundary_is_invariant(zoo):
    p = SimulationParams(dt=5e-3, seed=42, n_paths=16, max_time=5.0)
    rows = sde.attraction_stats(zoo["A"], [(0.7, 0.0)], 5.0, p,
                                near_threshold=1e-12)
    assert rows[0].fraction_near == 1.0
    assert rows[0].max_distance == 0.0


def test_martingale_trace_constant(zoo, reports):
    for name, start, seed in (("A", 5.0, 51), ("B", 5.0, 52)):
        p = SimulationParams(dt=1e-3, seed=seed, n_paths=12000, max_time=2.0)
        times = [0.15 * k for k in range(1, 11)]
        trace = sde.martingale_trace(zoo[name], reports[name], (0.0, start), p,
                                     band=(1.0, 25.0), checkpoint_times=times)
        dev = np.abs(trace.values - trace.start_value)
        assert np.max(dev / trace.stderrs) <= 3.0, name


def test_martingale_drift_rate_far_from_wall(zoo, reports):
    # repelling log-height drift: psi + ln Z grows at rate beta_bar - alpha_bar
    m = zoo["B"]
    rep = reports["B"]
    p = SimulationParams(dt=5e-4, seed=53, n_paths=12000, max_time=0.4)
    gc = assemble(m, None, Flavor.LOG)
    # measure E[ln Z_t] - ln Z_0 directly over a short horizon from deep start
    times = [0.1, 0.2, 0.3, 0.4]
    trace = sde.martingale_trace(m, rep, (0.0, 50.0), p, band=(20.0, 125.0),
                                 checkpoint_times=times, rho_weight=0.0)
    # with rho off, h = ln Z + (abar-bbar) t is a martingale only up to the
    # e^{-2w} correction, negligible at these heights; so
    # E[ln Z_t] = ln 50 + (bbar-abar) t
    slope = (trace.values[-1] - trace.values[0]) / (times[-1] - times[0])
    assert slope == pytest.approx(0.0, abs=0.15)  # compensated trace stays flat
    gap = rep.beta_bar - rep.alpha_bar
    assert gap == pytest.approx(2.0)


def test_martingale_reduction_without_rho(zoo, reports):
    # rho_weight = 0 and flat corrector: the functional is ln Z + gap * t
    m = zoo["B"]
    rep = reports["B"]
    p = SimulationParams(dt=1e-3, seed=54, n_paths=64, max_time=0.2)
    trace = sde.martingale_trace(m, rep, (0.0, 5.0), p, band=(1.0, 25.0),
                                 checkpoint_times=[0.1, 0.2], rho_weight=0.0)
    assert np.max(np.abs(rep.corrector)) < 1e-10
    assert trace.start_value == pytest.approx(math.log(5.0))


def test_rescaled_exit_histograms_converge_to_limit(zoo):
    # total-variation gap between the rescaled flavor and the limit flavor
    # decreases with eps (z-dependent perturbation makes the gap visible)
    m = ChartModel(a=Const(1.0), b=Const(0.0), alpha=Cosine(1.0, 0.5),
                   beta=Const(0.0), tilde=PerturbationSpec(Const(1.0), z_slope=3.0))
    bins = np.linspace(0, 2 * np.pi, 17)

    def hist(flavor_gc, seed):
        p = SimulationParams(dt=2e-3, seed=seed, n_paths=30000, max_time=60.0)
        b = sde.simulate(flavor_gc, (0.0, 4.0), p)
        counts, _ = np.histogram(b.exit_y[b.exited_mask], bins=bins)
        return counts / counts.sum()

    ref = hist(assemble(m, None, Flavor.LIMIT), 61)
    tvs = []
    for eps, seed in ((0.4, 62), (0.1, 63)):
        h = hist(assemble(m, eps, Flavor.RESCALED), seed)
        tvs.append(0.5 * np.sum(np.abs(h - ref)))
    assert tvs[1] < tvs[0]
