"""Constant coefficients folded to scalars give the bits of the unfolded path.

Every model is compared with its twin, in which each ``Const(c)`` becomes
``Fourier(c, ())``: the same function, evaluated through ``np.full`` as
``Const.__call__`` does, but never folded.  Arrays are compared through
their int64 views, so signed zeros and NaN payloads count.
"""

import dataclasses

import numpy as np
import pytest

from boundarylab import dirichlet, sde
from boundarylab.coefficients import CoefficientFn, Const, Fourier
from boundarylab.fields import ChartModel, Flavor, assemble
from boundarylab.sde import SimulationParams

FLAVORS = ((Flavor.LOG, None), (Flavor.LIMIT, None), (Flavor.RESCALED, 0.1),
           (Flavor.CHART, 0.0), (Flavor.CHART, 0.1))

# every model coefficient constant and nonzero, with a sloped perturbation
SLOPED_MODEL = ChartModel(a=Const(1.5), b=Const(-0.25), alpha=Const(0.75), beta=Const(0.5),
                          d=Const(0.3), rho=Const(1.25), z_slope=2.0, name="sloped")

# a = Const(1.0), whose multiplies the disk operator skips, and b, beta and d Const(-0.0):
# unlike a +0.0, a -0.0 keeps the terms it multiplies
SIGNED_ZERO_MODEL = ChartModel(a=Const(1.0), b=Const(-0.0), alpha=Const(0.75),
                               beta=Const(-0.0), d=Const(-0.0), name="signed-zero")


@pytest.fixture(scope="module")
def models(zoo):
    return {**zoo, "sloped": SLOPED_MODEL, "signed-zero": SIGNED_ZERO_MODEL}


def _unfolded(fn):
    return Fourier(fn.c, ()) if isinstance(fn, Const) else fn


def twin(m: ChartModel) -> ChartModel:
    """The same model with no Const left anywhere, the perturbation's rho included."""
    return dataclasses.replace(m, **{
        f.name: _unfolded(getattr(m, f.name)) for f in dataclasses.fields(m)
        if isinstance(getattr(m, f.name), CoefficientFn)})


def assert_same_bits(left, right):
    left, right = np.asarray(left, dtype=float), np.asarray(right, dtype=float)
    assert left.shape == right.shape
    assert np.array_equal(left.view(np.int64), right.view(np.int64))


def _grid_inputs():
    vals = [0.0, -0.0, 0.3, 1.0, -2.0, 7.5, 1e3, 1e-200, np.nan, np.inf, -np.inf]
    y, v = np.meshgrid(vals, vals, indexing="ij")
    return y.ravel(), v.ravel()


def test_twin_has_no_const(models):
    for m in models.values():
        t = twin(m)
        fns = [getattr(t, f.name) for f in dataclasses.fields(t)]
        assert not any(isinstance(fn, Const) for fn in fns)


@pytest.mark.parametrize("flavor, eps", FLAVORS)
def test_coefficients_match_the_unfolded_twin(models, flavor, eps):
    y, v = _grid_inputs()
    with np.errstate(all="ignore"):
        for m in models.values():
            gc, gt = assemble(m, eps, flavor), assemble(twin(m), eps, flavor)
            for method in ("ito", "second_order", "first_order"):
                for left, right in zip(getattr(gc, method)(y, v), getattr(gt, method)(y, v)):
                    assert_same_bits(left, right)
            assert_same_bits(gc.diffusion_vv(y, v), gt.diffusion_vv(y, v))
            assert_same_bits(gc.diffusion_vv(y, v), gc.ito(y, v)[4])


def test_chart_at_zero_eps_keeps_the_bits_of_the_zero_perturbation(zoo):
    # CHART at eps = 0 skips the eps^2 terms; on finite angles the bits are
    # those of adding 0 times them, NaN and infinite heights included
    y, z = np.meshgrid(np.linspace(0.0, 6.0, 7),
                       [0.0, -0.0, 0.3, -2.0, 1e-200, 1e3, np.nan, np.inf, -np.inf])
    y, z = y.ravel(), z.ravel()
    with np.errstate(all="ignore"):
        for m in zoo.values():
            t, zero = twin(m), 0.0 * 0.0
            # the perturbation has no Cyz, and adds to Cyy and Czz the same profile
            want = (0.5 * t.a(y) + zero * t.profile(y, z),
                    0.5 * z * t.d(y) + zero,
                    z * z * t.alpha(y) + zero * t.profile(y, z))
            for got, ref in zip(assemble(m, 0.0, Flavor.CHART).second_order(y, z), want):
                assert_same_bits(got, ref)


def test_disk_operator_matches_the_unfolded_twin(models):
    x = np.array([[0.0, 0.5], [0.9, 0.1], [-0.3, -0.95], [0.0, -0.0], [2.0, 0.0],
                  [np.nan, 0.2], [np.inf, 0.0]])
    theta, r = np.meshgrid(np.linspace(0.0, 6.0, 7), np.array([0.05, 0.5, 0.97, 1.0]))
    with np.errstate(all="ignore"):
        for m in models.values():
            completion = dirichlet.default_completions(m)[0]
            op = dirichlet.DiskOperator(m, 0.2, completion)
            ot = dirichlet.DiskOperator(twin(m), 0.2, completion)
            x1, x2 = np.ascontiguousarray(x.T)
            norm = np.linalg.norm(x, axis=-1)
            for left, right in zip(op.cartesian_ito(x1, x2, norm),
                                   ot.cartesian_ito(x1, x2, norm)):
                assert_same_bits(left, right)
            # the stacked sampler's per-point eps^2, a zero among them
            eps2 = np.linspace(0.0, 0.09, norm.size)
            for left, right in zip(op.cartesian_ito(x1, x2, norm, eps2=eps2),
                                   ot.cartesian_ito(x1, x2, norm, eps2=eps2)):
                assert_same_bits(left, right)
            for left, right in zip(op.polar_coefficients(theta, r),
                                   ot.polar_coefficients(theta, r)):
                assert_same_bits(left, right)


def _params(**kw):
    return SimulationParams(**{"dt": 0.01, "seed": 11, "n_paths": 12, "max_time": 1.0, **kw})


SAMPLERS = {
    "attraction": lambda m, rep: [
        (r.fraction_near, r.min_distance, r.max_distance)
        for r in sde.attraction_stats(m, [(0.3, 0.5)], 1.0, _params(), far_wall=3.0)],
    "martingale": lambda m, rep: [
        (t.values, t.stderrs) for t in [sde.martingale_trace(
            m, rep, (0.3, 2.0), _params(), (0.5, 8.0), [0.5, 1.0])]],
    "simulate-limit": lambda m, rep: _batch(sde.simulate(
        assemble(m, None, Flavor.LIMIT), (0.3, 0.4), _params())),
    "simulate-rescaled": lambda m, rep: _batch(sde.simulate(
        assemble(m, 0.1, Flavor.RESCALED), (0.3, 0.4), _params())),
    "boundary": lambda m, rep: [
        (b.histogram, b.averages["sin"]) for b in [sde.simulate_boundary(
            m, 0.3, _params(), burn_in=0.2, observables={"sin": np.sin})]],
    "sample-exit": lambda m, rep: [
        (b.exit_theta, b.exit_time, b.exited_mask, b.positions) for b in [dirichlet.sample_exit(
            dirichlet.DiskOperator(m, 0.2, dirichlet.InteriorCompletion(0.5)), (0.3, 0.1),
            _params(dt=1e-3, max_time=0.2), checkpoint_times=[0.1])]],
}


def _batch(b):
    return [(b.exit_y, b.exit_time, b.exited_mask, b.unstable_mask)]


def _flatten(result):
    return [np.asarray(a, dtype=float) for row in result for a in row]


# a non-finite angle has no histogram bin, so the boundary sampler runs plain only
@pytest.mark.parametrize("sampler, spiked", [(s, False) for s in sorted(SAMPLERS)] + [
    (s, True) for s in sorted(SAMPLERS) if s != "boundary"])
def test_samplers_match_the_unfolded_twin(models, reports, monkeypatch, sampler, spiked):
    if spiked:
        # path 0 goes non-finite at its first step, so its NaN runs through every entry
        orig = sde._draw_block

        def spike(gens, reads):
            normals, uniforms = orig(gens, reads)
            if gens[0].bit_generator.state["state"]["key"][1] == 0:   # path 0's stream
                normals[0, 0] = np.inf
            return normals, uniforms

        monkeypatch.setattr(sde, "_draw_block", spike)
    run = SAMPLERS[sampler]
    with np.errstate(all="ignore"):
        for name, m in models.items():
            rep = reports.get(name) or reports["A"]
            for left, right in zip(_flatten(run(m, rep)), _flatten(run(twin(m), rep))):
                assert_same_bits(left, right)


@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
def test_sampler_steps_make_no_const_calls(zoo, reports, monkeypatch, sampler):
    calls = []
    orig = Const.__call__

    def counted(self, y):
        calls.append(self)
        return orig(self, y)

    monkeypatch.setattr(Const, "__call__", counted)
    SAMPLERS[sampler](zoo["A"], reports["A"])
    assert calls == []
