import math

import numpy as np
import pytest

from boundarylab import classifier
from boundarylab.classifier import Verdict, classify, corrector, invariant_measure
from boundarylab.coefficients import Const, Cosine, Fourier
from boundarylab.errors import IncompatibleRHS
from boundarylab.fields import ChartModel

from conftest import stationary_density_oracle

SIN = Fourier(constant=0.0, terms=((1, 0.0, 1.0),))


def flat_model(alpha, beta):
    return ChartModel(a=Const(1.0), b=Const(0.0), alpha=alpha, beta=beta)


def test_uniform_density_for_driftless_circle():
    m = flat_model(Const(1.0), Const(0.0))
    mea = invariant_measure(m, 256)
    assert np.max(np.abs(mea.density - 1.0 / (2 * math.pi))) < 1e-12
    assert mea.integrate(np.ones(256)) == pytest.approx(1.0, abs=1e-10)


def test_sin_drift_matches_closed_form():
    m = ChartModel(a=Const(1.0), b=SIN, alpha=Const(1.0), beta=Const(0.0))
    mea = invariant_measure(m, 1024)
    exact = stationary_density_oracle(SIN, Const(1.0), mea.y)
    assert np.max(np.abs(mea.density - exact)) < 1e-4


def test_grid_refinement_second_order():
    m = ChartModel(a=Const(1.0), b=SIN, alpha=Const(1.0), beta=Const(0.0))
    errs = []
    for n in (128, 256, 512):
        mea = invariant_measure(m, n)
        exact = stationary_density_oracle(SIN, Const(1.0), mea.y)
        errs.append(np.max(np.abs(mea.density - exact)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.5)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.5)


def test_verdicts_for_constant_models():
    assert classify(flat_model(Const(1.0), Const(0.0))).verdict is Verdict.ATTRACTING
    assert classify(flat_model(Const(1.0), Const(3.0))).verdict is Verdict.REPELLING
    rep = classify(flat_model(Const(1.0), Const(1.0)))
    assert rep.verdict is Verdict.NEUTRAL
    assert rep.alpha_bar == pytest.approx(1.0) and rep.beta_bar == pytest.approx(1.0)


def test_cosine_alpha_is_neutral_against_uniform_measure():
    rep = classify(flat_model(Cosine(1.0, 0.5), Const(1.0)))
    assert rep.verdict is Verdict.NEUTRAL
    assert rep.alpha_bar == pytest.approx(1.0, abs=1e-10)


def test_verdict_invariant_under_time_rescaling():
    m = ChartModel(a=Const(1.0), b=SIN, alpha=Cosine(1.0, 0.5),
                   beta=Fourier(constant=0.5, terms=((1, 0.0, 0.25),)))
    base = classify(m).verdict
    for c in (0.5, 3.0):
        assert classify(m.scaled(c)).verdict is base


def test_corrector_zero_when_alpha_equals_beta():
    rep = classify(flat_model(Cosine(1.2, 0.4), Cosine(1.2, 0.4)))
    assert np.max(np.abs(rep.corrector)) < 1e-10


def test_corrector_closed_form():
    # alpha - beta = cos y with flat tangential diffusion: psi = -2 cos y
    rep = classify(flat_model(Cosine(1.5, 1.0), Const(1.5)))
    assert np.max(np.abs(rep.corrector + 2 * np.cos(rep.measure.y))) < 1e-4
    assert abs(rep.measure.integrate(rep.corrector)) < 1e-8


def test_corrector_residual_small_on_zoo(zoo):
    for name, m in zoo.items():
        rep = classify(m)
        assert rep.corrector_residual < 1e-6, name
        assert abs(rep.measure.integrate(rep.corrector)) < 1e-8, name


def test_incompatible_rhs_raises():
    # a tampered measure (total mass 2) breaks the solvability pairing
    m = flat_model(Const(1.0), Const(0.0))
    mea = invariant_measure(m, 256)
    bad = classifier.InvariantMeasure(density=2.0 * mea.density, grid_size=256)
    with pytest.raises(IncompatibleRHS):
        corrector(m, bad)


def test_grid_size_validation():
    m = flat_model(Const(1.0), Const(0.0))
    with pytest.raises(ValueError):
        invariant_measure(m, 100)
    with pytest.raises(ValueError):
        invariant_measure(m, 8)
