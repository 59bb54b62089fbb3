"""Property tests on random models with Fourier and Cosine coefficients."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from boundarylab.classifier import Verdict, classify
from boundarylab.coefficients import Cosine, Fourier
from boundarylab.dirichlet import DiskOperator, default_completions, solve_fd
from boundarylab.fields import ChartModel
from boundarylab.geometry import RescaledPoint
from boundarylab.halfcyl import HalfCylinderGrid, exit_measure, solve_conditioned, solve_u

GRID = HalfCylinderGrid(n_y=32, n_z=100)
TOL = 1e-9


@st.composite
def fourier(draw, lo, hi, amp):
    """Constant in [lo, hi] plus up to two modes with coefficients in [-amp, amp]."""
    constant = draw(st.floats(lo, hi))
    ks = draw(st.lists(st.integers(1, 3), max_size=2, unique=True))
    terms = tuple((k, draw(st.floats(-amp, amp)), draw(st.floats(-amp, amp))) for k in ks)
    return Fourier(constant, terms)


@st.composite
def cosine(draw, lo, hi, amp):
    """mean in [lo, hi] plus amp' cos(y - phase), |amp'| <= amp."""
    return Cosine(draw(st.floats(lo, hi)), draw(st.floats(-amp, amp)),
                  draw(st.floats(0.0, 2 * math.pi)))


def coefficient(lo, hi, amp):
    return st.one_of(fourier(lo, hi, amp), cosine(lo, hi, amp))


def rotated(fn, phi):
    """y -> fn(y - phi): a Cosine shifts its phase, a Fourier series turns each term."""
    if isinstance(fn, Cosine):
        return Cosine(fn.mean, fn.amp, fn.phase + phi)
    return Fourier(fn.constant, tuple(
        (k, c * math.cos(k * phi) - s * math.sin(k * phi),
         c * math.sin(k * phi) + s * math.cos(k * phi)) for k, c, s in fn.terms))


@st.composite
def models(draw):
    """Random chart models with no mixed term (d = 0); a and alpha stay above 0.15."""
    return ChartModel(a=draw(fourier(1.0, 2.0, 0.3)),
                      b=draw(fourier(-1.0, 1.0, 1.0)),
                      alpha=draw(fourier(1.0, 2.0, 0.3)),
                      beta=draw(fourier(-2.0, 3.0, 1.0)))


def _within(values, data):
    lo, hi = float(np.min(data)), float(np.max(data))
    return bool(np.all(values >= lo - TOL) and np.all(values <= hi + TOL))


def _layer(m, data):
    """The half-cylinder solve on GRID that the model's verdict calls for."""
    verdict = classify(m, grid_size=512).verdict
    solve = solve_conditioned if verdict is Verdict.REPELLING else solve_u
    return solve(m, data, GRID, check_truncation=False, _regime=verdict)


@settings(max_examples=100, deadline=None)
@given(m=models(), data=fourier(-1.0, 1.0, 1.0), eps=st.sampled_from([0.4, 0.2, 0.1]))
def test_discrete_maximum_principle(m, data, eps):
    layer = _layer(m, data)
    assert layer.max_principle_ok
    assert _within(layer.u_grid, data(GRID.y_nodes()))

    op = DiskOperator(model=m, eps=eps, completion=default_completions(m)[0])
    disk = solve_fd(op, data, n_theta=32)
    assert disk.max_principle_ok
    assert _within(disk.u, data(disk.theta_nodes))


@settings(max_examples=100, deadline=None)
@given(m=models(), data=fourier(-1.0, 1.0, 1.0), y=st.floats(0.0, 2 * np.pi),
       zz=st.floats(1e-3, 1e3))
def test_adjoint_exit_law_is_dual_to_the_layer_solve(m, data, y, zz):
    layer = _layer(m, data)
    start = RescaledPoint(y, zz)
    for law, value in ((exit_measure(m, None, GRID), layer.ubar),
                       (exit_measure(m, start, GRID), layer.interp(y, zz))):
        assert np.all(law.weights >= -1e-12)
        assert abs(law.integrate(data) - value) <= 1e-10


@settings(max_examples=100, deadline=None)
@given(a=coefficient(1.0, 2.0, 0.3), b=coefficient(-1.0, 1.0, 1.0),
       alpha=coefficient(1.0, 2.0, 0.3), beta=coefficient(-2.0, 3.0, 1.0),
       phi=st.floats(0.0, 2 * np.pi))
def test_verdict_is_invariant_under_rotation(a, b, alpha, beta, phi):
    m = ChartModel(a=a, b=b, alpha=alpha, beta=beta)
    turned = ChartModel(a=rotated(a, phi), b=rotated(b, phi), alpha=rotated(alpha, phi),
                        beta=rotated(beta, phi))
    rep, rep_turned = classify(m, grid_size=512), classify(turned, grid_size=512)
    assert rep_turned.verdict is rep.verdict
    assert abs(rep_turned.alpha_bar - rep.alpha_bar) <= TOL
    assert abs(rep_turned.beta_bar - rep.beta_bar) <= TOL
