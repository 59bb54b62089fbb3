"""Property tests on random Fourier-coefficient models."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from boundarylab.classifier import Verdict, classify
from boundarylab.coefficients import Fourier
from boundarylab.dirichlet import DiskOperator, default_completions, solve_fd
from boundarylab.fields import ChartModel
from boundarylab.halfcyl import HalfCylinderGrid, solve_conditioned, solve_u

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
def models(draw):
    """Random chart models with no mixed term (d = 0); a and alpha stay above 0.15."""
    return ChartModel(a=draw(fourier(1.0, 2.0, 0.3)),
                      b=draw(fourier(-1.0, 1.0, 1.0)),
                      alpha=draw(fourier(1.0, 2.0, 0.3)),
                      beta=draw(fourier(-2.0, 3.0, 1.0)))


def _within(values, data):
    lo, hi = float(np.min(data)), float(np.max(data))
    return bool(np.all(values >= lo - TOL) and np.all(values <= hi + TOL))


@settings(max_examples=100, deadline=None)
@given(m=models(), data=fourier(-1.0, 1.0, 1.0), eps=st.sampled_from([0.4, 0.2, 0.1]))
def test_discrete_maximum_principle(m, data, eps):
    verdict = classify(m, grid_size=512).verdict
    if verdict is Verdict.REPELLING:
        layer = solve_conditioned(m, data, GRID, check_truncation=False, _regime=verdict)
    else:
        layer = solve_u(m, data, GRID, check_truncation=False, _regime=verdict)
    assert layer.max_principle_ok
    assert _within(layer.u_grid, data(GRID.y_nodes()))

    op = DiskOperator(model=m, eps=eps, completion=default_completions(m)[0])
    disk = solve_fd(op, data, n_theta=32)
    assert disk.max_principle_ok
    assert _within(disk.u, data(disk.theta_nodes))
