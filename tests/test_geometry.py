import math

import numpy as np
import pytest

from boundarylab import geometry as geo
from boundarylab.errors import ChartRangeError


def test_wrap_angle_canonical():
    assert geo.wrap_angle(2 * math.pi) == pytest.approx(0.0)
    assert geo.wrap_angle(-0.1) == pytest.approx(2 * math.pi - 0.1)
    arr = geo.wrap_angle(np.array([7.0, -7.0]))
    assert np.all((arr >= 0) & (arr < 2 * math.pi))


def test_annulus_chart_overlap_rejected():
    with pytest.raises(ChartRangeError):
        geo.DomainModel(kind=geo.DomainKind.ANNULUS, inner_radius=0.4,
                        chart_radius=0.4)


def test_circle_calculus_identities():
    # grad/hess of the coordinate functions against finite differences
    rng = np.random.default_rng(10)
    x = rng.uniform(0.3, 0.9, size=(50, 2))
    eh = 1e-6
    for fn, grad, hess in ((lambda p: 1 - np.linalg.norm(p, axis=-1),
                            geo.grad_z, geo.hess_z),
                           (lambda p: np.arctan2(p[..., 1], p[..., 0]),
                            geo.grad_y, geo.hess_y)):
        g = grad(x)
        for k in range(2):
            dp = np.zeros(2)
            dp[k] = eh
            num = (fn(x + dp) - fn(x - dp)) / (2 * eh)
            assert np.max(np.abs(num - g[:, k])) < 1e-6
        h = hess(x)
        for k in range(2):
            dp = np.zeros(2)
            dp[k] = eh
            num = (grad(x + dp) - grad(x - dp)) / (2 * eh)
            assert np.max(np.abs(num - h[:, :, k])) < 1e-5
