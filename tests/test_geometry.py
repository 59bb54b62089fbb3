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
