import numpy as np
import pytest

from boundarylab import fields
from boundarylab.coefficients import Const, Cosine
from boundarylab.errors import FlavorRangeError, InvalidEpsilon, ModelError
from boundarylab.fields import ChartModel, Flavor, PerturbationSpec, assemble

TWO_PI = 2 * np.pi


def test_assemble_limit_flavor_values():
    m = ChartModel(a=Const(1.0), b=Const(0.0), alpha=Const(1.0), beta=Const(0.0))
    gc = assemble(m, None, Flavor.LIMIT)
    zz = np.array([0.0, 1.0, 2.0])
    cyy, cyv, cvv = gc.second_order(np.zeros(3), zz)
    assert cvv == pytest.approx(zz * zz + 1.0)
    assert np.all(cyv == 0)
    by, bv = gc.first_order(np.zeros(3), zz)
    assert np.all(by == 0) and np.all(bv == 0)


def test_assemble_log_flavor_values():
    mA = ChartModel(a=Const(1.0), b=Const(0.0), alpha=Const(1.0), beta=Const(0.0))
    gc = assemble(mA, None, Flavor.LOG)
    w = np.array([-1.0, 0.0, 2.0])
    _, _, cvv = gc.second_order(np.zeros(3), w)
    assert cvv == pytest.approx(1.0 + np.exp(-2 * w))
    _, bv = gc.first_order(np.zeros(3), w)
    assert bv == pytest.approx(-(1.0 + np.exp(-2 * w)))

    mB = ChartModel(a=Const(1.0), b=Const(0.0), alpha=Const(1.0), beta=Const(3.0))
    _, bv = assemble(mB, None, Flavor.LOG).first_order(np.zeros(3), w)
    assert bv == pytest.approx(2.0 - np.exp(-2 * w))


def test_rescaled_tends_to_limit_uniformly():
    # z-dependent perturbation makes the gap visible; sup over zz <= 4
    m = ChartModel(a=Const(1.0), b=Const(0.0), alpha=Const(1.0), beta=Const(1.0),
                   d=Cosine(0.0, 0.5), tilde=PerturbationSpec(Const(1.0), z_slope=2.0))
    lim = assemble(m, None, Flavor.LIMIT)
    y = np.linspace(0, TWO_PI, 32, endpoint=False)
    zz = np.linspace(0.0, 4.0, 33)
    Y, ZZ = np.meshgrid(y, zz)
    gaps = []
    for eps in (0.1, 0.05, 0.025):
        res = assemble(m, eps, Flavor.RESCALED)
        gap = 0.0
        for a, b in zip(res.second_order(Y, ZZ) + res.first_order(Y, ZZ),
                        lim.second_order(Y, ZZ) + lim.first_order(Y, ZZ)):
            gap = max(gap, float(np.max(np.abs(np.asarray(a) - np.asarray(b)))))
        gaps.append(gap)
    assert gaps[0] > gaps[1] > gaps[2] > 0
    assert gaps[0] / gaps[1] == pytest.approx(2.0, rel=0.2)


def test_chart_flavor_with_remainder_and_eps_zero():
    rem = fields.Remainder(k1=Const(0.5), n0=Const(0.2), sigma=Const(0.1))
    m = ChartModel(a=Const(1.0), b=Const(0.0), alpha=Const(1.0), beta=Const(1.0),
                   remainder=rem)
    gc = assemble(m, 0.0, Flavor.CHART)
    z = np.array([0.2])
    cyy, cyv, cvv = gc.second_order(np.zeros(1), z)
    assert cvv[0] == pytest.approx(0.04 + 0.1 * 0.008)
    by, bv = gc.first_order(np.zeros(1), z)
    assert by[0] == pytest.approx(0.5 * 0.2)
    assert bv[0] == pytest.approx(0.2 + 0.2 * 0.04)


def test_assembled_diffusion_positive_semidefinite():
    rng = np.random.default_rng(42)
    m = ChartModel(a=Cosine(1.0, 0.3), b=Const(0.0), alpha=Cosine(1.0, 0.5),
                   beta=Const(1.0), d=Cosine(0.0, 0.4), rho=Cosine(1.0, 0.5))
    for flavor, vmax in ((Flavor.LIMIT, 10.0), (Flavor.LOG, 3.0),
                         (Flavor.CHART, 0.5)):
        gc = assemble(m, 0.1, flavor) if flavor is Flavor.CHART \
            else assemble(m, None, flavor)
        y = rng.uniform(0, TWO_PI, 10000)
        v = rng.uniform(0.0 if flavor is not Flavor.LOG else -3.0, vmax, 10000)
        cyy, cyv, cvv = gc.second_order(y, v)
        det = np.asarray(cyy) * np.asarray(cvv) - np.asarray(cyv) ** 2
        assert np.min(cyy) >= 0 and np.min(cvv) >= -1e-15
        assert np.min(det) > -1e-12


def test_chart_model_rejects_a_zero_rho():
    with pytest.raises(ModelError):
        ChartModel(a=Const(1.0), b=Const(0.0), alpha=Const(1.0), beta=Const(0.0),
                   rho=Const(0.0))


@pytest.mark.parametrize("label", ["b", "beta", "d"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_chart_model_rejects_a_non_finite_drift_or_mixed_term(label, value):
    coeffs = dict(a=Const(1.0), b=Const(0.0), alpha=Const(1.0), beta=Const(0.0))
    with pytest.raises(ModelError, match=f"coefficient {label} is not finite"):
        ChartModel(**{**coeffs, label: Const(value)})


def test_flavor_eps_requirements():
    m = ChartModel(a=Const(1.0), b=Const(0.0), alpha=Const(1.0), beta=Const(0.0))
    with pytest.raises(FlavorRangeError):
        assemble(m, None, Flavor.RESCALED)
    with pytest.raises(InvalidEpsilon):
        assemble(m, -0.1, Flavor.CHART)
    with pytest.raises(InvalidEpsilon):
        assemble(m, 0.0, Flavor.RESCALED)


def test_time_rescaled_model():
    m = ChartModel(a=Const(1.0), b=Cosine(0.0, 0.2), alpha=Const(1.0),
                   beta=Const(3.0))
    ms = m.scaled(2.5)
    y = np.linspace(0, TWO_PI, 8)
    assert np.asarray(ms.a(y)) == pytest.approx(2.5 * np.asarray(m.a(y)) + 0 * y)
    assert np.asarray(ms.beta(y)) == pytest.approx(7.5 + 0 * y)
    with pytest.raises(ModelError):
        m.scaled(-1.0)


def test_rotation_invariance_is_read_from_const_coefficients_only(zoo):
    for name in ("A", "B", "C"):
        for flavor in (Flavor.LIMIT, Flavor.LOG):
            assert assemble(zoo[name], None, flavor).rotation_invariant, name
        assert not assemble(zoo[name], 0.1, Flavor.RESCALED).rotation_invariant
    for name in ("D", "B-asym", "tilted"):
        assert not assemble(zoo[name], None, Flavor.LIMIT).rotation_invariant, name
    # a constant that is not a Const, and rho, which no zoo model varies
    flat = ChartModel(a=Const(1.0), b=Const(0.0), alpha=Cosine(1.0, 0.0), beta=Const(0.0))
    varied_rho = ChartModel(a=Const(1.0), b=Const(0.0), alpha=Const(1.0), beta=Const(0.0),
                            rho=Cosine(1.0, 0.5))
    for m in (flat, varied_rho):
        assert not assemble(m, None, Flavor.LIMIT).rotation_invariant
