import numpy as np
import pytest

from boundarylab import fields
from boundarylab.coefficients import Const, Cosine
from boundarylab.errors import FlavorRangeError, InvalidEpsilon, ModelError
from boundarylab.fields import (
    AmbientModel,
    ChartModel,
    ConstantFrameField,
    Flavor,
    PerturbationSpec,
    RadialDecayField,
    RotationField,
    ZeroField,
    ambient_from_chart,
    assemble,
    chart_from_ambient,
    extract_alpha_beta,
    validate,
)

TWO_PI = 2 * np.pi


def rotation_radial_model(radial_scale=1.0):
    return AmbientModel(
        v=(ZeroField(), RotationField(), RadialDecayField(Const(radial_scale))),
        tilde_v=(ZeroField(),
                 ConstantFrameField((1.0, 0.0), Const(np.sqrt(2.0))),
                 ConstantFrameField((0.0, 1.0), Const(np.sqrt(2.0)))),
    )


def sympy_normal_form(radial_scale):
    """Independent symbolic oracle for the degeneration coefficients.

    Applies the operator (expanded from the squared directional
    derivatives) to the distance function and its square symbolically,
    then takes boundary limits of h1/z and (h2 - z h1)/z^2.
    """
    import sympy as sy

    x1, x2 = sy.symbols("x1 x2", real=True, positive=True)
    r = sy.sqrt(x1 ** 2 + x2 ** 2)
    z = 1 - r
    v1 = sy.Matrix([-x2, x1])
    v2 = radial_scale * (1 - r) / r * sy.Matrix([x1, x2])

    def apply(phi, v):
        return v[0] * sy.diff(phi, x1) + v[1] * sy.diff(phi, x2)

    def L(phi):
        return sum(sy.Rational(1, 2) * apply(apply(phi, v), v) for v in (v1, v2))

    h1 = sy.simplify(L(z))
    h2 = sy.simplify(L(z ** 2) / 2)
    beta = sy.limit(sy.simplify(h1 / z), r, 1)
    alpha = sy.limit(sy.simplify((h2 - z * h1) / z ** 2), r, 1)
    return float(alpha), float(beta)


def test_extraction_matches_symbolic_oracle():
    # frozen oracle values: alpha = beta = scale^2 / 2
    assert sympy_normal_form(1.0) == pytest.approx((0.5, 0.5))
    assert sympy_normal_form(2.0) == pytest.approx((2.0, 2.0))
    for scale, expected in ((1.0, 0.5), (2.0, 2.0)):
        m = rotation_radial_model(scale)
        alpha, beta, residual = extract_alpha_beta(m, probe_z=0.05)
        y = np.linspace(0, TWO_PI, 16, endpoint=False)
        assert np.asarray(alpha(y)) == pytest.approx(expected, abs=1e-8)
        assert np.asarray(beta(y)) == pytest.approx(expected, abs=1e-8)
        assert residual < 1e-6


def test_pure_tangential_model_rejected():
    # radial field absent: degeneration coefficient vanishes identically
    m = AmbientModel(
        v=(ZeroField(), RotationField(), ZeroField()),
        tilde_v=rotation_radial_model().tilde_v,
    )
    with pytest.raises(ModelError):
        chart_from_ambient(m)


def test_chart_ambient_roundtrip_within_tolerance():
    chart = ChartModel(a=Const(1.0), b=Cosine(0.0, 0.3), alpha=Cosine(1.0, 0.5),
                       beta=Const(0.25), rho=Cosine(1.0, 0.2))
    amb = ambient_from_chart(chart)
    assert validate(amb).ok
    back = chart_from_ambient(amb, probe_z=0.02)
    y = np.linspace(0, TWO_PI, 64, endpoint=False)
    for f1, f2 in ((chart.a, back.a), (chart.b, back.b), (chart.alpha, back.alpha),
                   (chart.beta, back.beta), (chart.rho, back.rho)):
        lhs = np.asarray(f1(y)) + np.zeros_like(y)
        assert np.max(np.abs(lhs - np.asarray(f2(y)))) < 1e-6


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


def test_validate_constructed_violations():
    good = rotation_radial_model()
    assert validate(good).ok
    # normal component on the circle
    bad = AmbientModel(
        v=(ZeroField(), RotationField(),
           ConstantFrameField((1.0, 0.0), Const(1.0))),
        tilde_v=good.tilde_v,
    )
    rep = validate(bad)
    assert not rep.ok
    assert any(v.kind == "TangencyViolation" for v in rep.violations)
    # degenerate perturbation frame
    bad2 = AmbientModel(v=good.v, tilde_v=(ZeroField(), ZeroField(), ZeroField()))
    rep2 = validate(bad2)
    assert any(v.kind == "SpanViolation" for v in rep2.violations)
    # rho must be strictly positive at construction
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
