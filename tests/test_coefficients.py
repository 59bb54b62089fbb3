import numpy as np
import pytest

from boundarylab.coefficients import (
    Const,
    Cosine,
    Fourier,
    coefficient_from_config,
)
from boundarylab.errors import ConfigError


def test_const_and_cosine_eval():
    y = np.linspace(0, 2 * np.pi, 9)
    assert np.all(Const(2.5)(y) == 2.5)
    c = Cosine(1.0, 0.5, 0.3)
    assert c(y) == pytest.approx(1.0 + 0.5 * np.cos(y - 0.3))


def test_fourier_eval():
    f = Fourier(constant=0.5, terms=((1, 0.0, 0.25), (3, 0.1, 0.0)))
    y = np.linspace(0, 2 * np.pi, 17)
    expect = 0.5 + 0.25 * np.sin(y) + 0.1 * np.cos(3 * y)
    assert f(y) == pytest.approx(expect)


def test_config_roundtrip():
    for spec, fn in (
            ({"kind": "const", "c": 1.5}, Const(1.5)),
            ({"kind": "cosine", "mean": 1.0, "amp": 0.5, "phase": 0.2}, Cosine(1.0, 0.5, 0.2)),
            ({"kind": "cosine", "mean": 1.0, "amp": 0.5}, Cosine(1.0, 0.5)),
            ({"kind": "fourier", "constant": 0.0, "terms": [[2, 0.3, -0.1]]},
             Fourier(0.0, ((2, 0.3, -0.1),)))):
        assert coefficient_from_config(spec, "model.a") == fn


def test_bare_number_shorthand():
    fn = coefficient_from_config(3, "model.rho")
    assert fn(0.0) == 3.0


def test_errors_name_the_field():
    with pytest.raises(ConfigError) as err:
        coefficient_from_config({"kind": "cosine", "mean": 1.0}, "model.alpha")
    assert "model.alpha" in str(err.value)
    with pytest.raises(ConfigError):
        coefficient_from_config({"kind": "warp"}, "model.a")
    with pytest.raises(ConfigError) as err:
        coefficient_from_config({"kind": "fourier", "constant": 1.0,
                                 "terms": [[0, 1.0, 0.0]]}, "model.b")
    assert "terms[0]" in str(err.value)


@pytest.mark.parametrize("spec, field", [
    (float("nan"), "model.a"),
    ({"kind": "const", "c": float("inf")}, "model.a.c"),
    ({"kind": "cosine", "mean": 1.0, "amp": float("-inf")}, "model.a.amp"),
    ({"kind": "fourier", "constant": 1.0, "terms": [[1, 0.5, float("nan")]]},
     "model.a.terms[0][2]"),
    ({"kind": "fourier", "constant": 1.0, "terms": [[True, 0.5, 0.0]]}, "model.a.terms[0]"),
    ({"kind": "fourier", "constant": 10**400, "terms": []}, "model.a.constant"),
    ({"kind": "fourier", "constant": 1.0, "terms": [[10**400, 1.0, 0.0]]}, "model.a.terms[0]"),
])
def test_non_finite_numbers_are_config_errors(spec, field):
    with pytest.raises(ConfigError) as err:
        coefficient_from_config(spec, "model.a")
    assert err.value.field == field
