"""The reduced forms on the samplers' per-step path give the bits of the full ones.

The zero-off-diagonal noise term of ``sde._increments`` is compared with
the general Cholesky form, and the shortcuts of ``Fourier`` and ``Cosine``
with the unreduced formulas.  Arrays are compared through their int64
views, so signed zeros and NaN payloads count.
"""

import itertools

import numpy as np
import pytest

from boundarylab import sde
from boundarylab.coefficients import Const, Cosine, Fourier
from boundarylab.fields import ChartModel, Flavor, assemble

FLAVORS = ((Flavor.LOG, None), (Flavor.LIMIT, None), (Flavor.RESCALED, 0.1),
           (Flavor.CHART, 0.0), (Flavor.CHART, 0.1))
VALUES = [0.0, -0.0, 0.3, 1.0, -2.0, 7.5, 1e3, 1e-200, np.nan, np.inf, -np.inf]
ENTRIES = [0.0, -0.0, 1e-200, 1.0, np.inf, np.nan]
NOISE = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan]
SQDT = 0.1

# d = 0 with a sloped perturbation: Ayv is zero, yet Ayy stays finite at an infinite height
SLOPED_CROSS_FREE = ChartModel(a=Const(1.0), b=Const(0.0), alpha=Const(1.0), beta=Const(0.5),
                               z_slope=2.0, name="sloped0")


def same_bits(left, right):
    left, right = np.asarray(left, dtype=float), np.asarray(right, dtype=float)
    assert left.shape == right.shape
    return left.view(np.int64) == right.view(np.int64)


def _stream_noise_pairs():
    # what a step can read: finite normals, and the infinite spike tests/test_fold.py injects;
    # no stream draws NaN, and against NaN noise a NaN's sign may differ at w = -inf in LOG
    finite = [x for x in NOISE if not np.isnan(x)]
    return np.array(list(itertools.product(finite, finite)))


@pytest.mark.parametrize("a12", [0.0, -0.0])
def test_diagonal_increments_match_the_general_form(a12):
    grid = np.array(list(itertools.product(ENTRIES, ENTRIES, NOISE, NOISE)))
    a11, a22 = grid[:, 0], grid[:, 1]
    noise = np.ascontiguousarray(grid[:, 2:])
    with np.errstate(all="ignore"):
        general = sde._increments(SQDT, a11, np.full(a11.shape, a12), a22, noise)
        diagonal = sde._increments(SQDT, a11, None, a22, noise)
    assert np.all(same_bits(general[0], diagonal[0]))
    differ = ~same_bits(general[1], diagonal[1])
    if a12 == 0.0 and np.signbit(a12):
        # -0.0 flips the sign of s2 * n1, which shows where the whole sum is a zero;
        # LIMIT gives Ayv = -0.0 only at heights <= -0.0, which no live row reaches
        assert np.any(differ)
        assert np.all(general[1][differ] == 0.0) and np.all(diagonal[1][differ] == 0.0)
    else:
        assert not np.any(differ)


def _models(zoo):
    return {**zoo, "sloped0": SLOPED_CROSS_FREE}


@pytest.mark.parametrize("flavor, eps", FLAVORS)
def test_cross_free_steps_keep_the_bits_of_the_general_step(zoo, flavor, eps):
    y, v = (a.ravel() for a in np.meshgrid(VALUES, VALUES, indexing="ij"))
    if flavor is Flavor.LIMIT:
        # LIMIT's Ayv is -0.0 below +0.0; the samplers clip heights at zero
        keep = ~np.signbit(v) | ~np.isfinite(v)
        y, v = y[keep], v[keep]
    pairs = _stream_noise_pairs()
    rows = np.repeat(np.arange(y.size), len(pairs))
    noise = np.tile(pairs, (y.size, 1))
    reduced = 0
    with np.errstate(all="ignore"):
        for m in _models(zoo).values():
            gc = assemble(m, eps, flavor)
            by, bv, a11, a12, a22 = gc.ito(y, v)
            general = sde._increments(SQDT, a11[rows], a12[rows], a22[rows], noise)
            diagonal = sde._increments(SQDT, a11[rows], None, a22[rows], noise)
            same = np.all(same_bits(general[0], diagonal[0])) and \
                np.all(same_bits(general[1], diagonal[1]))
            assert gc.cross_free == same, m.name
            step = gc.ito(y, v, not gc.cross_free)
            for left, right in zip(step, (by, bv, a11, a12, a22)):
                if left is None:
                    assert gc.cross_free
                else:
                    assert np.all(same_bits(left, right))
            reduced += gc.cross_free
    assert reduced


def test_cross_free_is_read_from_const_zero_only(zoo):
    assert assemble(zoo["A"], None, Flavor.LIMIT).cross_free
    for d in (Fourier(0.0, ()), Const(-0.0), Const(0.3)):
        m = ChartModel(a=Const(1.0), b=Const(0.0), alpha=Const(1.0), beta=Const(0.0), d=d)
        assert not assemble(m, None, Flavor.LIMIT).cross_free
    assert assemble(SLOPED_CROSS_FREE, 0.0, Flavor.CHART).cross_free
    assert not assemble(SLOPED_CROSS_FREE, 0.1, Flavor.RESCALED).cross_free


def _unreduced_fourier(f, y):
    y = np.asarray(y, dtype=float)
    out = np.full(y.shape, float(f.constant)) if y.shape else float(f.constant)
    for k, ck, sk in f.terms:
        out = out + ck * np.cos(k * y) + sk * np.sin(k * y)
    return out


SERIES = [
    Fourier(0.0, ((1, 0.0, 1.0),)),
    Fourier(0.5, ((1, 0.0, 0.25),)),
    Fourier(-0.0, ((1, 0.0, 1.0),)),
    Fourier(-0.0, ((1, 1.0, 0.0), (2, 0.0, -0.5))),
    Fourier(0.0, ((1, 1.0, 0.0), (2, 0.0, -0.5), (3, 0.0, 0.0), (1, -0.0, 2.0))),
    Fourier(0.1, ((1, 0.0, 0.5), (2, 1.0, 0.0))),
    Fourier(1.5, ()),
    Fourier(-0.0, ((2, 1e-320, 0.0),)),
]
COSINES = [Cosine(1.0, 0.5), Cosine(1.0, 0.5, -0.0), Cosine(-0.0, 1.0), Cosine(1.0, 0.5, 0.7)]


def test_coefficient_shortcuts_keep_the_bits_of_the_unreduced_formulas():
    y = np.array(VALUES)
    with np.errstate(all="ignore"):
        for f in SERIES:
            assert np.all(same_bits(f(y), _unreduced_fourier(f, y))), f
            for x in VALUES:
                assert np.all(same_bits(f(x), _unreduced_fourier(f, x))), (f, x)
        for c in COSINES:
            assert np.all(same_bits(c(y), c.mean + c.amp * np.cos(y - c.phase))), c
