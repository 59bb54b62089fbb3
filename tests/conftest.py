import numpy as np
import pytest

from boundarylab import models
from boundarylab.classifier import classify


@pytest.fixture(scope="session")
def zoo():
    return {name: models.get_model(name) for name in models.model_names()}


@pytest.fixture(scope="session")
def reports(zoo):
    return {name: classify(m, grid_size=512) for name, m in zoo.items()}


@pytest.fixture
def outlier_noise(monkeypatch):
    """Each noise block gives its first path a first height normal of 40, and a uniform 1
    where the sampler reads uniforms; the sampler must draw two normals per step."""
    from boundarylab import sde

    orig = sde._draw_block

    def spiked(gens, reads):
        normals, uniforms = orig(gens, reads)
        normals[0, 0, 1] = 40.0  # far beyond the 10-sigma displacement guard
        if uniforms.size:
            uniforms[0, 0] = 1.0
        return normals, uniforms

    monkeypatch.setattr(sde, "_draw_block", spiked)


def stationary_density_oracle(b_fn, a_fn, y):
    """Closed-form stationary density on the circle for zero-circulation drift.

    With B(y) = int_0^y 2 b/a, periodic B means zero stationary flux and
    the density is proportional to exp(B)/a; quadrature by trapezoid.
    """
    from scipy.integrate import cumulative_trapezoid

    fine = np.linspace(0.0, 2 * np.pi, 16385)
    integrand = 2.0 * np.asarray(b_fn(fine)) / np.asarray(a_fn(fine))
    big = cumulative_trapezoid(integrand, fine, initial=0.0)
    assert abs(big[-1]) < 1e-10, "oracle assumes zero circulation"
    dens = np.exp(np.interp(y, fine, big)) / np.asarray(a_fn(y))
    mass = np.sum(np.exp(big[:-1]) / np.asarray(a_fn(fine[:-1]))) * (fine[1] - fine[0])
    return dens / mass
