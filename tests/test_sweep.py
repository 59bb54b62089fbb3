"""The block sweep in fd against a sparse direct solve of the same systems."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from boundarylab import dirichlet, fd, halfcyl
from boundarylab.coefficients import Const
from boundarylab.errors import NoConvergence
from boundarylab.fields import Flavor, assemble
from boundarylab.geometry import DomainKind, DomainModel, TWO_PI

GRID = halfcyl.HalfCylinderGrid(n_y=32, n_z=200, height=1e13, dz0=0.02)
TOL = 1e-11


def _csr(bands):
    """Sparse matrix of a level system; the couplings out of the levels are dropped."""
    n_levels, _, _, n = bands.shape
    j, i = np.meshgrid(np.arange(n_levels), np.arange(n), indexing="ij")
    rows, cols, vals = [], [], []
    for dj in (-1, 0, 1):
        for di in (-1, 0, 1):
            keep = (j + dj >= 0) & (j + dj < n_levels)
            rows.append((j * n + i)[keep])
            cols.append(((j + dj) * n + (i + di) % n)[keep])
            vals.append(bands[:, dj + 1, di + 1][keep])
    return sp.csc_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n_levels * n,) * 2)


def _spsolve(bands, rhs):
    return spla.spsolve(_csr(bands), rhs.ravel()).reshape(rhs.shape)


@pytest.fixture(scope="module")
def cross_d(zoo):
    """Model D with a mixed term, whose level couplings are tridiagonal."""
    return dataclasses.replace(zoo["D"], d=Const(0.3))


@pytest.mark.parametrize("name", ["D", "cross"])
def test_neumann_solve_matches_spsolve(zoo, cross_d, name):
    m = cross_d if name == "cross" else zoo[name]
    bands = halfcyl._neumann_system(assemble(m, None, Flavor.LIMIT), GRID)
    assert bands[:-1, (0, 2)][:, :, (0, 2)].any() == (name == "cross")
    sol = halfcyl.solve_u(m, np.cos, GRID)
    ref = _spsolve(bands, halfcyl._data_rhs(bands, np.cos(GRID.y_nodes())))
    assert np.max(np.abs(sol.u_grid[1:] - ref)) <= TOL


def test_dirichlet_and_conditioned_solves_match_spsolve(zoo):
    m = zoo["B-asym"]
    gc = assemble(m, None, Flavor.LIMIT)
    ones = np.ones(GRID.n_y)
    sol_h = halfcyl.solve_h(m, GRID)
    # the grid's own h is the cut of the padded sweep at its top node
    own = halfcyl._discretize(gc, GRID.z_nodes(), GRID.n_y, "dirichlet0")
    assert np.max(np.abs(sol_h.u_grid[1:] - _spsolve(own, halfcyl._data_rhs(own, ones)))) <= TOL
    padded = halfcyl._discretize(gc, GRID.extended(halfcyl.PAD_FACTOR), GRID.n_y, "dirichlet0")
    ref = _spsolve(padded, halfcyl._data_rhs(padded, ones))[:GRID.n_z]
    assert np.max(np.abs(sol_h.h_grid[1:] - ref)) <= TOL

    sol = halfcyl.solve_conditioned(m, np.cos, GRID, _regime=sol_h)
    bands = halfcyl._neumann_system(gc, GRID, sol_h.h_grid)
    ref = _spsolve(bands, halfcyl._data_rhs(bands, np.cos(GRID.y_nodes())))
    assert np.max(np.abs(sol.u_grid[1:] - ref)) <= TOL


@pytest.mark.parametrize("name", ["B-asym", "cross"])
def test_transposed_solve_matches_spsolve(zoo, cross_d, name):
    gc = assemble(cross_d if name == "cross" else zoo[name], None, Flavor.LIMIT)
    h = halfcyl._padded_h(gc, GRID)[0] if name == "B-asym" else None
    bands = halfcyl._neumann_system(gc, GRID, h)
    c = np.random.default_rng(3).standard_normal((GRID.n_z, GRID.n_y))
    x = fd.Elimination(bands).solve_transposed(c)
    ref = spla.spsolve(_csr(bands).T.tocsc(), c.ravel()).reshape(c.shape)
    assert np.max(np.abs(x - ref)) <= TOL


def _polar_reference(op, n_theta, r_nodes, f_outer, f_inner=None):
    """The polar system with the pole as an unknown of its own, assembled and solved sparse."""
    theta = np.linspace(0.0, TWO_PI, n_theta, endpoint=False)
    th, r = np.meshgrid(theta, r_nodes[1:-1])
    steps = np.diff(r_nodes)[:, None] + np.zeros(n_theta)
    bands = fd.stencil(*op.polar_coefficients(th, r), TWO_PI / n_theta, steps[:-1], steps[1:])
    n = bands.shape[0] * n_theta
    rhs = np.zeros((bands.shape[0], n_theta))
    rhs[-1] -= fd.band_dot(bands[-1, 2], f_outer)
    if f_inner is not None:
        rhs[0] -= fd.band_dot(bands[0, 0], f_inner)
        return _spsolve(bands, rhs)
    mat = sp.lil_matrix((n + 1, n + 1))
    mat[:n, :n] = _csr(bands)
    mat[:n_theta, n] = bands[0, 0].sum(axis=0)[:, None]    # ring 1 on the pole
    mat[n, :n_theta] = 1.0 / n_theta                        # pole = mean of ring 1
    mat[n, n] = -1.0
    x = spla.spsolve(mat.tocsc(), np.append(rhs.ravel(), 0.0))
    return np.vstack([np.full(n_theta, x[-1]), x[:-1].reshape(rhs.shape)])


@pytest.mark.parametrize("name", ["D", "cross"])
@pytest.mark.parametrize("annulus", [False, True])
def test_polar_solve_matches_spsolve(zoo, cross_d, name, annulus):
    m = cross_d if name == "cross" else zoo[name]
    dom = DomainModel(kind=DomainKind.ANNULUS, inner_radius=0.4, chart_radius=0.25) \
        if annulus else DomainModel()
    op = dirichlet.DiskOperator(model=m, eps=0.1, completion=dirichlet.default_completions(m)[0],
                                dom=dom)
    sol = dirichlet.solve_fd(op, np.cos, n_theta=32, psi_inner=np.sin if annulus else None)
    f_inner = np.sin(sol.theta_nodes) if annulus else None
    ref = _polar_reference(op, 32, sol.r_nodes, np.cos(sol.theta_nodes), f_inner)
    assert np.max(np.abs(sol.u[1 if annulus else 0:-1] - ref)) <= TOL


def test_cut_is_the_solve_of_the_node_aligned_sub_grid(zoo):
    gc = assemble(zoo["D"], None, Flavor.LIMIT)
    z = GRID.z_nodes()
    bands = halfcyl._neumann_system(gc, GRID)
    rhs = halfcyl._data_rhs(bands, np.cos(GRID.y_nodes()))
    k = halfcyl._half_level(z)
    assert 0 < k < GRID.n_z and z[k] >= z[-1] / 2.0 > z[k - 1]
    cut = fd.Elimination(bands).cut(k, halfcyl._top_row("neumann", GRID.n_y)).solve(rhs[:k])
    sub = fd.Elimination(halfcyl._discretize(gc, z[:k + 1], GRID.n_y, "neumann")).solve(rhs[:k])
    assert np.max(np.abs(cut - sub)) <= 1e-13


@pytest.mark.parametrize("stretching", ["geometric", "uniform"])
def test_extended_grid_keeps_the_nodes(stretching):
    grid = halfcyl.HalfCylinderGrid(n_y=32, n_z=200, height=1e13 if stretching == "geometric"
                                    else 50.0, stretching=stretching, dz0=0.02)
    tall = grid.extended(halfcyl.PAD_FACTOR)
    assert np.array_equal(tall[:grid.n_z + 1], grid.z_nodes())
    assert np.all(np.diff(tall) > 0) and tall[-1] >= halfcyl.PAD_FACTOR * grid.height * 0.99


def _diagonally_dominant(n_levels=6, n=8):
    bands = np.zeros((n_levels, 3, 3, n))
    bands[:, 1, 1] = -4.0
    bands[:, (0, 1, 1, 2), (1, 0, 2, 1)] = 1.0
    return bands


@pytest.mark.parametrize("fault, level", [("singular", 3), ("nan", 5)])
def test_bad_level_block_raises_a_named_error(fault, level):
    bands = _diagonally_dominant()
    fd.Elimination(bands).solve(np.ones((bands.shape[0], bands.shape[-1])))
    if fault == "singular":
        bands[level - 1] = 0.0
        bands[level - 1, 1, 1, 1:] = 1.0    # one empty row: the level block is singular
    else:
        bands[level - 1, 1, 1, 0] = np.nan
    with pytest.raises(NoConvergence, match=f"level {level}"):
        fd.Elimination(bands)
