"""The block sweep in fd against a sparse direct solve of the same systems."""

import copy
import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from boundarylab import dirichlet, fd, halfcyl
from boundarylab.coefficients import Const
from boundarylab.errors import ModelError, NoConvergence
from boundarylab.fields import Flavor, assemble
from boundarylab.geometry import TWO_PI

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


def _rhs(bands, f_vals):
    """Right-hand side of the level system bands whose first level couples to the data f_vals."""
    rhs = np.zeros((len(bands), f_vals.size))
    rhs[0] = -fd.band_dot(bands[0, 0], f_vals)
    return rhs


def _neumann_system(gc, grid):
    return halfcyl._discretize(gc, grid.z_nodes(), grid.n_y, halfcyl.NEUMANN)


@pytest.fixture(scope="module")
def cross_d(zoo):
    """Model D with a mixed term, whose level couplings are tridiagonal."""
    return dataclasses.replace(zoo["D"], d=Const(0.3))


@pytest.mark.parametrize("name", ["D", "cross"])
def test_neumann_solve_matches_spsolve(zoo, cross_d, name):
    m = cross_d if name == "cross" else zoo[name]
    bands = _neumann_system(assemble(m, None, Flavor.LIMIT), GRID)
    assert bands[:-1, (0, 2)][:, :, (0, 2)].any() == (name == "cross")
    sol = halfcyl.solve_u(m, np.cos, GRID)
    ref = _spsolve(bands, _rhs(bands, np.cos(GRID.y_nodes())))
    assert np.max(np.abs(sol.u_grid[1:] - ref)) <= TOL


def _h(gc, grid):
    """The h sweep's h on grid's nodes: the columns of its conditioned cut at the top."""
    return np.vstack([np.ones(grid.n_y), halfcyl._h_sweep(gc, grid)[0](grid.n_z).cols])


def _conjugated(gc, grid, h):
    """H^-1 A H, the conditioned system written on u itself: the Neumann-top system
    with its PDE rows conjugated by the diagonal of h (on grid's nodes)."""
    bands = _neumann_system(gc, grid)
    rows = h[1:-1]
    for dj in (-1, 0, 1):
        cols = h[1 + dj:h.shape[0] - 1 + dj]
        for di in (-1, 0, 1):
            bands[:-1, dj + 1, di + 1] *= np.roll(cols, -di, axis=1) / rows
    return bands


def test_dirichlet_and_conditioned_solves_match_spsolve(zoo):
    m = zoo["B-asym"]
    gc = assemble(m, None, Flavor.LIMIT)
    ones = np.ones(GRID.n_y)
    sol = halfcyl.solve_conditioned(m, np.cos, GRID)
    # the grid's own h is the cut of the padded sweep at its top node
    own = halfcyl._discretize(gc, GRID.z_nodes(), GRID.n_y, halfcyl.DIRICHLET_ZERO)
    assert np.max(np.abs(sol.h.u_grid[1:] - _spsolve(own, _rhs(own, ones)))) <= TOL
    padded = halfcyl._discretize(gc, GRID.extended(halfcyl.PAD_FACTOR), GRID.n_y,
                                 halfcyl.DIRICHLET_ZERO)
    h = _h(gc, GRID)
    assert np.max(np.abs(h[1:] - _spsolve(padded, _rhs(padded, ones))[:GRID.n_z])) <= TOL

    bands = _conjugated(gc, GRID, h)
    ref = _spsolve(bands, _rhs(bands, np.cos(GRID.y_nodes())))
    assert np.max(np.abs(sol.u_grid[1:] - ref)) <= TOL


def test_conditioned_solve_matches_spsolve_where_h_underflows_far(zoo):
    grid = halfcyl.HalfCylinderGrid(n_y=32, n_z=800, height=1e24, dz0=0.02)
    gc = assemble(zoo["B"], None, Flavor.LIMIT)
    sol = halfcyl.solve_conditioned(zoo["B"], np.cos, grid, check_truncation=False)
    h = _h(gc, grid)
    assert np.min(h) < 1e-40
    bands = _conjugated(gc, grid, h)
    ref = _spsolve(bands, _rhs(bands, np.cos(grid.y_nodes())))
    assert np.max(np.abs(sol.u_grid[1:] - ref)) <= TOL


@pytest.mark.parametrize("name", ["B-asym", "cross"])
def test_transposed_solve_matches_spsolve(zoo, cross_d, name):
    gc = assemble(cross_d if name == "cross" else zoo[name], None, Flavor.LIMIT)
    c = np.random.default_rng(3).standard_normal((GRID.n_z, GRID.n_y))
    if name == "B-asym":
        cut = halfcyl._h_sweep(gc, GRID)[0](GRID.n_z)
        # the conjugated system is A H with its PDE rows divided by h, so its transposed
        # solution is h x on those rows and x on the top row, which is the same in both
        x = cut.solve_transposed(c)
        x[:-1] *= cut.cols[:-1]
        bands = _conjugated(gc, GRID, np.vstack([np.ones(GRID.n_y), cut.cols]))
    else:
        bands = _neumann_system(gc, GRID)
        x = fd.Elimination(bands).solve_transposed(c)
    ref = spla.spsolve(_csr(bands).T.tocsc(), c.ravel()).reshape(c.shape)
    assert np.max(np.abs(x - ref)) <= TOL


def test_conditioned_check_sees_an_error_at_the_top(zoo):
    gc = assemble(zoo["B-asym"], None, Flavor.LIMIT)
    cut = halfcyl._h_sweep(gc, GRID)[0](GRID.n_z)
    padded = halfcyl._discretize(gc, GRID.extended(halfcyl.PAD_FACTOR), GRID.n_y,
                                 halfcyl.DIRICHLET_ZERO)
    rhs = _rhs(padded[:GRID.n_z], np.cos(GRID.y_nodes()))
    u = cut.solve(rhs)
    u[-2:] *= 1.0 + 1e-6
    with pytest.raises(NoConvergence):
        cut._check(u, rhs)
    # on v = h u alone the same error is far below the target: h is tiny up there
    v_system = copy.copy(cut)
    v_system.cols = None
    v_system._check(cut.cols * u, rhs)


@pytest.mark.parametrize("name", ["D", "cross"])
def test_data_weights_are_the_functional_of_the_data_solve(zoo, cross_d, name):
    m = cross_d if name == "cross" else zoo[name]
    elim = fd.Elimination(_neumann_system(assemble(m, None, Flavor.LIMIT), GRID))
    rng = np.random.default_rng(5)
    c, f = rng.standard_normal((GRID.n_z, GRID.n_y)), rng.standard_normal(GRID.n_y)
    assert abs(np.sum(c * elim.solve_data(f)) - elim.data_weights(c) @ f) <= TOL


def test_a_level_of_fewer_than_three_columns_is_refused():
    with pytest.raises(ModelError, match="got 2"):
        fd.Elimination(_diagonally_dominant(n=2))


def _polar_reference(op, n_theta, r_nodes, f_outer):
    """The polar system with the pole as an unknown of its own, assembled and solved sparse."""
    theta = np.linspace(0.0, TWO_PI, n_theta, endpoint=False)
    th, r = np.meshgrid(theta, r_nodes[1:-1])
    steps = np.diff(r_nodes)[:, None] + np.zeros(n_theta)
    bands = fd.stencil(*op.polar_coefficients(th, r), TWO_PI / n_theta, steps[:-1], steps[1:])
    n = bands.shape[0] * n_theta
    rhs = np.zeros((bands.shape[0], n_theta))
    rhs[-1] -= fd.band_dot(bands[-1, 2], f_outer)
    mat = sp.lil_matrix((n + 1, n + 1))
    mat[:n, :n] = _csr(bands)
    mat[:n_theta, n] = bands[0, 0].sum(axis=0)[:, None]    # ring 1 on the pole
    mat[n, :n_theta] = 1.0 / n_theta                        # pole = mean of ring 1
    mat[n, n] = -1.0
    x = spla.spsolve(mat.tocsc(), np.append(rhs.ravel(), 0.0))
    return np.vstack([np.full(n_theta, x[-1]), x[:-1].reshape(rhs.shape)])


@pytest.mark.parametrize("name", ["D", "cross"])
def test_polar_solve_matches_spsolve(zoo, cross_d, name):
    m = cross_d if name == "cross" else zoo[name]
    op = dirichlet.DiskOperator(model=m, eps=0.1,
                                completion=dirichlet.default_completions(m)[0])
    sol = dirichlet.solve_fd(op, np.cos, n_theta=32)
    ref = _polar_reference(op, 32, sol.r_nodes, np.cos(sol.theta_nodes))
    assert np.max(np.abs(sol.u[:-1] - ref)) <= TOL


def test_cut_is_the_solve_of_the_node_aligned_sub_grid(zoo):
    gc = assemble(zoo["D"], None, Flavor.LIMIT)
    z = GRID.z_nodes()
    bands = _neumann_system(gc, GRID)
    rhs = _rhs(bands, np.cos(GRID.y_nodes()))
    k = halfcyl._half_level(z)
    assert 0 < k < GRID.n_z and z[k] >= z[-1] / 2.0 > z[k - 1]
    top = halfcyl._top_row(*halfcyl.NEUMANN, GRID.n_y)
    cut = fd.Elimination(bands).cut(k, top).solve(rhs[:k])
    sub = fd.Elimination(halfcyl._discretize(gc, z[:k + 1], GRID.n_y, halfcyl.NEUMANN)).solve(rhs[:k])
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


def test_inverse_block_comes_in_whole_granules():
    # exact sizes let the allocator's history choose fresh pages or the heap per block
    for n_levels, n in [(6, 8), (64, 32), (2050, 32)]:
        elim = fd.Elimination(_diagonally_dominant(n_levels, n))
        assert elim.inv.shape == (n_levels, n, n)
        assert elim.inv.base.nbytes % fd.GRANULE_BYTES == 0
