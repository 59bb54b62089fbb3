"""Finite-difference kernel shared by the half-cylinder and the polar disk solves.

Both discretize ``caa u_aa + 2 car u_ar + crr u_rr + ba u_a + br u_r`` on a
tensor grid: a periodic angular direction with a uniform step and a second
direction (height or radius) whose nodes are the levels of the system.
``stencil`` gives the second-order central entries, switched per cell to
first-order upwinding of a drift whose cell Peclet number exceeds 2 (which
keeps the matrix an M-matrix, so the discrete maximum principle holds),
plus the 4-point cross of the mixed term, as level bands: periodic-
tridiagonal blocks coupling each level to itself and its two neighbours.

``Elimination`` is the one direct solver: block elimination level by level
(Varah, Math. Comp. 26, 1972) of the row-equilibrated system.  It keeps a
dense n x n inverse per level, n_levels n^2 doubles (17 MiB for 64 columns
and 558 levels, 350 MiB for 128 and 2802), freed with the object.  Their
block is allocated in whole GRANULE_BYTES; the levels past n_levels are
never written, so the rounding costs address space, not memory.  glibc
serves a block above its mmap threshold from fresh pages and one below it
from the heap, and raises the threshold to the size of each fresh block it
frees.  With exact sizes, which of the two a solve's block came from, and
a process's peak RSS with it, followed the sizes freed before it; in whole
granules the sizes fall into a few classes, settled by the first blocks.
"""

from __future__ import annotations

import copy
import functools

import numpy as np
from scipy.linalg import lapack

from .errors import ModelError, NoConvergence
from .geometry import TWO_PI

RESIDUAL_TARGET = 1e-10  # max residual / max right-hand side, row-equilibrated
GRANULE_BYTES = 8 * 2**20  # the unit an Elimination's block of inverses comes in


def stencil(caa, car, crr, ba, br, da: float, hm, hp) -> np.ndarray:
    """Level bands of the stencil at every interior node.

    The coefficient arrays hold the operator at the nodes, with the level
    first and the angle last; da is the angular step and hm, hp the steps
    to the lower and upper neighbours in the second direction.  Entry
    [j, dj + 1, di + 1, i] is the coefficient, in the row of node (j, i),
    of the value at node (j + dj, i + di), the angle index taken
    periodically.  The cross entries are zero when car is.
    """
    pe_a = np.abs(ba) * da / np.maximum(caa, 1e-300)
    up_a = pe_a > 2.0
    c_am = caa / da ** 2 + np.where(up_a, np.where(ba < 0, -ba / da, 0.0), -ba / (2 * da))
    c_ap = caa / da ** 2 + np.where(up_a, np.where(ba > 0, ba / da, 0.0), ba / (2 * da))
    c_a0 = -2.0 * caa / da ** 2 + np.where(up_a, -np.abs(ba) / da, 0.0)

    denom = hm + hp
    d_m = 2.0 * crr / (hm * denom)
    d_p = 2.0 * crr / (hp * denom)
    d_0 = -2.0 * crr / (hm * hp)
    pe_r = np.abs(br) * np.maximum(hm, hp) / np.maximum(crr, 1e-300)
    up_r = pe_r > 2.0
    a_m = np.where(up_r, np.where(br < 0, -br / hm, 0.0), -br * hp / (hm * denom))
    a_p = np.where(up_r, np.where(br > 0, br / hp, 0.0), br * hm / (hp * denom))
    a_0 = np.where(up_r, -np.abs(br) / np.where(br > 0, hp, hm),
                   br * (hp - hm) / (hm * hp))
    w = 2.0 * car / (2.0 * da * denom)

    shape = np.broadcast(caa, car, crr, ba, br, hm, hp).shape
    bands = np.zeros(shape[:-1] + (3, 3) + shape[-1:])
    for di, dj, coeff in [(-1, 0, c_am), (1, 0, c_ap), (0, -1, d_m + a_m),
                          (0, 1, d_p + a_p), (0, 0, c_a0 + d_0 + a_0),
                          (1, 1, w), (-1, 1, -w), (1, -1, -w), (-1, -1, w)]:
        bands[..., dj + 1, di + 1, :] = coeff
    return bands


def level_bands(coeffs, nodes: np.ndarray) -> np.ndarray:
    """Level bands of the stencil with coefficients coeffs (caa, car, crr, ba, br) at
    the interior nodes[1:-1] of the second direction, by n angles periodic over 2 pi."""
    n = np.broadcast(*coeffs).shape[-1]
    steps = np.diff(nodes)[:, None] + np.zeros(n)
    return stencil(*coeffs, TWO_PI / n, steps[:-1], steps[1:])


def within_data(u: np.ndarray, *data) -> bool:
    """Whether u lies in the range of the data, to 1e-9 of its width (at least 1)."""
    lo = min(float(np.min(d)) for d in data)
    hi = max(float(np.max(d)) for d in data)
    tol = 1e-9 * max(hi - lo, 1.0)
    return bool(np.all(u >= lo - tol) and np.all(u <= hi + tol))


def boundary_values(f, a: np.ndarray) -> np.ndarray:
    """Data on the angle nodes a: f(a) for a callable f, else f broadcast to a's shape.

    Data with a NaN or an infinity raise ModelError naming the first such node.
    """
    vals = np.asarray(f(a), dtype=float) if callable(f) else np.asarray(f, dtype=float)
    if vals.shape != a.shape:
        vals = vals + np.zeros_like(a)
    finite = np.isfinite(vals)
    if not finite.all():
        j = int(np.argmin(finite))
        raise ModelError(f"boundary data at node {j} (angle {a[j]:.6g}) is not finite: {vals[j]}")
    return vals


def band_dot(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Periodic-tridiagonal block band (3, n), or a stack of them, times x along its last axis."""
    return band[..., 0, :] * np.roll(x, 1, -1) + band[..., 1, :] * x + \
        band[..., 2, :] * np.roll(x, -1, -1)


def band_transpose(band: np.ndarray) -> np.ndarray:
    """Band of the transposed block."""
    return np.stack([np.roll(band[..., 2, :], 1, -1), band[..., 1, :],
                     np.roll(band[..., 0, :], -1, -1)], axis=-2)


def _raise_bad_level(inv, stop: int):
    """Raise NoConvergence naming the first level below stop whose inverse is not
    finite, else level stop (from 0), whose block is singular."""
    j = next((k for k in range(stop) if not np.isfinite(inv[k]).all()), stop)
    raise NoConvergence(f"level {j + 1}: block is singular or not finite")


class Elimination:
    """Block LU of a block-tridiagonal system, swept upward level by level.

    bands (n_levels, 3, 3, n), n >= 3, are the rows of the system, laid
    out as ``stencil`` lays them out.  The first level's coupling downward
    and the last level's upward act on data rows outside the system: they
    are kept, unscaled, as below and above, for solve_data and
    data_weights.  first, if given, is a dense n x n term added to the
    first level's diagonal block.  Every row is scaled to max |entry| 1
    before the sweep, and every solve checks its residual on that scaled
    system.  A level whose block is singular or not finite raises
    NoConvergence naming it; the inverses are checked for finite entries
    once, after the sweep.
    """

    def __init__(self, bands: np.ndarray, first: np.ndarray | None = None):
        bands = np.array(bands, dtype=float)
        n_levels, n = bands.shape[0], bands.shape[-1]
        if n < 3:    # i - 1 and i + 1 would be one node, and the block's band entries collide
            raise ModelError(f"a level needs at least 3 columns, got {n}")
        # flat indices in an n x n block of its band entries (i, i - 1), (i, i), (i, i + 1),
        # in the band's own order
        i = np.arange(n)
        self._band_index = np.concatenate([i * n + (i - 1) % n, i * (n + 1), i * n + (i + 1) % n])
        self.below, self.above = bands[0, 0].copy(), bands[-1, 2].copy()
        bands[0, 0] = 0.0
        bands[-1, 2] = 0.0
        scale = np.abs(bands).max(axis=(1, 2))
        if first is not None:
            scale[0] = np.maximum(np.abs(bands[0, 2]).max(axis=0),
                                  np.abs(self._add_band(first.copy(), bands[0, 1])).max(axis=1))
        scale[scale == 0] = 1.0
        self.scale = scale
        bands /= scale[:, None, None, :]
        self.bands = bands
        self.first = None if first is None else first / scale[0][:, None]
        self.cross = bool(self.bands[:, (0, 2)][:, :, (0, 2)].any())
        self.cols = None
        neg_lower = -bands[:, 0, 1, :, None]
        per = max(1, GRANULE_BYTES // (8 * n * n))
        self.inv = np.empty((-(-n_levels // per) * per, n, n))[:n_levels]
        for j in range(n_levels):
            inv = self._invert(j, bands[j], self.inv[j - 1] if j else None, neg_lower[j])
            if inv is None:
                _raise_bad_level(self.inv, j)
            self.inv[j] = inv
        if n_levels and not (np.isfinite(self.inv.min()) and np.isfinite(self.inv.max())):
            _raise_bad_level(self.inv, n_levels)

    def _add_band(self, g: np.ndarray, band: np.ndarray) -> np.ndarray:
        """g, a C-ordered n x n block, plus the block of band, in place."""
        g.reshape(-1)[self._band_index] += band.reshape(-1)
        return g

    def _couplings(self, transposed: bool = False):
        """(product, lower, upper): product(lower[j], x) is level j's block coupling it
        down, or its transpose, times x, and product(upper[j], x) the one coupling it up.
        Without a cross term the blocks are diagonal: their operands are the bands'
        middle entries."""
        if not self.cross:
            return np.multiply, self.bands[:, 0, 1], self.bands[:, 2, 1]
        lower, upper = self.bands[:, 0], self.bands[:, 2]
        if transposed:
            lower, upper = band_transpose(lower), band_transpose(upper)
        return band_dot, lower, upper

    def _invert(self, j: int, row: np.ndarray, below: np.ndarray | None,
                neg_lower: np.ndarray | None = None) -> np.ndarray | None:
        """G_j^-1 for level j (from 0) with row bands row, given G_{j-1}^-1 below, or None
        if the block is singular.  neg_lower is -row[0, 1][:, None], if made already."""
        if below is None:
            g = np.zeros(2 * row.shape[-1:]) if self.first is None else self.first.copy()
        elif self.cross:
            # g = -L_j G_{j-1}^-1 U_{j-1}, which may come F-ordered
            g = np.ascontiguousarray(
                -band_dot(band_transpose(self.bands[j - 1, 2]), band_dot(row[0], below.T).T))
        else:
            g = np.multiply(below, -row[0, 1][:, None] if neg_lower is None else neg_lower)
            g *= self.bands[j - 1, 2, 1]
        self._add_band(g, row[1])
        lu, piv, info = lapack.dgetrf(g, overwrite_a=True)
        if info == 0:
            inv, info = lapack.dgetri(lu, piv, overwrite_lu=True)
        return inv if info == 0 else None

    def cut(self, level: int, top: np.ndarray, cols: np.ndarray | None = None) -> "Elimination":
        """The system's first level - 1 levels closed at level by the row bands top (3, 3, n),
        sharing this sweep's inverses below the cut.  top is a far-field row: the cut
        couples to no data above.  Given cols (level, n), the cut is the system
        A diag(cols), A as written: its unknowns are u = v / cols for A v = rhs."""
        if not 2 <= level <= len(self.bands):
            raise ValueError(f"cannot cut {len(self.bands)} levels at level {level}")
        sub = copy.copy(self)
        top_scale = np.abs(top).max(axis=(0, 1))
        top_scale[top_scale == 0] = 1.0
        sub.scale = np.concatenate([self.scale[:level - 1], top_scale[None]])
        sub.bands = np.concatenate([self.bands[:level - 1], (top / top_scale)[None]])
        sub.cross = self.cross or bool(top[0, (0, 2)].any())
        sub.cols, sub.above = cols, None
        sub.inv = list(self.inv[:level - 1])
        inv = sub._invert(level - 1, sub.bands[-1], sub.inv[-1])
        if inv is None or not np.isfinite(inv).all():
            _raise_bad_level(sub.inv, level - 1)
        sub.inv.append(inv)
        return sub

    def _check(self, x: np.ndarray, rhs: np.ndarray, transposed: bool = False):
        """Raise NoConvergence unless A x = rhs (A^T x = rhs) holds to RESIDUAL_TARGET
        on the row-equilibrated system, A diag(cols) for a cut given cols.

        B, the equilibrated bands, times diag(cols) has row maxima w, so the forward
        residual is (B (cols x) - rhs / scale) / w and the transposed one, in unknowns
        scaled by w, cols B^T (scale x) - rhs.  Level j of B^T couples to level j - 1
        by U_{j-1}^T and to j + 1 by L_{j+1}^T."""
        bands, cols, w = self.bands, 1.0, 1.0
        if self.cols is not None:    # cols on the rows past both ends meet zero couplings
            cols, c = self.cols, np.concatenate([self.cols[:1], self.cols, self.cols[-1:]])
            w = functools.reduce(np.maximum, (np.abs(bands[:, dj, di]) * np.roll(
                c[dj:dj + len(x)], 1 - di, -1) for dj in range(3) for di in range(3)))
        if transposed:
            x, w = x * self.scale, 1.0 / cols
            bands = np.stack([np.roll(band_transpose(bands[:, 2]), 1, 0),
                              band_transpose(bands[:, 1]),
                              np.roll(band_transpose(bands[:, 0]), -1, 0)], axis=1)
        else:
            x, rhs = cols * x, rhs / self.scale / w
        ax = band_dot(bands[:, 1], x)
        ax[1:] += band_dot(bands[1:, 0], x[:-1])
        ax[:-1] += band_dot(bands[:-1, 2], x[1:])
        if self.first is not None:
            ax[0] += (self.first.T if transposed else self.first) @ x[0]
        res = np.max(np.abs(ax / w - rhs)) / max(np.max(np.abs(rhs)), 1e-30)
        if not np.isfinite(res) or res > RESIDUAL_TARGET:
            raise NoConvergence(f"linear solve residual {res:.2e} above {RESIDUAL_TARGET}")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x (n_levels, n) with A x = rhs."""
        scaled = rhs / self.scale
        inv, x = self.inv, np.empty_like(scaled)
        product, lower, upper = self._couplings()
        x[0] = inv[0] @ scaled[0]
        for j in range(1, len(x)):
            x[j] = inv[j] @ (scaled[j] - product(lower[j], x[j - 1]))
        for j in range(len(x) - 2, -1, -1):
            x[j] -= inv[j] @ product(upper[j], x[j + 1])
        if self.cols is not None:
            x /= self.cols
        self._check(x, rhs)
        return x

    def solve_data(self, below: np.ndarray | None = None,
                   above: np.ndarray | None = None) -> np.ndarray:
        """x (n_levels, n) with A x = 0 beside the data rows below and above, where given."""
        rhs = np.zeros((len(self.bands), self.bands.shape[-1]))
        if above is not None:
            rhs[-1] -= band_dot(self.above, above)
        if below is not None:
            rhs[0] -= band_dot(self.below, below)
        return self.solve(rhs)

    def data_weights(self, c: np.ndarray) -> np.ndarray:
        """Weights w with c . solve_data(f) = w . f for every f below: -B^T A^-T c."""
        return -band_dot(band_transpose(self.below), self.solve_transposed(c)[0])

    def solve_transposed(self, rhs: np.ndarray) -> np.ndarray:
        """x (n_levels, n) with A^T x = rhs, as D y for (D A)^T y = rhs, D the row scaling."""
        inv = self.inv
        product, lower, upper = self._couplings(transposed=True)
        y = rhs / (1.0 if self.cols is None else self.cols)
        for j in range(1, len(y)):
            y[j] -= product(upper[j - 1], y[j - 1] @ inv[j - 1])
        y[-1] = y[-1] @ inv[-1]
        for j in range(len(y) - 2, -1, -1):
            y[j] = (y[j] - product(lower[j + 1], y[j + 1])) @ inv[j]
        x = y / self.scale
        self._check(x, rhs, transposed=True)
        return x
