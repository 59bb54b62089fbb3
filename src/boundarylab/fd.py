"""Finite-difference kernel shared by the half-cylinder and the polar disk solves.

Both discretize ``caa u_aa + 2 car u_ar + crr u_rr + ba u_a + br u_r`` on a
tensor grid: a periodic angular direction with a uniform step and a second
direction (height or radius) on arbitrary nodes.  ``stencil`` gives the
second-order central entries, switched per cell to first-order upwinding
of a drift whose cell Peclet number exceeds 2 (which keeps the matrix an
M-matrix, so the discrete maximum principle holds), plus the 4-point cross
of the mixed term.  ``Factors`` is the one sparse direct solver: SuperLU
on the row-equilibrated matrix.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NoConvergence


def stencil(caa, car, crr, ba, br, da: float, hm, hp) -> list:
    """Stencil entries (di, dj, coefficient) at every interior node.

    The coefficient arrays hold the operator at the nodes, da is the
    angular step and hm, hp the steps to the lower and upper neighbours
    in the second direction.  The cross entries are left out when car
    vanishes everywhere.
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

    entries = [(-1, 0, c_am), (1, 0, c_ap), (0, -1, d_m + a_m), (0, 1, d_p + a_p),
               (0, 0, c_a0 + d_0 + a_0)]
    if np.max(np.abs(car)) > 0.0:
        w = 2.0 * car / (2.0 * da * denom)
        entries += [(1, 1, w), (-1, 1, -w), (1, -1, -w), (-1, -1, w)]
    return entries


def csr(rows: list, cols: list, vals: list, shape) -> sp.csr_matrix:
    """CSR matrix from lists of row, column and value arrays; repeats add up."""
    return sp.csr_matrix(
        (np.concatenate([v.ravel() for v in vals]),
         (np.concatenate([r.ravel() for r in rows]),
          np.concatenate([c.ravel() for c in cols]))),
        shape=shape,
    )


def check_residual(mat, x, rhs, tol: float):
    """Raise NoConvergence unless max|mat x - rhs| / max|rhs| is within tol."""
    res = np.max(np.abs(mat @ x - rhs)) / max(np.max(np.abs(rhs)), 1e-30)
    if not np.isfinite(res) or res > tol:
        raise NoConvergence(f"linear solve residual {res:.2e} above {tol}")


class Factors:
    """SuperLU factors of D A, with D scaling every row of A to max |entry| 1."""

    def __init__(self, mat: sp.csr_matrix):
        scale = np.asarray(np.abs(mat).max(axis=1).todense()).ravel()
        scale[scale == 0] = 1.0
        self.scale = scale
        self.mat = (sp.diags(1.0 / scale) @ mat).tocsc()
        self.lu = spla.splu(self.mat)

    def solve(self, rhs: np.ndarray, tol: float | None = None) -> np.ndarray:
        """x with A x = rhs; given tol, the residual of D A x = D rhs is checked."""
        rhs_eq = rhs / self.scale
        x = self.lu.solve(rhs_eq)
        if tol is not None:
            check_residual(self.mat, x, rhs_eq, tol)
        return x
