"""Clamped bi-Laplacian assembled from the shared 5-point Laplacian.

Solves  lap(lap(phi)) = q  in the interior,  phi = 0  and  d(phi)/dnu = g
on the boundary.  L_II and L_IB are the interior and boundary columns of the
interior rows of field_core's Laplacian.  The outer Laplacian also reads
lap(phi) at the edge nodes, where phi = 0 along the edge and the clamped
condition puts the ghost value one node outside at  phi_inner + 2 h g
(central normal derivative), so  lap(phi)_b = 2 (L_IB^T phi)_b + 2 g_b / h:

    M = L_II L_II + 2 L_IB L_IB^T,    G = -2 L_IB diag(1 / h_nu),

with h_nu = hx on the left and right edges and hy on the bottom and top.
The corner columns of L_IB are zero, so corner values of g are ignored.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .field_core import BoundaryData, Grid, ScalarField, laplacian_matrix
from .solvers import SparseFactor


def clamped_biharmonic_system(grid: Grid) -> tuple[sp.csc_matrix, sp.csr_matrix]:
    """Interior matrix M and boundary-data map G of the clamped problem.

    M phi_int = q_int + G g  reproduces lap^2 phi = q with phi = 0 and
    normal derivative g on the boundary.  G columns follow the
    counterclockwise boundary ordering.
    """
    iidx, bidx = grid.interior_indices(), grid.boundary_indices()
    L = laplacian_matrix(grid)[iidx]
    L_II, L_IB = L[:, iidx], L[:, bidx]
    M = (L_II @ L_II + 2.0 * (L_IB @ L_IB.T)).tocsc()  # the format SparseFactor keeps
    i = bidx % grid.nx
    h_nu = np.where((i == 0) | (i == grid.nx - 1), grid.hx, grid.hy)
    G = (-2.0 * L_IB @ sp.diags(1.0 / h_nu)).tocsr()
    return M, G


def biharmonic_lifts(gs: list[BoundaryData]) -> list[ScalarField]:
    """Clamped lifts: lap^2 phi = 0, phi = 0, d(phi)/dnu = g for each g.

    The solves share one factorization of M, which checks each solve's
    residual.
    """
    grid = gs[0].grid
    M, G = clamped_biharmonic_system(grid)
    factor = SparseFactor(M)
    iidx = grid.interior_indices()
    out = []
    for g in gs:
        full = np.zeros(grid.n_nodes)
        full[iidx] = factor.solve(G @ g.values)
        out.append(ScalarField(grid, full))
    return out
