"""Clamped bi-Laplacian: 13-point stencil with ghost-node elimination.

Solves  lap(lap(phi)) = q  in the interior,  phi = 0  and  d(phi)/dnu = g
on the boundary.  The stencil is the composition of two 5-point Laplacians,
so on anisotropic grids the 13 coefficients follow from the convolution of
the (ax, ay) = (1/hx^2, 1/hy^2) stencil with itself.

Ghost nodes one layer outside the domain are only reached by the (+-2, 0)
and (0, +-2) offsets from first-layer interior centers.  The clamped
conditions give  phi_ghost = phi_mirror + 2 h g  (central normal derivative
about the boundary node in between), which folds the ghost weight back onto
the center node and moves a g-proportional term to the right-hand side.
Corner boundary nodes never carry normal data; their g values are ignored.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .field_core import BoundaryData, Grid, ScalarField
from .solvers import SparseFactor


def _composed_stencil(grid: Grid):
    """Offsets and weights of the squared 5-point Laplacian."""
    ax, ay = 1.0 / grid.hx ** 2, 1.0 / grid.hy ** 2
    c0 = -2.0 * (ax + ay)
    return [
        ((0, 0), c0 * c0 + 2 * ax * ax + 2 * ay * ay),
        ((1, 0), 2 * c0 * ax),
        ((-1, 0), 2 * c0 * ax),
        ((0, 1), 2 * c0 * ay),
        ((0, -1), 2 * c0 * ay),
        ((2, 0), ax * ax),
        ((-2, 0), ax * ax),
        ((0, 2), ay * ay),
        ((0, -2), ay * ay),
        ((1, 1), 2 * ax * ay),
        ((1, -1), 2 * ax * ay),
        ((-1, 1), 2 * ax * ay),
        ((-1, -1), 2 * ax * ay),
    ]


def clamped_biharmonic_system(grid: Grid) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Interior matrix M and boundary-data map G of the clamped problem.

    M phi_int = q_int + G g  reproduces lap^2 phi = q with phi = 0 and
    normal derivative g on the boundary.  G columns follow the
    counterclockwise boundary ordering.
    """
    nx, ny = grid.nx, grid.ny
    iidx = grid.interior_indices()
    n_int = iidx.size
    pos = -np.ones(grid.n_nodes, dtype=int)
    pos[iidx] = np.arange(n_int)
    bpos = -np.ones(grid.n_nodes, dtype=int)
    bidx = grid.boundary_indices()
    bpos[bidx] = np.arange(bidx.size)

    stencil = _composed_stencil(grid)
    rows, cols, vals = [], [], []
    grows, gcols, gvals = [], [], []

    ci = iidx % nx
    cj = iidx // nx
    for (di, dj), wgt in stencil:
        ti = ci + di
        tj = cj + dj
        inside = (ti >= 0) & (ti < nx) & (tj >= 0) & (tj < ny)
        # in-domain target: interior -> matrix entry, boundary -> phi = 0
        tlin = np.where(inside, tj * nx + ti, 0)
        tpos = np.where(inside, pos[tlin], -1)
        hit = tpos >= 0
        rows.append(np.arange(n_int)[hit])
        cols.append(tpos[hit])
        vals.append(np.full(hit.sum(), wgt))
        # ghost target: reflect across the boundary node in between
        ghost = ~inside
        if not np.any(ghost):
            continue
        gi = ci[ghost]
        gj = cj[ghost]
        if di != 0:
            h = grid.hx
            mirror = gj * nx + gi  # offset +-2 from a first-layer center
            between_i = gi + di // 2
            between = gj * nx + between_i
        else:
            h = grid.hy
            mirror = gj * nx + gi
            between = (gj + dj // 2) * nx + gi
        r = np.arange(n_int)[ghost]
        rows.append(r)
        cols.append(pos[mirror])
        vals.append(np.full(r.size, wgt))
        grows.append(r)
        gcols.append(bpos[between])
        gvals.append(np.full(r.size, -wgt * 2.0 * h))

    M = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_int, n_int),
    ).tocsr()
    if grows:
        G = sp.coo_matrix(
            (np.concatenate(gvals), (np.concatenate(grows), np.concatenate(gcols))),
            shape=(n_int, bidx.size),
        ).tocsr()
    else:
        G = sp.csr_matrix((n_int, bidx.size))
    return M, G


def biharmonic_lifts(
    gs: list[BoundaryData], source: ScalarField | None = None, tol: float = 1e-10
) -> list[ScalarField]:
    """Solve the clamped biharmonic problem for each set of normal data.

    With ``source`` omitted this is the harmonic-free lift: lap^2 phi = 0,
    phi = 0, d(phi)/dnu = g; a source adds an interior right-hand side.  The
    solves share one factorization, built only for a nonzero right-hand side.
    """
    grid = gs[0].grid
    M, G = clamped_biharmonic_system(grid)
    iidx = grid.interior_indices()
    factor = None
    out = []
    for g in gs:
        rhs = G @ g.values
        if source is not None:
            rhs = rhs + source.values[iidx]
        full = np.zeros(grid.n_nodes)
        if np.any(rhs):
            factor = factor or SparseFactor(M)
            full[iidx] = factor.solve(rhs, max(tol, 1e-8))
        out.append(ScalarField(grid, full))
    return out


def biharmonic_lift(
    g: BoundaryData, source: ScalarField | None = None, tol: float = 1e-10
) -> ScalarField:
    """One clamped biharmonic solve; see :func:`biharmonic_lifts`."""
    return biharmonic_lifts([g], source, tol)[0]
