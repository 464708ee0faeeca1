"""Rectangular-grid fields and finite-difference stencil operators.

Every other module is built from the pieces here: a uniform 2D grid with
row-major node numbering, scalar/vector fields sampled at the nodes, sparse
stencil operators, and Dirichlet boundary bookkeeping.

Conventions
-----------
* node (i, j) sits at (x0 + i*hx, y0 + j*hy) and has linear index j*nx + i
* boundary nodes are ordered counterclockwise starting at (x0, y0)
* assembled operators hold the stencil on interior rows only; the diffusion
  operator is its interior block A_II, written into diagonals by
  ``stencil_matrix`` as every multigrid level is, and the taps that reach
  the boundary ring (``diffusion_blocks``); no boundary or whole-grid
  diffusion matrix is formed; ``interior_stencil_matrix`` writes every other
  interior-row operator into CSR
* interior stencils are second-order central differences; gradients fall back
  to second-order one-sided stencils on the boundary
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import GridMismatch


@dataclass(frozen=True)
class Grid:
    """Uniform rectangular grid of nx-by-ny nodes."""

    nx: int
    ny: int
    hx: float
    hy: float
    x0: float = 0.0
    y0: float = 0.0

    def __post_init__(self):
        if not all(isinstance(n, (int, np.integer)) for n in (self.nx, self.ny)):
            raise ValueError("grid node counts must be integers")
        if self.nx < 5 or self.ny < 5:
            raise ValueError("grid needs at least 5 nodes per axis")
        if not np.all(np.isfinite([self.hx, self.hy, self.x0, self.y0])):
            raise ValueError("grid spacings and origin must be finite")
        if self.hx <= 0.0 or self.hy <= 0.0:
            raise ValueError("grid spacings must be positive")

    @classmethod
    def unit_square(cls, n: int) -> "Grid":
        h = 1.0 / (n - 1)
        return cls(n, n, h, h)

    @property
    def n_nodes(self) -> int:
        return self.nx * self.ny

    @property
    def n_boundary(self) -> int:
        return 2 * self.nx + 2 * self.ny - 4

    def axes(self):
        """Node coordinates along each axis: x (nx values) and y (ny values)."""
        return self.x0 + self.hx * np.arange(self.nx), self.y0 + self.hy * np.arange(self.ny)

    def coords(self):
        """Flat row-major node coordinates (X, Y)."""
        X, Y = np.meshgrid(*self.axes())
        return X.ravel(), Y.ravel()

    def boundary_indices(self) -> np.ndarray:
        """Linear indices of boundary nodes, counterclockwise from (x0, y0)."""
        nx, ny = self.nx, self.ny
        bottom = np.arange(nx)
        right = nx - 1 + nx * np.arange(1, ny)
        top = (ny - 1) * nx + np.arange(nx - 2, -1, -1)
        left = nx * np.arange(ny - 2, 0, -1)
        return np.concatenate([bottom, right, top, left])

    def interior_indices(self) -> np.ndarray:
        ii, jj = np.meshgrid(np.arange(1, self.nx - 1), np.arange(1, self.ny - 1))
        return (jj * self.nx + ii).ravel()


def _check_same_grid(a, b):
    if a.grid != b.grid:
        raise GridMismatch("fields live on different grids")


@dataclass(frozen=True)
class ScalarField:
    """Real-valued function sampled at the grid nodes (row-major, flat)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_nodes,):
            v = v.reshape(self.grid.n_nodes)
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "ScalarField":
        X, Y = grid.coords()
        return cls(grid, np.asarray(fn(X, Y), dtype=float))

    @classmethod
    def constant(cls, grid: Grid, c: float) -> "ScalarField":
        return cls(grid, np.full(grid.n_nodes, float(c)))

    def as_matrix(self) -> np.ndarray:
        return self.values.reshape(self.grid.ny, self.grid.nx)

    def __add__(self, other: "ScalarField") -> "ScalarField":
        _check_same_grid(self, other)
        return ScalarField(self.grid, self.values + other.values)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        _check_same_grid(self, other)
        return ScalarField(self.grid, self.values - other.values)

    def __mul__(self, c: float) -> "ScalarField":
        return ScalarField(self.grid, self.values * float(c))

    __rmul__ = __mul__


@dataclass(frozen=True)
class VectorField:
    """2-vector per node, stored as an (n_nodes, 2) array."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_nodes, 2):
            raise ValueError("vector field values must have shape (n_nodes, 2)")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def magnitude(self) -> np.ndarray:
        return np.sqrt(self.values[:, 0] ** 2 + self.values[:, 1] ** 2)


@dataclass(frozen=True)
class BoundaryData:
    """One value per boundary node, counterclockwise from (x0, y0)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_boundary,):
            raise ValueError(
                f"boundary data needs {self.grid.n_boundary} values, got {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("boundary values must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "BoundaryData":
        X, Y = grid.coords()
        b = grid.boundary_indices()
        return cls(grid, np.asarray(fn(X[b], Y[b]), dtype=float))


class DiscreteOperator:
    """Sparse linear map held as a canonical CSR ``matrix``.

    Duplicate (row, col) entries are summed on construction so the finalized
    operator has a unique entry per pair.
    """

    def __init__(self, matrix):
        self.matrix = sp.csr_matrix(matrix)
        self.matrix.sum_duplicates()
        self.matrix.sort_indices()


# ---------------------------------------------------------------------------
# gradients


def gradient(u: ScalarField) -> VectorField:
    """Discrete gradient: central differences inside, one-sided 3-point at edges."""
    g = u.grid
    mat = u.as_matrix()
    dy, dx = np.gradient(mat, g.hy, g.hx, edge_order=2)
    return VectorField(g, np.stack([dx.ravel(), dy.ravel()], axis=1))


# ---------------------------------------------------------------------------
# face averages


def face_average(a, b):
    """Harmonic mean of two nodal values: the diffusivity on the face between them."""
    return 2.0 * a * b / (a + b)


def face_average_partials(a, b):
    """Derivatives of the face value with respect to the two nodal values."""
    s = (a + b) ** 2
    return 2.0 * b * b / s, 2.0 * a * a / s


# ---------------------------------------------------------------------------
# diffusion operator


def diffusion_blocks(gamma: ScalarField, sigma: ScalarField) -> tuple:
    """Flux-conservative 5-point stencil for -div(gamma grad) + sigma, as two blocks.

    Returns (A_II, ring).  A_II, the interior rows restricted to the
    interior columns (row-major interior numbering), is written by
    ``stencil_matrix`` from its centre, east and north taps, each tap that
    reaches a boundary node stored as 0, so its product sums each row
    south, west, centre, east, north, as a sorted CSR product does, and to
    the same bits.  ``ring`` is the boundary coupling A_IB as the taps that
    reach the boundary, (south, west, east, north): one per column of the
    first interior row, per row of the first and last interior columns,
    and per column of the last interior row.  Each face's harmonic-mean
    diffusivity is evaluated once; A_II is exactly symmetric.
    """
    _check_same_grid(gamma, sigma)
    grid = gamma.grid
    G = gamma.as_matrix()
    fx = face_average(G[1:-1, :-1], G[1:-1, 1:]) / grid.hx**2  # face (i, j)-(i + 1, j)
    fy = face_average(G[:-1, 1:-1], G[1:, 1:-1]) / grid.hy**2  # face (i, j)-(i, j + 1)
    gw, ge, gs, gn = fx[:, :-1], fx[:, 1:], fy[:-1], fy[1:]
    C = ge + gw + gn + gs + sigma.as_matrix()[1:-1, 1:-1]
    ring = (-gs[0], -gw[:, 0], -ge[:, -1], -gn[-1])
    E, N = -ge, -gn
    E[:, -1] = N[-1] = 0.0  # the taps that reach the boundary are in ``ring``
    return stencil_matrix((C, E, None, N, None)), ring


# (dy, dx) of the centre and the four upper taps of a 9-point stencil, in the
# order of the tap tuples: C, E, NW, N, NE
_UPPER_TAPS = ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1))


def stencil_matrix(taps: tuple) -> sp.dia_matrix:
    """The symmetric 9-point operator with centre and upper taps ``taps``, by diagonals.

    ``taps`` is (C, E, NW, N, NE), each an (my, mx) array over a row-major
    block of nodes, or None for a tap the stencil lacks; a tap that reaches
    past the block is 0.  The one writer of a stencil into diagonals, for
    A_II and every multigrid level.  The diagonals of offsets +o and -o both
    hold the tap of row r at column r + o, one row of the matrix per node,
    and offsets come out ascending.  On a block two nodes wide, or one,
    offsets coincide, and the taps that share a diagonal never meet at a
    node inside the block, so they are summed into it.  On a block one node
    tall, a tap whose offset reaches past the last node has no diagonal.
    """
    my, mx = taps[0].shape
    n = mx * my
    kept = [(dy * mx + dx, t) for (dy, dx), t in zip(_UPPER_TAPS, taps)
            if t is not None and dy * mx + dx < n]
    upper, taps = zip(*kept)
    offsets = np.unique(np.concatenate([upper, np.negative(upper)]))
    data = np.zeros((offsets.size, n))
    for o, t in zip(upper, taps):
        t = t.ravel()[: n - o]
        data[np.searchsorted(offsets, o), o:] += t
        if o:
            data[np.searchsorted(offsets, -o), : n - o] += t
    return sp.dia_matrix((data, offsets), shape=(n, n))


def diffusion_flux_jacobian(gamma: ScalarField, u: ScalarField) -> sp.csr_matrix:
    """Derivative of the flux stencil with respect to the diffusion field.

    Returns the matrix M with interior rows such that
    (M dgamma)_x = [-div(dgamma_face grad u)]_x where dgamma_face carries the
    exact derivative weights of the harmonic face average.  Together with the
    pointwise absorption derivative this is the exact Jacobian of the
    assembled operator in the coefficients.  Each face gives its neighbour
    tap and a share of the centre tap, which sums them east, west, north, south.
    """
    _check_same_grid(gamma, u)
    grid = gamma.grid
    G, U = gamma.as_matrix(), u.as_matrix()
    my, mx = grid.ny - 2, grid.nx - 2
    taps = np.zeros((3, 3, my, mx))
    hx2, hy2 = grid.hx**2, grid.hy**2
    shares = []
    for dj, di, h2 in ((1, 2, hx2), (1, 0, hx2), (2, 1, hy2), (0, 1, hy2)):  # E, W, N, S
        nb = np.s_[dj:dj + my, di:di + mx]
        t = (U[1:-1, 1:-1] - U[nb]) / h2
        wa, wb = face_average_partials(G[1:-1, 1:-1], G[nb])
        taps[dj, di] = wb * t
        shares.append(wa * t)
    east, west, north, south = shares
    taps[1, 1] = east + west + north + south
    return interior_stencil_matrix(grid, taps)


# ---------------------------------------------------------------------------
# derivative matrices


# name: ((px, py), {(di, dj): w}); node (i + di, j + dj) weighs w / (hx^px hy^py)
_DERIVATIVE_TAPS = {
    "x": ((1, 0), {(1, 0): 0.5, (-1, 0): -0.5}),
    "y": ((0, 1), {(0, 1): 0.5, (0, -1): -0.5}),
    "xx": ((2, 0), {(1, 0): 1.0, (0, 0): -2.0, (-1, 0): 1.0}),
    "yy": ((0, 2), {(0, 1): 1.0, (0, 0): -2.0, (0, -1): 1.0}),
    "xy": ((1, 1), {(1, 1): 0.25, (-1, -1): 0.25, (-1, 1): -0.25, (1, -1): -0.25}),
}


def derivative_stencils(grid: Grid, *names: str) -> list[np.ndarray]:
    """3-by-3 central-difference stencils of the named derivatives.

    The names are "x", "y", "xx", "yy" and "xy", the keys of the one tap
    table; entry [1 + dj, 1 + di] weighs node (i + di, j + dj) in the
    derivative at node (i, j).
    """
    out = []
    for name in names:
        (px, py), taps = _DERIVATIVE_TAPS[name]
        st = np.zeros((3, 3))
        for (di, dj), w in taps.items():
            st[1 + dj, 1 + di] = w / (grid.hx ** px * grid.hy ** py)
        out.append(st)
    return out


def interior_stencil_matrix(grid: Grid, stencil: np.ndarray) -> sp.csr_matrix:
    """``stencil`` on interior rows only, written straight into CSR.

    ``stencil`` is one 3-by-3 stencil (as from derivative_stencils) or per-node
    taps of shape (3, 3, ny - 2, nx - 2), entry [1 + dj, 1 + di, j - 1, i - 1]
    weighing node (i + di, j + dj) at interior node (i, j).  A tap zero at every
    node is left out; the others fill every interior row, zeros included.
    """
    taps = np.reshape(stencil, (3, 3, -1))
    dj, di = np.nonzero(taps.any(axis=2))
    c = grid.interior_indices()
    data = np.broadcast_to(taps[dj, di].T, (c.size, dj.size))
    indices = c[:, None] + (dj - 1) * grid.nx + (di - 1)
    indptr = np.zeros(grid.n_nodes + 1, dtype=np.int64)
    indptr[c + 1] = dj.size
    return sp.csr_matrix(
        (data.ravel(), indices.ravel(), np.cumsum(indptr)), shape=(grid.n_nodes,) * 2
    )


def interior_derivative_matrices(grid: Grid, *names: str) -> list[sp.csr_matrix]:
    """Central-difference matrices of the named derivatives, interior rows only.

    Only the named matrices are built, in the order given; see
    derivative_stencils for the names.
    """
    return [interior_stencil_matrix(grid, st) for st in derivative_stencils(grid, *names)]


def laplacian_matrix(grid: Grid) -> sp.csr_matrix:
    """5-point Laplacian with interior rows only (zero boundary rows)."""
    return interior_stencil_matrix(grid, sum(derivative_stencils(grid, "xx", "yy")))


# ---------------------------------------------------------------------------
# coarse coefficient basis

# cubic B-spline subdivision: {fine offset from coarse node k's fine node 2k + 1: weight}
_SPLINE_TAPS = {0: 0.75, -1: 0.5, 1: 0.5, -2: 0.125, 2: 0.125}


def _coarse_map_1d(m: int) -> sp.csr_matrix:
    """The 1-D map P (m-by-nc) as CSR with sorted indices, written straight from
    the taps: row i holds the coarse nodes k with i - 2k - 1 a tap offset."""
    nc = (m - 1) // 2
    if nc < 1:
        raise ValueError(f"{m} interior nodes along an axis leave no spline coarse node")
    offsets = np.array(sorted(_SPLINE_TAPS, reverse=True))
    twice = np.arange(m)[:, None] - 1 - offsets
    keep = (twice >= 0) & (twice < 2 * nc) & (twice % 2 == 0)
    cols = twice // 2
    vals = np.broadcast_to([_SPLINE_TAPS[o] for o in offsets], cols.shape)
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    return sp.csr_matrix((vals[keep], cols[keep], indptr), shape=(m, nc))


def coarse_basis(shape: tuple[int, int]) -> tuple[sp.csr_matrix, sp.csr_matrix, tuple[int, int]]:
    """Cubic-spline coarse basis P = P_y (x) P_x on an mx-by-my block of interior nodes.

    ``shape`` is (mx, my), the interior node counts of a Grid.  On an axis of
    m nodes P is cubic B-spline subdivision, weights 1/8, 1/2, 3/4, 1/2, 1/8,
    from (m - 1) // 2 coarse nodes, coarse node k at fine interior node
    2k + 1 (0-based), so the coarse spacing is 2h and the basis is zero
    beyond either end; on an even count the last coarse node sits three fine
    nodes from the boundary, not one.  A C^2 basis whose best L2
    approximation of a smooth field converges at fourth order, with a range
    orthogonal to the checkerboard (-1)^(i+j) away from the boundary.
    Returns (P_x, P_y, (mcx, mcy)); an axis too short for one coarse node
    raises ValueError.
    """
    Px, Py = (_coarse_map_1d(m) for m in shape)
    return Px, Py, (Px.shape[1], Py.shape[1])


# ---------------------------------------------------------------------------
# grid-weighted norms


def l2_norm(values: np.ndarray, grid: Grid) -> float:
    return float(np.sqrt(np.sum(np.asarray(values) ** 2) * grid.hx * grid.hy))


def rel_l2_error(approx: np.ndarray, exact: np.ndarray, grid: Grid) -> float:
    denom = l2_norm(exact, grid)
    if denom == 0.0:
        return l2_norm(approx, grid)
    return l2_norm(np.asarray(approx) - np.asarray(exact), grid) / denom
