"""Rectangular-grid fields and finite-difference stencil operators.

Every other module is built from the pieces here: a uniform 2D grid with
row-major node numbering, scalar/vector fields sampled at the nodes, sparse
stencil operators, and Dirichlet boundary bookkeeping.

Conventions
-----------
* node (i, j) sits at (x0 + i*hx, y0 + j*hy) and has linear index j*nx + i
* boundary nodes are ordered counterclockwise starting at (x0, y0)
* interior rows of assembled operators hold the stencil; boundary rows of the
  diffusion operator are identity so the "pinned" full system stays solvable
* interior stencils are second-order central differences; gradients fall back
  to second-order one-sided stencils on the boundary
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import GridMismatch, NonPositiveDiffusion


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
    def n_interior(self) -> int:
        return (self.nx - 2) * (self.ny - 2)

    @property
    def n_boundary(self) -> int:
        return 2 * self.nx + 2 * self.ny - 4

    def index(self, i, j):
        return j * self.nx + i

    def coords(self):
        """Flat row-major node coordinates (X, Y)."""
        x = self.x0 + self.hx * np.arange(self.nx)
        y = self.y0 + self.hy * np.arange(self.ny)
        X, Y = np.meshgrid(x, y)
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

    def depth(self) -> np.ndarray:
        """Distance (in node steps) of each node from the boundary."""
        i = np.arange(self.n_nodes) % self.nx
        j = np.arange(self.n_nodes) // self.nx
        return np.minimum.reduce([i, self.nx - 1 - i, j, self.ny - 1 - j])


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

    @classmethod
    def zero(cls, grid: Grid) -> "BoundaryData":
        return cls(grid, np.zeros(grid.n_boundary))


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
# interior stencil index helpers


def _interior_stencil_indices(grid: Grid):
    """Center/east/west/north/south linear indices for all interior nodes."""
    c = grid.interior_indices()
    return c, c + 1, c - 1, c + grid.nx, c - grid.nx


def face_average(a, b):
    """Harmonic mean of two nodal values: the diffusivity on the face between them."""
    return 2.0 * a * b / (a + b)


def face_average_partials(a, b):
    """Derivatives of the face value with respect to the two nodal values."""
    s = (a + b) ** 2
    return 2.0 * b * b / s, 2.0 * a * a / s


# ---------------------------------------------------------------------------
# diffusion operator


def _diffusion_csr(gamma_vals, sigma_vals, grid: Grid) -> sp.csr_matrix:
    """Flux-conservative 5-point stencil for -div(gamma grad) + sigma.

    Interior rows carry the stencil, boundary rows are identity.
    """
    c, e, w, n, s = _interior_stencil_indices(grid)
    hx2, hy2 = grid.hx ** 2, grid.hy ** 2
    ge = face_average(gamma_vals[c], gamma_vals[e]) / hx2
    gw = face_average(gamma_vals[c], gamma_vals[w]) / hx2
    gn = face_average(gamma_vals[c], gamma_vals[n]) / hy2
    gs = face_average(gamma_vals[c], gamma_vals[s]) / hy2
    diag = ge + gw + gn + gs + sigma_vals[c]

    b = grid.boundary_indices()
    rows = np.concatenate([c, c, c, c, c, b])
    cols = np.concatenate([c, e, w, n, s, b])
    vals = np.concatenate([diag, -ge, -gw, -gn, -gs, np.ones(b.size)])
    m = sp.coo_matrix((vals, (rows, cols)), shape=(grid.n_nodes, grid.n_nodes))
    return m.tocsr()


def assemble_diffusion_operator(gamma: ScalarField, sigma: ScalarField) -> DiscreteOperator:
    """Assemble -div(gamma grad u) + sigma u on interior rows.

    Boundary rows are identity; DiffusionSolver splits off the interior
    system.  Raises NonPositiveDiffusion when min(gamma) <= 0.
    """
    _check_same_grid(gamma, sigma)
    if gamma.values.min() <= 0.0:
        raise NonPositiveDiffusion("diffusion coefficient must be positive")
    m = _diffusion_csr(gamma.values, sigma.values, gamma.grid)
    return DiscreteOperator(m)


def diffusion_flux_jacobian(gamma: ScalarField, u: ScalarField) -> sp.csr_matrix:
    """Derivative of the flux stencil with respect to the diffusion field.

    Returns the matrix M with interior rows such that
    (M dgamma)_x = [-div(dgamma_face grad u)]_x where dgamma_face carries the
    exact derivative weights of the harmonic face average.  Together with the
    pointwise absorption derivative this is the exact Jacobian of the
    assembled operator in the coefficients.
    """
    _check_same_grid(gamma, u)
    grid = gamma.grid
    c, e, w, n, s = _interior_stencil_indices(grid)
    hx2, hy2 = grid.hx ** 2, grid.hy ** 2
    gv, uv = gamma.values, u.values

    rows, cols, vals = [], [], []
    for nb, h2 in ((e, hx2), (w, hx2), (n, hy2), (s, hy2)):
        t = (uv[c] - uv[nb]) / h2
        wa, wb = face_average_partials(gv[c], gv[nb])
        rows.extend([c, c])
        cols.extend([c, nb])
        vals.extend([wa * t, wb * t])
    m = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid.n_nodes, grid.n_nodes),
    )
    return m.tocsr()


# ---------------------------------------------------------------------------
# derivative matrices


def interior_derivative_matrices(grid: Grid, *names: str) -> list[sp.csr_matrix]:
    """Central-difference matrices of the named derivatives, interior rows only.

    The names are "x", "y", "xx", "yy" and "xy"; only the named matrices are
    built, in the order given.
    """
    hx, hy = grid.hx, grid.hy
    q = 1 / (4 * hx * hy)
    taps = {  # name: {(di, dj): weight of node (i + di, j + dj)}
        "x": {(1, 0): 1 / (2 * hx), (-1, 0): -1 / (2 * hx)},
        "y": {(0, 1): 1 / (2 * hy), (0, -1): -1 / (2 * hy)},
        "xx": {(1, 0): 1 / hx**2, (0, 0): -2 / hx**2, (-1, 0): 1 / hx**2},
        "yy": {(0, 1): 1 / hy**2, (0, 0): -2 / hy**2, (0, -1): 1 / hy**2},
        "xy": {(1, 1): q, (-1, -1): q, (-1, 1): -q, (1, -1): -q},
    }
    c = grid.interior_indices()
    out = []
    for name in names:
        offsets, weights = zip(*taps[name].items())
        rows = np.tile(c, len(offsets))
        cols = np.concatenate([c + di + dj * grid.nx for di, dj in offsets])
        vals = np.repeat(weights, c.size)
        out.append(sp.coo_matrix((vals, (rows, cols)), shape=(grid.n_nodes,) * 2).tocsr())
    return out


def laplacian_matrix(grid: Grid) -> sp.csr_matrix:
    """5-point Laplacian with interior rows only (zero boundary rows)."""
    dxx, dyy = interior_derivative_matrices(grid, "xx", "yy")
    return (dxx + dyy).tocsr()


# ---------------------------------------------------------------------------
# grid-weighted norms


def l2_norm(values: np.ndarray, grid: Grid) -> float:
    return float(np.sqrt(np.sum(np.asarray(values) ** 2) * grid.hx * grid.hy))


def rel_l2_error(approx: np.ndarray, exact: np.ndarray, grid: Grid) -> float:
    denom = l2_norm(exact, grid)
    if denom == 0.0:
        return l2_norm(approx, grid)
    return l2_norm(np.asarray(approx) - np.asarray(exact), grid) / denom
