"""Explicit inversion on constant backgrounds.

With constant (gamma0, sigma0) and exponential background solutions
u_i = exp(sqrt(sigma0/gamma0) x.v_i), the state perturbations du_i can be
eliminated analytically.  Applying L = -gamma0 lap + sigma0 to dH_i / u_i and
rescaling leaves a 2-by-1 row of constant-coefficient second-order operators
per direction:

    C_i dgamma + B_i dsigma = S_i,
    C_i = -lap + 2 dv_i^2 + c1 dv_i + c0,
    B_i = -eta (gamma0/sigma0) lap - b1 dv_i - b0,

with c1 = 2 (1 + eta) sqrt(sigma0/gamma0), c0 = 2 (1 + eta) sigma0/gamma0,
b1 = 2 (1 + eta) sqrt(gamma0/sigma0) and b0 = 2 (1 + eta), written once in
``ConstantBackground.lower_order``; ``symbols`` evaluates both symbols, in
the continuum or on a grid.  A ``ConstantBackground`` is valid by
construction (sigma0 > 0, eta != 0, a certified 2-D direction set), so the
operators, the preprocessing and the solve take it as given.

The first-order coefficients follow from carrying the product rule through
L(u_i w) = u_i (-gamma0 lap - 2 gamma0 sqrt(sigma0/gamma0) dv_i) w; the
symbolic elimination and the numerical cross-check against the linearized
forward map agree on them (see tests).

Each C_i and B_i is a constant-coefficient 3-by-3 stencil (``stencils``),
built once from ``lower_order`` and the finite-difference stencils of
``field_core.derivative_stencils``; ``operator_C`` and ``operator_B`` are their
sparse forms.  Applying the stacked adjoint turns the rows into a 2-by-2
fourth-order normal system on clamped unknowns (zero value on the boundary;
the stencils have one-node reach, so zero extension of the interior unknowns
realizes the clamped elimination, and applying the transposed stencils keeps
the discrete adjoint exact).  On the fine coefficients that system has a
near-null at (pi/h, pi/h), where every C_i equals c0 and every B_i is the
same, so the J-by-2 symbol has rank 1.  The solve therefore restricts both
unknowns to the cubic-spline coarse basis of ``field_core.coarse_basis``,
whose range does not contain that mode, and runs conjugate gradients on the
reduced normal operator with a DST-I spectral preconditioner.  The operator
is applied in place, P_y c P_x^T per unknown and then the stencils on
shifted windows, so no matrix is assembled or factored and memory is O(n).
The result is exact for truths in the spline range and fourth-order
accurate for smooth ones.

The absorption-free background (sigma0 = 0) gets its own routes: dsigma from
the constant solution u_0 = 1, and in 2D a clamped fourth-order solve for
dgamma built from the wave-operator rows (dyy - dxx) and -2 dxy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import GridMismatch, NonPositiveSolution, ZeroAbsorption, ZeroEta
from .ellipticity import DirectionSet, certified_planar
from .field_core import (
    DiscreteOperator,
    Grid,
    ScalarField,
    coarse_basis,
    derivative_stencils,
    interior_derivative_matrices,
    interior_stencil_matrix,
    laplacian_matrix,
)
from .solvers import SparseFactor, cg_solve


@dataclass(frozen=True)
class ConstantBackground:
    """Constant levels and directions: finite levels, gamma0 > 0, sigma0 > 0
    (0 raises ZeroAbsorption), eta != 0 and a set that passes
    ``certified_planar``."""

    gamma0: float
    sigma0: float
    eta: float
    dirs: DirectionSet

    def __post_init__(self):
        if not np.isfinite([self.gamma0, self.sigma0, self.eta]).all():
            raise ValueError("gamma0, sigma0 and eta must be finite")
        if self.gamma0 <= 0.0:
            raise ValueError("gamma0 must be positive")
        if self.sigma0 < 0.0:
            raise ValueError("sigma0 must be nonnegative")
        if self.sigma0 == 0.0:
            raise ZeroAbsorption("C_i and B_i need sigma0 > 0; sigma0 = 0 has its own routes")
        if self.eta == 0.0:
            raise ZeroEta("eta must be nonzero")
        certified_planar(self.dirs)

    def lower_order(self) -> tuple[float, float, float, float]:
        """(c1, c0, b1, b0): the first- and zeroth-order coefficients of C_i and B_i."""
        c1 = 2.0 * (1.0 + self.eta) * float(np.sqrt(self.sigma0 / self.gamma0))
        c0 = 2.0 * (1.0 + self.eta) * self.sigma0 / self.gamma0
        b1 = 2.0 * (1.0 + self.eta) * np.sqrt(self.gamma0 / self.sigma0)
        b0 = 2.0 * (1.0 + self.eta)
        return c1, c0, b1, b0


def stencils(bg: ConstantBackground, v, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """3-by-3 stencils of C_i and B_i for the direction ``v`` on ``grid``.

    Entry [1 + dj, 1 + di] weighs node (i + di, j + dj), as in
    ``field_core.derivative_stencils``.
    """
    v = np.asarray(v, dtype=float)
    dx, dy, dxx, dyy, dxy = derivative_stencils(grid, "x", "y", "xx", "yy", "xy")
    dv = v[0] * dx + v[1] * dy
    dvv = v[0] ** 2 * dxx + 2.0 * v[0] * v[1] * dxy + v[1] ** 2 * dyy
    lap = dxx + dyy
    centre = np.zeros((3, 3))
    centre[1, 1] = 1.0
    c1, c0, b1, b0 = bg.lower_order()
    C = -lap + 2.0 * dvv + c1 * dv + c0 * centre
    B = -bg.eta * (bg.gamma0 / bg.sigma0) * lap - b1 * dv - b0 * centre
    return C, B


def operator_C(bg: ConstantBackground, v, grid: Grid) -> DiscreteOperator:
    """Row operator multiplying dgamma; interior rows only."""
    return DiscreteOperator(interior_stencil_matrix(grid, stencils(bg, v, grid)[0]))


def operator_B(bg: ConstantBackground, v, grid: Grid) -> DiscreteOperator:
    """Row operator multiplying dsigma; interior rows only."""
    return DiscreteOperator(interior_stencil_matrix(grid, stencils(bg, v, grid)[1]))


def symbols(bg: ConstantBackground, v, xi, grid: Grid | None = None) -> tuple[complex, complex]:
    """Symbols (C, B) of C_i and B_i at the frequency xi.

    In the continuum the per-axis symbols of -d^2 and -i d are s2 = xi^2 and
    s1 = xi; on ``grid`` they are those of the centered differences,
    s2 = (2 - 2 cos xi h) / h^2 and s1 = sin(xi h) / h, and the result is the
    exact action of operator_C and operator_B on exp(i xi.x).
    """
    v = np.asarray(v, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if grid is None:
        s2, s1 = xi ** 2, xi
    else:
        h = np.array([grid.hx, grid.hy])
        s2, s1 = (2.0 - 2.0 * np.cos(xi * h)) / h ** 2, np.sin(xi * h) / h
    c1, c0, b1, b0 = bg.lower_order()
    dvv = v[0] ** 2 * s2[0] + 2.0 * v[0] * v[1] * s1[0] * s1[1] + v[1] ** 2 * s2[1]
    dv = float(v @ s1)
    C = complex(s2.sum() - 2.0 * dvv + c0, c1 * dv)
    B = complex(bg.eta * (bg.gamma0 / bg.sigma0) * s2.sum() - b0, -b1 * dv)
    return C, B


def preprocess_data(
    dH_i: ScalarField, u_i: ScalarField, bg: ConstantBackground
) -> ScalarField:
    """S_i = (1 / (sigma0 u_i)) L(dH_i / u_i) with L = -gamma0 lap + sigma0.

    Interior nodes only; boundary entries are zero.  The background solution
    must be strictly positive (exponentials are).
    """
    if dH_i.grid != u_i.grid:
        raise GridMismatch("data and solution on different grids")
    if u_i.values.min() <= 0.0:
        raise NonPositiveSolution("background solution must be positive")
    grid = dH_i.grid
    w = dH_i.values / u_i.values
    lap = laplacian_matrix(grid)
    iidx = grid.interior_indices()
    Lw = -bg.gamma0 * (lap @ w) + bg.sigma0 * w
    out = np.zeros(grid.n_nodes)
    out[iidx] = Lw[iidx] / (bg.sigma0 * u_i.values[iidx])
    return ScalarField(grid, out)


def _spectral_preconditioner(bg: ConstantBackground, grid: Grid, shape: tuple[int, int]):
    """Block-diagonal spectral approximation of the inverse reduced normal matrix.

    Each coefficient block is preconditioned by a constant-coefficient
    biharmonic diagonalized by the orthonormal DST-I on the mcx-by-mcy coarse
    nodes: J/2 |xi|^4 + J c0^2 for dgamma and J (eta gamma0/sigma0)^2 |xi|^4 +
    J b0^2 for dsigma.  J/2 |xi|^4 is the mean over the angle of xi of
    sum_i (|xi|^2 - 2 (v_i.xi)^2)^2, |xi|^2 is the fine 5-point symbol at the
    fine frequency w of the coarse mode, and each axis carries the squared
    spline symbol (2 cos^4(w/2))^2.  The first-order and coupling terms are
    left out.
    """
    from scipy.fft import dstn  # here, not at module level: it slows `import umot`

    mcx, mcy = shape
    J = len(bg.dirs)
    _, c0, _, b0 = bg.lower_order()

    def axis(mc: int, h: float):
        w = 0.5 * np.pi * np.arange(1, mc + 1) / (mc + 1)
        return (2.0 - 2.0 * np.cos(w)) / h ** 2, (2.0 * np.cos(0.5 * w) ** 4) ** 2

    (s2x, ax), (s2y, ay) = axis(mcx, grid.hx), axis(mcy, grid.hy)
    lap2 = (s2x[None, :] + s2y[:, None]) ** 2
    spline = ay[:, None] * ax[None, :]
    principal_sigma = J * (bg.eta * bg.gamma0 / bg.sigma0) ** 2
    diag = np.stack([
        spline * (0.5 * J * lap2 + J * c0 ** 2),
        spline * (principal_sigma * lap2 + J * b0 ** 2),
    ])

    def precondition(r: np.ndarray) -> np.ndarray:
        modes = dstn(r.reshape(2, mcy, mcx), type=1, axes=(1, 2), norm="ortho")
        return dstn(modes / diag, type=1, axes=(1, 2), norm="ortho").ravel()

    return precondition


class _SplineRows:
    """The stacked rows A = [C_i | B_i] on spline coefficients, applied in place.

    ``forward`` maps the coefficients c = (c_gamma, c_sigma), each mcy-by-mcx
    and flattened, to the J data rows on the interior nodes: Q c is
    P_y c P_x^T per unknown, the mx-by-my interior is zero-padded by one
    node (the clamped unknowns), and all J rows are one product of the
    J-by-18 tap matrix with the nine shifted windows of both padded fields.
    ``adjoint`` is its transpose: the transposed product, scattered back
    onto the windows, then P_y^T f P_x.  Memory is O(n); no matrix is
    assembled beyond the 1-D bases.
    """

    def __init__(self, bg: ConstantBackground, grid: Grid):
        self.mx, self.my = grid.nx - 2, grid.ny - 2
        self.Px, self.Py, self.coarse_shape = coarse_basis((self.mx, self.my), "spline")
        self.PxT, self.PyT = self.Px.T.tocsr(), self.Py.T.tocsr()
        # row i: the nine taps of C_i, then those of B_i, in window order
        self.taps = np.array([np.concatenate([C.ravel(), B.ravel()])
                              for C, B in (stencils(bg, v, grid) for v in bg.dirs.vectors)])

    def fine(self, c: np.ndarray) -> np.ndarray:
        """Q2 c as a (2, my, mx) array of interior values."""
        mcx, mcy = self.coarse_shape
        return np.stack([self.Py @ (self.Px @ ck.T).T for ck in c.reshape(2, mcy, mcx)])

    def forward(self, c: np.ndarray) -> np.ndarray:
        mx, my = self.mx, self.my
        padded = np.zeros((2, my + 2, mx + 2))
        padded[:, 1:-1, 1:-1] = self.fine(c)
        windows = np.empty((2, 3, 3, my, mx))
        for dj in range(3):
            for di in range(3):
                windows[:, dj, di] = padded[:, dj:dj + my, di:di + mx]
        return self.taps @ windows.reshape(18, -1)

    def adjoint(self, r: np.ndarray) -> np.ndarray:
        mx, my = self.mx, self.my
        windows = (self.taps.T @ r).reshape(2, 3, 3, my, mx)
        padded = np.zeros((2, my + 2, mx + 2))
        for dj in range(3):
            for di in range(3):
                padded[:, dj:dj + my, di:di + mx] += windows[:, dj, di]
        return np.concatenate([(self.PyT @ (self.PxT @ f.T).T).ravel()
                               for f in padded[:, 1:-1, 1:-1]])

    def normal(self, c: np.ndarray) -> np.ndarray:
        """Q2^T (sum_i A_i^T A_i) Q2 c."""
        return self.adjoint(self.forward(c))


def solve_constant_bg(
    bg: ConstantBackground, data: list[ScalarField]
) -> tuple[ScalarField, ScalarField]:
    """Recover (dgamma, dsigma) from preprocessed data fields.

    Both perturbations are sought on the cubic-spline coarse basis,
    dgamma = Q c_gamma and dsigma = Q c_sigma with Q = coarse_basis(.,
    "spline"), which removes the (pi/h, pi/h) mode where the fine J-by-2
    symbol has rank 1.  The reduced normal system Q2^T (sum_i A_i^T A_i) Q2,
    with A_i = [C_i | B_i] on clamped interior unknowns and Q2 = diag(Q, Q),
    is applied matrix-free by ``_SplineRows`` and solved by conjugate
    gradients preconditioned with ``_spectral_preconditioner``; ``cg_solve``
    checks its residual.
    """
    grid = data[0].grid
    for d in data[1:]:
        if d.grid != grid:
            raise GridMismatch("data fields on different grids")
    if len(data) != len(bg.dirs):
        raise ValueError("need one data field per direction")
    iidx = grid.interior_indices()
    rows = _SplineRows(bg, grid)
    rhs = rows.adjoint(np.stack([S.values[iidx] for S in data]))
    c = cg_solve(rows.normal, rhs, _spectral_preconditioner(bg, grid, rows.coarse_shape))
    out = np.zeros((2, grid.n_nodes))
    out[:, iidx] = rows.fine(c).reshape(2, -1)
    return ScalarField(grid, out[0]), ScalarField(grid, out[1])


# ---------------------------------------------------------------------------
# absorption-free special case


def sigma_zero_recover_dsigma(dH0: ScalarField, eta: float) -> ScalarField:
    """With background u_0 = 1 the functional reduces to dH_0 = eta dsigma."""
    if eta == 0.0:
        raise ZeroEta("eta must be nonzero")
    return ScalarField(dH0.grid, dH0.values / eta)


def sigma_zero_gamma_rows(grid: Grid) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Wave-operator rows (dyy - dxx) and -2 dxy acting on dgamma.

    These are the images of the Laplacian applied to the absorption-free data
    fields for backgrounds x_1, x_2, and the polarization of x_1 + x_2; their
    symbols satisfy (xi2^2 - xi1^2)^2 + 4 xi1^2 xi2^2 = |xi|^4, so the
    stacked normal operator is the bi-Laplacian at symbol level.
    """
    dxx, dyy, dxy = interior_derivative_matrices(grid, "xx", "yy", "xy")
    return (dyy - dxx).tocsr(), (-2.0 * dxy).tocsr()


def sigma_zero_recover_dgamma_2d(dH1: ScalarField, dH12: ScalarField) -> ScalarField:
    """Clamped fourth-order recovery of dgamma from absorption-free 2D data.

    Expects the data with the dsigma contribution already removed: dH1 from
    the background x_1 and dH12 the polarization cross term.  Applies the
    discrete Laplacian to both fields, stacks the wave-operator rows, and
    solves the normal equations on clamped interior unknowns; SparseFactor
    checks the residual.
    """
    if dH1.grid != dH12.grid:
        raise GridMismatch("data fields on different grids")
    grid = dH1.grid
    lap = laplacian_matrix(grid)
    t1 = lap @ dH1.values
    t2 = lap @ dH12.values
    D1, D2 = sigma_zero_gamma_rows(grid)
    iidx = grid.interior_indices()
    D1i = D1[iidx][:, iidx]
    D2i = D2[iidx][:, iidx]
    N = D1i.T @ D1i + D2i.T @ D2i
    rhs = D1i.T @ t1[iidx] + D2i.T @ t2[iidx]
    w = SparseFactor(N).solve(rhs)
    out = np.zeros(grid.n_nodes)
    out[iidx] = w
    return ScalarField(grid, out)


def sigma_zero_laplacian_sum_check(
    n: int, n_samples: int = 100, seed: int = 0
) -> float:
    """Max residual of sum_i (|xi|^2 - 2 xi_i^2) = (n - 2) |xi|^2 over samples.

    Zero for every dimension; for n = 2 the left side itself vanishes, which
    is exactly the planar deficiency that forces the polarization route.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    rng = np.random.default_rng(seed)
    xi = rng.standard_normal((n_samples, n))
    xi /= np.linalg.norm(xi, axis=1, keepdims=True)
    lhs = np.sum(np.sum(xi ** 2, axis=1, keepdims=True) - 2.0 * xi ** 2, axis=1)
    rhs = (n - 2.0) * np.sum(xi ** 2, axis=1)
    return float(np.max(np.abs(lhs - rhs)))
