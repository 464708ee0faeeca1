"""Explicit inversion on constant backgrounds.

With constant (gamma0, sigma0) and exponential background solutions
u_i = exp(sqrt(sigma0/gamma0) x.v_i), the state perturbations du_i can be
eliminated analytically.  Applying L = -gamma0 lap + sigma0 to dH_i / u_i and
rescaling leaves a 2-by-1 row of constant-coefficient second-order operators
per direction:

    C_i dgamma + B_i dsigma = S_i,
    C_i = -lap + 2 dv_i^2 + 2 (1 + eta) sqrt(sigma0/gamma0) dv_i
          + 2 (1 + eta) sigma0/gamma0
    B_i = -eta (gamma0/sigma0) lap - 2 (1 + eta) sqrt(gamma0/sigma0) dv_i
          - 2 (1 + eta)

The first-order coefficients follow from carrying the product rule through
L(u_i w) = u_i (-gamma0 lap - 2 gamma0 sqrt(sigma0/gamma0) dv_i) w; the
symbolic elimination and the numerical cross-check against the linearized
forward map agree on them (see tests).

Applying the stacked adjoint turns this into a 2-by-2 fourth-order normal
system, solved on clamped unknowns (zero value on the boundary; the factors
have one-node reach, so zero extension of the interior unknowns realizes the
clamped elimination and the product form keeps the discrete adjoint exact).

The absorption-free background (sigma0 = 0) gets its own routes: dsigma from
the constant solution u_0 = 1, and in 2D a clamped fourth-order solve for
dgamma built from the wave-operator rows (dyy - dxx) and -2 dxy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import (
    DirectionsNotCertified,
    GridMismatch,
    NonPositiveSolution,
    ZeroAbsorption,
    ZeroEta,
)
from .ellipticity import DirectionSet, certify_directions
from .field_core import (
    DiscreteOperator,
    Grid,
    ScalarField,
    interior_derivative_matrices,
    laplacian_matrix,
)
from .solvers import SparseFactor

CONST_BG_TOL = 1e-9


@dataclass(frozen=True)
class ConstantBackground:
    """Constant diffusion/absorption levels plus certified directions."""

    gamma0: float
    sigma0: float
    eta: float
    dirs: DirectionSet

    def __post_init__(self):
        if self.gamma0 <= 0.0:
            raise ValueError("gamma0 must be positive")
        if self.sigma0 < 0.0:
            raise ValueError("sigma0 must be nonnegative")
        if self.eta == 0.0:
            raise ZeroEta("eta must be nonzero")

    @property
    def rate(self) -> float:
        return float(np.sqrt(self.sigma0 / self.gamma0))


def _directional_parts(grid: Grid, v):
    v = np.asarray(v, dtype=float)
    dx, dy, dxx, dyy, dxy = interior_derivative_matrices(grid, "x", "y", "xx", "yy", "xy")
    dv = v[0] * dx + v[1] * dy
    dvv = v[0] ** 2 * dxx + 2.0 * v[0] * v[1] * dxy + v[1] ** 2 * dyy
    lap = dxx + dyy
    return dv, dvv, lap


def _interior_identity(grid: Grid) -> sp.csr_matrix:
    iidx = grid.interior_indices()
    return sp.coo_matrix(
        (np.ones(iidx.size), (iidx, iidx)), shape=(grid.n_nodes, grid.n_nodes)
    ).tocsr()


def operator_C(bg: ConstantBackground, v, grid: Grid) -> DiscreteOperator:
    """Row operator multiplying dgamma; interior rows only."""
    if bg.sigma0 <= 0.0:
        raise ZeroAbsorption("C_i needs a positive absorption level")
    dv, dvv, lap = _directional_parts(grid, v)
    c1 = 2.0 * (1.0 + bg.eta) * bg.rate
    c0 = 2.0 * (1.0 + bg.eta) * bg.sigma0 / bg.gamma0
    m = -lap + 2.0 * dvv + c1 * dv + c0 * _interior_identity(grid)
    return DiscreteOperator(m.tocsr())


def operator_B(bg: ConstantBackground, v, grid: Grid) -> DiscreteOperator:
    """Row operator multiplying dsigma; interior rows only."""
    if bg.sigma0 <= 0.0:
        raise ZeroAbsorption("B_i needs a positive absorption level")
    dv, _, lap = _directional_parts(grid, v)
    ratio = bg.gamma0 / bg.sigma0
    b1 = 2.0 * (1.0 + bg.eta) * np.sqrt(ratio)
    b0 = 2.0 * (1.0 + bg.eta)
    m = -bg.eta * ratio * lap - b1 * dv - b0 * _interior_identity(grid)
    return DiscreteOperator(m.tocsr())


def discrete_symbol_C(bg: ConstantBackground, v, grid: Grid, xi) -> complex:
    """Closed-form action of operator_C on the plane wave exp(i xi.x)."""
    v = np.asarray(v, dtype=float)
    xi = np.asarray(xi, dtype=float)
    s2x = (2.0 - 2.0 * np.cos(xi[0] * grid.hx)) / grid.hx ** 2
    s2y = (2.0 - 2.0 * np.cos(xi[1] * grid.hy)) / grid.hy ** 2
    s1x = np.sin(xi[0] * grid.hx) / grid.hx
    s1y = np.sin(xi[1] * grid.hy) / grid.hy
    c1 = 2.0 * (1.0 + bg.eta) * bg.rate
    c0 = 2.0 * (1.0 + bg.eta) * bg.sigma0 / bg.gamma0
    real = (
        (1.0 - 2.0 * v[0] ** 2) * s2x
        + (1.0 - 2.0 * v[1] ** 2) * s2y
        - 4.0 * v[0] * v[1] * s1x * s1y
        + c0
    )
    imag = c1 * (v[0] * s1x + v[1] * s1y)
    return complex(real, imag)


def discrete_symbol_B(bg: ConstantBackground, v, grid: Grid, xi) -> complex:
    """Closed-form action of operator_B on the plane wave exp(i xi.x)."""
    v = np.asarray(v, dtype=float)
    xi = np.asarray(xi, dtype=float)
    s2x = (2.0 - 2.0 * np.cos(xi[0] * grid.hx)) / grid.hx ** 2
    s2y = (2.0 - 2.0 * np.cos(xi[1] * grid.hy)) / grid.hy ** 2
    s1x = np.sin(xi[0] * grid.hx) / grid.hx
    s1y = np.sin(xi[1] * grid.hy) / grid.hy
    ratio = bg.gamma0 / bg.sigma0
    real = bg.eta * ratio * (s2x + s2y) - 2.0 * (1.0 + bg.eta)
    imag = -2.0 * (1.0 + bg.eta) * np.sqrt(ratio) * (v[0] * s1x + v[1] * s1y)
    return complex(real, imag)


def continuum_symbol_C(bg: ConstantBackground, v, xi) -> complex:
    """|xi|^2 - 2 (v.xi)^2 + i 2(1+eta) sqrt(sigma0/gamma0) (v.xi) + 2(1+eta) sigma0/gamma0."""
    v = np.asarray(v, dtype=float)
    xi = np.asarray(xi, dtype=float)
    vx = float(v @ xi)
    return complex(
        float(xi @ xi) - 2.0 * vx ** 2 + 2.0 * (1.0 + bg.eta) * bg.sigma0 / bg.gamma0,
        2.0 * (1.0 + bg.eta) * bg.rate * vx,
    )


def continuum_symbol_B(bg: ConstantBackground, v, xi) -> complex:
    """eta (gamma0/sigma0) |xi|^2 - i 2(1+eta) sqrt(gamma0/sigma0) (v.xi) - 2(1+eta)."""
    v = np.asarray(v, dtype=float)
    xi = np.asarray(xi, dtype=float)
    ratio = bg.gamma0 / bg.sigma0
    return complex(
        bg.eta * ratio * float(xi @ xi) - 2.0 * (1.0 + bg.eta),
        -2.0 * (1.0 + bg.eta) * np.sqrt(ratio) * float(v @ xi),
    )


def preprocess_data(
    dH_i: ScalarField, u_i: ScalarField, bg: ConstantBackground
) -> ScalarField:
    """S_i = (1 / (sigma0 u_i)) L(dH_i / u_i) with L = -gamma0 lap + sigma0.

    Interior nodes only; boundary entries are zero.  The background solution
    must be strictly positive (exponentials are).
    """
    if dH_i.grid != u_i.grid:
        raise GridMismatch("data and solution on different grids")
    if bg.sigma0 <= 0.0:
        raise ZeroAbsorption("preprocessing needs a positive absorption level")
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


def direction_blocks(bg: ConstantBackground, grid: Grid) -> list[sp.csr_matrix]:
    """Interior row block [C_i | B_i] of each direction, once the set is certified."""
    if bg.dirs.dim != 2:  # the operators would read two components of each vector
        raise GridMismatch(f"{bg.dirs.dim}-D directions on a 2-D grid")
    report = certify_directions(bg.dirs)
    if not report.elliptic:
        raise DirectionsNotCertified(
            f"direction margin {report.global_margin:.3e} below threshold"
        )
    n_req = bg.dirs.dim + 1
    if len(bg.dirs) < n_req:
        raise DirectionsNotCertified(
            f"constant-background route needs {n_req} directions"
        )
    iidx = grid.interior_indices()
    return [
        sp.hstack(
            [op(bg, v, grid).matrix[iidx][:, iidx] for op in (operator_C, operator_B)],
            format="csr",
        )
        for v in bg.dirs.vectors
    ]


def solve_constant_bg(
    bg: ConstantBackground, data: list[ScalarField]
) -> tuple[ScalarField, ScalarField]:
    """Recover (dgamma, dsigma) from preprocessed data fields.

    Solves the 2-by-2 fourth-order normal system sum_i [C_i B_i]^T [C_i B_i]
    on clamped interior unknowns to the relative residual CONST_BG_TOL.
    """
    grid = data[0].grid
    for d in data[1:]:
        if d.grid != grid:
            raise GridMismatch("data fields on different grids")
    if len(data) != len(bg.dirs):
        raise ValueError("need one data field per direction")
    blocks = direction_blocks(bg, grid)
    iidx = grid.interior_indices()
    n_int = iidx.size
    A = sp.vstack(blocks, format="csr")
    rhs = np.sum([blk.T @ S.values[iidx] for blk, S in zip(blocks, data)], axis=0)
    w = SparseFactor((A.T @ A).tocsr()).solve(rhs, CONST_BG_TOL)
    dgamma = np.zeros(grid.n_nodes)
    dsigma = np.zeros(grid.n_nodes)
    dgamma[iidx] = w[:n_int]
    dsigma[iidx] = w[n_int:]
    return ScalarField(grid, dgamma), ScalarField(grid, dsigma)


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
    solves the normal equations on clamped interior unknowns to CONST_BG_TOL.
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
    N = (D1i.T @ D1i + D2i.T @ D2i).tocsr()
    rhs = D1i.T @ t1[iidx] + D2i.T @ t2[iidx]
    w = SparseFactor(N).solve(rhs, CONST_BG_TOL)
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
