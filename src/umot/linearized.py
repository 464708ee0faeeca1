"""Linearized inversion: redundant first-order system and normal equations.

Around a base bundle (gamma, sigma, {u_j}), first-order perturbations solve,
per solution j and interior node,

    |grad u_j|^2 dgamma + eta u_j^2 dsigma
        + 2 gamma grad u_j . grad du_j + 2 eta sigma u_j du_j = dH_j      (data)
    -div(dgamma grad u_j) + L du_j + u_j dsigma = 0,   L = -div(gamma grad) + sigma
                                                                          (state)

with du_j = 0 on the boundary.  The rows are stacked block by block from the
shared stencil matrices: the central differences of field_core, the flux
Jacobian and the forward solver's interior operator.  The redundant sparse
least-squares problem is solved through its normal equations, whose matrix is
factored once per system; the rank probe, every solve and the injectivity
probe share that factor.  Mixed-order row weights (data rows times 1, state
rows times h) balance the discrete system across derivative orders.

Unknown layout: perturbation blocks [dgamma | dsigma | du_1 ... du_J], each
restricted to interior nodes.  Boundary values of dgamma and dsigma are
pinned to zero (perturbations are modeled as interior-supported).  When
normal-derivative data g is supplied, a clamped biharmonic lift carries it:
the lift vanishes on the boundary and has normal derivative g there, and the
solve runs on the homogeneous remainder.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .biharmonic import biharmonic_lifts
from .errors import GridMismatch, RankDeficient, SolverDivergence, TooFewSolutions
from .field_core import (
    BoundaryData,
    DiscreteOperator,
    ScalarField,
    diffusion_flux_jacobian,
    gradient,
    interior_derivative_matrices,
)
from .forward import SolutionBundle
from .solvers import SparseFactor

RANK_DEFICIENT_REL = 1e-8


@dataclass(frozen=True)
class PerturbationVector:
    """Stacked perturbation (dgamma, dsigma, {du_j}); du_j vanish on dX."""

    dgamma: ScalarField
    dsigma: ScalarField
    du: tuple


@dataclass
class LinearizedSystem:
    """Assembled least-squares system A v = rhs.

    ``A`` carries the row weights already applied; its columns are the
    interior blocks [dgamma | dsigma | du_1 ... du_J].  The system carries no
    certification: callers gate the bundle with ``EllipticityReport.require``
    before they assemble.
    """

    A: DiscreteOperator
    rhs: np.ndarray
    bundle: SolutionBundle

    @property
    def J(self) -> int:
        return self.bundle.J

    @cached_property
    def normal(self) -> tuple:
        """(factor, probe, sigma_max) of the normal matrix, built once per system.

        An exactly singular factorization gives (None, 0.0, 0.0).
        """
        A = self.A.matrix
        try:
            factor = SparseFactor(A.T @ A)
        except SolverDivergence:
            return None, 0.0, 0.0
        return (factor, *factor.smallest_singular(A))

    def data_rhs(self, dH: list[ScalarField]) -> np.ndarray:
        """Right-hand side for a new set of functional perturbations."""
        return _data_rhs(self.bundle, dH)


def _data_rhs(bundle: SolutionBundle, dH: list[ScalarField]) -> np.ndarray:
    """The data rows' right-hand side: dH_j on the interior, zero state rows."""
    grid = bundle.grid
    iidx = grid.interior_indices()
    n_int = iidx.size
    rhs = np.zeros(2 * bundle.J * n_int)
    for j, dh in enumerate(dH):
        if dh.grid != grid:
            raise GridMismatch("dH field on the wrong grid")
        rhs[2 * j * n_int : (2 * j + 1) * n_int] = dh.values[iidx]
    return rhs


def assemble_system(
    bundle: SolutionBundle,
    dH: list[ScalarField],
    allow_deficient: bool = False,
) -> LinearizedSystem:
    """Assemble the stacked first-order system at the bundle's base point.

    Row blocks per solution j: data rows then state rows, each over the
    interior nodes.  ``allow_deficient`` admits J < 3 configurations (used by
    injectivity probes of deliberately deficient setups).
    """
    J = bundle.J
    if len(dH) != J:
        raise ValueError("need one dH field per solution")
    if J < 3 and not allow_deficient:
        raise TooFewSolutions("the 2D inversion needs at least three solutions")
    grid = bundle.grid
    iidx = grid.interior_indices()
    w_pde = float(np.sqrt(grid.hx * grid.hy))
    gam = bundle.coeffs.gamma.values[iidx]
    sig = bundle.coeffs.sigma.values[iidx]
    dx, dy = interior_derivative_matrices(grid, "x", "y")
    dx, dy = dx[iidx][:, iidx], dy[iidx][:, iidx]  # boundary du columns are zero
    L = w_pde * bundle.solver.A_II

    rows = []
    for j, ((_, u), grad) in enumerate(zip(bundle.solutions, bundle.gradients)):
        F = grad.values[iidx]
        uj = u.values[iidx]
        # data rows: |F|^2 dgamma + eta u^2 dsigma + 2 gamma F.grad(du) + 2 eta sigma u du
        du_data = (
            sp.diags(2.0 * gam * F[:, 0]) @ dx
            + sp.diags(2.0 * gam * F[:, 1]) @ dy
            + sp.diags(2.0 * bundle.eta * sig * uj)
        )
        rows.append(
            [sp.diags(F[:, 0] ** 2 + F[:, 1] ** 2), sp.diags(bundle.eta * uj**2)]
            + [du_data if k == j else None for k in range(J)]
        )
        # state rows (weighted by h): flux-jacobian in dgamma, u dsigma, L du
        M = w_pde * diffusion_flux_jacobian(bundle.coeffs.gamma, u)[iidx][:, iidx]
        rows.append([M, sp.diags(w_pde * uj)] + [L if k == j else None for k in range(J)])

    return LinearizedSystem(
        DiscreteOperator(sp.bmat(rows, format="csr")), _data_rhs(bundle, dH), bundle
    )


def apply_linearized_forward(
    bundle: SolutionBundle,
    dgamma: ScalarField,
    dsigma: ScalarField,
) -> tuple[list[ScalarField], list[ScalarField]]:
    """Exact Jacobian action of the forward map on (dgamma, dsigma).

    Solves L du_j = div(dgamma grad u_j) - u_j dsigma with du_j = 0 on dX,
    then evaluates the first-order functional perturbation.  Because the flux
    stencil enters through the exact derivative of its face average, this is
    the derivative of the discrete forward map, not merely a consistent
    discretization of the continuum one.
    """
    grid = bundle.grid
    if dgamma.grid != grid or dsigma.grid != grid:
        raise GridMismatch("perturbations on the wrong grid")
    iidx = grid.interior_indices()
    eta = bundle.eta
    gam = bundle.coeffs.gamma.values
    sig = bundle.coeffs.sigma.values
    dH_out, du_out = [], []
    for j in range(bundle.J):
        _, u = bundle.solutions[j]
        Mj = diffusion_flux_jacobian(bundle.coeffs.gamma, u)
        rhs = -(Mj @ dgamma.values)[iidx] - (u.values * dsigma.values)[iidx]
        du = bundle.solver.solve_zero_dirichlet(rhs)
        F = bundle.gradients[j].values
        Gdu = gradient(du).values
        mag2 = F[:, 0] ** 2 + F[:, 1] ** 2
        dh = (
            mag2 * dgamma.values
            + eta * u.values ** 2 * dsigma.values
            + 2.0 * gam * (F[:, 0] * Gdu[:, 0] + F[:, 1] * Gdu[:, 1])
            + 2.0 * eta * sig * u.values * du.values
        )
        dH_out.append(ScalarField(grid, dh))
        du_out.append(du)
    return dH_out, du_out


def _ensure_full_rank(sys: LinearizedSystem) -> SparseFactor:
    """The normal factor, or RankDeficient when the smallest singular value collapses.

    The normal equations stay consistent even for a singular operator, so a
    direct factorization can return an arbitrarily large spurious solution
    without tripping any residual check; hence the probe before every solve.
    """
    factor, probe, smax = sys.normal
    if factor is None:
        raise RankDeficient("normal matrix is exactly singular: injectivity failure")
    if probe < RANK_DEFICIENT_REL * smax:
        raise RankDeficient(
            f"smallest singular-value probe {probe:.3e} below "
            f"{RANK_DEFICIENT_REL:.0e} of {smax:.3e}: injectivity failure"
        )
    return factor


def solve_normal_equations(
    sys: LinearizedSystem,
    g: list[BoundaryData] | None = None,
    rhs: np.ndarray | None = None,
) -> PerturbationVector:
    """Least-squares solution of the stacked system via its normal equations.

    With normal-derivative data ``g`` (one BoundaryData per unknown block,
    ordered dgamma, dsigma, du_1..du_J), the solution is split v = w + phi
    with phi the clamped biharmonic lift of g, and the homogeneous remainder
    w is solved for on the system's cached normal-matrix factorization,
    after the rank probe has cleared it; the factor checks the solve's
    residual against the solve layer's one bound.
    """
    grid = sys.bundle.grid
    iidx = grid.interior_indices()
    n_int = iidx.size
    J = sys.J
    A = sys.A.matrix
    b = sys.rhs if rhs is None else rhs

    if g is not None:
        if len(g) != 2 + J:
            raise ValueError("need normal data for each unknown block")
        if any(g_k.grid != grid for g_k in g):
            raise GridMismatch("normal data on the wrong grid")
        phi_int = np.concatenate([p.values[iidx] for p in biharmonic_lifts(g)])
        b = b - A @ phi_int

    w = _ensure_full_rank(sys).solve(A.T @ b)

    if g is not None:
        w = w + phi_int

    def unpack(block: int) -> ScalarField:
        full = np.zeros(grid.n_nodes)
        full[iidx] = w[block * n_int : (block + 1) * n_int]
        return ScalarField(grid, full)

    du = tuple(unpack(2 + j) for j in range(J))
    return PerturbationVector(unpack(0), unpack(1), du)


def normal_residual(sys: LinearizedSystem, v: PerturbationVector) -> float:
    """Relative normal-equation residual of a candidate solution."""
    grid = sys.bundle.grid
    iidx = grid.interior_indices()
    w = np.concatenate(
        [v.dgamma.values[iidx], v.dsigma.values[iidx]]
        + [u.values[iidx] for u in v.du]
    )
    A = sys.A.matrix
    rhs_n = A.T @ sys.rhs
    rN = A.T @ (A @ w) - rhs_n
    scale = max(float(np.linalg.norm(rhs_n)), 1e-300)
    return float(np.linalg.norm(rN)) / scale


def injectivity_probe(sys: LinearizedSystem, relative: bool = False) -> float:
    """Smallest-singular-value estimate of the stacked operator.

    Inverse-power iteration on the system's cached normal-matrix factor
    followed by a direct Rayleigh quotient on the rectangular matrix;
    structurally null directions therefore report far below the eigenvalue
    round-off floor, and an exactly singular factor reports 0.
    """
    _, probe, smax = sys.normal
    if relative:
        return probe / smax if smax > 0 else 0.0
    return probe
