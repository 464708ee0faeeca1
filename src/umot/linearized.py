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
pinned to zero (perturbations are modeled as interior-supported); when
normal-derivative data g is supplied they are instead carried by a clamped
biharmonic lift and the solve runs on the homogeneous remainder.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

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

    def __post_init__(self):
        grid = self.dgamma.grid
        if self.dsigma.grid != grid or any(u.grid != grid for u in self.du):
            raise GridMismatch("perturbation components on different grids")
        b = grid.boundary_indices()
        for u in self.du:
            if np.max(np.abs(u.values[b])) > 1e-12:
                raise ValueError("du components must vanish on the boundary")
        object.__setattr__(self, "du", tuple(self.du))


@dataclass
class LinearizedSystem:
    """Assembled least-squares system A v = rhs.

    ``A`` carries the row weights already applied; its columns are the
    interior blocks [dgamma | dsigma | du_1 ... du_J].  ``A_boundary`` holds the
    columns of the boundary nodes of the dgamma/dsigma blocks (zero in the
    default interior-supported model; needed when a lift supplies boundary
    values).
    """

    A: DiscreteOperator
    rhs: np.ndarray
    bundle: SolutionBundle
    A_boundary: sp.csr_matrix
    certified: bool | None = None
    _normal: tuple | None = field(default=None, repr=False)

    @property
    def J(self) -> int:
        return self.bundle.J

    def data_rhs(self, dH: list[ScalarField]) -> np.ndarray:
        """Right-hand side for a new set of functional perturbations."""
        grid = self.bundle.grid
        iidx = grid.interior_indices()
        n_int = iidx.size
        rhs = np.zeros(2 * self.J * n_int)
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
    bidx = grid.boundary_indices()
    n_int = iidx.size
    w_pde = float(np.sqrt(grid.hx * grid.hy))
    gam = bundle.coeffs.gamma.values[iidx]
    sig = bundle.coeffs.sigma.values[iidx]
    dx, dy = interior_derivative_matrices(grid, "x", "y")
    dx, dy = dx[iidx][:, iidx], dy[iidx][:, iidx]  # boundary du columns are zero
    L = w_pde * bundle.solver.A_II

    rows, boundary_rows = [], []
    for j, ((_, u), geo) in enumerate(zip(bundle.solutions, bundle.geometry)):
        F = geo.F.values[iidx]
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
        M = w_pde * diffusion_flux_jacobian(bundle.coeffs.gamma, u)[iidx]
        rows.append(
            [M[:, iidx], sp.diags(w_pde * uj)] + [L if k == j else None for k in range(J)]
        )
        boundary_rows += [sp.csr_matrix((n_int, bidx.size)), M[:, bidx]]

    # boundary dsigma columns never appear (pointwise term at interior rows)
    A_bnd = sp.hstack(
        [sp.vstack(boundary_rows), sp.csr_matrix((2 * J * n_int, bidx.size))], format="csr"
    )
    system = LinearizedSystem(
        DiscreteOperator(sp.bmat(rows, format="csr")), None, bundle, A_bnd
    )
    system.rhs = system.data_rhs(dH)
    return system


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
        F = bundle.geometry[j].F.values
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


def _normal_factor(sys: LinearizedSystem) -> tuple:
    """(factor, probe, sigma_max) of the normal matrix, built once per system.

    An exactly singular factorization is cached as (None, 0.0, 0.0).
    """
    if sys._normal is None:
        A = sys.A.matrix
        try:
            factor = SparseFactor((A.T @ A).tocsr())
        except SolverDivergence:
            sys._normal = (None, 0.0, 0.0)
        else:
            sys._normal = (factor, *factor.smallest_singular(A))
    return sys._normal


def _ensure_full_rank(sys: LinearizedSystem) -> SparseFactor:
    """The normal factor, or RankDeficient when the smallest singular value collapses.

    The normal equations stay consistent even for a singular operator, so a
    direct factorization can return an arbitrarily large spurious solution
    without tripping any residual check; hence the probe before every solve.
    """
    factor, probe, smax = _normal_factor(sys)
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
    if sys.certified is False:
        warnings.warn("solving a system whose bundle failed certification")
    grid = sys.bundle.grid
    iidx = grid.interior_indices()
    bidx = grid.boundary_indices()
    n_int = iidx.size
    J = sys.J
    A = sys.A.matrix
    b = sys.rhs if rhs is None else rhs

    phis = None
    if g is not None:
        if len(g) != 2 + J:
            raise ValueError("need normal data for each unknown block")
        phis = biharmonic_lifts(g)
        phi_int = np.concatenate([p.values[iidx] for p in phis])
        phi_bnd = np.concatenate([phis[0].values[bidx], phis[1].values[bidx]])
        b = b - A @ phi_int - sys.A_boundary @ phi_bnd

    rhs_n = A.T @ b
    if not np.any(rhs_n):
        w = np.zeros(A.shape[1])
    else:
        w = _ensure_full_rank(sys).solve(rhs_n)

    if phis is not None:
        w = w + phi_int

    def unpack(block: int, boundary_from=None) -> ScalarField:
        full = np.zeros(grid.n_nodes)
        full[iidx] = w[block * n_int : (block + 1) * n_int]
        if boundary_from is not None:
            full[bidx] = boundary_from.values[bidx]
        return ScalarField(grid, full)

    dgamma = unpack(0, phis[0] if phis else None)
    dsigma = unpack(1, phis[1] if phis else None)
    du = tuple(unpack(2 + j) for j in range(J))
    return PerturbationVector(dgamma, dsigma, du)


def normal_residual(sys: LinearizedSystem, v: PerturbationVector) -> float:
    """Relative normal-equation residual of a candidate solution."""
    grid = sys.bundle.grid
    iidx = grid.interior_indices()
    w = np.concatenate(
        [v.dgamma.values[iidx], v.dsigma.values[iidx]]
        + [u.values[iidx] for u in v.du]
    )
    A = sys.A.matrix
    rN = A.T @ (A @ w) - A.T @ sys.rhs
    scale = max(float(np.linalg.norm(A.T @ sys.rhs)), 1e-300)
    return float(np.linalg.norm(rN)) / scale


def injectivity_probe(sys: LinearizedSystem, relative: bool = False) -> float:
    """Smallest-singular-value estimate of the stacked operator.

    Inverse-power iteration on the system's cached normal-matrix factor
    followed by a direct Rayleigh quotient on the rectangular matrix;
    structurally null directions therefore report far below the eigenvalue
    round-off floor, and an exactly singular factor reports 0.
    """
    _, probe, smax = _normal_factor(sys)
    if relative:
        return probe / smax if smax > 0 else 0.0
    return probe
