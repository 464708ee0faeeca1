"""Forward diffusion solves and internal-functional synthesis.

For each boundary condition f_j this module solves

    -div(gamma grad u_j) + sigma u_j = 0   in X,   u_j = f_j  on dX,

forms the interior functional

    H_j = gamma |grad u_j|^2 + eta sigma u_j^2,

and derives the per-solution geometry: the gradient field F_j, its unit
direction theta_j, and the ratio d_j = u_j / |grad u_j|.  Nodes where the
gradient magnitude falls below a floor are flagged as degenerate rather than
populated with unstable quotients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, SolverDivergence
from .field_core import (
    BoundaryData,
    Grid,
    ScalarField,
    VectorField,
    assemble_diffusion_operator,
    gradient,
)
from .solvers import Multigrid, SparseFactor, cg_solve

DEFAULT_ETA = 1.0
DEFAULT_SOLVER_TOL = 1e-10
DIRECT_THRESHOLD = 2500  # interior unknowns; larger forward problems use multigrid CG
GAMMA_FLOOR = 1e-12  # smallest admissible diffusion coefficient


@dataclass(frozen=True)
class CoefficientPair:
    """Diffusion and absorption fields: gamma >= GAMMA_FLOOR, sigma >= 0."""

    gamma: ScalarField
    sigma: ScalarField

    def __post_init__(self):
        if self.gamma.grid != self.sigma.grid:
            raise GridMismatch("gamma and sigma must share a grid")
        if self.gamma.values.min() < GAMMA_FLOOR:
            raise ValueError(f"diffusion coefficient below {GAMMA_FLOOR:g}")
        if self.sigma.values.min() < 0.0:
            raise ValueError("absorption coefficient must be nonnegative")

    @property
    def grid(self) -> Grid:
        return self.gamma.grid

    @classmethod
    def constant(cls, grid: Grid, gamma0: float, sigma0: float) -> "CoefficientPair":
        return cls(ScalarField.constant(grid, gamma0), ScalarField.constant(grid, sigma0))


@dataclass(frozen=True)
class SolutionGeometry:
    """Gradient field, unit direction, and value-to-gradient ratio."""

    F: VectorField
    theta: VectorField
    d: ScalarField
    degenerate_mask: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.degenerate_mask, dtype=bool).copy()
        m.setflags(write=False)
        object.__setattr__(self, "degenerate_mask", m)


class DiffusionSolver:
    """Factorized forward operator for repeated boundary-value solves.

    The assembled operator splits into the interior block A_II and the
    boundary coupling A_IB, so a Dirichlet solve is A_II u_I = -A_IB f.
    A_II gets a sparse factorization, built once, up to DIRECT_THRESHOLD
    interior unknowns.  Above it, conjugate gradients run preconditioned by a
    multigrid V-cycle whose hierarchy is built once; a stalled iteration raises
    SolverDivergence.  ``tol`` never changes a solution: the factorization is
    exact and CG always stops at a relative residual of 1e-14.  It only bounds
    the residual check of each solve.
    """

    def __init__(self, coeffs: CoefficientPair, tol: float = DEFAULT_SOLVER_TOL):
        self.coeffs = coeffs
        self.tol = tol
        grid = coeffs.grid
        self.interior = grid.interior_indices()
        self.boundary = grid.boundary_indices()
        A = assemble_diffusion_operator(coeffs.gamma, coeffs.sigma).matrix
        self.A_II = A[self.interior][:, self.interior]
        self.A_IB = A[self.interior][:, self.boundary]
        if self.interior.size <= DIRECT_THRESHOLD:
            self._factor, self._mg = SparseFactor(self.A_II), None
        else:
            self._factor, self._mg = None, Multigrid(self.A_II, grid.nx - 2, grid.ny - 2)

    def _solve_interior(self, rhs: np.ndarray) -> np.ndarray:
        if self._factor is not None:
            return self._factor.solve(rhs, self.tol)
        return cg_solve(self.A_II, rhs, self._mg, self.tol)

    def solve(self, f: BoundaryData) -> ScalarField:
        """Solution of the Dirichlet problem with trace f."""
        if f.grid != self.coeffs.grid:
            raise GridMismatch("boundary data on the wrong grid")
        rhs = -(self.A_IB @ f.values)
        u_int = self._solve_interior(rhs)
        full = np.zeros(self.coeffs.grid.n_nodes)
        full[self.interior] = u_int
        full[self.boundary] = f.values
        return ScalarField(self.coeffs.grid, full)

    def solve_zero_dirichlet(self, rhs_interior: np.ndarray) -> ScalarField:
        """Solve with homogeneous boundary values and an interior source."""
        u_int = self._solve_interior(rhs_interior)
        full = np.zeros(self.coeffs.grid.n_nodes)
        full[self.interior] = u_int
        return ScalarField(self.coeffs.grid, full)

    def residual(self, u: ScalarField, f: BoundaryData) -> float:
        rhs = -(self.A_IB @ f.values)
        r = self.A_II @ u.values[self.interior] - rhs
        scale = max(float(np.linalg.norm(rhs)), 1e-300)
        return float(np.linalg.norm(r)) / scale


def solve_diffusion(coeffs: CoefficientPair, f: BoundaryData) -> ScalarField:
    """One-shot forward solve; see DiffusionSolver for the cached variant."""
    return DiffusionSolver(coeffs).solve(f)


def internal_functional(
    coeffs: CoefficientPair, u: ScalarField, eta: float = DEFAULT_ETA
) -> ScalarField:
    """H = gamma |grad u|^2 + eta sigma u^2, evaluated pointwise."""
    if u.grid != coeffs.grid:
        raise GridMismatch("solution on the wrong grid")
    F = gradient(u)
    mag2 = F.values[:, 0] ** 2 + F.values[:, 1] ** 2
    vals = coeffs.gamma.values * mag2 + eta * coeffs.sigma.values * u.values ** 2
    return ScalarField(u.grid, vals)


def solution_geometry(u: ScalarField, grad_floor: float | None = None) -> SolutionGeometry:
    """Unit direction and value ratio of the gradient field of u.

    Nodes with |grad u| below ``grad_floor`` (default 1e-8 times the largest
    gradient magnitude) are masked; theta and d are zero there.
    """
    F = gradient(u)
    mag = F.magnitude()
    if grad_floor is None:
        grad_floor = 1e-8 * float(mag.max())
    if grad_floor <= 0.0:
        grad_floor = np.finfo(float).tiny
    mask = mag < grad_floor
    safe = np.where(mask, 1.0, mag)
    theta = F.values / safe[:, None]
    theta[mask] = 0.0
    d = u.values / safe
    d = np.where(mask, 0.0, d)
    return SolutionGeometry(F, VectorField(u.grid, theta), ScalarField(u.grid, d), mask)


def polarization_functional(
    H_a: ScalarField, H_b: ScalarField, H_sum: ScalarField
) -> ScalarField:
    """Cross functional from measurements at f_a, f_b, and f_a + f_b.

    The internal functional is quadratic in the solution, so
    (H(u_a + u_b) - H(u_a) - H(u_b)) / 2 equals the bilinear cross term
    gamma grad(u_a).grad(u_b) + eta sigma u_a u_b.
    """
    if H_a.grid != H_b.grid or H_a.grid != H_sum.grid:
        raise GridMismatch("polarization inputs on different grids")
    return ScalarField(H_a.grid, 0.5 * (H_sum.values - H_a.values - H_b.values))


@dataclass(frozen=True)
class SolutionBundle:
    """Forward solutions, functionals, and geometry for one coefficient pair.

    ``solutions`` holds the (f_j, u_j) pairs.  ``at`` repeats the bundle's build
    (``eta``, ``grad_floor``, forward tolerance ``solver.tol``) at other coefficients.
    The forward tolerance only bounds the residual checks; see DiffusionSolver.
    """

    coeffs: CoefficientPair
    eta: float
    solutions: tuple
    geometry: tuple
    H: tuple
    solver: DiffusionSolver
    grad_floor: float | None = None

    @property
    def J(self) -> int:
        return len(self.solutions)

    @property
    def grid(self) -> Grid:
        return self.coeffs.grid

    def at(self, coeffs: CoefficientPair) -> "SolutionBundle":
        """This bundle's build (traces, eta, grad_floor, tolerance) at ``coeffs``."""
        traces = [f for f, _ in self.solutions]
        return build_bundle(coeffs, traces, self.eta, self.grad_floor, self.solver.tol)


def build_bundle(
    coeffs: CoefficientPair,
    traces: list[BoundaryData],
    eta: float = DEFAULT_ETA,
    grad_floor: float | None = None,
    tol: float = DEFAULT_SOLVER_TOL,
) -> SolutionBundle:
    """Solve the forward problem for every trace and package the results.

    The discrete residual of each stored solution is verified against
    ``10 * tol``; the boundary restriction of u_j equals f_j exactly by
    construction.  ``tol`` bounds only these checks and the solver's own: it
    never changes a solution (see DiffusionSolver).
    """
    if not traces:
        raise ValueError("need at least one boundary condition")
    solver = DiffusionSolver(coeffs, tol)
    solutions = []
    geometry = []
    functionals = []
    for f in traces:
        u = solver.solve(f)
        res = solver.residual(u, f)
        if res > 10.0 * tol:
            raise SolverDivergence(f"stored solution residual {res:.3e}")
        solutions.append((f, u))
        geometry.append(solution_geometry(u, grad_floor))
        functionals.append(internal_functional(coeffs, u, eta))
    return SolutionBundle(
        coeffs, eta, tuple(solutions), tuple(geometry), tuple(functionals), solver, grad_floor
    )
