"""Forward diffusion solves and internal-functional synthesis.

For each boundary condition f_j this module solves

    -div(gamma grad u_j) + sigma u_j = 0   in X,   u_j = f_j  on dX,

and, on first read, forms the interior functional

    H_j = gamma |grad u_j|^2 + eta sigma u_j^2,

and the gradient field F_j = grad u_j, which the certification and the
linearized system read.  The operator's interior block is stored by its
five diagonals, its boundary coupling as the taps that reach the boundary
ring, and every multigrid level by its diagonals too, so a bundle holds the
solutions, the solver and, once read, F_j and H_j.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridMismatch
from .field_core import BoundaryData, Grid, ScalarField, diffusion_blocks, gradient
from .solvers import Multigrid, cg_solve

DEFAULT_ETA = 1.0
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


class DiffusionSolver:
    """Forward operator for repeated boundary-value solves.

    The operator is assembled directly as its interior block A_II, a
    ``dia_matrix`` of five diagonals, and the taps by which the interior
    reaches the boundary ring (``diffusion_blocks``), so a Dirichlet solve
    is A_II u_I = ``dirichlet_rhs(f)``.  Every solve is conjugate gradients
    on A_II preconditioned by a multigrid V-cycle whose hierarchy is built
    once and keeps A_II itself as its finest level.  A problem with at most
    MG_COARSEST unknowns has no levels: its V-cycle is the exact coarse
    solve, so CG stops after one step.  Every solve is checked at the solve
    layer's one residual bound, and a stalled iteration or a solve above
    that bound raises SolverDivergence.
    """

    def __init__(self, coeffs: CoefficientPair):
        self.coeffs = coeffs
        grid = coeffs.grid
        self.interior = grid.interior_indices()
        self.boundary = grid.boundary_indices()
        self.A_II, self._ring = diffusion_blocks(coeffs.gamma, coeffs.sigma)
        self._mg = Multigrid(self.A_II, grid.nx - 2, grid.ny - 2)

    def dirichlet_rhs(self, f: BoundaryData) -> np.ndarray:
        """Interior right-hand side -A_IB f of the Dirichlet problem with trace f.

        The ring taps times the boundary values they reach are added into
        zeros south, west, east, north and the sum is negated: the order and
        the signed zeros of a CSR product with the boundary columns.
        """
        grid = self.coeffs.grid
        F = np.zeros(grid.n_nodes)
        F[self.boundary] = f.values
        F = F.reshape(grid.ny, grid.nx)
        south, west, east, north = self._ring
        r = np.zeros((grid.ny - 2, grid.nx - 2))
        r[0] += south * F[0, 1:-1]
        r[:, 0] += west * F[1:-1, 0]
        r[:, -1] += east * F[1:-1, -1]
        r[-1] += north * F[-1, 1:-1]
        return -r.ravel()

    def _solve_interior(self, rhs: np.ndarray) -> np.ndarray:
        return cg_solve(self.A_II, rhs, self._mg.cycle)

    def solve(self, f: BoundaryData) -> ScalarField:
        """Solution of the Dirichlet problem with trace f."""
        if f.grid != self.coeffs.grid:
            raise GridMismatch("boundary data on the wrong grid")
        u_int = self._solve_interior(self.dirichlet_rhs(f))
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
        rhs = self.dirichlet_rhs(f)
        r = self.A_II @ u.values[self.interior] - rhs
        scale = max(float(np.linalg.norm(rhs)), 1e-300)
        return float(np.linalg.norm(r)) / scale


@dataclass(frozen=True)
class SolutionBundle:
    """Forward solutions for one coefficient pair, with gradients and H on demand.

    ``solutions`` holds the (f_j, u_j) pairs; they are all the bundle stores
    besides its build settings.  ``gradients`` and ``H`` are computed from the
    solutions on first read and kept; ``H`` reads ``gradients``, so each F_j
    is formed once per bundle, and a bundle whose gradients and H nothing
    reads never holds them.  ``dataclasses.replace(bundle, solutions=...)``
    derives both for the new solutions.  ``at`` repeats the bundle's build
    (traces and ``eta``) at other coefficients.
    """

    coeffs: CoefficientPair
    eta: float
    solutions: tuple
    solver: DiffusionSolver

    @property
    def J(self) -> int:
        return len(self.solutions)

    @property
    def grid(self) -> Grid:
        return self.coeffs.grid

    @cached_property
    def gradients(self) -> tuple:
        """The gradient field F_j = ``gradient(u_j)`` of each u_j."""
        return tuple(gradient(u) for _, u in self.solutions)

    @cached_property
    def H(self) -> tuple:
        """H_j = gamma |F_j|^2 + eta sigma u_j^2 of each u_j, read off ``gradients``."""
        gamma, sigma = self.coeffs.gamma.values, self.coeffs.sigma.values
        H = []
        for (_, u), F in zip(self.solutions, self.gradients):
            mag2 = F.values[:, 0] ** 2 + F.values[:, 1] ** 2
            H.append(ScalarField(u.grid, gamma * mag2 + self.eta * sigma * u.values ** 2))
        return tuple(H)

    def at(self, coeffs: CoefficientPair) -> "SolutionBundle":
        """This bundle's build (traces, eta) at ``coeffs``."""
        traces = [f for f, _ in self.solutions]
        return build_bundle(coeffs, traces, self.eta)


def build_bundle(
    coeffs: CoefficientPair,
    traces: list[BoundaryData],
    eta: float = DEFAULT_ETA,
) -> SolutionBundle:
    """Solve the forward problem for every trace and package the solutions.

    Each solve is residual-checked by the solver (see DiffusionSolver); the
    boundary restriction of u_j equals f_j exactly by construction.
    """
    if not traces:
        raise ValueError("need at least one boundary condition")
    solver = DiffusionSolver(coeffs)
    solutions = tuple((f, solver.solve(f)) for f in traces)
    return SolutionBundle(coeffs, eta, solutions, solver)
