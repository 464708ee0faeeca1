"""Forward diffusion solves and internal-functional synthesis.

For each boundary condition f_j this module solves

    -div(gamma grad u_j) + sigma u_j = 0   in X,   u_j = f_j  on dX,

and, on first read, forms the interior functional

    H_j = gamma |grad u_j|^2 + eta sigma u_j^2,

and derives the per-solution geometry: the gradient field F_j, kept, and
from it, at the nodes asked for, the unit direction theta_j and the ratio
d_j = u_j / |grad u_j|.  Nodes where the gradient magnitude falls below
GRAD_FLOOR_REL times its largest value are flagged as degenerate rather
than populated with unstable quotients; the floor is a constant of the
code, not a setting.  The operator's interior block is stored by its five
diagonals, its boundary coupling as the taps that reach the boundary ring,
and every multigrid level by its diagonals too, so a bundle holds the
solutions, the solver and, once read, F_j and H_j.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridMismatch
from .field_core import (
    BoundaryData,
    Grid,
    ScalarField,
    VectorField,
    diffusion_blocks,
    gradient,
)
from .solvers import Multigrid, cg_solve

DEFAULT_ETA = 1.0
GAMMA_FLOOR = 1e-12  # smallest admissible diffusion coefficient
GRAD_FLOOR_REL = 1e-8  # |grad u| below this times max |grad u| marks a degenerate node


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
    """Gradient field of u_j, its degenerate nodes, and u_j itself (not a copy).

    The unit direction theta_j and the ratio d_j are not stored: ``at``
    forms both at any nodes and ``d_at`` the ratio alone, on each call, so
    a geometry holds only F beyond the solution it describes.
    """

    F: VectorField
    degenerate_mask: np.ndarray
    u: ScalarField

    def __post_init__(self):
        m = np.asarray(self.degenerate_mask, dtype=bool).copy()
        m.setflags(write=False)
        object.__setattr__(self, "degenerate_mask", m)

    def _parts(self, nodes) -> tuple:
        """(F, mask, |F| with 1 at masked nodes, d) at ``nodes``."""
        F = self.F.values[nodes]
        mask = self.degenerate_mask[nodes]
        safe = np.where(mask, 1.0, np.sqrt(F[:, 0] ** 2 + F[:, 1] ** 2))
        return F, mask, safe, np.where(mask, 0.0, self.u.values[nodes] / safe)

    def at(self, nodes) -> tuple[np.ndarray, np.ndarray]:
        """(theta, d) at ``nodes``, shapes (m, 2) and (m,); zero at masked nodes."""
        F, mask, safe, d = self._parts(nodes)
        theta = F / safe[:, None]
        theta[mask] = 0.0
        return theta, d

    def d_at(self, nodes) -> np.ndarray:
        """d at ``nodes``, as ``at`` forms it, without forming theta."""
        return self._parts(nodes)[3]


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


def solution_geometry(u: ScalarField) -> SolutionGeometry:
    """Gradient field of u and its degenerate nodes; see SolutionGeometry.

    Nodes with |grad u| below GRAD_FLOOR_REL times the largest gradient
    magnitude (below the smallest normal float where grad u is zero at every
    node) are masked; theta and d are zero there.
    """
    F = gradient(u)
    mag = F.magnitude()
    floor = GRAD_FLOOR_REL * float(mag.max())
    if floor <= 0.0:
        floor = np.finfo(float).tiny
    return SolutionGeometry(F, mag < floor, u)


@dataclass(frozen=True)
class SolutionBundle:
    """Forward solutions for one coefficient pair, with geometry and H on demand.

    ``solutions`` holds the (f_j, u_j) pairs; they are all the bundle stores
    besides its build settings.  ``geometry`` and ``H`` are computed from the
    solutions on first read and kept, so a bundle whose geometry nothing
    reads never holds it, and ``dataclasses.replace(bundle, solutions=...)``
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
    def geometry(self) -> tuple:
        """``solution_geometry`` of each u_j."""
        return tuple(solution_geometry(u) for _, u in self.solutions)

    @cached_property
    def H(self) -> tuple:
        """The internal functional H_j of each u_j at the bundle's ``eta``."""
        return tuple(internal_functional(self.coeffs, u, self.eta) for _, u in self.solutions)

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
