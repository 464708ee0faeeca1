import numpy as np
import pytest

from umot import (
    BoundaryData,
    CoefficientPair,
    Grid,
    GridMismatch,
    ScalarField,
    build_bundle,
    constant_bg_boundary_set,
    internal_functional,
    polarization_functional,
    solution_geometry,
    solve_diffusion,
)
from umot.field_core import rel_l2_error
from umot.forward import DiffusionSolver


def test_coefficient_pair_validation():
    g = Grid.unit_square(8)
    with pytest.raises(ValueError):
        CoefficientPair.constant(g, 0.0, 0.1)
    with pytest.raises(ValueError):
        CoefficientPair(
            ScalarField.constant(g, 1.0), ScalarField.constant(g, -0.1)
        )


def test_linear_solution_exact():
    g = Grid.unit_square(17)
    coeffs = CoefficientPair.constant(g, 1.0, 0.0)
    f = BoundaryData.from_function(g, lambda x, y: x)
    u = solve_diffusion(coeffs, f)
    X, _ = g.coords()
    assert np.abs(u.values - X).max() < 1e-12


def test_exponential_solution_convergence():
    # exp(sqrt(sigma/gamma) x.v) solves the constant-coefficient equation
    rate = np.sqrt(0.5 / 2.0)
    v = np.array([0.8, 0.6])

    def err(n):
        g = Grid.unit_square(n)
        coeffs = CoefficientPair.constant(g, 2.0, 0.5)
        X, Y = g.coords()
        exact = np.exp(rate * (v[0] * X + v[1] * Y))
        f = BoundaryData.from_function(
            g, lambda x, y: np.exp(rate * (v[0] * x + v[1] * y))
        )
        u = solve_diffusion(coeffs, f)
        return np.abs(u.values - exact).max()

    e1, e2 = err(17), err(33)
    assert np.log2(e1 / e2) >= 1.9


def test_dense_direct_oracle():
    g = Grid(16, 16, 1 / 15, 1 / 15)
    X, Y = g.coords()
    bump = np.exp(-((X - 0.5) ** 2 + (Y - 0.5) ** 2) / 0.05)
    coeffs = CoefficientPair(
        ScalarField(g, 1.0 + 0.5 * bump), ScalarField.constant(g, 0.1)
    )
    f = BoundaryData.from_function(g, lambda x, y: 1.0 + x)
    u = solve_diffusion(coeffs, f)

    from umot import assemble_diffusion_operator

    A = assemble_diffusion_operator(coeffs.gamma, coeffs.sigma).matrix.toarray()
    rhs = np.zeros(g.n_nodes)
    rhs[g.boundary_indices()] = f.values
    u_dense = np.linalg.solve(A, rhs)
    assert np.abs(u.values - u_dense).max() < 1e-10


def test_maximum_principle_heuristic():
    g = Grid.unit_square(15)
    coeffs = CoefficientPair.constant(g, 1.0, 0.0)
    f = BoundaryData.from_function(g, lambda x, y: np.sin(3 * x) + np.cos(2 * y))
    u = solve_diffusion(coeffs, f)
    assert u.values.min() >= f.values.min() - 1e-8
    assert u.values.max() <= f.values.max() + 1e-8


def test_internal_functional_cases():
    g = Grid.unit_square(17)
    coeffs = CoefficientPair.constant(g, 1.0, 0.0)
    X, Y = g.coords()
    u = ScalarField(g, X)
    H = internal_functional(coeffs, u, eta=1.0)
    assert np.abs(H.values - 1.0).max() < 1e-12

    assert np.abs(internal_functional(coeffs, ScalarField.constant(g, 0.0)).values).max() == 0.0

    # constant background: H = (1 + eta) sigma u^2 for the exponential solution
    gamma0, sigma0, eta = 2.0, 0.5, 1.5
    rate = np.sqrt(sigma0 / gamma0)
    coeffs2 = CoefficientPair.constant(g, gamma0, sigma0)
    f = BoundaryData.from_function(g, lambda x, y: np.exp(rate * x))
    u2 = solve_diffusion(coeffs2, f)
    H2 = internal_functional(coeffs2, u2, eta)
    exact = (1 + eta) * sigma0 * np.exp(2 * rate * X)
    assert rel_l2_error(H2.values, exact, g) < 5e-3


def test_solution_geometry():
    g = Grid.unit_square(17)
    X, Y = g.coords()
    geo = solution_geometry(ScalarField(g, X))
    assert not geo.degenerate_mask.any()
    assert np.abs(geo.theta.values[:, 0] - 1.0).max() < 1e-12
    assert np.abs(geo.d.values - X).max() < 1e-12

    geo_flat = solution_geometry(ScalarField.constant(g, 1.0))
    assert geo_flat.degenerate_mask.all()

    # d = 1 and theta = v hold for the sampled exponential up to the O(h^2)
    # error of the discrete gradient
    v = np.array([0.6, 0.8])
    geo_exp = solution_geometry(ScalarField(g, np.exp(v[0] * X + v[1] * Y)))
    assert np.abs(geo_exp.d.values - 1.0).max() < 2e-3
    assert np.abs(geo_exp.theta.values - v).max() < 2e-3


def test_polarization_functional():
    g = Grid.unit_square(17)
    coeffs = CoefficientPair.constant(g, 1.0, 0.0)
    X, Y = g.coords()
    u1, u2 = ScalarField(g, X), ScalarField(g, Y)
    H1 = internal_functional(coeffs, u1)
    H2 = internal_functional(coeffs, u2)
    Hsum = internal_functional(coeffs, u1 + u2)

    # equal arguments collapse to the diagonal functional
    Hself = internal_functional(coeffs, ScalarField(g, 2 * X))
    same = polarization_functional(H1, H1, Hself)
    assert np.abs(same.values - H1.values).max() < 1e-12

    # zero second argument
    zero = polarization_functional(H1, internal_functional(coeffs, ScalarField.constant(g, 0.0)), H1)
    assert np.abs(zero.values).max() < 1e-12

    # orthogonal gradients
    H12 = polarization_functional(H1, H2, Hsum)
    assert np.abs(H12.values).max() < 1e-12

    bad = Grid.unit_square(9)
    with pytest.raises(GridMismatch):
        polarization_functional(H1, H2, internal_functional(
            CoefficientPair.constant(bad, 1.0, 0.0), ScalarField.constant(bad, 0.0)))


def test_polarization_identity_from_solves(bundle24):
    # H(u_a + u_b) - H(u_a) - H(u_b) = 2 H_ab to round-off by construction
    from umot import internal_functional, solve_diffusion
    from umot.field_core import BoundaryData as BD

    coeffs, eta = bundle24.coeffs, bundle24.eta
    f_a, u_a = bundle24.solutions[0]
    f_b, u_b = bundle24.solutions[1]
    f_ab = BD(bundle24.grid, f_a.values + f_b.values)
    u_ab = bundle24.solver.solve(f_ab)
    assert np.abs(u_ab.values - u_a.values - u_b.values).max() < 1e-9
    H_ab = internal_functional(coeffs, u_ab, eta)
    pol = polarization_functional(bundle24.H[0], bundle24.H[1], H_ab)
    from umot.field_core import gradient

    Fa, Fb = gradient(u_a).values, gradient(u_b).values
    cross = coeffs.gamma.values * np.sum(Fa * Fb, axis=1) + eta * coeffs.sigma.values * u_a.values * u_b.values
    assert np.abs(pol.values - cross).max() < 1e-8


def test_bundle_residuals_and_traces(bundle24):
    iidx = bundle24.grid.boundary_indices()
    for f, u in bundle24.solutions:
        assert np.array_equal(u.values[iidx], f.values)
        assert bundle24.solver.residual(u, f) < 1e-9
    assert bundle24.J == 3


def test_forward_cg_stall_raises(bundle24):
    # the CG path of large forward problems has no silent direct fallback
    from umot.errors import SolverDivergence
    from umot.solvers import Multigrid, cg_solve

    solver = bundle24.solver
    f, u = bundle24.solutions[0]
    rhs = -(solver.A_IB @ f.values)
    mg = Multigrid(solver.A_II, bundle24.grid.nx - 2, bundle24.grid.ny - 2)
    x = cg_solve(solver.A_II, rhs, mg)
    assert np.abs(x - u.values[solver.interior]).max() < 1e-8
    with pytest.raises(SolverDivergence, match="info=5"):
        cg_solve(solver.A_II, rhs, mg, maxiter=5)


@pytest.mark.parametrize("n", [64, 128])
def test_forward_cg_iterations_stay_flat(n, dirs3, monkeypatch):
    # multigrid-preconditioned CG: the iteration count does not grow with the grid
    import scipy.sparse.linalg as spla

    iterations = []
    cg = spla.cg

    def counting_cg(*args, **kwargs):
        iterations.append(0)

        def count(xk):
            iterations[-1] += 1

        return cg(*args, callback=count, **kwargs)

    monkeypatch.setattr(spla, "cg", counting_cg)
    g = Grid.unit_square(n)
    build_bundle(
        CoefficientPair.constant(g, 1.0, 0.5), constant_bg_boundary_set(g, 1.0, 0.5, dirs3)
    )
    assert len(iterations) == 3
    assert max(iterations) <= 12


HARD_CASES = ["gamma-jump-60", "anisotropic-101x51", "strip-5x1000"]


def _hard_solver(case: str) -> DiffusionSolver:
    """A 100x jump in gamma on a 60x60 grid, cells with hx = 4 hy on 101x51, or
    a strip whose 3-node interior axis coarsens to a single node."""
    if case == "gamma-jump-60":
        g = Grid.unit_square(60)
        X, Y = g.coords()
        gamma = np.where((X - 0.4) ** 2 + (Y - 0.6) ** 2 < 0.09, 100.0, 1.0)
        return DiffusionSolver(CoefficientPair(ScalarField(g, gamma), ScalarField.constant(g, 0.5)))
    g = Grid(101, 51, 0.04, 0.01) if case == "anisotropic-101x51" else Grid(5, 1000, 0.01, 0.01)
    return DiffusionSolver(CoefficientPair.constant(g, 1.0, 0.5))


@pytest.mark.parametrize("case", HARD_CASES)
def test_multigrid_cg_matches_direct_solve(case):
    from umot.forward import DIRECT_THRESHOLD
    from umot.solvers import SparseFactor

    solver = _hard_solver(case)
    assert solver.interior.size > DIRECT_THRESHOLD
    f = BoundaryData.from_function(solver.coeffs.grid, lambda x, y: np.cos(3 * x) + x * y)
    u = solver.solve(f).values[solver.interior]
    ref = SparseFactor(solver.A_II).solve(-(solver.A_IB @ f.values), 1e-10)
    assert np.abs(u - ref).max() <= 1e-9 * np.abs(ref).max()


@pytest.mark.parametrize("case", HARD_CASES)
def test_multigrid_cycle_is_symmetric_positive(case):
    # CG needs a symmetric positive definite preconditioner
    from umot.solvers import Multigrid

    solver = _hard_solver(case)
    grid = solver.coeffs.grid
    mg = Multigrid(solver.A_II, grid.nx - 2, grid.ny - 2)
    rng = np.random.default_rng(5)
    for _ in range(3):
        x, y = rng.standard_normal((2, solver.interior.size))
        Mx, My = mg.cycle(x), mg.cycle(y)
        assert abs(Mx @ y - x @ My) <= 1e-12 * np.linalg.norm(Mx) * np.linalg.norm(y)
        assert Mx @ x > 0.0
