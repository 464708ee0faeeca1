import dataclasses
import tracemalloc

import numpy as np
import pytest

from umot import (
    BoundaryData,
    CoefficientPair,
    Grid,
    ScalarField,
    build_bundle,
    certify_field,
    cgo_boundary_set,
    constant_bg_boundary_set,
)
from umot.field_core import gradient, rel_l2_error
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
    u = DiffusionSolver(coeffs).solve(f)
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
        u = DiffusionSolver(coeffs).solve(f)
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
    solver = DiffusionSolver(coeffs)
    u = solver.solve(f)

    u_dense = np.linalg.solve(solver.A_II.toarray(), solver.dirichlet_rhs(f))
    assert np.abs(u.values[g.interior_indices()] - u_dense).max() < 1e-10


def test_maximum_principle_heuristic():
    g = Grid.unit_square(15)
    coeffs = CoefficientPair.constant(g, 1.0, 0.0)
    f = BoundaryData.from_function(g, lambda x, y: np.sin(3 * x) + np.cos(2 * y))
    u = DiffusionSolver(coeffs).solve(f)
    assert u.values.min() >= f.values.min() - 1e-8
    assert u.values.max() <= f.values.max() + 1e-8


def _functional(coeffs, u, eta=1.0) -> ScalarField:
    """H of any field u at ``coeffs``: the H of a one-solution bundle holding u."""
    f = BoundaryData(u.grid, u.values[u.grid.boundary_indices()])
    bundle = build_bundle(coeffs, [f], eta)
    return dataclasses.replace(bundle, solutions=((f, u),)).H[0]


def test_internal_functional_cases():
    g = Grid.unit_square(17)
    coeffs = CoefficientPair.constant(g, 1.0, 0.0)
    X, Y = g.coords()
    u = ScalarField(g, X)
    H = _functional(coeffs, u, eta=1.0)
    assert np.abs(H.values - 1.0).max() < 1e-12

    assert np.abs(_functional(coeffs, ScalarField.constant(g, 0.0)).values).max() == 0.0

    # constant background: H = (1 + eta) sigma u^2 for the exponential solution
    gamma0, sigma0, eta = 2.0, 0.5, 1.5
    rate = np.sqrt(sigma0 / gamma0)
    coeffs2 = CoefficientPair.constant(g, gamma0, sigma0)
    f = BoundaryData.from_function(g, lambda x, y: np.exp(rate * x))
    H2 = build_bundle(coeffs2, [f], eta).H[0]
    exact = (1 + eta) * sigma0 * np.exp(2 * rate * X)
    assert rel_l2_error(H2.values, exact, g) < 5e-3


def test_polarization_identity_from_solves(bundle24):
    # H(u_a + u_b) - H(u_a) - H(u_b) = 2 H_ab to round-off by construction
    from umot.field_core import BoundaryData as BD

    coeffs, eta = bundle24.coeffs, bundle24.eta
    f_a, u_a = bundle24.solutions[0]
    f_b, u_b = bundle24.solutions[1]
    f_ab = BD(bundle24.grid, f_a.values + f_b.values)
    u_ab = bundle24.solver.solve(f_ab)
    assert np.abs(u_ab.values - u_a.values - u_b.values).max() < 1e-9
    H_ab = dataclasses.replace(bundle24, solutions=((f_ab, u_ab),)).H[0]
    pol = 0.5 * (H_ab.values - bundle24.H[0].values - bundle24.H[1].values)
    from umot.field_core import gradient

    Fa, Fb = gradient(u_a).values, gradient(u_b).values
    cross = coeffs.gamma.values * np.sum(Fa * Fb, axis=1) + eta * coeffs.sigma.values * u_a.values * u_b.values
    assert np.abs(pol - cross).max() < 1e-8


def test_bundle_residuals_and_traces(bundle24):
    iidx = bundle24.grid.boundary_indices()
    for f, u in bundle24.solutions:
        assert np.array_equal(u.values[iidx], f.values)
        assert bundle24.solver.residual(u, f) < 1e-9
    assert bundle24.J == 3


def _heterogeneous(n: int) -> CoefficientPair:
    """A heterogeneous background on the n x n unit square."""
    g = Grid.unit_square(n)
    X, Y = g.coords()
    return CoefficientPair(ScalarField(g, 1.0 + 0.2 * X * Y), ScalarField(g, 0.5 + 0.1 * X))


def _heterogeneous_cgo(n: int):
    """Coefficients and CGO traces (J = 5) on a heterogeneous n x n background."""
    coeffs = _heterogeneous(n)
    return coeffs, cgo_boundary_set(coeffs.grid, 4.0, 1.0, coeffs)


def test_bundle_derives_geometry_and_H_on_first_read():
    # the bundle's geometry is its gradients F_j; theta_j, d_j and the mask
    # are formed by the certification (see test_ellipticity)
    bundle = build_bundle(*_heterogeneous_cgo(24), eta=0.7)
    assert "gradients" not in bundle.__dict__ and "H" not in bundle.__dict__
    gamma, sigma = bundle.coeffs.gamma.values, bundle.coeffs.sigma.values
    for (_, u), F, h in zip(bundle.solutions, bundle.gradients, bundle.H):
        assert np.array_equal(F.values, gradient(u).values)
        mag2 = F.values[:, 0] ** 2 + F.values[:, 1] ** 2
        assert np.array_equal(h.values, gamma * mag2 + 0.7 * sigma * u.values ** 2)
    assert bundle.gradients is bundle.gradients  # computed once, then kept

    sub = dataclasses.replace(bundle, solutions=bundle.solutions[:2])
    assert sub.J == 2 and len(sub.gradients) == 2 and len(sub.H) == 2
    for F, h, F_all, h_all in zip(sub.gradients, sub.H, bundle.gradients, bundle.H):
        assert np.array_equal(F.values, F_all.values)
        assert np.array_equal(h.values, h_all.values)


def test_bundle_holds_no_geometry_after_build():
    # At 128² the five solutions take 0.6 MB and the solver with its multigrid
    # hierarchy, stored by diagonals, about 1.4 MB; the five gradients and
    # functionals would add 2 MB more, so a build that derived them
    # eagerly holds about 4 MB, and a lean one about 2 MB.
    coeffs, traces = _heterogeneous_cgo(128)
    tracemalloc.start()
    try:
        bundle = build_bundle(coeffs, traces)
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert bundle.J == 5
    assert current < 3 * 2**20


def test_certified_bundle_holds_no_full_grid_theta_or_d():
    # certify_field forms theta and d block by block from F_j and u_j:
    # afterwards the bundle holds its build and the gradients, nothing more
    bundle = build_bundle(*_heterogeneous_cgo(48))
    assert certify_field(bundle).elliptic
    assert set(vars(bundle)) == {"coeffs", "eta", "solutions", "solver", "gradients"}
    assert len(bundle.gradients) == bundle.J


def test_one_gradient_per_solution_shared_by_its_readers(monkeypatch):
    # H_j, certification, assembly and the Jacobian action all read the
    # bundle's F_j: each solution's gradient is formed once per bundle (the
    # Jacobian action still takes the gradient of its own du_j)
    import umot.forward
    import umot.linearized
    from umot import apply_linearized_forward, assemble_system

    calls = []

    def counted(u):
        calls.append(u)
        return gradient(u)

    for module in (umot.forward, umot.linearized):
        monkeypatch.setattr(module, "gradient", counted)
    bundle = build_bundle(*_heterogeneous_cgo(24))
    zero = ScalarField.constant(bundle.grid, 0.0)
    bundle.H
    certify_field(bundle)
    gradients = bundle.gradients
    assemble_system(bundle, [zero] * bundle.J)
    apply_linearized_forward(bundle, zero, zero)
    assert bundle.gradients is gradients
    solutions = [id(u) for _, u in bundle.solutions]
    assert [id(u) for u in calls if id(u) in solutions] == solutions


def test_forward_cg_stall_raises(bundle24, monkeypatch):
    # the forward CG solve has no silent direct fallback
    from umot import solvers
    from umot.errors import SolverDivergence
    from umot.solvers import Multigrid, cg_solve

    solver = bundle24.solver
    f, u = bundle24.solutions[0]
    rhs = solver.dirichlet_rhs(f)
    mg = Multigrid(solver.A_II, bundle24.grid.nx - 2, bundle24.grid.ny - 2)
    x = cg_solve(solver.A_II, rhs, mg.cycle)
    assert np.abs(x - u.values[solver.interior]).max() < 1e-8
    monkeypatch.setattr(solvers, "CG_MAXITER", 5)
    with pytest.raises(SolverDivergence, match="info=5"):
        cg_solve(solver.A_II, rhs, mg.cycle)


def test_solve_residual_bound_refuses_ill_conditioned_solve():
    # every solve is checked at one relative-residual bound: the 8x8 Hilbert
    # matrix solved along its smallest eigenvector leaves about 3e-7
    import scipy.sparse as sp
    from scipy.linalg import hilbert

    from umot.errors import SolverDivergence
    from umot.solvers import SparseFactor

    H = hilbert(8)
    b = np.linalg.eigh(H)[1][:, 0]
    with pytest.raises(SolverDivergence, match="exceeds 1.0e-10"):
        SparseFactor(sp.csr_matrix(H)).solve(b)


@pytest.mark.parametrize("n", [48, 64, 128])
def test_forward_cg_iterations_stay_flat(n, dirs3, cg_steps):
    # multigrid-preconditioned CG: the iteration count does not grow with the grid
    g = Grid.unit_square(n)
    build_bundle(
        CoefficientPair.constant(g, 1.0, 0.5), constant_bg_boundary_set(g, 1.0, 0.5, dirs3)
    )
    assert len(cg_steps) == 3
    assert max(cg_steps) <= 12


def test_small_forward_problem_solves_in_one_cg_step(dirs3, cg_steps):
    # 256 interior unknowns are at most MG_COARSEST: the hierarchy has no
    # levels, its V-cycle is the exact coarse solve, and CG stops after one step
    g = Grid.unit_square(18)
    bundle = build_bundle(
        CoefficientPair.constant(g, 1.0, 0.5), constant_bg_boundary_set(g, 1.0, 0.5, dirs3)
    )
    assert bundle.solver._mg.levels == []
    assert cg_steps == [1, 1, 1]


def test_forward_cg_runs_one_cycle_per_step(cg_steps, monkeypatch):
    # CG applies the V-cycle once per step and nowhere else: the operators
    # are typed, so scipy runs no extra cycle on a zero vector to learn a dtype
    from umot.solvers import Multigrid

    cycles = []
    cycle = Multigrid.cycle

    def counting_cycle(self, b, level=0):
        if level == 0:
            cycles.append(1)
        return cycle(self, b, level)

    monkeypatch.setattr(Multigrid, "cycle", counting_cycle)
    g = Grid.unit_square(64)
    solver = DiffusionSolver(CoefficientPair.constant(g, 1.0, 0.5))
    solver.solve(BoundaryData.from_function(g, lambda x, y: np.exp(x) * np.cos(y)))
    assert len(cg_steps) == 1
    assert len(cycles) == cg_steps[0] > 0


HARD_CASES = ["gamma-jump-60", "anisotropic-101x51", "strip-5x1000", "strip-1000x5"]


def _hard_solver(case: str) -> DiffusionSolver:
    """A 100x jump in gamma on a 60x60 grid, cells with hx = 4 hy on 101x51, or
    a strip, along y or along x, whose 3-node interior axis coarsens to a
    single node."""
    if case == "gamma-jump-60":
        g = Grid.unit_square(60)
        X, Y = g.coords()
        gamma = np.where((X - 0.4) ** 2 + (Y - 0.6) ** 2 < 0.09, 100.0, 1.0)
        return DiffusionSolver(CoefficientPair(ScalarField(g, gamma), ScalarField.constant(g, 0.5)))
    g = {
        "anisotropic-101x51": Grid(101, 51, 0.04, 0.01),
        "strip-5x1000": Grid(5, 1000, 0.01, 0.01),
        "strip-1000x5": Grid(1000, 5, 0.01, 0.01),
    }[case]
    return DiffusionSolver(CoefficientPair.constant(g, 1.0, 0.5))


def _solver_of(case: str) -> DiffusionSolver:
    if case.startswith("heterogeneous"):
        return DiffusionSolver(_heterogeneous(int(case.rsplit("-", 1)[1])))
    return _hard_solver(case)


@pytest.mark.parametrize("case", HARD_CASES)
def test_multigrid_cg_matches_direct_solve(case):
    from umot.solvers import SparseFactor

    solver = _hard_solver(case)
    f = BoundaryData.from_function(solver.coeffs.grid, lambda x, y: np.cos(3 * x) + x * y)
    u = solver.solve(f).values[solver.interior]
    ref = SparseFactor(solver.A_II).solve(solver.dirichlet_rhs(f))
    assert np.abs(u - ref).max() <= 1e-9 * np.abs(ref).max()


@pytest.mark.parametrize("case", HARD_CASES)
def test_multigrid_levels_stored_by_diagonals(case):
    # every level above the coarsest keeps a dia_matrix with ascending
    # offsets, whose product is its sorted CSR product bit for bit, its
    # Jacobi weights and its shape, and no transfer matrix; the finest is the
    # float32 rounding of A_II's diagonals
    solver = _hard_solver(case)
    levels = solver._mg.levels
    assert np.array_equal(levels[0][0].offsets, solver.A_II.offsets)
    assert levels[0][0].data.tobytes() == solver.A_II.data.astype(np.float32).tobytes()
    rng = np.random.default_rng(11)
    for A, dinv, (mx, my) in levels:
        assert dinv.shape == (A.shape[0],) == (mx * my,)
        assert A.format == "dia"
        assert np.all(np.diff(A.offsets) > 0)
        for x in rng.standard_normal((3, A.shape[0])):
            assert np.array_equal(A @ x, A.tocsr() @ x)
    assert [len(A.offsets) for A, *_ in levels] == [5] + [9] * (len(levels) - 1)


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


def _linear_interpolation(m: int):
    """The multigrid's 1-D P (m-by-(m // 2)) as CSR built from COO triplets:
    coarse node k weighs fine node 2k + 1 by 1 and fine nodes 2k, 2k + 2 by 1/2."""
    import scipy.sparse as sp

    nc = m // 2
    taps = {0: 1.0, -1: 0.5, 1: 0.5}
    k = np.arange(nc)
    rows = np.concatenate([2 * k + 1 + o for o in taps])
    keep = (rows >= 0) & (rows < m)
    cols = np.tile(k, len(taps))
    vals = np.repeat(list(taps.values()), nc)
    return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=(m, nc))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("m", [2, 3, 30, 31, 190, 191])
def test_multigrid_transfers_equal_csr_products(m, dtype):
    # the V-cycle restricts and prolongs with array slices, in the dtype of
    # what it moves; along either axis of the grid they are P^T r and P e
    # with the CSR P of linear interpolation, bit for bit
    from umot.solvers import _prolong, _restrict

    P = _linear_interpolation(m).astype(dtype)
    PT = P.T.tocsr()
    nc = P.shape[1]
    rng = np.random.default_rng(m)
    r = rng.standard_normal((7, m)).astype(dtype)
    e = rng.standard_normal((7, nc)).astype(dtype)
    for got, ref in (  # along axis 0 of a C-ordered array and of a transposed view
        (_restrict(r.T.copy(), nc), PT @ r.T),
        (_restrict(r.T, nc).T, (PT @ r.T).T),
        (_prolong(e.T.copy(), m), P @ e.T),
        (_prolong(e.T, m).T, (P @ e.T).T),
    ):
        assert got.dtype == dtype
        assert got.shape == ref.shape
        assert got.tobytes() == np.ascontiguousarray(ref).tobytes()


@pytest.mark.parametrize("case", HARD_CASES + ["heterogeneous-96", "heterogeneous-97"])
def test_multigrid_levels_are_galerkin_products(case):
    # the hierarchy is built by stencil arithmetic; every level below the
    # finest is the float32 rounding, and the factored coarsest matrix the
    # float64 value, of the Galerkin product P^T A P of the level above with
    # the linear interpolation P, formed in float64 all the way down
    import scipy.sparse as sp

    solver = _solver_of(case)
    mg = solver._mg
    grid = solver.coeffs.grid
    mx, my = grid.nx - 2, grid.ny - 2
    A = sp.csr_matrix(solver.A_II)
    for level in [A for A, *_ in mg.levels[1:]] + [mg.coarse.A]:
        Px, Py = _linear_interpolation(mx), _linear_interpolation(my)
        mx, my = Px.shape[1], Py.shape[1]
        P = sp.kron(Py, Px, format="csr")
        A = sp.csr_matrix(P.T @ A @ P)
        level = sp.csr_matrix(level)
        ref = A.astype(level.dtype)
        assert level.shape == A.shape == (mx * my,) * 2
        assert abs(level - ref).max() <= 1e-13 * abs(A).max()
        assert (level != level.T).nnz == 0
    assert len(mg.levels) >= (2 if case.startswith("heterogeneous") else 1)


@pytest.mark.parametrize("case", ["cgo-bundle-64", "gamma-jump-60"])
def test_no_float32_reaches_cg(case, monkeypatch):
    # the V-cycle runs in float32, but scipy's LinearOperator does not cast a
    # preconditioner's output: every search direction CG forms, and so every
    # iterate, stays float64 only because precondition returns float64
    from umot.solvers import Multigrid, cg_solve

    outputs = []
    precondition = Multigrid.precondition

    def recording(self, r):
        z = precondition(self, r)
        outputs.append((r.dtype, z.dtype))
        return z

    monkeypatch.setattr(Multigrid, "precondition", recording)
    if case == "cgo-bundle-64":
        bundle = build_bundle(*_heterogeneous_cgo(64))
        solver, solutions = bundle.solver, bundle.solutions
    else:
        solver = _hard_solver(case)
        f = BoundaryData.from_function(solver.coeffs.grid, lambda x, y: np.cos(3 * x) + x * y)
        solutions = [(f, solver.solve(f))]
    assert {A.dtype for A, *_ in solver._mg.levels} == {np.dtype(np.float32)}
    assert {u.values.dtype for _, u in solutions} == {np.dtype(np.float64)}
    rhs = solver.dirichlet_rhs(solutions[0][0])
    assert cg_solve(solver.A_II, rhs, solver._mg.precondition).dtype == np.float64
    assert outputs and set(outputs) == {(np.dtype(np.float64),) * 2}


@pytest.mark.parametrize("case, steps", zip(HARD_CASES + ["heterogeneous-96"], [18, 35, 9, 10, 10]))
def test_single_precision_cycle_matches_double(case, steps, cg_steps):
    # precondition runs the V-cycle in float32; the same cycle evaluated in
    # float64 is the SPD operator test_multigrid_cycle_is_symmetric_positive
    # pins, the two agree to a few float32 roundings, and CG takes no more
    # steps with the float32 cycle than it took with the float64 one
    solver = _solver_of(case)
    eps = np.finfo(np.float32).eps
    f = BoundaryData.from_function(solver.coeffs.grid, lambda x, y: np.cos(3 * x) + x * y)
    rng = np.random.default_rng(3)
    for r in [*rng.standard_normal((3, solver.interior.size)), solver.dirichlet_rhs(f)]:
        single, double = solver._mg.precondition(r), solver._mg.cycle(r)
        assert double.dtype == np.float64
        assert np.linalg.norm(single - double) <= 8 * eps * np.linalg.norm(double)
    solver.solve(f)
    assert len(cg_steps) == 1 and cg_steps[0] <= steps
