import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from umot import (
    BoundaryData,
    CoefficientPair,
    DiffusionSolver,
    DiscreteOperator,
    Grid,
    NonPositiveDiffusion,
    ScalarField,
    VectorField,
    assemble_diffusion_operator,
    gradient,
)
from umot.field_core import l2_norm, rel_l2_error


def test_grid_invariants():
    with pytest.raises(ValueError):
        Grid(4, 10, 0.1, 0.1)
    with pytest.raises(ValueError):
        Grid(10, 10, 0.0, 0.1)
    g = Grid(6, 5, 0.2, 0.3, x0=-1.0, y0=2.0)
    assert g.n_nodes == 30
    assert g.index(2, 3) == 3 * 6 + 2
    X, Y = g.coords()
    assert X[g.index(2, 3)] == pytest.approx(-1.0 + 2 * 0.2)
    assert Y[g.index(2, 3)] == pytest.approx(2.0 + 3 * 0.3)


def test_boundary_ordering_counterclockwise():
    g = Grid(5, 6, 0.1, 0.1)
    b = g.boundary_indices()
    assert b.size == g.n_boundary == 2 * 5 + 2 * 6 - 4
    assert b[0] == 0  # starts at (x0, y0)
    assert b[4] == 4  # bottom edge left to right
    assert b[5] == g.index(4, 1)  # then up the right edge
    assert len(set(b.tolist())) == b.size
    inter = g.interior_indices()
    assert inter.size + b.size == g.n_nodes


def test_field_invariants():
    g = Grid(5, 5, 0.25, 0.25)
    with pytest.raises(ValueError):
        ScalarField(g, np.full(25, np.nan))
    with pytest.raises(ValueError):
        VectorField(g, np.zeros((25, 3)))
    with pytest.raises(ValueError):
        BoundaryData(g, np.zeros(4))
    f = ScalarField.constant(g, 2.0)
    assert not f.values.flags.writeable


def test_gradient_constant_and_linear():
    g = Grid(9, 9, 0.1, 0.1)
    c = ScalarField.constant(g, 3.7)
    assert np.abs(gradient(c).values).max() == 0.0
    u = ScalarField.from_function(g, lambda x, y: x)
    F = gradient(u)
    assert np.abs(F.values[:, 0] - 1.0).max() < 1e-13
    assert np.abs(F.values[:, 1]).max() < 1e-13


def test_gradient_convergence_order():
    def err(n):
        g = Grid(n, n, np.pi / (n - 1), np.pi / (n - 1))
        u = ScalarField.from_function(g, lambda x, y: np.sin(x) * np.sin(y))
        F = gradient(u)
        X, Y = g.coords()
        ex = np.cos(X) * np.sin(Y)
        ey = np.sin(X) * np.cos(Y)
        return max(np.abs(F.values[:, 0] - ex).max(), np.abs(F.values[:, 1] - ey).max())

    e1, e2 = err(17), err(33)
    assert np.log2(e1 / e2) >= 1.9


def test_diffusion_operator_constant_coefficients():
    g = Grid(5, 5, 0.5, 0.5)
    one = ScalarField.constant(g, 1.0)
    zero = ScalarField.constant(g, 0.0)
    op = assemble_diffusion_operator(one, zero)
    A = op.matrix.toarray()
    c = g.index(2, 2)
    h2 = 1 / 0.25
    assert A[c, c] == pytest.approx(4 * h2)
    for nb in (g.index(1, 2), g.index(3, 2), g.index(2, 1), g.index(2, 3)):
        assert A[c, nb] == pytest.approx(-h2)
    # zeroth-order term is additive on the diagonal
    op_s = assemble_diffusion_operator(one, ScalarField.constant(g, 0.7))
    assert op_s.matrix.toarray()[c, c] == pytest.approx(4 * h2 + 0.7)


def test_diffusion_operator_rejects_nonpositive():
    g = Grid(5, 5, 0.5, 0.5)
    bad = ScalarField.constant(g, 0.0)
    with pytest.raises(NonPositiveDiffusion):
        assemble_diffusion_operator(bad, bad)


def test_diffusion_manufactured_solution_order():
    # residual of L u* - f* under refinement, u* = cos(x)cos(y), gamma = 2 + x
    def resid(n):
        g = Grid(n, n, 1 / (n - 1), 1 / (n - 1))
        X, Y = g.coords()
        gamma = ScalarField(g, 2.0 + X)
        sigma = ScalarField.constant(g, 0.3)
        ustar = np.cos(X) * np.cos(Y)
        # f = -div(gamma grad u*) + sigma u*
        f = (
            2.0 * (2.0 + X) * np.cos(X) * np.cos(Y)
            + np.sin(X) * np.cos(Y)
            + 0.3 * ustar
        )
        op = assemble_diffusion_operator(gamma, sigma)
        r = op.matrix @ ustar - f
        return np.abs(r[g.interior_indices()]).max()

    e1, e2 = resid(17), resid(33)
    assert np.log2(e1 / e2) >= 1.9


def test_diffusion_interior_block_symmetric():
    g = Grid(10, 10, 0.1, 0.1)
    X, Y = g.coords()
    gamma = ScalarField(g, 1.0 + 0.4 * X * Y)
    sigma = ScalarField(g, 0.2 + 0.1 * X)
    op = assemble_diffusion_operator(gamma, sigma)
    iidx = g.interior_indices()
    A_II = op.matrix[iidx][:, iidx]
    assert abs(A_II - A_II.T).max() < 1e-14


def _dirichlet_contribution(solver, bc):
    """Full-grid field of -A_IB g: what the boundary data adds to the interior rows."""
    full = np.zeros(bc.grid.n_nodes)
    full[solver.interior] = -(solver.A_IB @ bc.values)
    return full


def test_eliminate_dirichlet_zero_bc():
    g = Grid(6, 6, 0.2, 0.2)
    solver = DiffusionSolver(CoefficientPair.constant(g, 1.0, 0.0))
    contrib = _dirichlet_contribution(solver, BoundaryData.zero(g))
    assert np.abs(contrib).max() == 0.0


def test_eliminate_dirichlet_stencil_arithmetic():
    # first interior node picks up gamma/h^2 times each adjacent boundary value
    g = Grid(5, 5, 0.5, 0.25)
    solver = DiffusionSolver(CoefficientPair.constant(g, 1.0, 0.0))
    bvals = np.arange(g.n_boundary, dtype=float) + 1.0
    contrib = _dirichlet_contribution(solver, BoundaryData(g, bvals))
    full = np.zeros(g.n_nodes)
    full[g.boundary_indices()] = bvals
    n11 = g.index(1, 1)
    expected = full[g.index(0, 1)] / 0.5 ** 2 + full[g.index(1, 0)] / 0.25 ** 2
    assert contrib[n11] == pytest.approx(expected)


def test_eliminate_dirichlet_matches_pinned_full_solve():
    g = Grid(8, 8, 1 / 7, 1 / 7)
    X, Y = g.coords()
    gamma = ScalarField(g, 1.0 + 0.3 * X)
    sigma = ScalarField.constant(g, 0.2)
    rng = np.random.default_rng(5)
    bvals = rng.standard_normal(g.n_boundary)
    u = DiffusionSolver(CoefficientPair(gamma, sigma)).solve(BoundaryData(g, bvals))

    # pinned full system: boundary rows are identity, rhs holds the data
    op = assemble_diffusion_operator(gamma, sigma)
    rhs = np.zeros(g.n_nodes)
    rhs[g.boundary_indices()] = bvals
    u_full = spla.spsolve(op.matrix.tocsc(), rhs)
    iidx = g.interior_indices()
    assert np.abs(u_full[iidx] - u.values[iidx]).max() < 1e-10


def test_discrete_operator_finalization():
    m = DiscreteOperator(
        sp.coo_matrix(([1.0, 2.0, 5.0], ([0, 0, 1], [0, 0, 1])), shape=(2, 2))
    )
    assert m.matrix[0, 0] == 3.0  # duplicates summed
    assert m.matrix.nnz == 2


def test_norm_helpers():
    g = Grid(5, 5, 0.5, 0.5)
    ones = np.ones(g.n_nodes)
    assert l2_norm(ones, g) == pytest.approx(np.sqrt(25 * 0.25))
    assert rel_l2_error(2 * ones, ones, g) == pytest.approx(1.0)
