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
    ScalarField,
    VectorField,
    gradient,
)
from umot.field_core import coarse_basis, coarse_restriction, l2_norm, rel_l2_error
from umot.phantom import bump_field


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


def _full_diffusion_operator(gamma, sigma):
    """Reference: the whole-grid 5-point operator through COO, boundary rows identity."""
    g = gamma.grid
    c = g.interior_indices()
    g_v = gamma.values
    faces = [
        (nb, 2.0 * g_v[c] * g_v[nb] / (g_v[c] + g_v[nb]) / h2)
        for nb, h2 in ((c + 1, g.hx**2), (c - 1, g.hx**2), (c + g.nx, g.hy**2), (c - g.nx, g.hy**2))
    ]
    diag = faces[0][1] + faces[1][1] + faces[2][1] + faces[3][1] + sigma.values[c]
    b = g.boundary_indices()
    rows = np.concatenate([c, c, c, c, c, b])
    cols = np.concatenate([c] + [nb for nb, _ in faces] + [b])
    vals = np.concatenate([diag] + [-w for _, w in faces] + [np.ones(b.size)])
    return sp.coo_matrix((vals, (rows, cols)), shape=(g.n_nodes, g.n_nodes)).tocsr()


def test_diffusion_operator_constant_coefficients():
    g = Grid(5, 5, 0.5, 0.5)
    one = ScalarField.constant(g, 1.0)
    zero = ScalarField.constant(g, 0.0)
    A = DiffusionSolver(CoefficientPair(one, zero)).A_II.toarray()
    c = 4  # interior node (2, 2), whose four neighbours are interior too
    h2 = 1 / 0.25
    assert A[c, c] == pytest.approx(4 * h2)
    for nb in (1, 3, 5, 7):
        assert A[c, nb] == pytest.approx(-h2)
    # zeroth-order term is additive on the diagonal
    A_s = DiffusionSolver(CoefficientPair(one, ScalarField.constant(g, 0.7))).A_II.toarray()
    assert A_s[c, c] == pytest.approx(4 * h2 + 0.7)


def test_diffusion_operator_rejects_nonpositive():
    # the operator is only built through CoefficientPair, which refuses gamma <= 0
    g = Grid(5, 5, 0.5, 0.5)
    bad = ScalarField.constant(g, 0.0)
    with pytest.raises(ValueError):
        DiffusionSolver(CoefficientPair(bad, bad))
    values = np.ones(g.n_nodes)
    values[g.index(2, 2)] = -1.0  # a single nonpositive interior node
    with pytest.raises(ValueError):
        DiffusionSolver(CoefficientPair(ScalarField(g, values), ScalarField.constant(g, 0.0)))


@pytest.mark.parametrize(
    "nx, ny, hx, hy",
    [(5, 5, 0.25, 0.25), (6, 5, 0.2, 0.25), (7, 40, 1 / 6, 1 / 39), (40, 6, 1 / 39, 0.2),
     (9, 11, 0.05, 0.37)],
)
@pytest.mark.parametrize("heterogeneous", [False, True])
def test_diffusion_blocks_match_full_operator(nx, ny, hx, hy, heterogeneous):
    g = Grid(nx, ny, hx, hy)
    if heterogeneous:
        rng = np.random.default_rng(nx * ny)
        gamma = ScalarField(g, 0.3 + rng.random(g.n_nodes))
        sigma = ScalarField(g, rng.random(g.n_nodes))
    else:
        gamma, sigma = ScalarField.constant(g, 1.3), ScalarField.constant(g, 0.4)
    solver = DiffusionSolver(CoefficientPair(gamma, sigma))
    A_I = _full_diffusion_operator(gamma, sigma)[g.interior_indices()]
    ref_II, ref_IB = A_I[:, g.interior_indices()], A_I[:, g.boundary_indices()]
    # stored by diagonals in ascending order, so each row sums south, west,
    # centre, east and north as the sorted CSR product does: bit for bit
    mx = nx - 2
    assert solver.A_II.format == "dia"
    assert solver.A_II.offsets.tolist() == [-mx, -1, 0, 1, mx]
    assert np.array_equal(solver.A_II.toarray(), ref_II.toarray())
    rng = np.random.default_rng(7)
    for x in rng.standard_normal((4, ref_II.shape[1])):
        assert np.array_equal(solver.A_II @ x, ref_II @ x)
    # the ring taps give the CSR product's sums, in its order: bit for bit,
    # signed zeros included
    for f in rng.standard_normal((4, ref_IB.shape[1])):
        rhs = solver.dirichlet_rhs(BoundaryData(g, f))
        assert np.array_equal(rhs, -(ref_IB @ f))
        assert np.array_equal(np.signbit(rhs), np.signbit(-(ref_IB @ f)))


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
        solver = DiffusionSolver(CoefficientPair(gamma, sigma))
        iidx = g.interior_indices()
        trace = BoundaryData(g, ustar[g.boundary_indices()])
        r = solver.A_II @ ustar[iidx] - solver.dirichlet_rhs(trace) - f[iidx]
        return np.abs(r).max()

    e1, e2 = resid(17), resid(33)
    assert np.log2(e1 / e2) >= 1.9


def test_diffusion_interior_block_symmetric():
    g = Grid(10, 10, 0.1, 0.1)
    X, Y = g.coords()
    gamma = ScalarField(g, 1.0 + 0.4 * X * Y)
    sigma = ScalarField(g, 0.2 + 0.1 * X)
    A_II = DiffusionSolver(CoefficientPair(gamma, sigma)).A_II
    assert A_II.format == "dia"
    assert abs((A_II - A_II.T).tocsr()).max() < 1e-14


def _dirichlet_contribution(solver, bc):
    """Full-grid field of ``dirichlet_rhs(bc)``: what the boundary data adds to the interior rows."""
    full = np.zeros(bc.grid.n_nodes)
    full[solver.interior] = solver.dirichlet_rhs(bc)
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
    rhs = np.zeros(g.n_nodes)
    rhs[g.boundary_indices()] = bvals
    u_full = spla.spsolve(_full_diffusion_operator(gamma, sigma).tocsc(), rhs)
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


KINDS = ["linear", "spline"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("shape", [(31, 31), (30, 30), (31, 28)], ids=["odd", "even", "mixed"])
def test_coarse_basis_is_blind_to_the_checkerboard(kind, shape):
    # P^T of (-1)^(i+j) vanishes on every coarse node away from the boundary
    Px, Py, (mcx, mcy) = coarse_basis(shape, kind)
    mx, my = shape
    checker = (-1.0) ** np.add.outer(np.arange(my), np.arange(mx))
    r = Py.T @ (Px.T @ checker.T).T
    assert r.shape == (mcy, mcx)
    assert np.abs(r[1:-1, 1:-1]).max() < 1e-14


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("m", [30, 31])
def test_coarse_basis_on_even_and_odd_counts(kind, m):
    # coarse node k sits at fine node 2k + 1; "linear" keeps m // 2 of them,
    # "spline" (m - 1) // 2; both reproduce constants away from the ends
    Px, Py, shape = coarse_basis((m, m + 1), kind)
    nc = m // 2 if kind == "linear" else (m - 1) // 2
    assert Px.shape == (m, nc) and shape[0] == nc
    assert Py.shape == (m + 1, shape[1])
    ones = Px @ np.ones(nc)
    assert np.allclose(ones[2:2 * nc - 1], 1.0)
    assert Px[2 * np.arange(nc) + 1, np.arange(nc)].min() == (1.0 if kind == "linear" else 0.75)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("m", [30, 31, 190, 191])
def test_coarse_maps_equal_their_triplet_builds(kind, m):
    # P and P^T are written straight from the taps; entry for entry they are
    # the CSR matrices built from COO triplets and transposed, so every
    # product with them is unchanged to the bit
    nc = m // 2 if kind == "linear" else (m - 1) // 2
    taps = {0: 1.0, -1: 0.5, 1: 0.5}
    if kind == "spline":
        taps = {0: 0.75, -1: 0.5, 1: 0.5, -2: 0.125, 2: 0.125}
    k = np.arange(nc)
    rows = np.concatenate([2 * k + 1 + o for o in taps])
    keep = (rows >= 0) & (rows < m)
    cols = np.tile(k, len(taps))
    vals = np.repeat(list(taps.values()), nc)
    P = sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=(m, nc))
    Px, _, _ = coarse_basis((m, 9), kind)
    PxT, _ = coarse_restriction((m, 9), kind)
    for got, ref in ((Px, P), (PxT, P.T.tocsr())):
        assert got.shape == ref.shape
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, part), getattr(ref, part))


def test_spline_basis_approximates_at_fourth_order():
    # best L2 approximation of a smooth bump by the range of P_y (x) P_x
    errs = []
    for n in (33, 65, 129):
        g = Grid.unit_square(n)
        u = bump_field(g, (0.4, 0.45), 0.22, 1.0, power=4).values[g.interior_indices()]
        Px, Py, _ = coarse_basis((n - 2, n - 2), "spline")
        P = sp.kron(Py, Px, format="csc")
        c = spla.spsolve((P.T @ P).tocsc(), P.T @ u)
        errs.append(np.linalg.norm(P @ c - u) / np.linalg.norm(u))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 3.5)


@pytest.mark.parametrize("kind, shape", [("linear", (1, 9)), ("spline", (9, 2)), ("spline", (1, 1))])
def test_coarse_basis_refuses_axis_without_coarse_node(kind, shape):
    with pytest.raises(ValueError, match=f"interior nodes along an axis leave no {kind} coarse node"):
        coarse_basis(shape, kind)


def test_coarse_basis_refuses_unknown_kind():
    for build in (coarse_basis, coarse_restriction):
        with pytest.raises(ValueError, match="unknown coarse basis kind 'cubic'"):
            build((9, 9), "cubic")
