import numpy as np
import pytest

from umot import (
    BoundaryData,
    CoefficientPair,
    Grid,
    ScalarField,
    TooFewSolutions,
    apply_linearized_forward,
    assemble_system,
    build_bundle,
    cgo_boundary_set,
    constant_bg_boundary_set,
    injectivity_probe,
    solve_normal_equations,
)
from umot.errors import GridMismatch
from umot.field_core import rel_l2_error
from umot.linearized import normal_residual
from umot.phantom import add_noise, bump_field


def _zero_fields(grid, count):
    return [ScalarField(grid, np.zeros(grid.n_nodes))] * count


def _planted(grid, amp_g=0.03, amp_s=0.02):
    dg = bump_field(grid, (0.35, 0.42), 0.2, amp_g, power=4)
    ds = bump_field(grid, (0.62, 0.6), 0.18, amp_s, power=4)
    return dg, ds


def test_assemble_requires_three_solutions(bundle24):
    import dataclasses

    small = dataclasses.replace(bundle24, solutions=bundle24.solutions[:2])
    with pytest.raises(TooFewSolutions):
        assemble_system(small, _zero_fields(bundle24.grid, 2))
    assemble_system(small, _zero_fields(bundle24.grid, 2), allow_deficient=True)


def test_zero_data_zero_rhs(bundle24):
    sys_ = assemble_system(bundle24, _zero_fields(bundle24.grid, 3))
    assert np.abs(sys_.rhs).max() == 0.0


def test_data_row_stencil_coordinate_background():
    # gamma = 1, sigma = 0, u = x: the data row reduces to
    # dgamma + eta x^2 dsigma + 2 d(du)/dx = dH
    g = Grid.unit_square(9)
    coeffs = CoefficientPair.constant(g, 1.0, 0.0)
    fx = BoundaryData.from_function(g, lambda x, y: x)
    fy = BoundaryData.from_function(g, lambda x, y: y)
    fxy = BoundaryData.from_function(g, lambda x, y: x + y)
    bundle = build_bundle(coeffs, [fx, fy, fxy], eta=1.0)
    sys_ = assemble_system(bundle, _zero_fields(g, 3))
    A = sys_.A.matrix
    iidx = g.interior_indices()
    n_int = iidx.size
    pos = {int(v): i for i, v in enumerate(iidx)}
    node = g.index(3, 4)
    r = pos[node]  # first data block row for solution u = x
    X, _ = g.coords()

    # column layout [dgamma | dsigma | du_0 | du_1 | du_2], n_int columns each
    assert A[r, pos[node]] == pytest.approx(1.0)
    assert A[r, n_int + pos[node]] == pytest.approx(X[node] ** 2)
    lo_u = 2 * n_int
    east, west = g.index(4, 4), g.index(2, 4)
    assert A[r, lo_u + pos[east]] == pytest.approx(1.0 / g.hx)
    assert A[r, lo_u + pos[west]] == pytest.approx(-1.0 / g.hx)
    assert A[r, lo_u + pos[node]] == pytest.approx(0.0)


def test_rows_match_continuum_expressions():
    # apply the assembled matrix to smooth planted fields and compare with
    # hand-evaluated continuum rows at interior nodes
    def row_error(n):
        g = Grid.unit_square(n)
        coeffs = CoefficientPair.constant(g, 1.0, 0.5)
        SQ2 = np.sqrt(2.0) / 2.0
        traces = [
            BoundaryData.from_function(g, lambda x, y: np.exp(np.sqrt(0.5) * x)),
            BoundaryData.from_function(g, lambda x, y: np.exp(np.sqrt(0.5) * y)),
            BoundaryData.from_function(
                g, lambda x, y: np.exp(np.sqrt(0.5) * (SQ2 * x + SQ2 * y))
            ),
        ]
        bundle = build_bundle(coeffs, traces, eta=1.0)
        sys_ = assemble_system(bundle, _zero_fields(g, 3))
        X, Y = g.coords()
        dgam = np.sin(np.pi * X) * np.sin(np.pi * Y)
        dsig = np.cos(np.pi * X) * np.sin(2 * np.pi * Y)
        du = np.sin(2 * np.pi * X) * np.sin(np.pi * Y)
        iidx = g.interior_indices()
        n_int = iidx.size
        v = np.concatenate([dgam[iidx], dsig[iidx], du[iidx]] + [np.zeros(n_int)] * 2)
        out = (sys_.A.matrix @ v)[:n_int]  # data rows of the first solution

        from umot.field_core import gradient

        u = bundle.solutions[0][1].values
        F = gradient(bundle.solutions[0][1]).values
        dux = np.pi * 2 * np.cos(2 * np.pi * X) * np.sin(np.pi * Y)
        duy = np.pi * np.sin(2 * np.pi * X) * np.cos(np.pi * Y)
        expected = (
            (F[:, 0] ** 2 + F[:, 1] ** 2) * dgam
            + u ** 2 * dsig
            + 2.0 * (F[:, 0] * dux + F[:, 1] * duy)
            + 2.0 * 0.5 * u * du
        )
        deep = np.pad(np.ones((g.ny - 2, g.nx - 2), bool), 1).ravel()
        sel = deep[iidx]
        return np.abs(out[sel] - expected[iidx][sel]).max()

    e1, e2 = row_error(33), row_error(65)
    assert np.log2(e1 / e2) >= 1.9


def test_system_consistent_with_forward_jacobian_heterogeneous():
    # on a non-constant gamma the flux-Jacobian columns must reproduce the
    # exact linearized forward map of interior-supported dgamma and dsigma
    g = Grid.unit_square(24)
    X, Y = g.coords()
    coeffs = CoefficientPair(
        ScalarField(g, 1.0 + 0.2 * np.sin(3.0 * X) * Y), ScalarField(g, 0.3 + 0.1 * X)
    )
    bundle = build_bundle(coeffs, cgo_boundary_set(g, 4.0, 1.0, coeffs))
    vanish = np.sin(np.pi * X) * np.sin(np.pi * Y)
    dg = ScalarField(g, 0.05 * np.cos(2.0 * X + Y) * vanish)
    ds = ScalarField(g, (0.03 * X * Y + 0.01) * vanish)
    dH, du = apply_linearized_forward(bundle, dg, ds)
    sys_ = assemble_system(bundle, dH)
    iidx = g.interior_indices()
    v = np.concatenate([dg.values[iidx], ds.values[iidx]] + [u.values[iidx] for u in du])
    r = sys_.A.matrix @ v - sys_.rhs
    assert np.linalg.norm(r) <= 1e-12 * np.linalg.norm(sys_.rhs)


def test_adjoint_exactness(bundle24):
    sys_ = assemble_system(bundle24, _zero_fields(bundle24.grid, 3))
    A = sys_.A.matrix
    rng = np.random.default_rng(2)
    v = rng.standard_normal(A.shape[1])
    w = rng.standard_normal(A.shape[0])
    lhs = float((A @ v) @ w)
    rhs = float(v @ (A.T @ w))
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_jacobian_matches_finite_differences(bundle24):
    g = bundle24.grid
    traces = [f for f, _ in bundle24.solutions]
    rng = np.random.default_rng(6)
    for _ in range(3):
        cg_, cs_ = rng.uniform(0.35, 0.65, 2), rng.uniform(0.35, 0.65, 2)
        dg = bump_field(g, tuple(cg_), rng.uniform(0.15, 0.25), rng.uniform(0.2, 0.8), power=4)
        ds = bump_field(g, tuple(cs_), rng.uniform(0.15, 0.25), rng.uniform(0.2, 0.6), power=4)
        dH, _ = apply_linearized_forward(bundle24, dg, ds)
        errs = []
        for eps in (1e-2, 1e-3, 1e-4):
            pert = CoefficientPair(
                ScalarField(g, bundle24.coeffs.gamma.values + eps * dg.values),
                ScalarField(g, bundle24.coeffs.sigma.values + eps * ds.values),
            )
            bp = build_bundle(pert, traces)
            err = 0.0
            for hp, h0, d in zip(bp.H, bundle24.H, dH):
                fd = (hp.values - h0.values) / eps
                err += np.sum((fd - d.values) ** 2)
            errs.append(np.sqrt(err))
        orders = [np.log10(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 0.9


def test_zero_perturbation_zero_data(bundle24):
    g = bundle24.grid
    zero = ScalarField(g, np.zeros(g.n_nodes))
    dH, du = apply_linearized_forward(bundle24, zero, zero)
    for d in dH + du:
        assert np.abs(d.values).max() == 0.0


def test_round_trip_inverse_crime(bundle24):
    g = bundle24.grid
    dg, ds = _planted(g)
    dH, _ = apply_linearized_forward(bundle24, dg, ds)
    sys_ = assemble_system(bundle24, dH)
    v = solve_normal_equations(sys_)
    assert rel_l2_error(v.dgamma.values, dg.values, g) < 1e-6
    assert rel_l2_error(v.dsigma.values, ds.values, g) < 1e-6
    assert normal_residual(sys_, v) < 1e-9
    for u in v.du:
        assert np.abs(u.values[g.boundary_indices()]).max() == 0.0


def test_round_trip_error_shrinks_under_refinement(dirs3):
    def err(n):
        g = Grid.unit_square(n)
        coeffs = CoefficientPair.constant(g, 1.0, 0.5)
        traces = constant_bg_boundary_set(g, 1.0, 0.5, dirs3)
        bundle = build_bundle(coeffs, traces)
        dg, ds = _planted(g)
        dH, _ = apply_linearized_forward(bundle, dg, ds)
        v = solve_normal_equations(assemble_system(bundle, dH))
        return rel_l2_error(v.dgamma.values, dg.values, g)

    assert err(17) < 1e-6
    assert err(25) < 1e-6


def test_zero_rhs_zero_solution(bundle24):
    sys_ = assemble_system(bundle24, _zero_fields(bundle24.grid, 3))
    v = solve_normal_equations(sys_)
    assert np.abs(v.dgamma.values).max() == 0.0
    assert np.abs(v.dsigma.values).max() == 0.0


def test_row_scaling_linearity(bundle24):
    g = bundle24.grid
    dg, ds = _planted(g)
    dH, _ = apply_linearized_forward(bundle24, dg, ds)
    sys_ = assemble_system(bundle24, dH)
    v1 = solve_normal_equations(sys_)
    scaled = [ScalarField(g, 3.0 * d.values) for d in dH]
    v3 = solve_normal_equations(assemble_system(bundle24, scaled))
    assert np.abs(v3.dgamma.values - 3.0 * v1.dgamma.values).max() < 1e-8


def test_noise_sweep_linear_growth(bundle24):
    g = bundle24.grid
    dg, ds = _planted(g)
    dH, _ = apply_linearized_forward(bundle24, dg, ds)
    levels = [1e-3, 1e-2, 1e-1]
    errs = []
    for lev in levels:
        noisy = [add_noise(d, lev, 11 + i) for i, d in enumerate(dH)]
        v = solve_normal_equations(assemble_system(bundle24, noisy))
        errs.append(rel_l2_error(v.dgamma.values, dg.values, g))
    slope = np.polyfit(np.log(levels), np.log(errs), 1)[0]
    assert abs(slope - 1.0) <= 0.15


def test_lift_mode_round_trip(bundle24):
    # interior-supported truth has vanishing normal data: the lifted solve
    # must agree with the default route
    g = bundle24.grid
    dg, ds = _planted(g)
    dH, _ = apply_linearized_forward(bundle24, dg, ds)
    sys_ = assemble_system(bundle24, dH)
    zero_b = BoundaryData.zero(g)
    v = solve_normal_equations(sys_, g=[zero_b] * (2 + bundle24.J))
    assert rel_l2_error(v.dgamma.values, dg.values, g) < 1e-6


@pytest.mark.parametrize("blocks", ["all", "one"])
def test_normal_data_on_another_grid_refused(dirs3, blocks):
    # normal data on a 19² grid for a 17² system, in all five blocks or in
    # one, is refused before any lift: all five would otherwise lift on 19²
    # and be cut to the 17² interior without an error
    g, other = Grid(17, 17, 1 / 16, 1 / 16), Grid(19, 19, 1 / 18, 1 / 18)
    traces = constant_bg_boundary_set(g, 1.0, 0.5, dirs3)
    bundle = build_bundle(CoefficientPair.constant(g, 1.0, 0.5), traces)
    sys_ = assemble_system(bundle, _zero_fields(g, bundle.J))
    normal = [BoundaryData.zero(g)] * (2 + bundle.J)
    if blocks == "all":
        normal = [BoundaryData.zero(other)] * (2 + bundle.J)
    else:
        normal[3] = BoundaryData.zero(other)
    with pytest.raises(GridMismatch, match="normal data on the wrong grid"):
        solve_normal_equations(sys_, g=normal)


@pytest.mark.parametrize("J", [1, 2])
def test_rank_deficient_solve_refused(bundle24, J):
    # the normal equations of a system with fewer than three solutions stay
    # consistent, so the solve must refuse rather than return a spurious
    # minimizer
    import dataclasses

    from umot.errors import RankDeficient

    g = bundle24.grid
    small = dataclasses.replace(bundle24, solutions=bundle24.solutions[:J])
    dg, ds = _planted(g)
    dH, _ = apply_linearized_forward(small, dg, ds)
    sys_ = assemble_system(small, dH, allow_deficient=True)
    with pytest.raises(RankDeficient):
        solve_normal_equations(sys_)
    # zero data is refused too: the rank gate does not depend on the data
    with pytest.raises(RankDeficient):
        solve_normal_equations(sys_, rhs=np.zeros_like(sys_.rhs))


def test_singular_normal_matrix_is_rank_deficient():
    # u = 0 leaves the dgamma and dsigma columns empty, so the normal matrix
    # is exactly singular: the probe reads 0 and the solve refuses
    from umot.errors import RankDeficient

    g = Grid(12, 12, 1 / 11, 1 / 11)
    zero_trace = BoundaryData(g, np.zeros(g.boundary_indices().size))
    bundle = build_bundle(CoefficientPair.constant(g, 1.0, 0.5), [zero_trace])
    sys_ = assemble_system(bundle, _zero_fields(g, 1), allow_deficient=True)
    assert injectivity_probe(sys_, relative=True) == 0.0
    with pytest.raises(RankDeficient, match="exactly singular"):
        solve_normal_equations(sys_)


def test_normal_matrix_factored_once(bundle24, monkeypatch):
    # the rank probe, every solve and the injectivity probe share one factor
    import scipy.sparse.linalg as spla

    g = bundle24.grid
    dg, ds = _planted(g)
    dH, _ = apply_linearized_forward(bundle24, dg, ds)
    sys_ = assemble_system(bundle24, dH)
    factored = []
    splu = spla.splu

    def counting_splu(A, *args, **kwargs):
        factored.append(A.shape)
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    v = solve_normal_equations(sys_)
    v2 = solve_normal_equations(
        sys_, rhs=sys_.data_rhs([ScalarField(g, 2.0 * d.values) for d in dH])
    )
    injectivity_probe(sys_)
    normal_residual(sys_, v)
    n = sys_.A.matrix.shape[1]
    assert factored == [(n, n)]
    assert np.allclose(v2.dgamma.values, 2.0 * v.dgamma.values, rtol=0, atol=1e-12)


def test_normal_factor_fill_below_colamd(bundle32, monkeypatch):
    # the symmetric minimum-degree ordering of the normal matrix fills about
    # half as much as a COLAMD LU of the same matrix
    import scipy.sparse.linalg as spla

    sys_ = assemble_system(bundle32, _zero_fields(bundle32.grid, 3))
    built = []
    splu = spla.splu

    def capturing_splu(A, *args, **kwargs):
        built.append((A, splu(A, *args, **kwargs)))
        return built[-1][1]

    monkeypatch.setattr(spla, "splu", capturing_splu)
    injectivity_probe(sys_)
    (N, lu), = built
    colamd = splu(N, permc_spec="COLAMD")
    assert lu.L.nnz + lu.U.nnz <= 0.6 * (colamd.L.nnz + colamd.U.nnz)


def test_factor_refuses_nonsymmetric_matrix():
    from umot.solvers import SparseFactor

    A = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
    with pytest.raises(ValueError, match="symmetric"):
        SparseFactor(A)


def test_lifted_solve_factors_biharmonic_matrix_once(dirs3, monkeypatch):
    # nonzero normal data for all 2 + J blocks: one biharmonic factorization,
    # and each lift equals the one-at-a-time lift bit for bit
    import scipy.sparse.linalg as spla

    g = Grid(18, 18, 1 / 17, 1 / 17)
    traces = constant_bg_boundary_set(g, 1.0, 0.5, dirs3)
    bundle = build_bundle(CoefficientPair.constant(g, 1.0, 0.5), traces)
    dg, ds = _planted(g)
    dH, _ = apply_linearized_forward(bundle, dg, ds)
    sys_ = assemble_system(bundle, dH)
    X, Y = g.coords()
    b = g.boundary_indices()
    normal = [
        BoundaryData(g, 1e-3 * (k + 1) * np.sin(np.pi * (X[b] + k * Y[b])))
        for k in range(2 + bundle.J)
    ]
    factored = []
    splu = spla.splu

    def counting_splu(A, *args, **kwargs):
        factored.append(A.shape)
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    solve_normal_equations(sys_, g=normal)
    n_int = g.interior_indices().size
    assert factored.count((n_int, n_int)) == 1

    from umot.biharmonic import biharmonic_lifts

    for lift, gk in zip(biharmonic_lifts(normal), normal):
        assert np.array_equal(lift.values, biharmonic_lifts([gk])[0].values)


def test_injectivity_probe_certified_vs_deficient(bundle24):
    sys3 = assemble_system(bundle24, _zero_fields(bundle24.grid, 3))
    assert injectivity_probe(sys3, relative=True) > 1e-6

    import dataclasses

    b1 = dataclasses.replace(bundle24, solutions=bundle24.solutions[:1])
    sys1 = assemble_system(b1, _zero_fields(bundle24.grid, 1), allow_deficient=True)
    assert injectivity_probe(sys1, relative=True) < 1e-10


def test_general_grid_round_trip(dirs3):
    # anisotropic spacing, non-square node counts, shifted origin
    g = Grid(26, 20, 1.0 / 25, 0.8 / 19, x0=-0.5, y0=2.0)
    coeffs = CoefficientPair.constant(g, 1.3, 0.6)
    traces = constant_bg_boundary_set(g, 1.3, 0.6, dirs3)
    bundle = build_bundle(coeffs, traces)
    dg = bump_field(g, (-0.1, 2.4), 0.18, 0.03, power=4)
    ds = bump_field(g, (0.2, 2.35), 0.15, 0.02, power=4)
    dH, _ = apply_linearized_forward(bundle, dg, ds)
    v = solve_normal_equations(assemble_system(bundle, dH))
    assert rel_l2_error(v.dgamma.values, dg.values, g) < 1e-6
    assert rel_l2_error(v.dsigma.values, ds.values, g) < 1e-6


def test_injectivity_probe_domain_shrink(dirs3):
    def probe(length):
        g = Grid(20, 20, length / 19, length / 19)
        coeffs = CoefficientPair.constant(g, 1.0, 0.5)
        traces = constant_bg_boundary_set(g, 1.0, 0.5, dirs3)
        bundle = build_bundle(coeffs, traces)
        sys_ = assemble_system(bundle, _zero_fields(g, 3))
        return injectivity_probe(sys_)

    p_full, p_half = probe(1.0), probe(0.5)
    assert p_half >= 0.5 * p_full


def test_largest_eigenvalue_is_a_close_lower_bound(bundle24):
    # the sigma_max half of the rank probe: 20 Lanczos steps give a Ritz
    # value, never above the top eigenvalue, here within 1% of it
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    from umot.solvers import largest_eigenvalue

    A = assemble_system(bundle24, _zero_fields(bundle24.grid, 3)).A.matrix
    N = (A.T @ A).tocsc()
    top = spla.eigsh(N, k=1, which="LA", tol=1e-12)[0][0]
    estimate = largest_eigenvalue(N)
    assert 0.99 * top < estimate <= top * (1.0 + 1e-12)
    assert largest_eigenvalue(sp.csr_matrix((4, 4))) == 0.0
    assert largest_eigenvalue(sp.diags([3.0, 1.0, 2.0])) == pytest.approx(3.0, rel=1e-14)
