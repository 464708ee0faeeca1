import numpy as np
import pytest

from umot import (
    CoefficientPair,
    ConstantBackground,
    DirectionsNotCertified,
    Grid,
    ScalarField,
    ZeroAbsorption,
    ZeroEta,
    apply_linearized_forward,
    build_bundle,
    constant_bg_boundary_set,
    operator_B,
    operator_C,
    preprocess_data,
    sigma_zero_laplacian_sum_check,
    sigma_zero_recover_dgamma_2d,
    sigma_zero_recover_dsigma,
    solve_constant_bg,
)
from umot.constant_bg import sigma_zero_gamma_rows, symbols
from umot.ellipticity import DirectionSet
from umot.errors import GridMismatch, NonPositiveSolution
from umot.field_core import rel_l2_error
from umot.forward import DiffusionSolver
from umot.phantom import bump_field

SQ2 = np.sqrt(2.0) / 2.0


@pytest.fixture(scope="module")
def bg(dirs3):
    return ConstantBackground(1.0, 0.5, 1.0, dirs3)


def test_background_validation(dirs3):
    with pytest.raises(ValueError):
        ConstantBackground(-1.0, 0.5, 1.0, dirs3)
    with pytest.raises(ValueError, match="sigma0 must be nonnegative"):
        ConstantBackground(1.0, -0.5, 1.0, dirs3)
    with pytest.raises(ZeroEta):
        ConstantBackground(1.0, 0.5, 0.0, dirs3)


@pytest.mark.parametrize("level", ["gamma0", "sigma0", "eta"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_background_refuses_non_finite_levels(dirs3, level, bad):
    # every range check passes NaN and +inf, so finiteness is its own check
    levels = {"gamma0": 1.0, "sigma0": 0.5, "eta": 1.0, level: bad}
    with pytest.raises(ValueError, match="must be finite"):
        ConstantBackground(dirs=dirs3, **levels)


def test_operator_symbols_special_cases(dirs3):
    g = Grid.unit_square(17)
    v = np.array([1.0, 0.0])
    # principal part of the dgamma operator at xi orthogonal to v is |xi|^2
    bg1 = ConstantBackground(1.0, 0.5, 1.0, dirs3)
    xi_perp = np.array([0.0, 1.0])
    sym, _ = symbols(bg1, v, xi_perp)
    assert sym.real == pytest.approx(1.0 + 2.0 * 2.0 * 0.5)  # |xi|^2 + zeroth term
    assert sym.imag == pytest.approx(0.0)

    # eta = -1 kills the zeroth-order terms and both first-order terms
    bgm1 = ConstantBackground(1.0, 0.5, -1.0, dirs3)
    symC, symB = symbols(bgm1, v, np.array([0.3, np.sqrt(1 - 0.09)]))
    assert symC.imag == pytest.approx(0.0)
    assert symB.imag == pytest.approx(0.0)

    # the principal part of the dsigma operator carries no direction
    for vv in dirs3.vectors:
        _, s = symbols(bg1, vv, np.array([1.0, 0.0]))
        assert s.real == pytest.approx(1.0 * (1.0 / 0.5) * 1.0 - 2.0 * 2.0)


def test_principal_symbol_matches_light_cone_form(bg, dirs3):
    # the real part of the dgamma operator's symbol, less its zeroth-order
    # term, is the light-cone form 1 - 2 (v.xi)^2 at unit frequencies
    zeroth = 2.0 * (1.0 + bg.eta) * bg.sigma0 / bg.gamma0
    rng = np.random.default_rng(4)
    for v in dirs3.vectors:
        for _ in range(20):
            ang = rng.uniform(0, 2 * np.pi)
            xi = np.array([np.cos(ang), np.sin(ang)])
            principal = symbols(bg, v, xi)[0].real - zeroth
            assert abs(principal - (1.0 - 2.0 * float(v @ xi) ** 2)) < 1e-10


def test_zero_absorption_rejected(dirs3):
    # sigma0 = 0 has its own routes; C_i and B_i never see it
    with pytest.raises(ZeroAbsorption):
        ConstantBackground(1.0, 0.0, 1.0, dirs3)


def test_plane_wave_probe_matches_closed_form(bg):
    g = Grid.unit_square(21)
    X, Y = g.coords()
    inner = g.depth() >= 1
    rng = np.random.default_rng(3)
    for v in bg.dirs.vectors:
        C = operator_C(bg, v, g).matrix
        B = operator_B(bg, v, g).matrix
        for _ in range(8):
            xi = rng.uniform(-6, 6, 2)
            wave = np.exp(1j * (xi[0] * X + xi[1] * Y))
            for op, sym in zip((C, B), symbols(bg, v, xi, g)):
                ratio = (op @ wave)[inner] / wave[inner]
                assert np.abs(ratio - sym).max() < 1e-8


def test_discrete_symbol_consistent_with_continuum(bg):
    xi = np.array([2.0, -1.0])
    v = bg.dirs.vectors[2]
    errs = []
    for n in (17, 33):
        g = Grid.unit_square(n)
        errs.append(abs(symbols(bg, v, xi, g)[0] - symbols(bg, v, xi)[0]))
    assert np.log2(errs[0] / errs[1]) >= 1.9


def test_preprocess_trivial_cases(bg):
    g = Grid.unit_square(17)
    X, _ = g.coords()
    u = ScalarField(g, np.exp(X))  # any positive background solution
    zero = ScalarField(g, np.zeros(g.n_nodes))
    assert np.abs(preprocess_data(zero, u, bg).values).max() == 0.0

    c = 0.7
    dH = ScalarField(g, c * u.values)
    S = preprocess_data(dH, u, bg)
    iidx = g.interior_indices()
    assert np.abs(S.values[iidx] - c / u.values[iidx]).max() < 1e-10

    with pytest.raises(NonPositiveSolution):
        preprocess_data(zero, ScalarField(g, np.zeros(g.n_nodes)), bg)


def test_preprocess_matches_operator_rows(bg, dirs3):
    # independent verification of the eliminated operators: data produced by
    # the general linearized forward map, preprocessed, must match the
    # closed-form rows at interior nodes, at second order
    def discrepancy(n):
        g = Grid.unit_square(n)
        deep = g.depth() >= 2
        dg = bump_field(g, (0.4, 0.45), 0.22, 0.05, power=4)
        ds = bump_field(g, (0.6, 0.6), 0.2, 0.04, power=4)
        coeffs = CoefficientPair.constant(g, bg.gamma0, bg.sigma0)
        traces = constant_bg_boundary_set(g, bg.gamma0, bg.sigma0, dirs3)
        bundle = build_bundle(coeffs, traces, eta=bg.eta)
        dH, _ = apply_linearized_forward(bundle, dg, ds)
        worst = 0.0
        for j, v in enumerate(dirs3.vectors):
            S = preprocess_data(dH[j], bundle.solutions[j][1], bg)
            pred = (operator_C(bg, v, g).matrix @ dg.values) + (
                operator_B(bg, v, g).matrix @ ds.values
            )
            num = np.sqrt(np.sum((S.values[deep] - pred[deep]) ** 2))
            den = np.sqrt(np.sum(pred[deep] ** 2))
            worst = max(worst, num / den)
        return worst

    e1, e2 = discrepancy(17), discrepancy(33)
    assert e2 < 0.10
    assert np.log2(e1 / e2) >= 1.5


def test_solve_zero_data(bg):
    g = Grid.unit_square(17)
    zero = [ScalarField(g, np.zeros(g.n_nodes))] * 3
    dgamma, dsigma = solve_constant_bg(bg, zero)
    assert np.abs(dgamma.values).max() == 0.0
    assert np.abs(dsigma.values).max() == 0.0


def test_solve_rejects_uncertified(dirs2):
    # an uncertified set never reaches the solve: the background refuses it
    with pytest.raises(DirectionsNotCertified, match="direction set margin"):
        ConstantBackground(1.0, 0.5, 1.0, dirs2)


def test_solve_rejects_3d_directions():
    # a certified 3-D set on the 2-D grid: the operators would read only the
    # first two components of each direction, so the background and the
    # traces refuse it alike
    vecs = tuple(np.eye(3)) + (np.ones(3) / np.sqrt(3.0),)
    dirs = DirectionSet(3, vecs)
    with pytest.raises(GridMismatch, match="3-D directions on a 2-D grid"):
        ConstantBackground(1.0, 0.5, 1.0, dirs)
    with pytest.raises(GridMismatch, match="3-D directions on a 2-D grid"):
        constant_bg_boundary_set(Grid.unit_square(9), 1.0, 0.5, dirs)


def test_normal_operator_spd(bg):
    from umot.constant_bg import direction_blocks
    import scipy.sparse.linalg as spla

    g = Grid.unit_square(13)
    N = sum(blk.T @ blk for blk in direction_blocks(bg, g))
    assert abs(N - N.T).max() < 1e-10
    vals = spla.eigsh(N, k=1, sigma=-1e-8, which="LM", return_eigenvectors=False)
    assert vals[0] > 0.0


def test_round_trip_inverse_crime(bg, dirs3):
    g = Grid.unit_square(33)
    iidx = g.interior_indices()
    dg = bump_field(g, (0.4, 0.45), 0.22, 0.05, power=4)
    ds = bump_field(g, (0.6, 0.6), 0.2, 0.04, power=4)
    data = []
    for v in dirs3.vectors:
        s = np.zeros(g.n_nodes)
        s[iidx] = (
            (operator_C(bg, v, g).matrix @ dg.values)
            + (operator_B(bg, v, g).matrix @ ds.values)
        )[iidx]
        data.append(ScalarField(g, s))
    rg, rs = solve_constant_bg(bg, data)
    assert rel_l2_error(rg.values, dg.values, g) < 1e-8
    assert rel_l2_error(rs.values, ds.values, g) < 1e-8


def test_nonlinear_data_error_scales_with_amplitude(bg, dirs3):
    g = Grid.unit_square(33)
    base_dg = bump_field(g, (0.4, 0.45), 0.22, 1.0, power=4)
    base_ds = bump_field(g, (0.6, 0.6), 0.2, 0.7, power=4)
    traces = constant_bg_boundary_set(g, bg.gamma0, bg.sigma0, dirs3)
    coeffs0 = CoefficientPair.constant(g, bg.gamma0, bg.sigma0)
    bundle0 = build_bundle(coeffs0, traces, eta=bg.eta)

    def run(amp):
        truth = CoefficientPair(
            ScalarField(g, bg.gamma0 + amp * base_dg.values),
            ScalarField(g, bg.sigma0 + amp * base_ds.values),
        )
        bt = build_bundle(truth, traces, eta=bg.eta)
        dH = [ScalarField(g, ht.values - h0.values) for ht, h0 in zip(bt.H, bundle0.H)]
        data = [
            preprocess_data(d, u0, bg)
            for d, (_, u0) in zip(dH, bundle0.solutions)
        ]
        rg, rs = solve_constant_bg(bg, data)
        return rel_l2_error(rg.values, amp * base_dg.values, g)

    e_small, e_large = run(1e-3), run(4e-2)
    assert e_large < 0.25
    # relative error grows roughly linearly with amplitude above the
    # discretization floor
    assert e_large > e_small


def test_near_constant_background_continuity(bg, dirs3):
    # 1% spatial ripple on the background degrades the recovery gracefully
    g = Grid.unit_square(33)
    X, Y = g.coords()
    ripple = 0.01 * np.sin(2 * np.pi * X) * np.cos(np.pi * Y)
    coeffs = CoefficientPair(
        ScalarField(g, bg.gamma0 * (1.0 + ripple)),
        ScalarField(g, bg.sigma0 * (1.0 - ripple)),
    )
    traces = constant_bg_boundary_set(g, bg.gamma0, bg.sigma0, dirs3)
    bundle = build_bundle(coeffs, traces, eta=bg.eta)
    dg = bump_field(g, (0.4, 0.45), 0.22, 0.05, power=4)
    ds = bump_field(g, (0.6, 0.6), 0.2, 0.04, power=4)
    dH, _ = apply_linearized_forward(bundle, dg, ds)
    data = [
        preprocess_data(d, u, bg) for d, (_, u) in zip(dH, bundle.solutions)
    ]
    rg, rs = solve_constant_bg(bg, data)
    assert rel_l2_error(rg.values, dg.values, g) < 0.15


def test_sigma_zero_dsigma_recovery():
    g = Grid.unit_square(17)
    ds = bump_field(g, (0.5, 0.5), 0.25, 0.03, power=2)
    eta = 1.7
    rec = sigma_zero_recover_dsigma(ScalarField(g, eta * ds.values), eta)
    assert np.abs(rec.values - ds.values).max() < 1e-14
    with pytest.raises(ZeroEta):
        sigma_zero_recover_dsigma(ds, 0.0)


def test_sigma_zero_dsigma_round_trip_constant_solution():
    # with u_0 = 1 the gradient terms vanish and only eta dsigma remains
    g = Grid.unit_square(17)
    coeffs = CoefficientPair.constant(g, 1.0, 0.0)
    from umot.field_core import BoundaryData

    ones = BoundaryData(g, np.ones(g.n_boundary))
    bundle = build_bundle(coeffs, [ones], eta=1.3)
    ds = bump_field(g, (0.5, 0.5), 0.25, 0.03, power=4)
    zero = ScalarField(g, np.zeros(g.n_nodes))
    dH, _ = apply_linearized_forward(bundle, zero, ds)
    rec = sigma_zero_recover_dsigma(dH[0], 1.3)
    assert np.abs(rec.values - ds.values).max() < 1e-9


def test_wave_operator_annihilates_diagonal_profile():
    g = Grid.unit_square(17)
    X, Y = g.coords()
    f = np.sin(X + Y) + (X + Y) ** 2
    D1, _ = sigma_zero_gamma_rows(g)
    assert np.abs((D1 @ f)[g.interior_indices()]).max() < 1e-10


def test_wave_rows_symbol_identity():
    rng = np.random.default_rng(9)
    for _ in range(100):
        xi = rng.standard_normal(2)
        lhs = (xi[1] ** 2 - xi[0] ** 2) ** 2 + 4.0 * xi[0] ** 2 * xi[1] ** 2
        assert abs(lhs - (xi @ xi) ** 2) < 1e-12 * max(1.0, (xi @ xi) ** 2)


def test_sigma_zero_dgamma_round_trip():
    g = Grid.unit_square(33)
    iidx = g.interior_indices()
    dg = bump_field(g, (0.45, 0.55), 0.25, 0.04, power=4)
    D1, D2 = sigma_zero_gamma_rows(g)
    poisson = DiffusionSolver(CoefficientPair.constant(g, 1.0, 0.0))
    # synthesize data fields whose discrete Laplacian equals the row images
    dh1 = poisson.solve_zero_dirichlet(-(D1 @ dg.values)[iidx])
    dh12 = poisson.solve_zero_dirichlet(-(D2 @ dg.values)[iidx])
    rec = sigma_zero_recover_dgamma_2d(dh1, dh12)
    assert rel_l2_error(rec.values, dg.values, g) < 1e-8


def test_laplacian_sum_residuals():
    assert sigma_zero_laplacian_sum_check(3) < 1e-12
    assert sigma_zero_laplacian_sum_check(4) < 1e-12
    # the planar case sums to zero identically: deficient, not elliptic
    rng = np.random.default_rng(0)
    xi = rng.standard_normal((50, 2))
    xi /= np.linalg.norm(xi, axis=1, keepdims=True)
    lhs = np.sum(np.sum(xi ** 2, axis=1, keepdims=True) - 2.0 * xi ** 2, axis=1)
    assert np.abs(lhs).max() < 1e-12
    with pytest.raises(ValueError):
        sigma_zero_laplacian_sum_check(1)
