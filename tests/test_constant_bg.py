import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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
from umot.field_core import (
    coarse_basis,
    interior_derivative_matrices,
    laplacian_matrix,
    rel_l2_error,
)
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
    inner = np.pad(np.ones((g.ny - 2, g.nx - 2), bool), 1).ravel()
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
        deep = np.pad(np.ones((g.ny - 4, g.nx - 4), bool), 2).ravel()  # two nodes in
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


@pytest.mark.parametrize("count", [0, 2, 4])
def test_solve_refuses_wrong_field_count(bg, count):
    # the count is checked before any field is read, so an empty list is
    # refused like a short or long one
    g = Grid.unit_square(9)
    with pytest.raises(ValueError, match="need one data field per direction"):
        solve_constant_bg(bg, [ScalarField(g, np.zeros(g.n_nodes))] * count)


def test_solve_refuses_field_on_another_grid(bg):
    g, other = Grid.unit_square(9), Grid.unit_square(11)
    data = [ScalarField(grid, np.zeros(grid.n_nodes)) for grid in (g, g, other)]
    with pytest.raises(GridMismatch, match="data fields on different grids"):
        solve_constant_bg(bg, data)


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


def _interior_blocks(bg, g):
    """[C_i | B_i] on interior rows and columns, assembled from the public operators."""
    iidx = g.interior_indices()
    return [
        sp.hstack([op(bg, v, g).matrix[iidx][:, iidx] for op in (operator_C, operator_B)])
        for v in bg.dirs.vectors
    ]


def test_normal_operator_spd(bg):
    g = Grid.unit_square(13)
    N = sum(blk.T @ blk for blk in _interior_blocks(bg, g))
    assert abs(N - N.T).max() < 1e-10
    vals = spla.eigsh(N, k=1, sigma=-1e-8, which="LM", return_eigenvectors=False)
    assert vals[0] > 0.0


def _row_data(bg, g, dg, ds):
    """Data fields C_i dg + B_i ds on interior nodes, one per direction."""
    iidx = g.interior_indices()
    data = []
    for v in bg.dirs.vectors:
        s = np.zeros(g.n_nodes)
        s[iidx] = ((operator_C(bg, v, g).matrix @ dg) + (operator_B(bg, v, g).matrix @ ds))[iidx]
        data.append(ScalarField(g, s))
    return data


@pytest.mark.parametrize(
    "g",
    [Grid.unit_square(32), Grid.unit_square(33), Grid(33, 42, 1 / 32, 1 / 41)],
    ids=["32", "33", "33x42"],
)
def test_round_trip_in_spline_range(bg, g):
    # the solve seeks dgamma and dsigma in the range of the spline coarse
    # basis, so a truth inside that range comes back to solver precision;
    # on 33x42 the two axes have different sine matrices and spacings
    Px, Py, (mx, my) = coarse_basis((g.nx - 2, g.ny - 2))
    Q = sp.kron(Py, Px, format="csr")
    iidx = g.interior_indices()
    truths = []
    for center, radius, amp in (((0.4, 0.45), 0.22, 0.05), ((0.6, 0.6), 0.2, 0.04)):
        coarse = bump_field(g, center, radius, amp, power=4).as_matrix()[2:2 * my + 1:2, 2:2 * mx + 1:2]
        t = np.zeros(g.n_nodes)
        t[iidx] = Q @ coarse.ravel()
        truths.append(t)
    rg, rs = solve_constant_bg(bg, _row_data(bg, g, *truths))
    assert rel_l2_error(rg.values, truths[0], g) < 1e-8
    assert rel_l2_error(rs.values, truths[1], g) < 1e-8


def test_fine_truth_error_falls_at_fourth_order(bg):
    # against truths on the fine grid the spline basis is not exact; its
    # error falls with h at about fourth order (2.0e-2, 1.1e-3, 6.6e-5)
    errs = []
    for n in (33, 65, 129):
        g = Grid.unit_square(n)
        dg = bump_field(g, (0.4, 0.45), 0.22, 0.05, power=4).values
        ds = bump_field(g, (0.6, 0.6), 0.2, 0.04, power=4).values
        rg, rs = solve_constant_bg(bg, _row_data(bg, g, dg, ds))
        errs.append((rel_l2_error(rg.values, dg, g), rel_l2_error(rs.values, ds, g)))
    errs = np.array(errs)
    assert errs[-1].max() < 1e-4
    assert np.all(np.log2(errs[:-1] / errs[1:]) >= 3.5)


@pytest.mark.parametrize("coarse, fine", [(64, 128), (65, 129)], ids=["even", "odd"])
def test_cg_iterations_nearly_flat(bg, coarse, fine, cg_steps):
    # the spline basis removes the (pi/h, pi/h) null, so the DST-preconditioned
    # CG needs about as many steps on the finer grid (51 and 63 even, 48 and
    # 52 odd); on the fine coefficients it needed 4,312 at 64x64
    for n in (coarse, fine):
        g = Grid.unit_square(n)
        dg = bump_field(g, (0.4, 0.45), 0.22, 0.05, power=4).values
        ds = bump_field(g, (0.6, 0.6), 0.2, 0.04, power=4).values
        solve_constant_bg(bg, _row_data(bg, g, dg, ds))
    assert len(cg_steps) == 2
    assert cg_steps[1] <= 1.3 * cg_steps[0]


def test_operators_equal_their_derivative_matrix_sums(bg):
    # the 3x3 stencils give, bit for bit, the matrices summed from the
    # derivative matrices as C_i = -lap + 2 dvv + c1 dv + c0 and
    # B_i = -eta (gamma0/sigma0) lap - b1 dv - b0
    g = Grid(19, 23, 0.05, 0.04)
    dx, dy, dxx, dyy, dxy = interior_derivative_matrices(g, "x", "y", "xx", "yy", "xy")
    eye = sp.diags(np.pad(np.ones((g.ny - 2, g.nx - 2)), 1).ravel())
    lap = dxx + dyy
    c1, c0, b1, b0 = bg.lower_order()
    for v in list(bg.dirs.vectors) + [np.array([0.6, -0.8])]:
        dv = v[0] * dx + v[1] * dy
        dvv = v[0] ** 2 * dxx + 2.0 * v[0] * v[1] * dxy + v[1] ** 2 * dyy
        C = -lap + 2.0 * dvv + c1 * dv + c0 * eye
        B = -bg.eta * (bg.gamma0 / bg.sigma0) * lap - b1 * dv - b0 * eye
        assert np.array_equal(operator_C(bg, v, g).matrix.toarray(), C.toarray())
        assert np.array_equal(operator_B(bg, v, g).matrix.toarray(), B.toarray())


@pytest.mark.parametrize(
    "grid",
    [Grid.unit_square(17), Grid.unit_square(18), Grid(17, 22, 1 / 16, 0.05)],
    ids=["17", "18", "17x22"],
)
def test_matrix_free_rows_match_assembled_operator(bg, grid):
    # the in-place stencil application is A Q2, its adjoint (A Q2)^T and its
    # normal operator Q2^T (sum_i A_i^T A_i) Q2, assembled here from the
    # public operators
    from umot.constant_bg import _SplineRows

    rows = _SplineRows(bg, grid)
    Px, Py, _ = coarse_basis((grid.nx - 2, grid.ny - 2))
    Q = sp.kron(Py, Px, format="csr")
    AQ = (sp.vstack(_interior_blocks(bg, grid)) @ sp.block_diag([Q, Q])).toarray()
    N = AQ.T @ AQ
    free = np.column_stack([rows.normal(e) for e in np.eye(N.shape[0])])
    assert np.abs(free - N).max() <= 1e-13 * np.abs(N).max()
    rng = np.random.default_rng(6)
    c, r = rng.standard_normal(AQ.shape[1]), rng.standard_normal(AQ.shape[0])
    assert np.abs(rows.forward(c).ravel() - AQ @ c).max() <= 1e-13 * np.abs(AQ @ c).max()
    assert np.abs(rows.adjoint(r.reshape(len(bg.dirs), -1)) - AQ.T @ r).max() <= (
        1e-13 * np.abs(AQ.T @ r).max()
    )


def test_solve_applies_preconditioner_once_per_step(bg, cg_steps, monkeypatch):
    # the operators are typed, so scipy runs no extra spectral solve on a
    # zero vector to learn a dtype
    import umot.constant_bg as cbg

    applied = []
    build = cbg._spectral_preconditioner

    def counting_build(*args):
        precondition = build(*args)

        def counted(r):
            applied.append(1)
            return precondition(r)

        return counted

    monkeypatch.setattr(cbg, "_spectral_preconditioner", counting_build)
    g = Grid.unit_square(33)
    dg = bump_field(g, (0.4, 0.45), 0.22, 0.05, power=4).values
    solve_constant_bg(bg, _row_data(bg, g, dg, 0.5 * dg))
    assert len(cg_steps) == 1
    assert len(applied) == cg_steps[0] > 0


def test_solve_memory_stays_small_at_129(bg):
    # nothing is assembled: the traced peak of the solve at 129x129 is a few
    # MB (the assembled normal matrix took 35.7 MB); the solve imports
    # nothing on its first call, so no warm-up solve precedes the trace
    g = Grid.unit_square(129)
    dg = bump_field(g, (0.4, 0.45), 0.22, 0.05, power=4).values
    ds = bump_field(g, (0.6, 0.6), 0.2, 0.04, power=4).values
    data = _row_data(bg, g, dg, ds)
    tracemalloc.start()
    try:
        solve_constant_bg(bg, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def _dstn_preconditioner(bg, grid, shape):
    """The spectral preconditioner written with scipy.fft.dstn: the reference
    for the sine-matrix products of ``_spectral_preconditioner``."""
    from scipy.fft import dstn

    mcx, mcy = shape
    J = len(bg.dirs)
    _, c0, _, b0 = bg.lower_order()

    def axis(mc, h):
        w = 0.5 * np.pi * np.arange(1, mc + 1) / (mc + 1)
        return (2.0 - 2.0 * np.cos(w)) / h ** 2, (2.0 * np.cos(0.5 * w) ** 4) ** 2

    (s2x, ax), (s2y, ay) = axis(mcx, grid.hx), axis(mcy, grid.hy)
    lap2 = (s2x[None, :] + s2y[:, None]) ** 2
    spline = ay[:, None] * ax[None, :]
    diag = np.stack([
        spline * (0.5 * J * lap2 + J * c0 ** 2),
        spline * (J * (bg.eta * bg.gamma0 / bg.sigma0) ** 2 * lap2 + J * b0 ** 2),
    ])

    def precondition(r):
        modes = dstn(r.reshape(2, mcy, mcx), type=1, axes=(1, 2), norm="ortho")
        return dstn(modes / diag, type=1, axes=(1, 2), norm="ortho").ravel()

    return precondition


@pytest.mark.parametrize(
    "grid",
    [Grid.unit_square(64), Grid.unit_square(65), Grid(36, 41, 1 / 35, 1 / 40)],
    ids=["64-even", "65-odd", "36x41-mixed"],
)
def test_preconditioner_matches_dstn(bg, grid):
    # S_y R S_x with the dense orthonormal sine matrices is the DST-I of
    # scipy.fft, to round-off
    from umot.constant_bg import _spectral_preconditioner

    shape = coarse_basis((grid.nx - 2, grid.ny - 2))[2]
    r = np.random.default_rng(11).standard_normal(2 * shape[0] * shape[1])
    got = _spectral_preconditioner(bg, grid, shape)(r)
    ref = _dstn_preconditioner(bg, grid, shape)(r)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("n", [1, 2, 62, 63])
def test_sine_matrix_is_its_own_inverse(n):
    from umot.constant_bg import _sine_matrix

    S = _sine_matrix(n)
    assert np.array_equal(S, S.T)
    assert np.abs(S @ S - np.eye(n)).max() <= 1e-13


def test_solve_loads_no_fft():
    # the DST-I is applied as sine matrices: neither scipy.fft nor the
    # scipy.special it imports is loaded by a constant-background solve
    code = """
import sys
import numpy as np
import umot
from umot.ellipticity import DirectionSet

s = np.sqrt(0.5)
dirs = DirectionSet(2, (np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([s, s])))
bg = umot.ConstantBackground(1.0, 0.5, 1.0, dirs)
g = umot.Grid.unit_square(33)
rng = np.random.default_rng(0)
umot.solve_constant_bg(bg, [umot.ScalarField(g, rng.standard_normal(g.n_nodes)) for _ in range(3)])
print(sorted(m for m in ("scipy.fft", "scipy.special") if m in sys.modules))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "grid",
    [Grid.unit_square(128), Grid(19, 23, 0.05, 0.04), Grid(40, 33, 1 / 39, 1 / 32)],
    ids=["128", "19x23", "40x33"],
)
def test_preprocess_laplacian_equals_matrix_product(bg, grid):
    # the Laplacian applied by slices sums the taps in the order of a row of
    # laplacian_matrix, so the result is that product's, bit for bit
    rng = np.random.default_rng(5)
    dH = ScalarField(grid, rng.standard_normal(grid.n_nodes))
    u = ScalarField(grid, rng.uniform(0.5, 2.0, grid.n_nodes))
    w = dH.values / u.values
    Lw = -bg.gamma0 * (laplacian_matrix(grid) @ w) + bg.sigma0 * w
    iidx = grid.interior_indices()
    ref = np.zeros(grid.n_nodes)
    ref[iidx] = Lw[iidx] / (bg.sigma0 * u.values[iidx])
    assert np.array_equal(preprocess_data(dH, u, bg).values, ref)


def test_fine_symbol_has_rank_one_at_nyquist_corner(bg):
    # at xi = (pi/h, pi/h) the first differences vanish and both second
    # differences read 4/h^2, so C_i = c0 for every unit v and B_i is the
    # same for every v: the fine J-by-2 symbol has rank 1 there
    g = Grid.unit_square(33)
    xi = np.array([np.pi / g.hx, np.pi / g.hy])
    _, c0, _, _ = bg.lower_order()
    angles = np.linspace(0.0, np.pi, 7)
    rows = np.array([symbols(bg, (np.cos(a), np.sin(a)), xi, g) for a in angles])
    assert np.abs(rows[:, 0] - c0).max() < 1e-9
    assert np.abs(rows[:, 1] - rows[0, 1]).max() < 1e-9 * abs(rows[0, 1])
    sv = np.linalg.svd(rows, compute_uv=False)
    assert sv[1] < 1e-12 * sv[0]


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
