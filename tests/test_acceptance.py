"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion with the measured quantities.
"""

import json
import time

import numpy as np
import pytest

from umot import (
    BoundaryData,
    CoefficientPair,
    ConstantBackground,
    DirectionSet,
    Grid,
    ScalarField,
    apply_linearized_forward,
    assemble_system,
    build_bundle,
    certify_directions,
    constant_bg_boundary_set,
    contraction_estimate,
    injectivity_probe,
    operator_B,
    operator_C,
    preprocess_data,
    reconstruct,
    sigma_zero_laplacian_sum_check,
    sigma_zero_recover_dgamma_2d,
    sigma_zero_recover_dsigma,
    solve_constant_bg,
    stability_probe,
)
from umot import nonlinear
from umot.cli import main
from umot.constant_bg import sigma_zero_gamma_rows
from umot.fileio import load_json
from umot.field_core import rel_l2_error
from umot.forward import DiffusionSolver
from umot.linearized import solve_normal_equations
from umot.nonlinear import ReconstructOptions
from umot.phantom import bump_field

SQ2 = np.sqrt(2.0) / 2.0
E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])
DIRS3 = DirectionSet(2, (E1, E2, np.array([SQ2, SQ2])))


def _ok(num, message):
    print(f"\nPASS criterion {num}: {message}")


def test_criterion_1_direction_certification():
    t0 = time.perf_counter()
    r3 = certify_directions(DIRS3)
    assert r3.elliptic

    d3d = DirectionSet(3, tuple(np.eye(3)) + (np.ones(3) / np.sqrt(3),))
    r3d = certify_directions(d3d)
    assert r3d.elliptic

    witness_target = np.array([SQ2, SQ2])
    r1 = certify_directions(DirectionSet(2, (E1,)))
    assert not r1.elliptic
    assert np.abs(r1.witness[1] - witness_target).max() < 1e-12

    r2 = certify_directions(DirectionSet(2, (E1, E2)))
    assert not r2.elliptic
    assert np.abs(r2.witness[1] - witness_target).max() < 1e-12

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _ok(1, f"direction certification (2D margin {r3.global_margin:.3f}, "
           f"3D margin {r3d.global_margin:.3f}, witnesses at (1,1)/sqrt(2), "
           f"{elapsed:.2f}s)")


def test_criterion_2_jacobian_consistency():
    t0 = time.perf_counter()
    g = Grid(32, 32, 1 / 31, 1 / 31)
    coeffs = CoefficientPair.constant(g, 1.0, 0.5)
    traces = constant_bg_boundary_set(g, 1.0, 0.5, DIRS3)
    bundle = build_bundle(coeffs, traces)
    dg = bump_field(g, (0.35, 0.4), 0.22, 0.6, power=4)
    ds = bump_field(g, (0.6, 0.65), 0.2, 0.4, power=4)
    dH, _ = apply_linearized_forward(bundle, dg, ds)
    errs = []
    for eps in (1e-2, 1e-3, 1e-4):
        pert = CoefficientPair(
            ScalarField(g, coeffs.gamma.values + eps * dg.values),
            ScalarField(g, coeffs.sigma.values + eps * ds.values),
        )
        bp = build_bundle(pert, traces)
        err = 0.0
        for hp, h0, d in zip(bp.H, bundle.H, dH):
            err += np.sum(((hp.values - h0.values) / eps - d.values) ** 2)
        errs.append(float(np.sqrt(err)))
    orders = [np.log10(errs[i] / errs[i + 1]) for i in range(2)]
    elapsed = time.perf_counter() - t0
    assert min(orders) >= 0.9
    assert elapsed < 30.0
    _ok(2, f"linearization matches finite differences, observed orders "
           f"{orders[0]:.3f}, {orders[1]:.3f} ({elapsed:.1f}s)")


def test_criterion_3_cb_operator_verification():
    bg = ConstantBackground(1.0, 0.5, 1.0, DIRS3)

    def discrepancy(n):
        g = Grid.unit_square(n)
        deep = np.pad(np.ones((g.ny - 4, g.nx - 4), bool), 2).ravel()  # two nodes in
        dg = bump_field(g, (0.4, 0.45), 0.22, 0.05, power=4)
        ds = bump_field(g, (0.6, 0.6), 0.2, 0.04, power=4)
        coeffs = CoefficientPair.constant(g, bg.gamma0, bg.sigma0)
        traces = constant_bg_boundary_set(g, bg.gamma0, bg.sigma0, DIRS3)
        bundle = build_bundle(coeffs, traces, eta=bg.eta)
        dH, _ = apply_linearized_forward(bundle, dg, ds)
        worst = 0.0
        for j, v in enumerate(DIRS3.vectors):
            S = preprocess_data(dH[j], bundle.solutions[j][1], bg)
            pred = (operator_C(bg, v, g).matrix @ dg.values) + (
                operator_B(bg, v, g).matrix @ ds.values
            )
            num = np.sqrt(np.sum((S.values[deep] - pred[deep]) ** 2))
            den = np.sqrt(np.sum(pred[deep] ** 2))
            worst = max(worst, num / den)
        return worst

    e32, e64 = discrepancy(33), discrepancy(65)
    order = np.log2(e32 / e64)
    assert e64 <= 0.05
    assert order >= 1.5
    _ok(3, f"eliminated-operator rows confirmed against the linearized "
           f"forward map: discrepancy {e64:.4f} at h=1/64, order {order:.2f}")


def test_criterion_4_linearized_round_trip():
    t0 = time.perf_counter()
    g = Grid(48, 48, 1 / 47, 1 / 47)
    coeffs = CoefficientPair.constant(g, 1.0, 0.5)
    traces = constant_bg_boundary_set(g, 1.0, 0.5, DIRS3)
    bundle = build_bundle(coeffs, traces)
    dg = bump_field(g, (0.35, 0.42), 0.2, 0.03, power=4)
    ds = bump_field(g, (0.62, 0.6), 0.18, 0.02, power=4)
    dH, _ = apply_linearized_forward(bundle, dg, ds)
    sys_ = assemble_system(bundle, dH)
    v = solve_normal_equations(sys_)
    eg = rel_l2_error(v.dgamma.values, dg.values, g)
    es = rel_l2_error(v.dsigma.values, ds.values, g)
    elapsed = time.perf_counter() - t0
    assert eg <= 0.02 and es <= 0.02
    assert elapsed < 120.0
    _ok(4, f"48x48 J=3 round trip errors dgamma {eg:.2e}, dsigma {es:.2e} "
           f"({elapsed:.1f}s)")


def test_criterion_5_constant_background_routes():
    # fourth-order clamped round trip at 64x64
    bg = ConstantBackground(1.0, 0.5, 1.0, DIRS3)
    g = Grid.unit_square(65)
    iidx = g.interior_indices()
    dgt = bump_field(g, (0.4, 0.45), 0.22, 0.05, power=4)
    dst = bump_field(g, (0.6, 0.6), 0.2, 0.04, power=4)
    data = []
    for vdir in DIRS3.vectors:
        s = np.zeros(g.n_nodes)
        s[iidx] = (
            (operator_C(bg, vdir, g).matrix @ dgt.values)
            + (operator_B(bg, vdir, g).matrix @ dst.values)
        )[iidx]
        data.append(ScalarField(g, s))
    rg, rs = solve_constant_bg(bg, data)
    eg = rel_l2_error(rg.values, dgt.values, g)
    es = rel_l2_error(rs.values, dst.values, g)
    assert eg <= 0.01 and es <= 0.01

    # absorption-free special case: pointwise dsigma recovery to round-off
    eta = 1.4
    ds0 = bump_field(g, (0.5, 0.5), 0.25, 0.03, power=4)
    rec0 = sigma_zero_recover_dsigma(ScalarField(g, eta * ds0.values), eta)
    exact_err = np.abs(rec0.values - ds0.values).max()
    assert exact_err < 1e-14

    # planar fourth-order recovery of dgamma
    D1, D2 = sigma_zero_gamma_rows(g)
    poisson = DiffusionSolver(CoefficientPair.constant(g, 1.0, 0.0))
    dh1 = poisson.solve_zero_dirichlet(-(D1 @ dgt.values)[iidx])
    dh12 = poisson.solve_zero_dirichlet(-(D2 @ dgt.values)[iidx])
    recg = sigma_zero_recover_dgamma_2d(dh1, dh12)
    eg0 = rel_l2_error(recg.values, dgt.values, g)
    assert eg0 <= 0.01

    # symbol identities
    rng = np.random.default_rng(12)
    for _ in range(100):
        xi = rng.standard_normal(2)
        lhs = (xi[1] ** 2 - xi[0] ** 2) ** 2 + 4.0 * xi[0] ** 2 * xi[1] ** 2
        assert abs(lhs - (xi @ xi) ** 2) <= 1e-12 * max(1.0, (xi @ xi) ** 2)
    assert sigma_zero_laplacian_sum_check(3) <= 1e-12
    assert sigma_zero_laplacian_sum_check(4) <= 1e-12

    _ok(5, f"constant-background routes: 64x64 round trip ({eg:.2e}, {es:.2e}), "
           f"dsigma recovery {exact_err:.1e}, planar dgamma {eg0:.2e}, "
           f"symbol identities at 1e-12")


def test_criterion_6_nonlinear_fixed_point(monkeypatch):
    t0 = time.perf_counter()
    g = Grid(32, 32, 1 / 31, 1 / 31)
    coeffs0 = CoefficientPair.constant(g, 1.0, 0.5)
    traces = constant_bg_boundary_set(g, 1.0, 0.5, DIRS3)

    def truth_at(amp):
        dg = bump_field(g, (0.35, 0.4), 0.22, amp, power=2)
        ds = bump_field(g, (0.6, 0.65), 0.2, 0.5 * amp, power=2)
        return CoefficientPair(
            ScalarField(g, 1.0 + dg.values), ScalarField(g, 0.5 + ds.values)
        )

    truth = truth_at(0.01)
    bt = build_bundle(truth, traces)
    res = reconstruct(list(bt.H), traces, coeffs0, truth=truth)
    assert res.converged
    assert max(res.error_vs_truth) <= 1e-3
    residuals = [r.residual_norm for r in res.history if r.k >= 2]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(residuals[:-1], residuals[1:]))

    with monkeypatch.context() as m:  # the probe below keeps the default step tolerance
        m.setattr(nonlinear, "STEPTOL", 1e-14)
        res_c = reconstruct(
            list(bt.H), traces, coeffs0, opts=ReconstructOptions(kmax=5, tol=1e-14)
        )
    contraction = contraction_estimate(res_c.history)
    assert contraction < 0.5

    amps = (0.0025, 0.005, 0.01, 0.02)
    slope = stability_probe([truth_at(a) for a in amps], coeffs0, traces)
    assert 0.85 <= slope <= 1.15

    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _ok(6, f"1% scenario error {max(res.error_vs_truth):.2e}, monotone residual, "
           f"contraction {contraction:.3f}, stability slope {slope:.3f} "
           f"({elapsed:.1f}s)")


def test_criterion_7_forward_solver_order():
    # exact reproduction of in-kernel linear data
    g = Grid.unit_square(17)
    coeffs = CoefficientPair.constant(g, 1.0, 0.0)
    f = BoundaryData.from_function(g, lambda x, y: x)
    u = DiffusionSolver(coeffs).solve(f)
    X, _ = g.coords()
    linear_err = np.abs(u.values - X).max()
    assert linear_err < 1e-12

    # manufactured-solution convergence over two refinements
    rate = np.sqrt(0.5 / 2.0)
    v = np.array([0.8, 0.6])

    def err(n):
        gg = Grid.unit_square(n)
        cc = CoefficientPair.constant(gg, 2.0, 0.5)
        XX, YY = gg.coords()
        exact = np.exp(rate * (v[0] * XX + v[1] * YY))
        ff = BoundaryData(gg, exact[gg.boundary_indices()])
        return np.abs(DiffusionSolver(cc).solve(ff).values - exact).max()

    e1, e2, e3 = err(17), err(33), err(65)
    o1, o2 = np.log2(e1 / e2), np.log2(e2 / e3)
    assert min(o1, o2) >= 1.9
    _ok(7, f"forward solver: linear data to {linear_err:.1e}, observed orders "
           f"{o1:.2f}, {o2:.2f}")


def test_criterion_8_injectivity_probes():
    def system_for(grid, n_solutions):
        coeffs = CoefficientPair.constant(grid, 1.0, 0.5)
        traces = constant_bg_boundary_set(grid, 1.0, 0.5, DIRS3)[:n_solutions]
        bundle = build_bundle(coeffs, traces)
        zero = [ScalarField(grid, np.zeros(grid.n_nodes))] * n_solutions
        return assemble_system(bundle, zero, allow_deficient=True)

    g = Grid(24, 24, 1 / 23, 1 / 23)
    p3 = injectivity_probe(system_for(g, 3), relative=True)
    assert p3 > 1e-6

    p1 = injectivity_probe(system_for(g, 1), relative=True)
    assert p1 < 1e-10

    g_half = Grid(24, 24, 0.5 / 23, 0.5 / 23)
    a_full = injectivity_probe(system_for(g, 3))
    a_half = injectivity_probe(system_for(g_half, 3))
    assert a_half >= 0.5 * a_full

    _ok(8, f"injectivity probes: certified {p3:.2e} rel, deficient {p1:.2e} rel, "
           f"domain halving {a_full:.2e} -> {a_half:.2e}")


def test_criterion_9_determinism(tmp_path):
    scenario = {
        "grid": {"nx": 18, "ny": 18, "hx": 1 / 17, "hy": 1 / 17},
        "eta": 1.0,
        "background": {"type": "constant", "gamma0": 1.0, "sigma0": 0.5},
        "boundary_set": {
            "type": "constant_bg",
            "dirs": [[1, 0], [0, 1], [SQ2, SQ2]],
        },
        "phantom": {
            "bumps": [
                {"center": [0.4, 0.45], "radius": 0.2, "amplitude": 0.02,
                 "target": "gamma"}
            ]
        },
        "noise": {"level": 0.002, "seed": 77},
        "inversion": {"path": "linearized"},
    }
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps(scenario))
    assert main(["pipeline", "--scenario", str(spath), "--out", str(tmp_path / "a")]) == 0
    assert main(["pipeline", "--scenario", str(spath), "--out", str(tmp_path / "b")]) == 0
    ma = load_json(tmp_path / "a" / "manifest.json")
    mb = load_json(tmp_path / "b" / "manifest.json")
    assert ma["outputs"] == mb["outputs"]
    # digest equality covers every numeric artifact byte for byte
    for entry_a, entry_b in zip(ma["outputs"], mb["outputs"]):
        assert entry_a["sha256"] == entry_b["sha256"]
    _ok(9, f"repeated seeded pipeline runs byte-identical "
           f"({len(ma['outputs'])} artifacts)")
