import numpy as np
import pytest

from umot import (
    BoundaryData,
    CoefficientPair,
    Diverged,
    Grid,
    InsufficientHistory,
    NotElliptic,
    ReconstructOptions,
    ScalarField,
    apply_linearized_forward,
    build_bundle,
    certify_field,
    constant_bg_boundary_set,
    contraction_estimate,
    reconstruct,
    stability_probe,
)
from umot import nonlinear
from umot.errors import GridMismatch
from umot.nonlinear import IterationRecord, h1_proxy_norm, sweep
from umot.phantom import add_noise, bump_field


@pytest.fixture(scope="module")
def setup(dirs3):
    g = Grid(32, 32, 1 / 31, 1 / 31)
    coeffs0 = CoefficientPair.constant(g, 1.0, 0.5)
    traces = constant_bg_boundary_set(g, 1.0, 0.5, dirs3)
    return g, coeffs0, traces


def _truth(g, amp):
    dg = bump_field(g, (0.35, 0.4), 0.22, amp, power=2)
    ds = bump_field(g, (0.6, 0.65), 0.2, 0.5 * amp, power=2)
    return CoefficientPair(
        ScalarField(g, 1.0 + dg.values), ScalarField(g, 0.5 + ds.values)
    )


def test_zero_residual_fixed_point(setup):
    g, coeffs0, traces = setup
    bundle = build_bundle(coeffs0, traces)
    res = reconstruct(list(bundle.H), traces, coeffs0)
    assert res.converged
    assert res.iterations <= 1
    assert np.array_equal(res.coeffs.gamma.values, coeffs0.gamma.values)


def test_one_percent_scenario(setup):
    g, coeffs0, traces = setup
    truth = _truth(g, 0.01)
    bt = build_bundle(truth, traces)
    res = reconstruct(list(bt.H), traces, coeffs0, truth=truth)
    assert res.converged
    assert res.error_vs_truth[0] <= 1e-3
    assert res.error_vs_truth[1] <= 1e-3
    # monotone residual decrease from the second sweep onward
    residuals = [r.residual_norm for r in res.history if r.k >= 2]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(residuals[:-1], residuals[1:]))
    # admissibility of the returned coefficients
    assert res.coeffs.gamma.values.min() >= 1e-6
    assert res.coeffs.sigma.values.min() >= 0.0


def test_contraction_below_half_at_one_percent(setup, monkeypatch):
    g, coeffs0, traces = setup
    truth = _truth(g, 0.01)
    bt = build_bundle(truth, traces)
    monkeypatch.setattr(nonlinear, "STEPTOL", 1e-14)
    res = reconstruct(list(bt.H), traces, coeffs0, opts=ReconstructOptions(kmax=5, tol=1e-14))
    assert contraction_estimate(res.history) < 0.5


def test_linear_data_one_step_exactness(setup, monkeypatch):
    g, coeffs0, traces = setup
    bundle = build_bundle(coeffs0, traces)
    amp = 1e-5
    dg = bump_field(g, (0.35, 0.4), 0.22, amp, power=2)
    ds = bump_field(g, (0.6, 0.65), 0.2, 0.5 * amp, power=2)
    dH, _ = apply_linearized_forward(bundle, dg, ds)
    H_lin = [ScalarField(g, h.values + d.values) for h, d in zip(bundle.H, dH)]
    monkeypatch.setattr(nonlinear, "STEPTOL", 1e-16)
    res = reconstruct(H_lin, traces, coeffs0, opts=ReconstructOptions(kmax=3, tol=1e-15))
    assert contraction_estimate(res.history) < 0.05


def test_basin_of_attraction_sweep(setup):
    g, coeffs0, traces = setup
    iters = []
    for amp in (0.005, 0.01, 0.04):
        truth = _truth(g, amp)
        bt = build_bundle(truth, traces)
        res = reconstruct(list(bt.H), traces, coeffs0, opts=ReconstructOptions(kmax=30))
        assert res.converged
        iters.append(res.iterations)
    assert iters == sorted(iters)

    truth_big = _truth(g, 0.5)
    bt = build_bundle(truth_big, traces)
    with pytest.raises(Diverged) as exc_info:
        reconstruct(list(bt.H), traces, coeffs0, opts=ReconstructOptions(kmax=30))
    partial = exc_info.value.result
    assert partial is not None
    # the carried state is the best-residual iterate, not the last one
    assert partial.final_residual == pytest.approx(
        min(r.residual_norm for r in partial.history)
    )


def test_quadratic_remainder(setup):
    # || H(v0 + dv) - H(v0) - dH(dv) || = O(||dv||^2)
    g, coeffs0, traces = setup
    bundle = build_bundle(coeffs0, traces)
    dg = bump_field(g, (0.35, 0.4), 0.22, 1.0, power=2)
    ds = bump_field(g, (0.6, 0.65), 0.2, 0.5, power=2)
    amps = (0.02, 0.01, 0.005)
    rems = []
    for amp in amps:
        dH, _ = apply_linearized_forward(
            bundle, ScalarField(g, amp * dg.values), ScalarField(g, amp * ds.values)
        )
        pert = CoefficientPair(
            ScalarField(g, coeffs0.gamma.values + amp * dg.values),
            ScalarField(g, coeffs0.sigma.values + amp * ds.values),
        )
        bp = build_bundle(pert, traces)
        rem = h1_proxy_norm(
            [
                ScalarField(g, hp.values - h0.values - d.values)
                for hp, h0, d in zip(bp.H, bundle.H, dH)
            ]
        )
        rems.append(rem)
    slopes = np.diff(np.log(rems)) / np.diff(np.log(amps))
    assert min(slopes) >= 1.8


def test_fixed_point_consistency(setup):
    g, coeffs0, traces = setup
    truth = _truth(g, 0.01)
    bt = build_bundle(truth, traces)
    H_meas = list(bt.H)
    res = reconstruct(H_meas, traces, coeffs0)
    assert res.converged
    b_final = build_bundle(res.coeffs, traces)
    scale = h1_proxy_norm(H_meas)
    err = h1_proxy_norm(
        [ScalarField(g, a.values - b.values) for a, b in zip(b_final.H, H_meas)]
    )
    assert err / scale <= 2.0 * 1e-8


def test_refreshed_mode(setup):
    g, coeffs0, traces = setup
    truth = _truth(g, 0.02)
    bt = build_bundle(truth, traces)
    res = reconstruct(
        list(bt.H), traces, coeffs0, truth=truth,
        opts=ReconstructOptions(mode="refreshed", kmax=20),
    )
    assert res.converged
    assert res.error_vs_truth[0] <= 1e-3


def test_refreshed_mode_recertifies_each_iterate(setup, monkeypatch):
    # a refreshed sweep certifies the bundle it reassembles at, with the base
    # report's threshold: an iterate whose certificate fails
    # makes the solve warn, not inherit the base's
    import dataclasses

    import umot.nonlinear as nl

    g, coeffs0, traces = setup
    bt = build_bundle(_truth(g, 0.02), traces)
    base = build_bundle(coeffs0, traces)
    report = certify_field(base, margin_threshold=1e-5)
    certify = nl.certify_field
    calls = []

    def failing(bundle, **kwargs):
        calls.append(kwargs["margin_threshold"])
        return dataclasses.replace(
            certify(bundle, **kwargs), elliptic=False, witness=(0, np.array([1.0, 0.0]))
        )

    monkeypatch.setattr(nl, "certify_field", failing)
    with pytest.warns(UserWarning, match="failed certification"):
        sweep(list(bt.H), base, report, ReconstructOptions(mode="refreshed", kmax=2))
    assert calls and all(c == 1e-5 for c in calls)


def test_sweep_builds_every_trial_like_its_base(setup, monkeypatch):
    # the base point carries its build settings: under default options every
    # trial bundle gets the base's eta
    import inspect

    import umot.forward
    import umot.nonlinear

    g, coeffs0, traces = setup
    bt = build_bundle(_truth(g, 0.01), traces, eta=0.7)
    base = build_bundle(coeffs0, traces, eta=0.7)
    report = certify_field(base)
    build = umot.forward.build_bundle
    signature = inspect.signature(build)
    etas = []

    def recording(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        etas.append(bound.arguments["eta"])
        return build(*args, **kwargs)

    for module in (umot.forward, umot.nonlinear):
        monkeypatch.setattr(module, "build_bundle", recording)
    res = sweep(list(bt.H), base, report, ReconstructOptions(kmax=3))
    assert res.iterations >= 1
    assert etas and all(e == 0.7 for e in etas)


def test_reconstruct_certifies_with_certify_field_default(setup, monkeypatch):
    # the direct API certifies its base as the pipeline does by default
    import inspect

    import umot.nonlinear as nl

    g, coeffs0, traces = setup
    bt = build_bundle(_truth(g, 0.01), traces)
    certify = nl.certify_field
    thresholds = []

    def recording(bundle, **kwargs):
        report = certify(bundle, **kwargs)
        thresholds.append(report.margin_threshold)
        return report

    monkeypatch.setattr(nl, "certify_field", recording)
    reconstruct(list(bt.H), traces, coeffs0, opts=ReconstructOptions(kmax=1))
    default = inspect.signature(certify).parameters["margin_threshold"].default
    assert thresholds == [default] == [1e-6]


def test_not_elliptic_strict(setup):
    # two coordinate solutions share the diagonal cone direction: the base
    # bundle fails certification before any system is assembled
    g, coeffs0, traces = setup
    fx = BoundaryData.from_function(g, lambda x, y: x)
    fy = BoundaryData.from_function(g, lambda x, y: y)
    sigma0 = CoefficientPair.constant(g, 1.0, 0.0)
    bundle = build_bundle(sigma0, [fx, fy])
    H = list(bundle.H)
    with pytest.raises(NotElliptic):
        reconstruct(H, [fx, fy], sigma0)
    # the stability probe gates its base the same way
    with pytest.raises(NotElliptic, match="failed certification"):
        stability_probe([sigma0, sigma0], sigma0, [fx, fy])


def test_sweep_refuses_measured_functionals_on_another_grid(setup):
    # same node count, other spacing: refused before any system is assembled
    g, coeffs0, traces = setup
    base = build_bundle(coeffs0, traces)
    other = Grid(g.nx, g.ny, 0.5 * g.hx, g.hy)
    H = [ScalarField.constant(other, 1.0)] * base.J
    with pytest.raises(GridMismatch, match="measured functional on the wrong grid"):
        sweep(H, base, certify_field(base), ReconstructOptions(kmax=1))


def test_stability_probe_linear_slope(setup):
    g, coeffs0, traces = setup
    amps = (0.0025, 0.005, 0.01, 0.02)
    slope = stability_probe([_truth(g, a) for a in amps], coeffs0, traces)
    assert 0.85 <= slope <= 1.15


def test_stability_probe_excludes_degenerate_points(setup):
    g, coeffs0, traces = setup
    pairs = [coeffs0, _truth(g, 0.005), _truth(g, 0.02)]
    slope = stability_probe(pairs, coeffs0, traces)
    assert np.isfinite(slope)


def test_stability_probe_noise_floor(setup):
    g, coeffs0, traces = setup

    def noisy(H):
        return [add_noise(h, 1e-3, 42 + i) for i, h in enumerate(H)]

    amps = (5e-5, 1e-4, 2e-4, 4e-4)
    slope = stability_probe(
        [_truth(g, a) for a in amps], coeffs0, traces,
        opts=ReconstructOptions(kmax=8), noise=noisy,
    )
    assert slope < 0.5


@pytest.mark.parametrize(
    "key, value",
    [("kmax", -1), ("kmax", 1.5), ("kmax", True), ("tol", float("nan")), ("tol", -1.0)],
)
def test_reconstruct_options_reject_negative_kmax(key, value):
    # kmax is an integer >= 0 that is not a bool, tol a finite number >= 0
    with pytest.raises(ValueError, match=key):
        ReconstructOptions(**{key: value})


def test_each_iterate_residual_is_formed_once(setup, monkeypatch):
    # the line search's accepted trial hands its residual fields to the next
    # sweep: k sweeps without halvings form k + 1, one per iterate
    g, coeffs0, traces = setup
    bt = build_bundle(_truth(g, 0.01), traces)
    residual_fields = nonlinear._residual_fields
    bundles = []

    def counted(bundle, H_meas):
        bundles.append(bundle)
        return residual_fields(bundle, H_meas)

    monkeypatch.setattr(nonlinear, "_residual_fields", counted)
    res = reconstruct(list(bt.H), traces, coeffs0, opts=ReconstructOptions(kmax=3, tol=0.0))
    k = res.iterations
    assert k == 3 and len(res.history) == k + 1
    assert all(r.damping == nonlinear.DAMPING for r in res.history)
    assert len(bundles) == k + 1 and len(set(map(id, bundles))) == k + 1


def test_contraction_estimate_guards():
    with pytest.raises(InsufficientHistory):
        contraction_estimate([IterationRecord(0, 1.0, 0.0, 1.0)])
    hist = [
        IterationRecord(0, 1.0, 0.0, 1.0),
        IterationRecord(1, 0.5, 1.0, 1.0),
        IterationRecord(2, 0.2, 0.4, 1.0),
        IterationRecord(3, 0.1, 0.1, 1.0),
    ]
    assert contraction_estimate(hist) == pytest.approx(0.4)
