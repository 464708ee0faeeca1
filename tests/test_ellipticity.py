import dataclasses

import numpy as np
import pytest

from umot import (
    BoundaryData,
    CoefficientPair,
    DirectionsNotCertified,
    DirectionSet,
    Grid,
    NotUnitVector,
    ScalarField,
    build_bundle,
    certify_directions,
    certify_field,
    cgo_boundary_set,
    constant_bg_boundary_set,
)
import umot.ellipticity as el
from umot.errors import AllNodesDegenerate

SQ2 = np.sqrt(2.0) / 2.0
E1 = np.array([1.0, 0.0])
_ANGLES = np.pi * np.arange(512) / 512
XI_512 = np.stack([np.cos(_ANGLES), np.sin(_ANGLES)], axis=1)  # dense half circle


def test_certify_field_constant_background(bundle24):
    report = certify_field(bundle24)
    assert report.elliptic
    assert report.witness is None
    assert report.masked_fraction == 0.0
    assert report.global_margin > 0.1


def _bundle_of(*us):
    """A bundle whose solutions are the fields ``us``, each with its own boundary
    values as its trace (the coefficients are a placeholder)."""
    g = us[0].grid
    bundle = build_bundle(CoefficientPair.constant(g, 1.0, 0.0), [BoundaryData.zero(g)])
    b = g.boundary_indices()
    return dataclasses.replace(
        bundle, solutions=tuple((BoundaryData(g, u.values[b]), u) for u in us)
    )


def test_node_geometry():
    g = Grid.unit_square(17)
    X, Y = g.coords()
    u = ScalarField(g, X)
    bundle = _bundle_of(u)
    (geo,) = el._geometry(bundle)
    F, u_ref, mask = geo
    assert u_ref is u and F is bundle.gradients[0]  # referenced, not copied
    assert not mask.any()
    theta_all, d_all = el._theta_d(geo, slice(None))
    assert np.abs(theta_all[:, 0] - 1.0).max() < 1e-12
    assert np.abs(d_all - X).max() < 1e-12
    # theta and d are formed on each call, at every node or at the nodes asked for
    nodes = g.interior_indices()[::5]
    theta, d = el._theta_d(geo, nodes)
    assert np.array_equal(theta, theta_all[nodes])
    assert np.array_equal(d, d_all[nodes])
    assert np.array_equal(el._d_parts(geo, nodes)[3], d)  # d without forming theta

    ((_, _, mask_flat),) = el._geometry(_bundle_of(ScalarField.constant(g, 1.0)))
    assert mask_flat.all()

    # d = 1 and theta = v hold for the sampled exponential up to the O(h^2)
    # error of the discrete gradient
    v = np.array([0.6, 0.8])
    (geo_exp,) = el._geometry(_bundle_of(ScalarField(g, np.exp(v[0] * X + v[1] * Y))))
    theta_exp, d_exp = el._theta_d(geo_exp, slice(None))
    assert np.abs(d_exp - 1.0).max() < 2e-3
    assert np.abs(theta_exp - v).max() < 2e-3


def _harmonic_bundle(n, *traces):
    """Bundle at gamma = 1, sigma = 0, where linear traces extend exactly."""
    g = Grid.unit_square(n)
    coeffs = CoefficientPair.constant(g, 1.0, 0.0)
    return build_bundle(coeffs, [BoundaryData.from_function(g, f) for f in traces])


def test_certify_field_two_coordinate_solutions_fails():
    # first half of the 2-D three-solution lemma: the harmonic x and y alone
    # lose rank where their light cones cross, at 45 degrees; one solution
    # alone has rank at most 1 everywhere.  Fewer than three rows never span
    # the J-by-3 closed form, so the margin is 0.
    for n in (17, 25):
        assert not certify_field(_harmonic_bundle(n, lambda x, y: x)).elliptic
        report = certify_field(_harmonic_bundle(n, lambda x, y: x, lambda x, y: y))
        assert not report.elliptic
        assert report.global_margin < 1e-15
        node, xi = report.witness
        assert np.abs(np.abs(xi) - SQ2).max() < 1e-12


def _heterogeneous_bundle(n):
    """Traces 1 + x, 1 + y, 1 + x + y on a varying background: theta and d vary."""
    g = Grid.unit_square(n)
    coeffs = CoefficientPair(
        ScalarField.from_function(g, lambda x, y: 1.0 + 0.2 * np.sin(3 * x) * y),
        ScalarField.from_function(g, lambda x, y: 0.3 + 0.1 * x),
    )
    traces = (lambda x, y: 1 + x, lambda x, y: 1 + y, lambda x, y: 1 + x + y)
    return build_bundle(coeffs, [BoundaryData.from_function(g, f) for f in traces])


def _symbol_smin(bundle, nodes, xis):
    """Smallest singular value of the J-by-2 symbol, per node and sampled xi."""
    theta, d = zip(*(el._theta_d(geo, nodes) for geo in el._geometry(bundle)))
    theta, q = np.stack(theta), np.stack(d) ** 2  # (J, m, 2) and (J, m)
    p = 1.0 - 2.0 * np.einsum("jmc,kc->mkj", theta, xis) ** 2  # (m, k, J)
    sym = np.stack([p, np.broadcast_to(-q.T[:, None, :], p.shape)], axis=-1)
    return np.linalg.svd(sym, compute_uv=False)[..., -1]  # (m, k)


def test_certify_field_closed_form_matches_dense_sampling():
    # the closed form is the exact minimum over xi: at or below a 512-sample
    # minimum (to round-off), and within 1e-3 of it
    bundle = _heterogeneous_bundle(24)
    report = certify_field(bundle)
    assert report.elliptic
    sampled = _symbol_smin(bundle, bundle.grid.interior_indices(), XI_512).min()
    assert report.global_margin <= sampled * (1.0 + 1e-12)
    assert (sampled - report.global_margin) / sampled < 1e-3
    # the threshold's row scale is the exact max of sqrt(p^2 + q^2) = sqrt(1 + d^4)
    d4 = max((el._theta_d(geo, slice(None))[1] ** 4).max() for geo in el._geometry(bundle))
    assert report.threshold == pytest.approx(1e-6 * np.sqrt(1.0 + d4), rel=1e-14)


def test_certify_field_witness_attains_margin():
    # a threshold above every margin forces a witness at the minimizing node;
    # there the J-by-2 symbol at the witness xi has the node's margin as its
    # smallest singular value, and no sampled xi does better
    bundle = _heterogeneous_bundle(24)
    report = certify_field(bundle, margin_threshold=10.0)
    assert not report.elliptic
    node, xi = report.witness
    assert abs(np.linalg.norm(xi) - 1.0) < 1e-15
    at_witness = _symbol_smin(bundle, [node], xi[None, :])[0, 0]
    assert abs(at_witness - report.global_margin) < 1e-12
    assert _symbol_smin(bundle, [node], XI_512).min() >= at_witness - 1e-12


@pytest.mark.parametrize("threshold", [1e-6, 10.0])
def test_certify_field_block_size_changes_nothing(threshold, monkeypatch):
    # 484 certified interior nodes: blocks of 7 (the last one short) against
    # one block holding them all give bit-identical margins and witnesses
    bundle = _heterogeneous_bundle(24)
    reports = []
    for block in (7, bundle.grid.n_nodes + 1):
        monkeypatch.setattr(el, "CERTIFY_BLOCK", block)
        reports.append(certify_field(bundle, margin_threshold=threshold))
    small, whole = reports
    assert small.global_margin == whole.global_margin
    assert small.elliptic == whole.elliptic == (threshold < 1.0)
    if whole.witness is not None:
        assert small.witness[0] == whole.witness[0]
        assert np.array_equal(small.witness[1], whole.witness[1])


def _gram_stack(kind, scale, rng):
    """(200, 3, 3) symmetric PSD matrices of one adversarial kind at one scale."""
    if kind.startswith("rows J="):
        rows = rng.standard_normal((200, int(kind[-1]), 3))
        G = rows.transpose(0, 2, 1) @ rows
    else:
        spectrum = {
            "equal top pair": [1.0, 1.0, 0.3],
            "top pair 1e-9 apart": [1.0, 1.0 - 1e-9, 0.3],
            "equal bottom pair": [1.0, 0.3, 0.3],
            "bottom pair 1e-9 apart": [1.0, 0.3 + 1e-9, 0.3],
            "rank 1": [1.0, 0.0, 0.0],
            "rank 2": [1.0, 0.5, 0.0],
            "multiple of I": [1.0, 1.0, 1.0],
            "zero": [0.0, 0.0, 0.0],
        }[kind]
        Q = np.linalg.qr(rng.standard_normal((200, 3, 3)))[0]
        G = Q @ (np.array(spectrum)[None, :, None] * Q.transpose(0, 2, 1))
        G[:5] = np.diag(spectrum)  # axis-aligned: zero off-diagonal entries
    G = 0.5 * (G + G.transpose(0, 2, 1))
    return scale * G


@pytest.mark.parametrize("scale", [1e-150, 1e-8, 1.0, 1e8, 1e150])
@pytest.mark.parametrize(
    "kind",
    ["rows J=3", "rows J=5", "equal top pair", "top pair 1e-9 apart", "equal bottom pair",
     "bottom pair 1e-9 apart", "rank 1", "rank 2", "multiple of I", "zero"],
)
def test_smallest_eigenvalue_matches_eigvalsh(kind, scale):
    # the closed form keeps every digit a Householder eigensolver keeps, also
    # at the nearly double roots where Smith's formula alone loses half
    G = _gram_stack(kind, scale, np.random.default_rng(len(kind)))
    lam = el._smallest_eigenvalue(G[:, 0, 0], G[:, 1, 1], G[:, 2, 2], G[:, 0, 1], G[:, 0, 2],
                                  G[:, 1, 2])
    ref = np.linalg.eigvalsh(G)
    assert np.all(np.abs(lam - ref[:, 0]) <= 1e-13 * np.abs(ref[:, -1]))


def _svd_everywhere(bundle):
    """Reference certification: the SVD margin of every certified node."""
    geometry = el._geometry(bundle)
    mask = np.any([m for _, _, m in geometry], axis=0)
    nodes = bundle.grid.interior_indices()
    nodes = nodes[~mask[nodes]]
    rows = el._symbol_rows(geometry, nodes)
    margins = np.linalg.svd(rows, compute_uv=False)[:, -1]
    k = int(np.argmin(margins))
    z = np.linalg.svd(rows[k])[2][-1]
    t = 0.5 * np.arctan2(z[1], z[0])
    return margins[k], nodes[k], np.array([np.cos(t), np.sin(t)])


def _cgo_bundle48():
    g = Grid.unit_square(48)
    coeffs = CoefficientPair(
        ScalarField.from_function(g, lambda x, y: 1.0 + 0.2 * np.sin(3 * x) * y),
        ScalarField.from_function(g, lambda x, y: 0.3 + 0.1 * x),
    )
    return build_bundle(coeffs, cgo_boundary_set(g, 4.0, 1.0, coeffs))


def _two_solution_bundle24():
    bundle = _heterogeneous_bundle(24)
    return dataclasses.replace(bundle, solutions=bundle.solutions[:2])


@pytest.mark.parametrize(
    "make, margin, node",
    [(_cgo_bundle48, 0.4779361245070459, 2254), (_two_solution_bundle24, 0.0, 25)],
)
@pytest.mark.parametrize("threshold", [1e-6, 10.0])
def test_certify_field_keeps_svd_minimizer(make, margin, node, threshold):
    # the Gram estimate finds the node that an SVD of every node finds, so the
    # margin, verdict and witness are the SVD's; the literal margins and nodes
    # are those of the batched-eigvalsh estimate (J = 2 pads a zero row)
    bundle = make()
    report = certify_field(bundle, margin_threshold=threshold)
    ref_margin, ref_node, ref_xi = _svd_everywhere(bundle)
    assert report.global_margin == ref_margin
    assert report.global_margin == pytest.approx(margin, rel=1e-12, abs=1e-300)
    assert report.elliptic == (margin > report.threshold)
    if not report.elliptic:
        assert report.witness[0] == ref_node == node
        assert np.array_equal(report.witness[1], ref_xi)


@pytest.mark.parametrize("lowered", [0.0, 1e-6])
def test_certify_field_global_margin_is_an_svd_value(dirs3, lowered, monkeypatch):
    # the linearized-64 benchmark's setup: constant background, exponential
    # traces along e1, e2 and the diagonal, where the smallest margins agree
    # to 1e-15 and another node's Gram estimate can lie below the rechecked
    # minimizer.  Lowering every estimate by 0.5 to 1.5 times ``lowered``
    # forces that case; the nodes are rechecked until the minimum is an SVD
    # value, and it equals the minimum of an SVD of every interior node
    estimate = el._smallest_eigenvalue
    rng = np.random.default_rng(3)

    def lowered_estimate(*gram):
        lam = estimate(*gram)
        return lam - lowered * (0.5 + rng.random(lam.size))

    monkeypatch.setattr(el, "_smallest_eigenvalue", lowered_estimate)
    g = Grid.unit_square(64)
    bundle = build_bundle(
        CoefficientPair.constant(g, 1.0, 0.5), constant_bg_boundary_set(g, 1.0, 0.5, dirs3)
    )
    report = certify_field(bundle)
    assert report.masked_count == 0
    assert report.global_margin == _svd_everywhere(bundle)[0]


def test_certify_field_scale_invariance(bundle24):
    report = certify_field(bundle24)
    g = bundle24.grid
    scaled = dataclasses.replace(bundle24, solutions=tuple(
        (BoundaryData(g, 3.0 * f.values), ScalarField(g, 3.0 * u.values))
        for f, u in bundle24.solutions
    ))
    # theta and d are unchanged under a common positive scaling of u
    every = slice(None)
    for geo_s, geo in zip(el._geometry(scaled), el._geometry(bundle24)):
        (theta_s, d_s), (theta, d) = el._theta_d(geo_s, every), el._theta_d(geo, every)
        assert np.abs(d_s - d).max() < 1e-12
        assert np.abs(theta_s - theta).max() < 1e-12
    assert report.elliptic


def test_certify_field_row_removal_never_helps(bundle24):
    full = certify_field(bundle24).global_margin
    import dataclasses

    sub = dataclasses.replace(bundle24, solutions=bundle24.solutions[:2])
    reduced = certify_field(sub).global_margin
    assert reduced <= full + 1e-12


def test_certify_field_masked_bundle():
    # a zero trace on sigma = 0 has the constant solution u = 0, exactly, so
    # its gradient and its trace vanish everywhere and the floor is 0: every
    # node of that solution is masked (|grad u| <= 0), and one such solution
    # leaves no interior node to certify
    g = Grid.unit_square(17)
    coeffs = CoefficientPair.constant(g, 1.0, 0.0)
    fx = BoundaryData.from_function(g, lambda x, y: x)
    fy = BoundaryData.from_function(g, lambda x, y: y)
    bundle = build_bundle(coeffs, [fx, fy, BoundaryData.zero(g)])
    (_, _, mask_x), (_, _, mask_y), (_, _, mask_0) = el._geometry(bundle)
    assert not mask_x.any() and not mask_y.any()
    assert not bundle.solutions[2][1].values.any()
    assert mask_0.all()
    with pytest.raises(AllNodesDegenerate):
        certify_field(bundle)


def test_certify_field_masks_round_off_constant_solutions():
    # constant traces 1, 2 and -1 on sigma = 0 have constant solutions, whose
    # computed gradients are round-off, not zero; max |grad u_j| alone would
    # scale the floor down to that round-off, but max |f_j| / diameter keeps
    # it at about 1e-8, so every node is masked and nothing is certified
    g = Grid.unit_square(17)
    bundle = build_bundle(
        CoefficientPair.constant(g, 1.0, 0.0),
        [BoundaryData(g, np.full(g.n_boundary, c)) for c in (1.0, 2.0, -1.0)],
    )
    assert all(m.all() for _, _, m in el._geometry(bundle))
    with pytest.raises(AllNodesDegenerate):
        certify_field(bundle)


def test_certify_field_refuses_above_masked_interior_limit(bundle24):
    # a flat 6-by-6 block of nodes in one solution zeroes the central
    # differences of the 4-by-4 block inside it; those 16 masked nodes are
    # 3.3% of the 22-by-22 interior, above MASKED_INTERIOR_LIMIT.  At a zero
    # threshold the margin of the nodes left passes, so the mask alone
    # refuses certification, and ``require`` names the masked share
    from umot.ellipticity import MASKED_INTERIOR_LIMIT
    from umot.errors import NotElliptic

    g = bundle24.grid
    (f, u), *rest = bundle24.solutions
    flat = u.as_matrix().copy()
    flat[8:14, 8:14] = flat[10, 10]
    bundle = dataclasses.replace(
        bundle24, solutions=((f, ScalarField(g, flat.ravel())), *rest)
    )
    expected = np.zeros((g.ny, g.nx), dtype=bool)
    expected[9:13, 9:13] = True
    assert np.array_equal(el._geometry(bundle)[0][2], expected.ravel())

    report = certify_field(bundle, margin_threshold=0.0)
    assert report.global_margin > report.threshold == 0.0
    assert report.elliptic is False
    assert report.masked_count == 16
    assert report.masked_fraction == 16 / 484 > MASKED_INTERIOR_LIMIT
    with pytest.raises(NotElliptic, match=r"3\.3% of interior nodes masked"):
        report.require()


def test_certify_field_guards_threshold(bundle24):
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="margin threshold"):
            certify_field(bundle24, margin_threshold=bad)
    report = certify_field(bundle24)
    assert report.masked_count == 0


def test_certify_directions_known_sets(dirs3, dirs2):
    assert certify_directions(dirs3).elliptic
    d3d = DirectionSet(3, tuple(np.eye(3)) + (np.ones(3) / np.sqrt(3),))
    assert certify_directions(d3d).elliptic

    r2 = certify_directions(dirs2)
    assert not r2.elliptic
    assert np.abs(r2.witness[1] - np.array([SQ2, SQ2])).max() < 1e-12

    r1 = certify_directions(DirectionSet(2, (E1,)))
    assert not r1.elliptic
    assert np.abs(r1.witness[1] - np.array([SQ2, SQ2])).max() < 1e-12


def test_certify_directions_invariances(dirs3):
    base = certify_directions(dirs3).global_margin
    permuted = DirectionSet(2, (dirs3.vectors[2], dirs3.vectors[0], dirs3.vectors[1]))
    flipped = DirectionSet(2, (-dirs3.vectors[0], dirs3.vectors[1], dirs3.vectors[2]))
    assert certify_directions(permuted).global_margin == pytest.approx(base, rel=1e-9)
    assert certify_directions(flipped).global_margin == pytest.approx(base, rel=1e-9)


def test_check_sign_vector_condition():
    # the sign-vector lemma in 3-D: {e1, e2, e3, (0, w)} certifies exactly
    # when no signed sum +-w_1 +- w_2 equals 1
    verdicts = []
    for ang in np.arange(24) * np.pi / 12:
        w = np.array([np.cos(ang), np.sin(ang)])
        signed_sums = [s1 * w[0] + s2 * w[1] for s1 in (1, -1) for s2 in (1, -1)]
        condition = all(abs(s - 1.0) > 1e-9 for s in signed_sums)
        dirs = DirectionSet(3, tuple(np.eye(3)) + (np.array([0.0, w[0], w[1]]),))
        assert certify_directions(dirs).elliptic == condition
        verdicts.append(condition)
    assert verdicts.count(False) == 4  # w on an axis repeats e2 or e3
    with pytest.raises(NotUnitVector):
        DirectionSet(3, tuple(np.eye(3)) + ((0.0, 0.5, 0.5),))


def test_cgo_boundary_set_formulas():
    g = Grid.unit_square(17)
    coeffs = CoefficientPair.constant(g, 1.0, 0.0)
    traces = cgo_boundary_set(g, M=1.0, k=1.0, background=coeffs)
    assert len(traces) == 5
    X, Y = g.coords()
    b = g.boundary_indices()
    f1 = np.exp(X[b]) * np.cos(Y[b])
    assert np.abs(traces[0].values - f1).max() < 1e-12
    assert np.abs(traces[2].values - traces[0].values - traces[1].values).max() < 1e-14
    with pytest.raises(ValueError):
        cgo_boundary_set(g, 0.5, 1.0, coeffs)
    with pytest.raises(ValueError):
        cgo_boundary_set(g, 4.0, 0.0, coeffs)


def test_cgo_bundle_certifies():
    g = Grid.unit_square(33)
    coeffs = CoefficientPair.constant(g, 1.0, 0.0)
    traces = cgo_boundary_set(g, M=4.0, k=1.0, background=coeffs)
    bundle = build_bundle(coeffs, traces)
    report = certify_field(bundle)
    assert report.elliptic


def test_constant_bg_boundary_set(dirs3, dirs2):
    g = Grid.unit_square(17)
    traces = constant_bg_boundary_set(g, 1.0, 1.0, dirs3)
    X, Y = g.coords()
    b = g.boundary_indices()
    assert np.abs(traces[0].values - np.exp(X[b])).max() < 1e-12
    with pytest.raises(DirectionsNotCertified):
        constant_bg_boundary_set(g, 1.0, 1.0, dirs2)


def test_constant_bg_geometry_ratio(bundle24):
    # d_i = sqrt(gamma0 / sigma0) for the exact exponential backgrounds
    expected = np.sqrt(1.0 / 0.5)
    iidx = bundle24.grid.interior_indices()
    for geo in el._geometry(bundle24):
        assert np.abs(el._theta_d(geo, iidx)[1] - expected).max() < 5e-3


def test_three_solution_determinant_system():
    # second half of the 2-D three-solution lemma: adding the polarization
    # u_1 + u_2 restores rank 2 at every node and frequency, for the pure
    # coordinates and for shifted ones whose value ratios d_1, d_2 differ
    rng = np.random.default_rng(1)
    for n in (17, 25):
        a1, a2 = rng.uniform(0.2, 2.0, 2)
        for c1, c2 in ((0.0, 0.0), (a1, a2)):
            bundle = _harmonic_bundle(
                n, lambda x, y: c1 + x, lambda x, y: c2 + y, lambda x, y: c1 + c2 + x + y
            )
            report = certify_field(bundle)
            assert report.elliptic
            assert report.global_margin > 100.0 * report.threshold
