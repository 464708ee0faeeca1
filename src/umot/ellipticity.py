"""Symbol-level ellipticity certification and boundary-set generators.

The linearized reconstruction is stable exactly when, at every point and for
every unit frequency xi, the J-by-2 matrix with rows

    ( 1 - 2 (theta_j . xi)^2 ,  -d_j^2 )

has rank 2 (the reduced form; the unreduced rows are
( gamma (|F_j|^2 - 2 (F_j . xi)^2), -eta u_j^2 )).  This module evaluates the
underlying quadratic forms, scans sampled frequencies for rank deficiency,
checks the constant-background direction criterion
(xi.v_i)^2 = (xi.v_j)^2, and generates the exponential boundary-condition
families that provably achieve ellipticity.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .errors import (
    AllNodesDegenerate,
    DegenerateNode,
    DirectionsNotCertified,
    GridMismatch,
    NotUnitVector,
)
from .field_core import BoundaryData, Grid, ScalarField
from .forward import CoefficientPair, SolutionBundle

DEFAULT_XI_2D = 128
DEFAULT_XI_3D = 10000
DEFAULT_MARGIN_THRESHOLD = 1e-6
MASKED_INTERIOR_LIMIT = 0.01


@dataclass(frozen=True)
class DirectionSet:
    """Unit vectors v_i used to steer constant-background solutions."""

    dim: int
    vectors: tuple

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError("direction sets live in dimension 2 or 3")
        if len(self.vectors) == 0:
            raise ValueError("direction set must be nonempty")
        vecs = []
        for v in self.vectors:
            v = np.asarray(v, dtype=float)
            if v.shape != (self.dim,):
                raise ValueError("direction has wrong dimension")
            if abs(np.linalg.norm(v) - 1.0) > 1e-12:
                raise NotUnitVector("directions must have unit length")
            v = v.copy()
            v.setflags(write=False)
            vecs.append(v)
        object.__setattr__(self, "vectors", tuple(vecs))

    def __len__(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True)
class EllipticityReport:
    """Certification outcome with per-point margins and failure witness.

    It records its settings, ``xi_samples`` and the relative ``margin_threshold``;
    ``threshold`` is the absolute cut, the relative one times the largest row
    norm (equal to it for a direction set).  ``margin_field`` is None for
    direction-set certification (no grid).  ``witness`` is (node_index, xi),
    node_index None for direction sets, present exactly when not certified.
    """

    global_margin: float
    elliptic: bool
    witness: tuple | None
    xi_samples: int
    threshold: float
    margin_threshold: float
    margin_field: ScalarField | None = None
    masked_fraction: float = 0.0
    masked_count: int = 0

    def __post_init__(self):
        if self.elliptic and self.witness is not None:
            raise ValueError("certified report must not carry a witness")
        if not self.elliptic and self.witness is None:
            raise ValueError("failed report must carry a witness")


def quadratic_form_p(theta, xi) -> float:
    """Light-cone form 1 - 2 (theta . xi)^2 for unit theta and xi."""
    theta = np.asarray(theta, dtype=float)
    xi = np.asarray(xi, dtype=float)
    return float(1.0 - 2.0 * (theta @ xi) ** 2)


def pairwise_form_pjk(theta_j, d_j, theta_k, d_k, xi) -> float:
    """Antisymmetric pair form d_j^2 p_k - d_k^2 p_j."""
    return float(
        d_j ** 2 * quadratic_form_p(theta_k, xi)
        - d_k ** 2 * quadratic_form_p(theta_j, xi)
    )


def symbol_matrix(geometries, node: int, xi, reduced: bool = True, bundle=None):
    """J-by-2 symbol matrix at one node for a unit frequency xi.

    Reduced rows: (1 - 2 (theta_j.xi)^2, -d_j^2).  The unreduced variant
    needs the bundle for gamma, eta, and the solution values; its rows are
    (gamma (|F_j|^2 - 2 (F_j.xi)^2), -eta u_j^2).
    """
    xi = np.asarray(xi, dtype=float)
    if reduced:
        rows = []
        for geo in geometries:
            if geo.degenerate_mask[node]:
                raise DegenerateNode(f"node {node} is degenerate")
            th = geo.theta.values[node]
            rows.append([1.0 - 2.0 * (th @ xi) ** 2, -geo.d.values[node] ** 2])
        return np.asarray(rows)
    if bundle is None:
        raise ValueError("unreduced symbol matrix needs the bundle")
    gam = bundle.coeffs.gamma.values[node]
    rows = []
    for geo, (_, u) in zip(geometries, bundle.solutions):
        F = geo.F.values[node]
        mag2 = F @ F
        rows.append(
            [gam * (mag2 - 2.0 * (F @ xi) ** 2), -bundle.eta * u.values[node] ** 2]
        )
    return np.asarray(rows)


def _half_circle(n: int) -> np.ndarray:
    ang = np.pi * np.arange(n) / n
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


def _fibonacci_sphere(n: int) -> np.ndarray:
    k = np.arange(n) + 0.5
    phi = np.arccos(1.0 - 2.0 * k / n)
    theta = np.pi * (1.0 + np.sqrt(5.0)) * k
    return np.stack(
        [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)],
        axis=1,
    )


def _min_singular_2col(col_p: np.ndarray, col_q: np.ndarray) -> np.ndarray:
    """Smallest singular value of J-by-2 matrices given as (J, ...) columns."""
    g11 = np.sum(col_p ** 2, axis=0)
    g12 = np.sum(col_p * col_q, axis=0)
    g22 = np.sum(col_q ** 2, axis=0)
    tr = g11 + g22
    disc = np.sqrt(np.maximum((g11 - g22) ** 2 + 4.0 * g12 ** 2, 0.0))
    lam = 0.5 * (tr - disc)
    return np.sqrt(np.maximum(lam, 0.0))


def certify_field(
    bundle: SolutionBundle,
    n_xi: int = DEFAULT_XI_2D,
    margin_threshold: float = DEFAULT_MARGIN_THRESHOLD,
    reduced: bool = True,
) -> EllipticityReport:
    """Scan every non-degenerate node and sampled xi for rank deficiency.

    The forms are even in xi so sampling covers the half circle.  The margin
    at a node is the smallest singular value over the samples, the global
    margin its minimum over the interior nodes (the pointwise condition lives
    on the open domain; boundary nodes only carry the trace).  The
    certification threshold is ``margin_threshold`` relative to the largest
    row norm encountered, and a bundle with more than 1% masked interior
    nodes is not certified.
    """
    if n_xi < 16:
        raise ValueError("need at least 16 frequency samples")
    grid = bundle.grid
    n = grid.n_nodes
    xis = _half_circle(n_xi)

    mask = np.zeros(n, dtype=bool)
    for geo in bundle.geometry:
        mask |= geo.degenerate_mask
    interior = grid.interior_indices()
    if mask[interior].all():
        raise AllNodesDegenerate("no interior node carries usable gradient geometry")

    if reduced:
        TH = np.stack([geo.theta.values for geo in bundle.geometry])  # (J, n, 2)
        q = -np.stack([geo.d.values for geo in bundle.geometry]) ** 2  # (J, n)
    else:
        TH = np.stack([geo.F.values for geo in bundle.geometry])
        mag2 = np.sum(TH ** 2, axis=2)
        gam = bundle.coeffs.gamma.values[None, :]
        q = -bundle.eta * np.stack([u.values for _, u in bundle.solutions]) ** 2

    margins = np.full(n, np.inf)
    arg_xi = np.zeros(n, dtype=int)
    row_scale = 0.0
    for k, xi in enumerate(xis):
        t = TH @ xi  # (J, n)
        if reduced:
            p = 1.0 - 2.0 * t ** 2
        else:
            p = gam * (mag2 - 2.0 * t ** 2)
        row_scale = max(row_scale, float(np.sqrt((p ** 2 + q ** 2).max())))
        smin = _min_singular_2col(p, q)
        better = smin < margins
        margins[better] = smin[better]
        arg_xi[better] = k

    margins[mask] = 0.0
    inside = np.zeros(n, dtype=bool)
    inside[interior] = True
    valid = inside & ~mask
    global_margin = float(margins[valid].min())
    threshold = margin_threshold * row_scale
    masked_fraction = float(mask[interior].mean())

    elliptic = global_margin > threshold and masked_fraction <= MASKED_INTERIOR_LIMIT
    witness = None
    if not elliptic:
        cand = np.where(valid)[0]
        node = int(cand[np.argmin(margins[cand])])
        witness = (node, xis[arg_xi[node]].copy())

    margin_field = ScalarField(grid, margins)
    return EllipticityReport(
        global_margin=global_margin,
        elliptic=elliptic,
        witness=witness,
        xi_samples=n_xi,
        threshold=threshold,
        margin_threshold=margin_threshold,
        margin_field=margin_field,
        masked_fraction=masked_fraction,
        masked_count=int(mask[interior].sum()),
    )


def _direction_candidates(dirs: DirectionSet) -> list[np.ndarray]:
    """Analytic witness candidates for the squared-projection criterion.

    A common zero of (xi.v_i)^2 = (xi.v_j)^2 lies, for every pair, on one of
    the planes with normals v_i - v_j or v_i + v_j.  In 2D those planes are
    lines and the candidates are their directions; in 3D candidates come from
    intersecting two such planes (cross products of the normals).
    """
    vecs = dirs.vectors
    normals = []
    for vi, vj in combinations(vecs, 2):
        for nrm in (vi - vj, vi + vj):
            if np.linalg.norm(nrm) > 1e-12:
                normals.append(nrm)
    out = []

    def canonical(x):
        x = x / np.linalg.norm(x)
        for comp in x:
            if abs(comp) > 1e-12:
                return x if comp > 0 else -x
        return x

    if dirs.dim == 2:
        for nrm in normals:
            out.append(canonical(np.array([-nrm[1], nrm[0]])))
    else:
        for na, nb in combinations(normals, 2):
            cr = np.cross(na, nb)
            if np.linalg.norm(cr) > 1e-10:
                out.append(canonical(cr))
    return out


def certify_directions(dirs: DirectionSet) -> EllipticityReport:
    """Certify a direction set for the constant-background inversion.

    The margin at a frequency is the largest pairwise defect
    |(xi.v_i)^2 - (xi.v_j)^2|; certification requires it to exceed
    DEFAULT_MARGIN_THRESHOLD for every unit xi.  Analytic candidates (the only
    places a common zero can hide) are checked alongside a dense sample:
    uniform half-circle angles in 2D, a Fibonacci sphere in 3D.  A single
    direction can never certify; its witness is the 45-degree rotation where
    its own light cone degenerates.
    """
    n_xi = DEFAULT_XI_2D if dirs.dim == 2 else DEFAULT_XI_3D
    vecs = np.stack(dirs.vectors)

    if len(dirs) == 1:
        v = vecs[0]
        if dirs.dim == 2:
            w = np.array([-v[1], v[0]])
        else:
            w = np.array([-v[1], v[0], 0.0])
            if np.linalg.norm(w) < 1e-12:
                w = np.array([0.0, -v[2], v[1]])
            w /= np.linalg.norm(w)
        witness = (v + w) / np.linalg.norm(v + w)
        return EllipticityReport(
            global_margin=0.0,
            elliptic=False,
            witness=(None, witness),
            xi_samples=0,
            threshold=DEFAULT_MARGIN_THRESHOLD,
            margin_threshold=DEFAULT_MARGIN_THRESHOLD,
        )

    candidates = _direction_candidates(dirs)
    samples = _half_circle(n_xi) if dirs.dim == 2 else _fibonacci_sphere(n_xi)
    xis = np.concatenate([np.stack(candidates), samples]) if candidates else samples

    proj2 = (xis @ vecs.T) ** 2  # (n_xi', J)
    pair_ids = list(combinations(range(len(dirs)), 2))
    defects = np.stack(
        [np.abs(proj2[:, i] - proj2[:, j]) for i, j in pair_ids], axis=1
    )
    margin_per_xi = defects.max(axis=1)
    k = int(np.argmin(margin_per_xi))
    global_margin = float(margin_per_xi[k])

    elliptic = global_margin > DEFAULT_MARGIN_THRESHOLD
    witness = None if elliptic else (None, xis[k].copy())
    return EllipticityReport(
        global_margin=global_margin,
        elliptic=elliptic,
        witness=witness,
        xi_samples=n_xi,
        threshold=DEFAULT_MARGIN_THRESHOLD,
        margin_threshold=DEFAULT_MARGIN_THRESHOLD,
    )


def check_sign_vector_condition(w) -> bool:
    """True when no signed sum +-w_1 +- ... +- w_{n-1} equals 1 (within 1e-9).

    Used to pick the extra direction (0, w) completing the coordinate
    directions to an elliptic set in dimension n.
    """
    w = np.asarray(w, dtype=float)
    if abs(np.linalg.norm(w) - 1.0) > 1e-12:
        raise NotUnitVector("sign-condition vector must have unit length")
    for signs in product((1.0, -1.0), repeat=w.size):
        if abs(float(np.dot(signs, w)) - 1.0) <= 1e-9:
            return False
    return True


def cgo_boundary_set(
    grid: Grid, M: float = 4.0, k: float = 1.0, background: CoefficientPair | None = None
) -> list[BoundaryData]:
    """Five exponential-oscillatory traces achieving ellipticity for large M.

    u_1 = e^{M|k|x} cos(M|k|y), u_2 = e^{M|k|x} sin(M|k|y), u_3 = u_1 + u_2,
    and u_4, u_5 repeat u_1, u_2 with M = 1.  On non-constant diffusion each
    trace is scaled by 1/sqrt(gamma) at the boundary.
    """
    if M < 1.0:
        raise ValueError("oscillation strength M must be at least 1")
    if k == 0.0:
        raise ValueError("wavenumber k must be nonzero")
    X, Y = grid.coords()
    b = grid.boundary_indices()
    xb, yb = X[b], Y[b]
    if background is not None:
        if background.grid != grid:
            raise GridMismatch("background on the wrong grid")
        scale = 1.0 / np.sqrt(background.gamma.values[b])
    else:
        scale = np.ones(b.size)
    out = []
    for m in (M, 1.0):
        r = m * abs(k)
        e = np.exp(r * xb)
        u1 = scale * e * np.cos(r * yb)
        u2 = scale * e * np.sin(r * yb)
        out.extend([u1, u2])
        if m == M:
            out.append(u1 + u2)
    # u1, u2, u3 = u1 + u2, u4, u5 (for M = 1 the loop appends a sixth trace)
    return [BoundaryData(grid, f) for f in out[:5]]


def constant_bg_boundary_set(
    grid: Grid, gamma0: float, sigma0: float, dirs: DirectionSet
) -> list[BoundaryData]:
    """Traces of the exact exponentials exp(sqrt(sigma0/gamma0) x.v_i).

    These solve the constant-coefficient equation exactly, so the discrete
    solutions reproduce theta_i = v_i and d_i = sqrt(gamma0/sigma0) up to
    discretization error.  The direction set must certify first.
    """
    if gamma0 <= 0.0 or sigma0 <= 0.0:
        raise ValueError("constant background needs gamma0 > 0 and sigma0 > 0")
    if dirs.dim != 2:
        raise ValueError("grid traces require 2D directions")
    report = certify_directions(dirs)
    if not report.elliptic:
        raise DirectionsNotCertified(
            f"direction set margin {report.global_margin:.3e} below threshold"
        )
    rate = np.sqrt(sigma0 / gamma0)
    X, Y = grid.coords()
    b = grid.boundary_indices()
    out = []
    for v in dirs.vectors:
        out.append(BoundaryData(grid, np.exp(rate * (v[0] * X[b] + v[1] * Y[b]))))
    return out


def verify_2d_three_solution_system(theta1, theta2, d1: float, d2: float, xi) -> bool:
    """Evaluate the three polarization determinant equations at one frequency.

    With orthonormal theta_1, theta_2 and alpha the angle between theta_1 and
    xi, the equations

        (1 - 2 cos^2 a) d2^2 = (1 - 2 sin^2 a) d1^2
        -2 cos a sin a d1^2  = (1 - 2 cos^2 a) d1 d2
        -2 cos a sin a d2^2  = (1 - 2 sin^2 a) d1 d2

    can only hold simultaneously in degenerate cases; True means all three
    vanish within 1e-10.
    """
    theta1 = np.asarray(theta1, dtype=float)
    theta2 = np.asarray(theta2, dtype=float)
    xi = np.asarray(xi, dtype=float)
    for v in (theta1, theta2, xi):
        if abs(np.linalg.norm(v) - 1.0) > 1e-10:
            raise NotUnitVector("inputs must be unit vectors")
    if abs(theta1 @ theta2) > 1e-10:
        raise ValueError("theta_1 and theta_2 must be orthogonal")
    ca = float(theta1 @ xi)
    sa = float(theta2 @ xi)
    det1 = (1.0 - 2.0 * ca ** 2) * d2 ** 2 - (1.0 - 2.0 * sa ** 2) * d1 ** 2
    det2 = -2.0 * ca * sa * d1 ** 2 - (1.0 - 2.0 * ca ** 2) * d1 * d2
    det3 = -2.0 * ca * sa * d2 ** 2 - (1.0 - 2.0 * sa ** 2) * d1 * d2
    return max(abs(det1), abs(det2), abs(det3)) <= 1e-10
