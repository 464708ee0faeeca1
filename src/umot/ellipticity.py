"""Symbol-level ellipticity certification and boundary-set generators.

The linearized reconstruction is stable exactly when, at every point and for
every unit frequency xi, the J-by-2 symbol with rows

    ( 1 - 2 (theta_j . xi)^2 ,  -d_j^2 )

has rank 2.  ``certify_field`` computes the minimum over xi in closed form, as
the smallest singular value of a J-by-3 matrix per node;
``certify_directions`` checks the constant-background direction criterion
(xi.v_i)^2 = (xi.v_j)^2, where the symbol of steered exponential solutions
reduces to the directions alone.  These two are the only evaluators of the
symbol, and ``certified_planar`` is the one check of a constant-background
direction set.  The node geometry is formed here too, from the bundle's
gradients F_j and solutions u_j: theta_j, d_j and the degenerate nodes,
where |grad u_j| is at most GRAD_FLOOR_REL of its scale (a constant of the
code, not a setting).  The module also generates the exponential
boundary-condition families that provably achieve ellipticity.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    AllNodesDegenerate,
    DirectionsNotCertified,
    GridMismatch,
    NotElliptic,
    NotUnitVector,
)
from .field_core import BoundaryData, Grid
from .forward import CoefficientPair, SolutionBundle

DEFAULT_XI_2D = 128
DEFAULT_XI_3D = 10000
DEFAULT_MARGIN_THRESHOLD = 1e-6
MASKED_INTERIOR_LIMIT = 0.01
SVD_RECHECK_BELOW = 1e-2  # margins under this fraction of the row scale are redone by SVD
CERTIFY_BLOCK = 4096  # nodes whose Gram entries or symbol rows are formed at once
GRAD_FLOOR_REL = 1e-8  # relative gradient floor of a degenerate node; see _geometry


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
            v = np.array(v, dtype=float)  # a private copy, frozen below
            if v.shape != (self.dim,):
                raise ValueError("direction has wrong dimension")
            if abs(np.linalg.norm(v) - 1.0) > 1e-12:
                raise NotUnitVector("directions must have unit length")
            v.setflags(write=False)
            vecs.append(v)
        object.__setattr__(self, "vectors", tuple(vecs))

    def __len__(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True)
class EllipticityReport:
    """Certification outcome: the global margin and a failure witness.

    It records its relative ``margin_threshold``; ``threshold`` is the
    absolute cut, the relative one times the largest row norm (equal to it
    for a direction set).  ``witness`` is (node_index, xi), node_index None
    for direction sets, present exactly when not certified.  ``require`` is
    the one place a failed certification becomes a refusal or a warning.
    """

    global_margin: float
    elliptic: bool
    witness: tuple | None
    threshold: float
    margin_threshold: float
    masked_fraction: float = 0.0
    masked_count: int = 0

    def __post_init__(self):
        if self.elliptic and self.witness is not None:
            raise ValueError("certified report must not carry a witness")
        if not self.elliptic and self.witness is None:
            raise ValueError("failed report must carry a witness")

    def require(self, allow: bool = False) -> None:
        """Nothing if certified; else raise NotElliptic, or warn once if ``allow``."""
        if self.elliptic:
            return
        msg = f"failed certification: margin {self.global_margin:.3e}, "
        msg += f"threshold {self.threshold:.3e}"
        if self.masked_fraction > MASKED_INTERIOR_LIMIT:
            msg += f", {self.masked_fraction:.1%} of interior nodes masked"
        if not allow:
            raise NotElliptic(msg)
        warnings.warn(msg, stacklevel=2)


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


def _geometry(bundle: SolutionBundle) -> tuple:
    """(F_j, u_j, mask_j) of each solution: its gradient, itself and its degenerate nodes.

    A node is degenerate for u_j when |grad u_j| <= GRAD_FLOOR_REL times the
    larger of max |grad u_j| and max |f_j| / (grid diameter).  So a solution
    whose gradient is round-off on a nonzero trace is masked everywhere, and
    so is u_j = 0 on a zero trace, whose floor is 0.
    """
    g = bundle.grid
    diameter = float(np.hypot((g.nx - 1) * g.hx, (g.ny - 1) * g.hy))
    out = []
    for (f, u), F in zip(bundle.solutions, bundle.gradients):
        mag = F.magnitude()
        scale = max(float(mag.max()), float(np.abs(f.values).max()) / diameter)
        out.append((F, u, mag <= GRAD_FLOOR_REL * scale))
    return tuple(out)


def _d_parts(geo: tuple, nodes) -> tuple:
    """(F, mask, |F| with 1 at masked nodes, d) of one ``_geometry`` entry at
    ``nodes``: d = u / |F|, zero at the solution's masked nodes."""
    F, u, mask = geo
    F, mask = F.values[nodes], mask[nodes]
    safe = np.where(mask, 1.0, np.sqrt(F[:, 0] ** 2 + F[:, 1] ** 2))
    return F, mask, safe, np.where(mask, 0.0, u.values[nodes] / safe)


def _theta_d(geo: tuple, nodes) -> tuple:
    """(theta, d) at ``nodes``, shapes (m, 2) and (m,): theta = F / |F| as well
    as ``_d_parts``' d, both zero at masked nodes."""
    F, mask, safe, d = _d_parts(geo, nodes)
    theta = F / safe[:, None]
    theta[mask] = 0.0
    return theta, d


def _symbol_columns(geo: tuple, nodes: np.ndarray) -> tuple:
    """The three columns (theta_x^2 - theta_y^2, 2 theta_x theta_y, d^2) of one
    solution's symbol row at ``nodes``."""
    theta, d = _theta_d(geo, nodes)
    tx, ty = theta.T
    return tx * tx - ty * ty, 2.0 * tx * ty, d**2


def _symbol_rows(geometry: tuple, nodes: np.ndarray) -> np.ndarray:
    """The (nodes, max(J, 3), 3) symbol rows; zero rows pad J < 3."""
    rows = np.zeros((nodes.size, max(len(geometry), 3), 3))
    for j, geo in enumerate(geometry):
        rows[:, j, 0], rows[:, j, 1], rows[:, j, 2] = _symbol_columns(geo, nodes)
    return rows


def _blocks(nodes: np.ndarray):
    """``nodes`` in order, CERTIFY_BLOCK at a time."""
    for s in range(0, nodes.size, CERTIFY_BLOCK):
        yield nodes[s : s + CERTIFY_BLOCK]


def _gram_entries(geometry: tuple, nodes: np.ndarray) -> tuple:
    """The six entries (g00, g11, g22, g01, g02, g12) of each node's Gram matrix.

    Each is a sum over j of products of the symbol rows' three columns, so
    zero rows padding J < 3 add nothing.
    """
    g = [np.zeros(nodes.size) for _ in range(6)]
    for geo in geometry:
        a, b, c = _symbol_columns(geo, nodes)
        for k, term in enumerate((a * a, b * b, c * c, a * b, a * c, b * c)):
            g[k] += term
    return tuple(g)


def _smith(g00, g11, g22, g01, g02, g12) -> tuple:
    """(r, lambda_1, lambda_3) of each symmetric 3-by-3 matrix by Smith's formula.

    The spectrum is q + 2 p cos(phi + 2 pi k / 3), k = 0, 1, 2, with
    q = trace / 3, 6 p^2 = ||A - q I||_F^2 and cos 3 phi = r =
    det(A - q I) / (2 p^3) (Commun. ACM 4, 1961).
    """
    q = (g00 + g11 + g22) / 3.0
    b00, b11, b22 = g00 - q, g11 - q, g22 - q
    off2 = g01 * g01 + g02 * g02 + g12 * g12
    p = np.sqrt((b00 * b00 + b11 * b11 + b22 * b22 + 2.0 * off2) / 6.0)
    det = (b00 * (b11 * b22 - g12 * g12) - g01 * (g01 * b22 - g12 * g02)
           + g02 * (g01 * g12 - b11 * g02))
    r = np.clip(det / np.where(p > 0.0, 2.0 * p**3, 1.0), -1.0, 1.0)  # p = 0: A = q I
    phi = np.arccos(r) / 3.0
    return r, q + 2.0 * p * np.cos(phi), q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)


def _null_vector(c00, c11, c22, c01, c02, c12) -> np.ndarray:
    """(3, n) unit null vectors of rank-2 symmetric C: the longest row cross product.

    Where C is zero any unit vector will do, and the first axis is returned.
    """
    crosses = (  # rows 0 x 1, 0 x 2 and 1 x 2
        (c01 * c12 - c02 * c11, c02 * c01 - c00 * c12, c00 * c11 - c01 * c01),
        (c01 * c22 - c02 * c12, c02 * c02 - c00 * c22, c00 * c12 - c01 * c02),
        (c11 * c22 - c12 * c12, c12 * c02 - c01 * c22, c01 * c12 - c11 * c02),
    )
    v, longest = np.array(crosses[0]), 0.0
    for cross in crosses:
        norm = cross[0] * cross[0] + cross[1] * cross[1] + cross[2] * cross[2]
        v = np.where(norm > longest, cross, v)
        longest = np.maximum(longest, norm)
    scale = np.sqrt(np.where(longest > 0.0, longest, 1.0))
    return np.where(longest > 0.0, v / scale, [[1.0], [0.0], [0.0]])


def _deflated_smallest(g00, g11, g22, g01, g02, g12, v0, v1, v2) -> np.ndarray:
    """Smaller eigenvalue of each matrix on the plane orthogonal to its eigenvector v.

    With 2 h = trace(A) - v^T A v and B = P (A - h I) P, P = I - v v^T, it is
    h - ||B||_F / sqrt(2): no root cancels, also when the two are equal.
    """
    a0 = g00 * v0 + g01 * v1 + g02 * v2
    a1 = g01 * v0 + g11 * v1 + g12 * v2
    a2 = g02 * v0 + g12 * v1 + g22 * v2
    rho = v0 * a0 + v1 * a1 + v2 * a2
    h = 0.5 * (g00 + g11 + g22 - rho)
    s = 0.5 * (rho + h)  # u = A v - s v, so that B = A - h I - v u^T - u v^T
    u0, u1, u2 = a0 - s * v0, a1 - s * v1, a2 - s * v2
    d0, d1, d2 = g00 - h - 2.0 * v0 * u0, g11 - h - 2.0 * v1 * u1, g22 - h - 2.0 * v2 * u2
    e01, e02, e12 = g01 - v0 * u1 - u0 * v1, g02 - v0 * u2 - u0 * v2, g12 - v1 * u2 - u1 * v2
    frob2 = d0 * d0 + d1 * d1 + d2 * d2 + 2.0 * (e01 * e01 + e02 * e02 + e12 * e12)
    return h - np.sqrt(0.5 * frob2)


def _smallest_eigenvalue(g00, g11, g22, g01, g02, g12) -> np.ndarray:
    """Smallest eigenvalue of each symmetric 3-by-3 matrix given by its six entries.

    Smith's formula keeps its digits only at the separated end of the
    spectrum: a nearly double root is off by about sqrt(eps) of the scale.
    When r <= 0 the smallest eigenvalue is the separated one, and the formula
    gives it.  When r > 0 the largest is, so its eigenvector, the null vector
    of A - lambda_1 I, is deflated.  Either way the result is within a few
    eps of the largest eigenvalue.  Each matrix is first scaled by a power of
    two that brings its trace into [1/2, 1): that changes no rounding, and
    keeps the fourth powers of its entries in range.
    """
    _, exponent = np.frexp(g00 + g11 + g22)
    g = [np.ldexp(entry, -exponent) for entry in (g00, g11, g22, g01, g02, g12)]
    r, lam1, lam3 = _smith(*g)
    v = _null_vector(g[0] - lam1, g[1] - lam1, g[2] - lam1, *g[3:])
    return np.ldexp(np.where(r > 0.0, _deflated_smallest(*g, *v), lam3), exponent)


def certify_field(
    bundle: SolutionBundle,
    *,
    margin_threshold: float = DEFAULT_MARGIN_THRESHOLD,
    n_xi: int | None = None,
) -> EllipticityReport:
    """Exact minimum over unit xi of the symbol's smallest singular value.

    With xi = (cos t, sin t) and theta_j = (cos phi_j, sin phi_j), the symbol
    row is 1 - 2 (theta_j . xi)^2 = -(cos 2phi_j cos 2t + sin 2phi_j sin 2t),
    so min over t and unit (a, b) of |a p(t) + b q| is a minimum over the
    unit sphere of R^3: the margin at a node is the smallest singular value
    of the J-by-3 matrix with rows (theta_x^2 - theta_y^2, 2 theta_x theta_y,
    d_j^2), zero when J < 3.  The witness xi = (cos t, sin t) has
    t = atan2(z_2, z_1) / 2 for the right singular vector z of the minimizing
    node.  The global margin is the minimum over the interior
    non-degenerate nodes (the pointwise condition lives on the open domain;
    boundary nodes only carry the trace).  The threshold is
    ``margin_threshold`` relative to the largest row norm, max sqrt(1 + d_j^4),
    and a bundle with more than 1% masked interior nodes is not certified.
    ``n_xi`` is accepted and ignored: the margin no longer samples xi.

    Every node is first estimated from its 3-by-3 Gram matrix, whose six
    entries are sums over j and whose smallest eigenvalue has a closed form
    (``_smallest_eigenvalue``); the Gram matrix squares the condition number,
    so nodes whose estimate lies below ``SVD_RECHECK_BELOW`` of the row
    scale, and the minimizer, are recomputed by SVD, and the margin keeps its
    digits wherever the verdict is decided.  Then every estimate at or below
    the smallest recomputed margin is recomputed too, until none is left, so
    the global margin is always an SVD value.  theta_j and d_j are formed
    from the bundle's F_j and u_j (``_theta_d``) CERTIFY_BLOCK nodes at a
    time, the Gram entries from them, and the rows only for the recomputed
    nodes and the witness; d_max is taken over every grid node from d_j
    alone (``_d_parts``), also CERTIFY_BLOCK nodes at a time.  So no theta_j, d_j or (nodes, J, 3)
    array of the whole grid is held, and each node's margin is the same
    whatever the block size.  The degenerate nodes are ``_geometry``'s.
    """
    del n_xi
    if not 0.0 <= margin_threshold < np.inf:
        raise ValueError(f"margin threshold must be finite and >= 0, got {margin_threshold}")
    geometry = _geometry(bundle)
    mask = np.any([m for _, _, m in geometry], axis=0)
    interior = bundle.grid.interior_indices()
    if mask[interior].all():
        raise AllNodesDegenerate("no interior node carries usable gradient geometry")
    nodes = interior[~mask[interior]]

    d_max = max(  # over every node: a boundary node's d_j counts too
        float(np.abs(_d_parts(geo, slice(s, s + CERTIFY_BLOCK))[3]).max())
        for geo in geometry
        for s in range(0, bundle.grid.n_nodes, CERTIFY_BLOCK)
    )
    d2_max = d_max * d_max  # squaring is monotone, so this is the largest d_j^2
    row_scale = float(np.sqrt(1.0 + d2_max * d2_max))
    margins = np.concatenate([
        np.sqrt(np.maximum(_smallest_eigenvalue(*_gram_entries(geometry, block)), 0.0))
        for block in _blocks(nodes)
    ])
    redo = margins < SVD_RECHECK_BELOW * row_scale
    redo[np.argmin(margins)] = True
    rechecked = np.zeros(nodes.size, dtype=bool)
    while redo.any():  # until the minimum is an SVD value
        margins[redo] = np.concatenate([
            np.linalg.svd(_symbol_rows(geometry, block), compute_uv=False)[:, -1]
            for block in _blocks(nodes[redo])
        ])
        rechecked |= redo
        redo = ~rechecked & (margins <= margins[rechecked].min())
    k = int(np.argmin(margins))  # the first minimizer in node order
    global_margin = float(margins[k])
    threshold = margin_threshold * row_scale
    masked_fraction = float(mask[interior].mean())

    elliptic = global_margin > threshold and masked_fraction <= MASKED_INTERIOR_LIMIT
    witness = None
    if not elliptic:
        z = np.linalg.svd(_symbol_rows(geometry, nodes[k : k + 1])[0])[2][-1]
        t = 0.5 * np.arctan2(z[1], z[0])
        witness = (int(nodes[k]), np.array([np.cos(t), np.sin(t)]))
    return EllipticityReport(
        global_margin=global_margin,
        elliptic=elliptic,
        witness=witness,
        threshold=threshold,
        margin_threshold=margin_threshold,
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
            threshold=DEFAULT_MARGIN_THRESHOLD,
            margin_threshold=DEFAULT_MARGIN_THRESHOLD,
        )

    candidates = _direction_candidates(dirs)
    samples = _half_circle(n_xi) if dirs.dim == 2 else _fibonacci_sphere(n_xi)
    xis = np.concatenate([np.stack(candidates), samples]) if candidates else samples

    proj2 = (xis @ vecs.T) ** 2  # (n_xi', J)
    pairs = combinations(range(len(dirs)), 2)
    margin_per_xi = np.max([np.abs(proj2[:, i] - proj2[:, j]) for i, j in pairs], axis=0)
    k = int(np.argmin(margin_per_xi))
    global_margin = float(margin_per_xi[k])

    elliptic = global_margin > DEFAULT_MARGIN_THRESHOLD
    return EllipticityReport(
        global_margin=global_margin,
        elliptic=elliptic,
        witness=None if elliptic else (None, xis[k].copy()),
        threshold=DEFAULT_MARGIN_THRESHOLD,
        margin_threshold=DEFAULT_MARGIN_THRESHOLD,
    )


def certified_planar(dirs: DirectionSet) -> None:
    """Refuse a direction set the 2-D constant-background route cannot use.

    The grid operators read two components of each vector, so a set that is
    not 2-D raises GridMismatch; a set that ``certify_directions`` does not
    certify raises DirectionsNotCertified.
    """
    if dirs.dim != 2:
        raise GridMismatch(f"{dirs.dim}-D directions on a 2-D grid")
    report = certify_directions(dirs)
    if not report.elliptic:
        raise DirectionsNotCertified(
            f"direction set margin {report.global_margin:.3e} below threshold"
        )


def cgo_boundary_set(
    grid: Grid, M: float, k: float, background: CoefficientPair
) -> list[BoundaryData]:
    """Five exponential-oscillatory traces achieving ellipticity for large M.

    u_1 = e^{M|k|x} cos(M|k|y), u_2 = e^{M|k|x} sin(M|k|y), u_3 = u_1 + u_2,
    and u_4, u_5 repeat u_1, u_2 with M = 1, each scaled by 1/sqrt(gamma) of
    the background at the boundary (by 1 where gamma = 1).
    """
    if M < 1.0:
        raise ValueError("oscillation strength M must be at least 1")
    if k == 0.0:
        raise ValueError("wavenumber k must be nonzero")
    X, Y = grid.coords()
    b = grid.boundary_indices()
    xb, yb = X[b], Y[b]
    if background.grid != grid:
        raise GridMismatch("background on the wrong grid")
    scale = 1.0 / np.sqrt(background.gamma.values[b])

    def pair(m):  # the scaled e^{m|k|x} cos(m|k|y) and e^{m|k|x} sin(m|k|y)
        r = m * abs(k)
        e = scale * np.exp(r * xb)
        return e * np.cos(r * yb), e * np.sin(r * yb)

    u1, u2 = pair(M)
    return [BoundaryData(grid, f) for f in (u1, u2, u1 + u2, *pair(1.0))]


def constant_bg_boundary_set(
    grid: Grid, gamma0: float, sigma0: float, dirs: DirectionSet
) -> list[BoundaryData]:
    """Traces of the exact exponentials exp(sqrt(sigma0/gamma0) x.v_i).

    These solve the constant-coefficient equation exactly, so the discrete
    solutions reproduce theta_i = v_i and d_i = sqrt(gamma0/sigma0) up to
    discretization error.  The direction set must pass ``certified_planar``.
    """
    if gamma0 <= 0.0 or sigma0 <= 0.0:
        raise ValueError("constant background needs gamma0 > 0 and sigma0 > 0")
    certified_planar(dirs)
    rate = np.sqrt(sigma0 / gamma0)
    X, Y = grid.coords()
    b = grid.boundary_indices()
    out = []
    for v in dirs.vectors:
        out.append(BoundaryData(grid, np.exp(rate * (v[0] * X[b] + v[1] * Y[b]))))
    return out
