"""Linear-solve layer shared by the forward and inversion modules.

One factorization object serves every direct solve.  Every matrix factored
here is symmetric positive (semi)definite: normal matrices, the
absorption-free fourth-order matrix, and the coarsest
multigrid level of a forward A_II (all of A_II when it has at most
MG_COARSEST unknowns).  So the factor is a symmetric minimum-degree LU with
diagonal pivots (minimum degree on A + A^T, SuperLU's symmetric mode), built
once per matrix, reused for every right-hand side, and also driving the
inverse iteration of the smallest-singular-value probe.  Every iterative
solve goes through one conjugate-gradient policy, ``cg_solve``, which takes
a matrix or a matrix-free product and its preconditioner as a callable: a
geometric multigrid V-cycle in float32 (``Multigrid``) for every forward
problem, whose iterates and residual checks stay float64, and a DST-I
spectral solve for the matrix-free constant-background route.  There is no
fallback: a stalled iteration is an error.  Every solve is checked against
one relative-residual bound, SOLVE_RTOL, and raises SolverDivergence above
it.  The bound never changes a solution; it only refuses one.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverDivergence
from .field_core import stencil_matrix

MG_COARSEST = 400  # unknowns at or below which the hierarchy stops and factors
MG_OMEGA = 0.8  # damped-Jacobi weight
MG_SWEEPS = 2  # smoothing sweeps before and after the coarse correction
CG_RTOL = 1e-14  # relative residual at which CG stops
CG_MAXITER = 1000  # CG steps after which a solve that has not stopped raises
SOLVE_RTOL = 1e-10  # relative residual above which any solve raises


def _residual(A, x, b) -> float:
    bn = np.linalg.norm(b)
    if bn == 0.0:
        return float(np.linalg.norm(A @ x))
    return float(np.linalg.norm(A @ x - b) / bn)


def _check(A, x, b, what: str) -> np.ndarray:
    res = _residual(A, x, b)
    if not np.isfinite(res) or res > SOLVE_RTOL:
        raise SolverDivergence(f"{what} residual {res:.3e} exceeds {SOLVE_RTOL:.1e}")
    return x


class SparseFactor:
    """Symmetric minimum-degree LU with diagonal pivots for symmetric input.

    Reused for every solve and probe.  Raises ValueError when A is not
    symmetric to 1e-12 relative to its largest entry, and SolverDivergence
    when it is exactly singular or a solve's relative residual exceeds
    SOLVE_RTOL.
    """

    def __init__(self, A: sp.spmatrix):
        self.A = sp.csc_matrix(A)  # the one copy, also the matrix SuperLU factors
        if abs(self.A - self.A.T).max() > 1e-12 * abs(self.A).max():
            raise ValueError("SparseFactor needs a symmetric matrix")
        try:
            self._lu = spla.splu(
                self.A,
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
        except RuntimeError as exc:  # "Factor is exactly singular"
            raise SolverDivergence(f"singular factorization: {exc}") from exc

    def solve(self, b: np.ndarray) -> np.ndarray:
        if np.linalg.norm(b) == 0.0:
            return np.zeros(self.A.shape[0])
        return _check(self.A, self._lu.solve(b), b, "factorized solve")

    def smallest_singular(self, A: sp.spmatrix) -> tuple[float, float]:
        """Estimate (smallest, largest) singular values of A, factored as A^T A.

        Eight sweeps of inverse-power iteration on the factor drive a
        deterministic start vector toward the bottom of the spectrum; the probe value is then the
        direct Rayleigh quotient ||A w|| / ||w||, which resolves structurally
        null directions far below the eigenvalue round-off floor.  An iterate
        that overflows marks a numerically singular factor and reports 0.
        The largest is the square root of ``largest_eigenvalue`` of A^T A.
        """
        sig_max = float(np.sqrt(largest_eigenvalue(self.A)))
        if sig_max == 0.0:
            return 0.0, 0.0
        n = self.A.shape[0]
        w = np.ones(n) + 1e-3 * np.cos(np.arange(n))
        w /= np.linalg.norm(w)
        for _ in range(8):
            w = self._lu.solve(w)
            nw = np.linalg.norm(w)
            if not np.isfinite(nw) or nw == 0.0:
                return 0.0, sig_max
            w /= nw
        return float(np.linalg.norm(A @ w)), sig_max


class Multigrid:
    """Geometric multigrid V-cycle for the interior block A_II of a forward operator.

    ``A`` is the ``dia_matrix`` that ``field_core.diffusion_blocks`` returns
    for an mx-by-my block of interior nodes, ordered row-major with x
    fastest: a symmetric 5-point stencil with offsets (-mx, -1, 0, 1, mx).
    Each level halves both node counts: coarse node k of an axis of m nodes
    sits at fine node 2k + 1, k < m // 2.  P = P_y (x) P_x is linear
    interpolation (fine node 2k + 1 weighs 1, fine nodes 2k and 2k + 2
    weigh 1/2), and ``cycle`` applies P and P^T by array slices, along x and
    then along y (``_prolong``, ``_restrict``); no matrix holds them.  The
    coarse operator P^T A P is formed as a stencil (``_galerkin``), one pass
    along x and one along y, from the centre and the four upper taps of the
    level above, and written into its diagonals by
    ``field_core.stencil_matrix``, the writer of A_II too (nine diagonals,
    fewer on a grid one or two nodes across, whose lower taps mirror the
    upper ones, so every level is exactly symmetric).  The finest stencil is
    read from A_II's diagonals as views.  Coarsening stops at MG_COARSEST
    unknowns, or when an axis is down to one node, which has no coarse node;
    the last matrix is factored once, in float64.  Every level above it
    keeps its diagonals (the float32 rounding of A_II's, or of the Galerkin
    stencil ``_galerkin`` forms in float64), its float32 Jacobi weights and
    its shape.
    ``cycle`` runs in the precision of its argument: MG_SWEEPS damped-Jacobi
    sweeps (weight MG_OMEGA) run in place before and after each coarse
    correction, so the cycle evaluated in float64 is a symmetric positive
    definite operator, and evaluated in float32, as ``precondition`` runs it
    for CG, it is that operator up to float32 rounding.
    """

    def __init__(self, A: sp.dia_matrix, mx: int, my: int):
        self.levels = []
        # by symmetry the diagonal of offset -o holds, at each node, its tap at offset +o
        diagonals = dict(zip(A.offsets, A.data))
        C, E, N = (diagonals[o].reshape(my, mx) for o in (0, -1, -mx))
        zero = np.broadcast_to(0.0, (my, mx))  # a 5-point stencil has no corner taps
        taps = (C, E, zero, N, zero)
        while A.shape[0] > MG_COARSEST and min(mx, my) >= 2:
            dinv = MG_OMEGA / taps[0].ravel()
            self.levels.append((A.astype(np.float32), dinv.astype(np.float32), (mx, my)))
            mx, my = mx // 2, my // 2
            taps = _galerkin(taps, mx, my)
            A = stencil_matrix(taps)
        self.coarse = SparseFactor(A)

    def precondition(self, r: np.ndarray) -> np.ndarray:
        """CG's preconditioner: one V-cycle on the float32 rounding of ``r``, as float64.

        A hierarchy with no levels returns its exact coarse solve of ``r`` in
        float64, so CG stops after one step.
        """
        if not self.levels:
            return self.coarse._lu.solve(r)
        return self.cycle(r.astype(np.float32)).astype(np.float64)

    def cycle(self, b: np.ndarray, level: int = 0) -> np.ndarray:
        """One V-cycle from a zero initial guess, in the precision of ``b``:
        an approximation of A^-1 b."""
        if level == len(self.levels):
            return self.coarse._lu.solve(b).astype(b.dtype, copy=False)
        A, dinv, (mx, my) = self.levels[level]
        x = dinv * b
        _smooth(A, dinv, x, b, MG_SWEEPS - 1)
        r = _defect(A, x, b).reshape(my, mx)
        rc = _restrict(_restrict(r.T, mx // 2).T, my // 2)  # x first, on the transpose
        ec = self.cycle(rc.ravel(), level + 1).reshape(rc.shape)
        x += _prolong(_prolong(ec.T, mx).T, my).ravel()
        _smooth(A, dinv, x, b, MG_SWEEPS)
        return x


def _defect(A, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """b - A x, formed in the array that holds A x."""
    r = A @ x
    np.subtract(b, r, out=r)
    return r


def _smooth(A, dinv: np.ndarray, x: np.ndarray, b: np.ndarray, sweeps: int) -> None:
    """``sweeps`` damped-Jacobi sweeps x += dinv * (b - A x), in place."""
    for _ in range(sweeps):
        r = _defect(A, x, b)
        r *= dinv
        x += r


def _thirds(a: np.ndarray, c: int, axis: int) -> tuple:
    """``a`` at fine nodes 2k, 2k + 1 and 2k + 2 along ``axis``, for k < c.

    Coarse node k sits at fine node 2k + 1; a node past the end reads 0.
    """
    if a.shape[axis] < 2 * c + 1:  # an even count: node 2c is past the end
        edge = list(a.shape)
        edge[axis] = 1
        a = np.concatenate([a, np.zeros(edge)], axis=axis)
    lead = (slice(None),) * axis
    return tuple(a[lead + (slice(k, 2 * c + k, 2),)] for k in range(3))


def _restrict(a: np.ndarray, c: int) -> np.ndarray:
    """P^T a along axis 0, onto c coarse nodes, in the dtype and layout of ``a``:
    a[2k] / 2 + a[2k + 1] + a[2k + 2] / 2 (no third term past the end), summed
    left to right as a sorted CSR product with P^T sums it, so to the bit."""
    half = a[::2] * 0.5
    out = half[:c] + a[1:2 * c:2]
    out[:len(half) - 1] += half[1:]
    return out


def _prolong(e: np.ndarray, m: int) -> np.ndarray:
    """P e along axis 0, onto m fine nodes, in the dtype and layout of ``e``:
    e[k] at node 2k + 1, e[k - 1] / 2 + e[k] / 2 at node 2k (one half at an
    end), summed as a sorted CSR product with P sums them, so to the bit."""
    c = len(e)
    out = np.empty_like(e, shape=(m,) + e.shape[1:])
    half = e * 0.5
    out[1:2 * c:2] = e
    out[0] = half[0]
    np.add(half[:-1], half[1:], out=out[2:2 * c - 1:2])
    out[2 * c::2] = half[-1]  # fine node 2c, on an odd count only
    return out


def _shift(a: np.ndarray, dx: int) -> np.ndarray:
    """b[:, X] = a[:, X + dx] for dx = +-1, zero where X + dx is off the grid."""
    b = np.zeros_like(a)
    if dx > 0:
        b[:, :-1] = a[:, 1:]
    else:
        b[:, 1:] = a[:, :-1]
    return b


def _clip(taps: tuple) -> tuple:
    """Zero, in place, every tap that reaches past the edge of its grid."""
    _, E, NW, N, NE = taps
    E[:, -1] = NE[:, -1] = NW[:, 0] = 0.0
    NW[-1] = N[-1] = NE[-1] = 0.0
    return taps


def _galerkin(taps: tuple, mcx: int, mcy: int) -> tuple:
    """Centre and upper taps (C, E, NW, N, NE) of P^T A P on the mcx-by-mcy grid.

    ``taps`` are those of a symmetric 9-point A, each an (my, mx) array
    (a lower tap is the upper tap of the neighbour it reaches), and P is the
    linear interpolation of ``Multigrid``.  The pass along x contracts each
    row of taps (dy = 0 and dy = +1) with P_x; the pass along y contracts the
    result with P_y.  A row of taps (a_-1, a_0, a_+1) along an axis gives
    the coarse taps
      t = 0:   (a_0[2k] + a_0[2k+2])/4 + a_0[2k+1]
               + (a_+1[2k] + a_-1[2k+1] + a_+1[2k+1] + a_-1[2k+2])/2,
      t = +1:  a_0[2k+2]/4 + (a_+1[2k+1] + a_+1[2k+2])/2,
      t = -1:  a_0[2k]/4 + (a_-1[2k] + a_-1[2k+1])/2,
    and on a symmetric row a_-1[i + 1] = a_+1[i].
    """
    C, E, NW, N, NE = (_thirds(t, mcx, 1) for t in taps)
    B = _clip((  # P_x^T A P_x: x coarse, y fine
        (C[0] + C[2]) * 0.25 + C[1] + E[0] + E[1],
        C[2] * 0.25 + (E[1] + E[2]) * 0.5,
        N[0] * 0.25 + (NW[0] + NW[1]) * 0.5,
        (N[0] + N[2]) * 0.25 + N[1] + (NE[0] + NW[1] + NE[1] + NW[2]) * 0.5,
        N[2] * 0.25 + (NE[1] + NE[2]) * 0.5,
    ))
    W = _thirds(_shift(B[1], -1), mcy, 0)  # tap (0, -1): E of the west neighbour
    SE = _thirds(_shift(B[2], 1), mcy, 0)  # row y: tap (-1, +1) of row y + 1
    C, E, NW, N, NE = (_thirds(t, mcy, 0) for t in B)
    return _clip((
        (C[0] + C[2]) * 0.25 + C[1] + N[0] + N[1],
        (E[0] + E[2]) * 0.25 + E[1] + (NE[0] + SE[0] + NE[1] + SE[1]) * 0.5,
        W[2] * 0.25 + (NW[1] + NW[2]) * 0.5,
        C[2] * 0.25 + (N[1] + N[2]) * 0.5,
        E[2] * 0.25 + (NE[1] + NE[2]) * 0.5,
    ))


def cg_solve(A, b: np.ndarray, precondition) -> np.ndarray:
    """CG on an SPD matrix, or on an SPD operator given as its product
    ``A(x)``, preconditioned by ``precondition``.

    ``precondition(r)`` returns an SPD approximation of A^-1 r, as float64:
    ``Multigrid.precondition`` (one float32 V-cycle) for the forward
    problems, a spectral solve for the constant-background route.  The
    preconditioner, and an operator given as its product, run as float
    ``LinearOperator``s, so scipy applies neither to a zero vector to learn
    a dtype: each CG step applies the preconditioner once.  scipy does not
    cast what they return, so a float32 result would make CG's search
    directions float32.  The iteration stops at a relative residual of
    CG_RTOL, and the result is checked against SOLVE_RTOL.  CG that has not
    stopped after CG_MAXITER steps raises.
    """
    n = b.size
    if np.linalg.norm(b) == 0.0:
        return np.zeros(n)
    if callable(A):
        A = spla.LinearOperator((n, n), matvec=A, dtype=float)
    M = spla.LinearOperator((n, n), matvec=precondition, dtype=float)
    x, info = spla.cg(A, b, rtol=CG_RTOL, atol=0.0, maxiter=CG_MAXITER, M=M)
    if info != 0:
        raise SolverDivergence(
            f"CG stalled (info={info}) at residual {_residual(A, x, b):.3e}"
        )
    return _check(A, x, b, "CG")


def largest_eigenvalue(A: sp.spmatrix) -> float:
    """Deterministic estimate of the top eigenvalue (PSD A): 20 Lanczos steps.

    Each new basis vector is reorthogonalized against all the previous ones,
    and the estimate is the largest eigenvalue of the tridiagonal projection:
    a Ritz value, so it never exceeds the true one.
    """
    n = A.shape[0]
    steps = min(20, n)
    V = np.empty((steps, n))
    V[0] = np.ones(n) + 1e-3 * np.sin(np.arange(n))
    V[0] /= np.linalg.norm(V[0])
    alpha, beta = [], []
    for i in range(steps):
        w = A @ V[i]
        alpha.append(float(V[i] @ w))
        if i + 1 == steps:
            break
        w -= V[: i + 1].T @ (V[: i + 1] @ w)
        nw = float(np.linalg.norm(w))
        if nw == 0.0:  # an invariant subspace: the projection is exact
            break
        beta.append(nw)
        V[i + 1] = w / nw
    T = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
    return max(float(np.linalg.eigvalsh(T)[-1]), 0.0)
