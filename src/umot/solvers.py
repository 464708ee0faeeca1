"""Linear-solve layer shared by the forward and inversion modules.

One factorization object serves every direct solve.  Every matrix factored
here is symmetric positive (semi)definite: normal matrices, the
absorption-free fourth-order and biharmonic matrices, and the coarsest
multigrid level of a forward A_II (all of A_II when it has at most
MG_COARSEST unknowns).  So the factor is a symmetric minimum-degree LU with
diagonal pivots (minimum degree on A + A^T, SuperLU's symmetric mode), built
once per matrix, reused for every right-hand side, and also driving the
inverse iteration of the smallest-singular-value probe.  Every iterative
solve goes through one conjugate-gradient policy, ``cg_solve``, which takes
a matrix or a matrix-free product and its preconditioner as a callable: a
geometric multigrid V-cycle for every forward problem, a DST-I spectral
solve for the matrix-free constant-background route.  There is no fallback:
a stalled iteration is an error.  Every solve is checked against one
relative-residual bound, SOLVE_RTOL, and raises SolverDivergence above it.
The bound never changes a solution; it only refuses one.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverDivergence
from .field_core import coarse_basis

MG_COARSEST = 400  # unknowns at or below which the hierarchy stops and factors
MG_OMEGA = 0.8  # damped-Jacobi weight
MG_SWEEPS = 2  # smoothing sweeps before and after the coarse correction
CG_RTOL = 1e-14  # relative residual at which CG stops
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
        self.A = sp.csr_matrix(A)
        if abs(self.A - self.A.T).max() > 1e-12 * abs(self.A).max():
            raise ValueError("SparseFactor needs a symmetric matrix")
        try:
            self._lu = spla.splu(
                sp.csc_matrix(A),
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
    """Geometric multigrid V-cycle for an SPD operator on an mx-by-my tensor grid.

    The unknowns are ordered row-major with x fastest, as the interior nodes
    of a Grid.  Each level halves both node counts, prolongs by the "linear"
    ``coarse_basis`` P = P_y (x) P_x and restricts by P^T; the coarse operators
    are Galerkin products P^T A P.  Coarsening stops at MG_COARSEST unknowns,
    or when an axis is down to one node, which has no coarse node; the last
    matrix is factored once.  MG_SWEEPS damped-Jacobi sweeps
    (weight MG_OMEGA) run before and after each coarse correction, so the
    cycle is a symmetric positive definite preconditioner.
    """

    def __init__(self, A: sp.spmatrix, mx: int, my: int):
        # (A, MG_OMEGA / diag(A), P_x, P_y, P_x^T, P_y^T) above the coarsest
        self.levels = []
        A = sp.csr_matrix(A)
        while A.shape[0] > MG_COARSEST and min(mx, my) >= 2:
            Px, Py, (mx, my) = coarse_basis((mx, my), "linear")
            P = sp.kron(Py, Px, format="csr")
            self.levels.append(
                (A, MG_OMEGA / A.diagonal(), Px, Py, Px.T.tocsr(), Py.T.tocsr())
            )
            A = sp.csr_matrix(P.T @ A @ P)
        self.coarse = SparseFactor(A)

    def cycle(self, b: np.ndarray, level: int = 0) -> np.ndarray:
        """One V-cycle from a zero initial guess: an approximation of A^-1 b."""
        if level == len(self.levels):
            return self.coarse._lu.solve(b)
        A, dinv, Px, Py, PxT, PyT = self.levels[level]
        x = dinv * b
        for _ in range(MG_SWEEPS - 1):
            x += dinv * (b - A @ x)
        r = (b - A @ x).reshape(Py.shape[0], Px.shape[0])
        rc = PyT @ (PxT @ r.T).T
        ec = self.cycle(rc.ravel(), level + 1).reshape(Py.shape[1], Px.shape[1])
        x += (Py @ (Px @ ec.T).T).ravel()
        for _ in range(MG_SWEEPS):
            x += dinv * (b - A @ x)
        return x


def cg_solve(A, b: np.ndarray, precondition, maxiter: int = 1000) -> np.ndarray:
    """CG on an SPD matrix, or on an SPD operator given as its product
    ``A(x)``, preconditioned by ``precondition``.

    ``precondition(r)`` returns an SPD approximation of A^-1 r: one V-cycle
    of a ``Multigrid`` for the forward problems, a spectral solve for the
    constant-background route.  The preconditioner, and an operator given
    as its product, run as float ``LinearOperator``s, so scipy applies
    neither to a zero vector to learn a dtype: each CG step applies the
    preconditioner once.  The iteration stops at a relative residual of
    CG_RTOL, and the result is checked against SOLVE_RTOL.  A stall within
    ``maxiter`` steps raises.
    """
    n = b.size
    if np.linalg.norm(b) == 0.0:
        return np.zeros(n)
    if callable(A):
        A = spla.LinearOperator((n, n), matvec=A, dtype=float)
    M = spla.LinearOperator((n, n), matvec=precondition, dtype=float)
    x, info = spla.cg(A, b, rtol=CG_RTOL, atol=0.0, maxiter=maxiter, M=M)
    if info != 0:
        raise SolverDivergence(
            f"CG stalled (info={info}) at residual {_residual(A, x, b):.3e}"
        )
    return _check(A, x, b, "CG")


def largest_eigenvalue(A: sp.spmatrix) -> float:
    """Deterministic estimate of the top eigenvalue (PSD A), 60 power steps."""
    n = A.shape[0]
    v = np.ones(n) + 1e-3 * np.sin(np.arange(n))
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(60):
        w = A @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        lam = float(v @ w)
        v = w / nw
    return abs(lam)
