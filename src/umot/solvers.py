"""Linear-solve layer shared by the forward and inversion modules.

One factorization object serves every direct solve.  Every matrix factored
here is symmetric positive (semi)definite: normal matrices, the fourth-order
constant-background and biharmonic matrices, and the forward A_II.  So the
factor is a symmetric minimum-degree LU with diagonal pivots (minimum degree
on A + A^T, SuperLU's symmetric mode), built once per matrix, reused for
every right-hand side, and also driving the inverse iteration of the
smallest-singular-value probe.  Large forward problems use diagonally
preconditioned conjugate gradients instead, with no fallback: a stalled
iteration is an error.  Every solve is residual-checked; SolverDivergence is
raised when the requested tolerance is not met.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverDivergence


def _residual(A, x, b) -> float:
    bn = np.linalg.norm(b)
    if bn == 0.0:
        return float(np.linalg.norm(A @ x))
    return float(np.linalg.norm(A @ x - b) / bn)


def _check(A, x, b, tol: float, what: str) -> np.ndarray:
    res = _residual(A, x, b)
    if not np.isfinite(res) or res > tol:
        raise SolverDivergence(f"{what} residual {res:.3e} exceeds {tol:.1e}")
    return x


class SparseFactor:
    """Symmetric minimum-degree LU with diagonal pivots for symmetric input.

    Reused for every solve and probe.  Raises ValueError when A is not
    symmetric to 1e-12 relative to its largest entry, and SolverDivergence
    when it is exactly singular.
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

    def solve(self, b: np.ndarray, tol: float) -> np.ndarray:
        if np.linalg.norm(b) == 0.0:
            return np.zeros(self.A.shape[0])
        return _check(self.A, self._lu.solve(b), b, tol, "factorized solve")

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


def cg_solve(
    A: sp.spmatrix, b: np.ndarray, tol: float = 1e-10, maxiter: int = 20000
) -> np.ndarray:
    """Diagonally preconditioned CG on an SPD matrix; a stall raises."""
    n = A.shape[0]
    if np.linalg.norm(b) == 0.0:
        return np.zeros(n)
    d = A.diagonal()
    d = np.where(np.abs(d) > 0, d, 1.0)
    M = spla.LinearOperator((n, n), matvec=lambda v: v / d)
    x, info = spla.cg(A, b, rtol=min(tol, 1e-12), atol=0.0, maxiter=maxiter, M=M)
    if info != 0:
        raise SolverDivergence(
            f"CG stalled (info={info}) at residual {_residual(A, x, b):.3e}"
        )
    return _check(A, x, b, tol, "CG")


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
