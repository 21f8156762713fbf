"""Linear solves of the implicit steppers: banded direct in 1D, scipy BiCGStab
in 2D.  A solution is accepted only at true residual ||b - A x|| <= RTOL ||b||,
with norms that do not overflow.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla
from scipy.linalg.blas import dgbmv

from sktsim.grid import NumericalFailure

__all__ = ["RTOL", "LinearSolveError", "krylov_solve", "solve_block_tridiagonal"]

RTOL = 1e-10

_norm = functools.partial(scipy.linalg.norm, check_finite=False)  # BLAS nrm2 scales: no overflow


class LinearSolveError(NumericalFailure):
    """A solve missed the residual bound or met non-finite values."""


def _rhs_norm(b: np.ndarray, method: str) -> float:
    b_norm = _norm(b)
    if not math.isfinite(b_norm):
        raise LinearSolveError(f"{method}: non-finite right-hand side")
    return b_norm


def _check_residual(residual: np.ndarray, b_norm: float, method: str) -> None:
    r_norm = _norm(residual)
    if not r_norm <= RTOL * b_norm:  # also rejects nan
        raise LinearSolveError(f"{method}: residual {r_norm:.3e} exceeds "
                               f"{RTOL:g} * ||b|| = {RTOL * b_norm:.3e}")


def _interleaved_band(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """LAPACK (3, 3) band storage, shape (7, 2n), of the operator of
    :func:`solve_block_tridiagonal`: A[2i + r, 2j + c] sits at
    ``ab[3 + 2 (i - j) + r - c, 2j + c]``."""
    ab = np.zeros((7, 2 * diag.shape[-1]))
    for r in range(2):
        for c in range(2):
            ab[3 + r - c, c::2] = diag[r, c]
            ab[1 + r - c, 2 + c::2] = upper[r, c]
            ab[5 + r - c, c:-2:2] = lower[r, c]
    return ab


def solve_block_tridiagonal(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                            b: np.ndarray) -> np.ndarray:
    """Direct solve of a two-species operator with nearest-neighbour coupling.

    ``diag[r, c]`` (length n) couples species r to species c at one node;
    ``upper[r, c]`` / ``lower[r, c]`` (length n - 1) couple node i to node
    i + 1 / node i + 1 to node i.  ``b`` and the result have shape (2, n).
    Interleaving the unknowns as [u0, v0, u1, v1, ...] makes the operator
    banded with bandwidth 3.
    """
    ab = _interleaved_band(lower, diag, upper)
    rhs = b.T.ravel()
    b_norm = _rhs_norm(rhs, "banded solve")
    try:
        x = scipy.linalg.solve_banded((3, 3), ab, rhs, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise LinearSolveError(f"banded solve: {exc}") from None
    _check_residual(rhs - dgbmv(rhs.size, rhs.size, 3, 3, 1.0, ab, x), b_norm, "banded solve")
    return x.reshape(-1, 2).T.copy()


def krylov_solve(A, b: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """scipy BiCGStab to RTOL, at most max(20, 10 sqrt(n)) iterations; uses only ``A @ x``.

    The system is scaled to ||b|| = 1 so that scipy's absolute breakdown
    thresholds and its own norm of b cannot misfire on tiny or huge data.
    """
    b_norm = _rhs_norm(b, "BiCGStab")
    if b_norm == 0.0:
        return np.zeros_like(b)
    n = b.size
    op = spla.LinearOperator((n, n), matvec=lambda y: A @ y, dtype=float)
    y, _ = spla.bicgstab(op, b / b_norm, x0=x0 / b_norm, rtol=RTOL, atol=0.0,
                         maxiter=max(20, math.ceil(10.0 * math.sqrt(n))))
    x = y * b_norm
    _check_residual(b - A @ x, b_norm, "BiCGStab")
    return x
