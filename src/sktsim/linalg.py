"""Linear solves of the implicit steppers.

Every implicit operator is given by its CSR values on the fixed
:func:`~sktsim.grid.block_pattern` of its grid and boundary rule.  In 1D
those values are scattered into LAPACK band storage for a banded direct
solve; in 2D the CSR matrix goes to scipy's BiCGStab.  A solution is
accepted only at true residual ||b - A x|| <= RTOL ||b||, with norms that
do not overflow.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla
from scipy.linalg.blas import dgbmv

from sktsim.grid import BlockPattern, NumericalFailure

__all__ = ["RTOL", "LinearSolveError", "krylov_solve", "solve_band"]

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


def solve_band(pattern: BlockPattern, data: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Direct solve of 1D two-species operators given by their values
    ``data`` on ``pattern`` (a 1D :func:`~sktsim.grid.block_pattern`).

    ``b`` and the result are stacked [u; v], or B such pairs one after the
    other, with one row of ``data`` per pair or one row for all.
    Interleaving the unknowns as [u0, v0, u1, v1, ...] makes an operator
    banded with bandwidth 3; ``pattern.band`` scatters ``data`` into that
    band, and B operators side by side in band storage are one
    block-diagonal banded operator.  Each pair's residual is checked against
    its own ||b||.  A zero ``b`` returns zeros without a solve.
    """
    size = pattern.indptr.size - 1
    rhs = b.reshape(-1, 2, size // 2).transpose(0, 2, 1)
    b_norms = [_rhs_norm(r, "banded solve") for r in rhs.reshape(-1, size)]
    if not any(b_norms):
        return np.zeros_like(b)
    rhs = rhs.ravel()
    ab = np.zeros((len(b_norms), 7, size))
    ab.reshape(len(b_norms), -1)[:, pattern.band] = data.reshape(-1, pattern.band.size)
    ab = ab.transpose(1, 0, 2).reshape(7, -1)
    try:
        x = scipy.linalg.solve_banded((3, 3), ab, rhs, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise LinearSolveError(f"banded solve: {exc}") from None
    residual = rhs - dgbmv(rhs.size, rhs.size, 3, 3, 1.0, ab, x)
    for r, b_norm in zip(residual.reshape(-1, size), b_norms):
        _check_residual(r, b_norm, "banded solve")
    return x.reshape(-1, size // 2, 2).transpose(0, 2, 1).ravel()


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
