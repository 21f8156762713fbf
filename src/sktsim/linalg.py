"""Linear solves of the implicit steppers.

Both implicit operators, the IMEX one of :mod:`sktsim.forward` and the
continuous-adjoint one of :mod:`sktsim.adjoint`, are 2N x 2N two-species
operators on stacked unknowns [u; v] whose four N x N blocks share the
sparsity of :func:`~sktsim.grid.laplacian_matrix`.  A step computes its
operator as CSR values on the cached :func:`block_pattern` of its grid and
boundary rule and hands them, with one stacked pair (2, *grid.shape) as
right-hand side, to :func:`solve`.  In 1D the values are scattered into
LAPACK band storage for a banded direct solve; in 2D the CSR matrix goes to
scipy's BiCGStab.  The band layout, the band storage and the choice of
solver live here and nowhere else.  A solution is accepted only at true
residual ||b - A x|| <= RTOL ||b||, with norms that do not overflow.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.blas import dgbmv

from sktsim.grid import BoundaryCondition, Grid, NumericalFailure, laplacian_matrix

__all__ = [
    "RTOL",
    "BlockPattern",
    "LinearSolveError",
    "block_pattern",
    "krylov_solve",
    "solve",
    "solve_band",
]

RTOL = 1e-10

_norm = functools.partial(scipy.linalg.norm, check_finite=False)  # BLAS nrm2 scales: no overflow


class LinearSolveError(NumericalFailure):
    """A solve missed the residual bound or met non-finite values."""


@dataclass(frozen=True)
class BlockPattern:
    """Fixed CSR sparsity of a 2N x 2N operator on stacked unknowns [u; v]
    whose four N x N blocks share the pattern of
    :func:`~sktsim.grid.laplacian_matrix`.

    ``shape`` is the stacked pair (2, *grid.shape) the operator acts on.
    Per stored entry of block (r, c) at nodes (i, j): ``row`` and ``col`` are
    (2r + c) N + i and (2r + c) N + j, and ``lap`` is Lap[i, j].  ``ident``
    indexes the main-diagonal entries in row order, ``node_diag`` the entries
    with i == j.  ``walls`` counts each node's Dirichlet wall faces (zero under
    Neumann).  In 1D, ``band`` is the entry's flat position
    (3 + 2 (i - j) + r - c) 2N + 2j + c in LAPACK (3, 3) band storage, shape
    (7, 2N), of the interleaved unknowns [u0, v0, u1, v1, ...]; it is empty
    in 2D, where the operator has no such band.  The arrays are read-only and
    shared by every matrix built.
    """

    shape: tuple[int, ...]
    indices: np.ndarray
    indptr: np.ndarray
    row: np.ndarray
    col: np.ndarray
    lap: np.ndarray
    ident: np.ndarray
    node_diag: np.ndarray
    walls: np.ndarray
    band: np.ndarray

    def matrix(self, data: np.ndarray) -> sp.csr_matrix:
        size = self.indptr.size - 1
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(size, size))


@functools.lru_cache(maxsize=32)
def block_pattern(grid: Grid, bc: BoundaryCondition) -> BlockPattern:
    """Sparsity of the implicit two-species operators on (grid, bc), built once."""
    lap = laplacian_matrix(grid, bc)
    ncell, nnz = grid.node_count, lap.nnz
    # Tag every Laplacian entry of every block, let bmat lay the blocks out,
    # and read back where each tagged entry landed.
    tags = [[sp.csr_matrix((np.arange(nnz) + (2 * r + c) * nnz + 1.0, lap.indices, lap.indptr),
                           shape=lap.shape) for c in range(2)] for r in range(2)]
    stacked = sp.bmat(tags, format="csr")
    block, slot = np.divmod(stacked.data.astype(np.int64) - 1, nnz)
    degree = np.diff(lap.indptr) - 1
    i = np.repeat(np.arange(ncell), degree + 1)[slot]
    j = lap.indices[slot]
    walls = 2 * grid.dim - degree if bc is BoundaryCondition.DIRICHLET else np.zeros_like(degree)
    band = ((3 + 2 * (i - j) + block // 2 - block % 2) * 2 * ncell + 2 * j + block % 2
            if grid.dim == 1 else np.empty(0, int))
    arrays = dict(indices=stacked.indices.astype(np.int32), indptr=stacked.indptr.astype(np.int32),
                  row=(block * ncell + i).astype(np.int32), col=(block * ncell + j).astype(np.int32),
                  lap=lap.data[slot],
                  ident=np.flatnonzero((i == j) & (block % 3 == 0)),
                  node_diag=np.flatnonzero(i == j), walls=walls.astype(float), band=band)
    for arr in arrays.values():
        arr.flags.writeable = False
    return BlockPattern(shape=(2, *grid.shape), **arrays)


def solve(pattern: BlockPattern, data: np.ndarray, b: np.ndarray,
          guess: np.ndarray) -> np.ndarray:
    """Solve the implicit system with values ``data`` on ``pattern`` for one
    stacked pair ``b`` (2, *grid.shape): :func:`solve_band` in 1D, and
    :func:`krylov_solve` from the stacked ``guess`` in 2D.  Anything but one
    pair, a batch included, raises ``ValueError``.  Returns x stacked like
    ``b``."""
    if b.shape != pattern.shape:
        raise ValueError(f"an implicit solve takes one stacked pair of shape {pattern.shape}, "
                         f"got {b.shape}")
    if pattern.band.size:
        x = solve_band(pattern, data, b.reshape(-1))
    else:
        x = krylov_solve(pattern.matrix(data), b.reshape(-1), guess.reshape(-1))
    return x.reshape(b.shape)


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
    """Direct solve of a 1D two-species operator given by its values
    ``data`` on ``pattern``, for the flat stacked pair ``b`` = [u; v].

    Interleaving the unknowns as [u0, v0, u1, v1, ...] makes the operator
    banded with bandwidth 3; ``pattern.band`` scatters ``data`` into that
    band.  A zero ``b`` returns zeros without a solve.
    """
    rhs = b.reshape(2, -1).T.ravel()
    b_norm = _rhs_norm(rhs, "banded solve")
    if b_norm == 0.0:
        return np.zeros_like(b)
    ab = np.zeros((7, rhs.size))
    ab.reshape(-1)[pattern.band] = data
    try:
        x = scipy.linalg.solve_banded((3, 3), ab, rhs, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise LinearSolveError(f"banded solve: {exc}") from None
    _check_residual(rhs - dgbmv(rhs.size, rhs.size, 3, 3, 1.0, ab, x), b_norm, "banded solve")
    return x.reshape(-1, 2).T.ravel()


def krylov_solve(A: sp.csr_matrix, b: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """scipy BiCGStab to RTOL, at most max(20, 10 sqrt(n)) iterations.

    The system is scaled to ||b|| = 1 so that scipy's absolute breakdown
    thresholds and its own norm of b cannot misfire on tiny or huge data.
    """
    b_norm = _rhs_norm(b, "BiCGStab")
    if b_norm == 0.0:
        return np.zeros_like(b)
    y, _ = spla.bicgstab(A, b / b_norm, x0=x0 / b_norm, rtol=RTOL, atol=0.0,
                         maxiter=max(20, math.ceil(10.0 * math.sqrt(b.size))))
    x = y * b_norm
    _check_residual(b - A @ x, b_norm, "BiCGStab")
    return x
