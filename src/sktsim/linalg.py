"""Linear solves of the implicit steppers.

Both implicit operators, the IMEX one of :mod:`sktsim.forward` and the
continuous-adjoint one of :mod:`sktsim.adjoint`, are 2N x 2N two-species
operators on stacked unknowns [u; v] whose four N x N blocks share the
sparsity of :func:`~sktsim.grid.laplacian_matrix`.  A step computes its
operator as CSR values on the cached :func:`block_pattern` of its grid and
boundary rule and hands them, with one stacked pair (2, *grid.shape) as
right-hand side, to :func:`solve`; in 1D also a batch of pairs
(*batch, 2, n), with one operator's values per pair.  In 1D the values are
scattered straight into the band storage of LAPACK ``gbsv`` and solved
directly, a batch's operators on the diagonal of one band; in 2D the CSR
matrix goes to scipy's BiCGStab, preconditioned by the mean-coefficient
operator (I - dt pbar_r Lap)^-1 of each species r, which the Laplacian's
eigenbasis inverts exactly (Concus & Golub 1973).  The band layout, the band
storage, the eigenbasis and the choice of solver live here and nowhere else.
A solution is accepted only at true residual ||b - A x|| <= RTOL ||b||, with
BLAS ``nrm2`` norms, which scale and do not overflow; each member of a
batch is held to the bound of its own b.  A solve whose right-hand sides
are all zero returns zeros without factoring; otherwise every member is
factored, one with zero b included.

A 1D system has bandwidth 3, so its solve costs less in arithmetic than in
per-call overhead; the LAPACK and BLAS routines are resolved once, here
at import, and called directly: the same ``dgbsv`` and ``dnrm2`` that
``scipy.linalg.solve_banded`` and ``scipy.linalg.norm`` call, on the same
values, without their per-call validation.  A batch of B operators in one
band pays that overhead once instead of B times; the arithmetic grows
linearly with B either way.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import get_blas_funcs, get_lapack_funcs

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

_gbsv, = get_lapack_funcs(("gbsv",), dtype=np.float64)
_gbmv, = get_blas_funcs(("gbmv",), dtype=np.float64)
_norm = get_blas_funcs("nrm2", dtype=np.float64, ilp64="preferred")  # scales: no overflow


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
    with i == j.  ``walls`` counts each node's Dirichlet wall faces; it is
    empty under Neumann, which has none.  In 1D, with the unknowns interleaved
    as [u0, v0, u1, v1, ...] (entry (I, J) = (2i + r, 2j + c)), the operator
    has bandwidth 3, and ``band`` is the entry's flat position 6 + I + 9 J in
    the column-major (10, 2N) work array of LAPACK ``gbsv`` with kl = ku = 3:
    row 6 + I - J of column J, below the three rows ``gbsv`` fills in while
    it factors.  ``band`` is empty in 2D, where the operator has no such band.
    In 2D, ``lap_eigvecs`` holds the orthonormal eigenvectors V (columns) of
    the 1D Laplacian on (grid.length, grid.n, bc) and ``lap_eigvals`` the
    eigenvalues mu[k, l] = sigma_k + sigma_l of -Lap on the modes V[:, k] x
    V[:, l], so that -Lap R = V ((V^T R V) * mu) V^T for a field R (n, n);
    both are empty in 1D.  The arrays are read-only and shared by every matrix
    built.
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
    lap_eigvecs: np.ndarray
    lap_eigvals: np.ndarray

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
    walls = 2 * grid.dim - degree if bc is BoundaryCondition.DIRICHLET else np.empty(0, int)
    if grid.dim == 1:
        band = 6 + 2 * i + block // 2 + 9 * (2 * j + block % 2)
        eigvecs = eigvals = np.empty((0, 0))
    else:
        band = np.empty(0, int)
        lap1 = laplacian_matrix(Grid(1, grid.length, grid.n), bc)
        sigma, eigvecs = np.linalg.eigh(-lap1.toarray())
        eigvals = sigma[:, None] + sigma[None, :]
    arrays = dict(indices=stacked.indices.astype(np.int32), indptr=stacked.indptr.astype(np.int32),
                  row=(block * ncell + i).astype(np.int32), col=(block * ncell + j).astype(np.int32),
                  lap=lap.data[slot],
                  ident=np.flatnonzero((i == j) & (block % 3 == 0)),
                  node_diag=np.flatnonzero(i == j), walls=walls.astype(float), band=band,
                  lap_eigvecs=eigvecs, lap_eigvals=eigvals)
    for arr in arrays.values():
        arr.flags.writeable = False
    return BlockPattern(shape=(2, *grid.shape), **arrays)


def solve(pattern: BlockPattern, data: np.ndarray, b: np.ndarray,
          guess: np.ndarray) -> np.ndarray:
    """Solve the implicit systems with values ``data`` on ``pattern``, one
    per stacked pair of ``b``: :func:`solve_band` in 1D, and
    :func:`krylov_solve` from the stacked ``guess``, preconditioned by
    :func:`_mean_preconditioner`, in 2D.

    In 1D, ``b`` may be a batch (*batch, 2, n) of pairs with one operator
    each, ``data`` of shape (*batch, nnz), solved together; a 2D solve takes
    one pair (2, n, n) and one operator.  Any other shape raises
    ``ValueError``.  Returns x stacked like ``b``.
    """
    if b.shape != data.shape[:-1] + pattern.shape or data.ndim > 1 and not pattern.band.size:
        raise ValueError(f"an implicit solve takes one stacked pair of shape {pattern.shape} per "
                         f"operator{'' if pattern.band.size else ', and one operator in 2D'}, "
                         f"got {b.shape} for values of shape {data.shape}")
    if pattern.band.size:
        return solve_band(pattern, data, b)
    x = krylov_solve(pattern.matrix(data), b.reshape(-1), guess.reshape(-1),
                     _mean_preconditioner(pattern, data))
    return x.reshape(b.shape)


def _mean_preconditioner(pattern: BlockPattern,
                         data: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """y -> M y for a 2D operator with values ``data`` on ``pattern``, where
    M = (I - dt pbar_r Lap)^-1 on species r.

    Both implicit operators have main diagonal 1 - dt P_rr(i) Lap[i, i] (the
    IMEX one with face-averaged P_rr), so dt pbar_r, the Lap-weighted mean of
    dt P_rr, is read off that diagonal and floored at 0, where M exists.  M is
    applied exactly in the Laplacian's eigenbasis: four n x n matmuls per
    species.
    """
    ncell = pattern.ident.size // 2
    excess = (data[pattern.ident] - 1.0).reshape(2, ncell).sum(axis=1)
    dt_pbar = np.maximum(excess / -pattern.lap[pattern.ident[:ncell]].sum(), 0.0)
    gain = 1.0 / (1.0 + dt_pbar[:, None, None] * pattern.lap_eigvals)
    vecs = pattern.lap_eigvecs

    def apply(y: np.ndarray) -> np.ndarray:
        modes = vecs.T @ y.reshape(pattern.shape) @ vecs
        return (vecs @ (modes * gain) @ vecs.T).ravel()
    return apply


def _parts_norms(v: np.ndarray, members: int) -> list[float]:
    """BLAS nrm2 of each of ``members`` equal consecutive parts of ``v``
    (one pair skips ``np.split``, which costs more than its solve's norms)."""
    return [_norm(v)] if members == 1 else list(map(_norm, np.split(v, members)))


def _rhs_norms(b: np.ndarray, members: int, label: str) -> list[float]:
    """||b_m|| of each member's right-hand side, refused when one is not
    finite.  ``label.format(m)`` names the solve of member m."""
    b_norms = _parts_norms(b, members)
    if not all(map(math.isfinite, b_norms)):
        m = next(m for m, b_norm in enumerate(b_norms) if not math.isfinite(b_norm))
        raise LinearSolveError(f"{label.format(m)}: non-finite right-hand side")
    return b_norms


def _check_residuals(residual: np.ndarray, b_norms: list[float], label: str) -> None:
    """Refuse the solution unless each member's residual is at most RTOL times
    its ||b_m|| (nan fails), naming the solve as :func:`_rhs_norms` does."""
    for m, (r_norm, b_norm) in enumerate(zip(_parts_norms(residual, len(b_norms)), b_norms)):
        if not r_norm <= RTOL * b_norm:
            raise LinearSolveError(f"{label.format(m)}: residual {r_norm:.3e} exceeds "
                                   f"{RTOL:g} * ||b|| = {RTOL * b_norm:.3e}")


def solve_band(pattern: BlockPattern, data: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Direct solve of 1D two-species operators given by their values
    ``data`` (*batch, nnz) on ``pattern``, one per stacked pair [u; v] of
    ``b``, flat (*batch, 2N) or not (*batch, 2, N).  Returns x shaped like
    ``b``.

    Interleaving the unknowns as [u0, v0, u1, v1, ...] makes an operator
    banded with bandwidth 3; ``pattern.band`` scatters ``data`` straight into
    the work array of LAPACK ``gbsv``, whose seven band rows are kept aside
    for the residual check (BLAS ``gbmv``).  The operators of a batch sit on
    the diagonal of one band, which still has bandwidth 3, so one ``gbsv``
    call solves them all; each member is held to its own residual bound
    RTOL ||b_m||.  When every member has zero b, the result is zeros and no
    operator is factored; a zero member of a batch is solved like the
    others.  In a batch, an error names the member by its flat index.
    """
    members = data.size // data.shape[-1]
    size = b.size // members
    rhs = b.reshape(members, 2, -1).swapaxes(1, 2).ravel()
    label = "banded solve" if data.ndim == 1 else "banded solve of member {}"
    b_norms = _rhs_norms(rhs, members, label)
    if not any(b_norms):
        return np.zeros_like(b)
    work = np.zeros(10 * rhs.size)
    work[pattern.band if members == 1 else
         (pattern.band + 10 * size * np.arange(members)[:, None]).ravel()] = data.ravel()
    ab = work.reshape(rhs.size, 10).T  # column-major (10, 2N members), factored in place
    band = ab[3:].copy(order="F")
    _, _, x, info = _gbsv(3, 3, ab, rhs, overwrite_ab=True)
    if info > 0:
        raise LinearSolveError(f"{label.format((info - 1) // size)}: singular matrix")
    if info < 0:
        raise LinearSolveError(f"banded solve: gbsv rejected its argument {-info}")
    _check_residuals(rhs - _gbmv(rhs.size, rhs.size, 3, 3, 1.0, band, x), b_norms, label)
    x = x.reshape(members, -1, 2)
    return x.swapaxes(1, 2).ravel().reshape(b.shape)  # ravel: a contiguous copy


def krylov_solve(A: sp.csr_matrix, b: np.ndarray, x0: np.ndarray,
                 precondition: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """scipy BiCGStab to RTOL, at most max(20, 10 sqrt(n)) iterations in all,
    preconditioned by ``precondition`` (y -> M y).

    The system is scaled to ||b|| = 1 so that scipy's absolute breakdown
    thresholds and its own norm of b cannot misfire on tiny or huge data.
    BiCGStab's recurrence residual can drift from the true one; when it
    reports a convergence that the true residual misses, it restarts from
    its iterate while iterations are left.
    """
    b_norm, = _rhs_norms(b, 1, "BiCGStab")
    if b_norm == 0.0:
        return np.zeros_like(b)
    M = spla.LinearOperator(A.shape, matvec=precondition)
    y, budget = x0 / b_norm, max(20, math.ceil(10.0 * math.sqrt(b.size)))
    while True:
        iterations = itertools.count(1)
        y, info = spla.bicgstab(A, b / b_norm, x0=y, rtol=RTOL, atol=0.0, maxiter=budget, M=M,
                                callback=lambda _: next(iterations))
        x = y * b_norm
        residual = b - A @ x
        budget -= next(iterations)
        if info != 0 or budget <= 0 or _norm(residual) <= RTOL * b_norm:
            break
    _check_residuals(residual, [b_norm], "BiCGStab")
    return x
