"""Cell-centered grids, boundary-aware stencils, and discrete norms.

The grid is cell-centered with ghost cells: homogeneous Neumann mirrors the
first interior value across the wall, homogeneous Dirichlet negates it (zero
boundary trace halfway between ghost and interior).  This makes the standard
2d+1-point Laplacian second-order accurate for both boundary conditions
without one-sided stencils.

Every array-form stencil in the package goes through two steps: ``_extend``
writes the ghost layer into a new array, and ``_lap_stencil`` /
``_grad_stencil`` return the Laplacian / the centered-gradient components of
an extended array.  The split matters: the explicit step and the diagnostics
apply the stencil to p(ext(u)), which under Dirichlet is not ext(p(u)).
``laplacian_matrix`` is the same Laplacian in sparse form for the implicit
solves.

Fields and states come in two layouts.  A :class:`FieldPair` holds the
arrays u and v of shape (*batch, *grid.shape); it is what configs, snapshot
files and manufactured solutions produce, and what ``Trajectory.state``
returns.  A stacked pair is one array of shape (*batch, 2, *grid.shape) with
u and v along the pair axis, the layout of ``Trajectory.levels``.  A time
step takes and returns stacked pairs, and a march carries nothing else, so
no object is built per step.  ``_extend``, the stencils and ``laplacian``
act on the trailing ``grid.dim`` axes only, so B independent problems cost
one call; ``_flat`` views the grid axes as one, the (..., 2, N) layout of
the stacked algebra maps.

Every reduction over levels is written once, here: the L2 pairing
``inner``, the per-species H1 norms ``h1_norms``, ``lp_norm`` and
``weak_norm``.  They take stacked pairs.  ``inner`` and ``h1_norms``
broadcast over the leading axes; ``lp_norm`` and ``weak_norm`` take one
pair.  Each grid sum runs in the order of a single-field ``np.sum``, so a
batched result equals the unbatched one bit for bit.  The H1 norm of a pair
is sqrt(hu^2 + hv^2).

The weak (dual) norm |w|_w = sup <w,v>/||v||_H1 is evaluated exactly in the
discrete setting as sqrt(<w, (I - Lap)^-1 w>) per component: the supremum
over discrete fields is attained at v = (I - Lap)^-1 w because the discrete
H1 product is <(I - Lap) . , .>.  One banded Cholesky solve, with u and v
as two right-hand sides, replaces the sup.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse as sp

__all__ = [
    "BlockPattern",
    "BoundaryCondition",
    "FieldPair",
    "Grid",
    "NumericalFailure",
    "block_pattern",
    "h1_norms",
    "inner",
    "laplacian",
    "lp_norm",
    "read_field",
    "weak_norm",
    "write_field",
]


class BoundaryCondition(enum.Enum):
    """Homogeneous boundary condition applied to both species and adjoint fields."""

    NEUMANN = "neumann"
    DIRICHLET = "dirichlet"


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on a d-cube (0, length)^d with n cells per axis."""

    dim: int
    length: float
    n: int

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ValueError(f"grid dimension must be 1 or 2, got {self.dim}")
        if not self.length > 0.0:
            raise ValueError("domain length must be positive")
        if self.n < 3:
            raise ValueError("need at least 3 cells per axis")

    @property
    def h(self) -> float:
        return self.length / self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def node_count(self) -> int:
        return self.n ** self.dim

    @property
    def cell_volume(self) -> float:
        return self.h ** self.dim

    def centers(self) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        return (np.arange(self.n) + 0.5) * self.h

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        axes = (self.centers(),) * self.dim
        return np.meshgrid(*axes, indexing="ij")


class NumericalFailure(RuntimeError):
    """Blow-up, non-finite values, or a violated stability precondition.

    A time march that sees one sets ``step`` and ``t`` to the level it was
    computing; the message then leads with them.
    """

    step: int | None = None
    t: float | None = None

    def __str__(self) -> str:
        message = super().__str__()
        if self.step is None:
            return message
        return f"step {self.step} (t={self.t:g}): {message}"


@dataclass
class FieldPair:
    """Two species fields sampled at the cell centers of a shared grid.

    ``u`` and ``v`` have one shape, (*batch, *grid.shape): any leading axes
    index independent problems on the same grid (none for a single field).
    """

    grid: Grid
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        self.u = np.asarray(self.u, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.u.shape != self.v.shape or self.u.shape[-self.grid.dim:] != self.grid.shape:
            raise ValueError(f"field shape {self.u.shape}/{self.v.shape} does not "
                             f"match grid shape {self.grid.shape}")
        if not (np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.v))):
            raise NumericalFailure("non-finite field values")

    def stacked(self) -> np.ndarray:
        """u and v as stacked pairs (*batch, 2, *grid.shape), a new array."""
        return np.stack((self.u, self.v), axis=-self.grid.dim - 1)

    @classmethod
    def zeros(cls, grid: Grid) -> "FieldPair":
        return cls(grid, np.zeros(grid.shape), np.zeros(grid.shape))

    @classmethod
    def constant(cls, grid: Grid, cu: float, cv: float) -> "FieldPair":
        return cls(grid, np.full(grid.shape, float(cu)), np.full(grid.shape, float(cv)))


def _extend(arr: np.ndarray, bc: BoundaryCondition, dim: int) -> np.ndarray:
    """Copy into a new array with one ghost layer per side of each of the
    trailing ``dim`` axes, following the boundary rule; leading axes are a
    batch.  The 2D corner ghosts are zero; no stencil reads them."""
    sign = -1.0 if bc is BoundaryCondition.DIRICHLET else 1.0
    if dim == 1:
        ext = np.empty(arr.shape[:-1] + (arr.shape[-1] + 2,))
        ext[..., 1:-1] = arr
        ext[..., 0] = sign * arr[..., 0]
        ext[..., -1] = sign * arr[..., -1]
        return ext
    ext = np.zeros(arr.shape[:-2] + (arr.shape[-2] + 2, arr.shape[-1] + 2))
    ext[..., 1:-1, 1:-1] = arr
    ext[..., 0, 1:-1], ext[..., -1, 1:-1] = sign * arr[..., 0, :], sign * arr[..., -1, :]
    ext[..., 1:-1, 0], ext[..., 1:-1, -1] = sign * arr[..., 0], sign * arr[..., -1]
    return ext


def _lap_stencil(ext: np.ndarray, h: float, dim: int) -> np.ndarray:
    """2d+1-point Laplacian at the interior nodes of an array already
    extended by :func:`_extend` over its trailing ``dim`` axes."""
    inv_h2 = 1.0 / h ** 2
    if dim == 1:
        return (ext[..., :-2] - 2.0 * ext[..., 1:-1] + ext[..., 2:]) * inv_h2
    return (ext[..., :-2, 1:-1] + ext[..., 2:, 1:-1] + ext[..., 1:-1, :-2] + ext[..., 1:-1, 2:]
            - 4.0 * ext[..., 1:-1, 1:-1]) * inv_h2


def _grad_stencil(ext: np.ndarray, h: float, dim: int) -> list[np.ndarray]:
    """Centered-gradient components (one per axis) at the interior nodes of
    an array already extended by :func:`_extend` over its trailing ``dim`` axes."""
    inv_2h = 0.5 / h
    if dim == 1:
        return [(ext[..., 2:] - ext[..., :-2]) * inv_2h]
    return [(ext[..., 2:, 1:-1] - ext[..., :-2, 1:-1]) * inv_2h,
            (ext[..., 1:-1, 2:] - ext[..., 1:-1, :-2]) * inv_2h]


def _flat(arr: np.ndarray, dim: int) -> np.ndarray:
    """``arr`` with its trailing ``dim`` grid axes as one axis of length
    N = n^dim, in row-major node order (a view of a contiguous grid)."""
    return arr.reshape(arr.shape[:arr.ndim - dim] + (-1,))


def _grid_sums(arr: np.ndarray, dim: int) -> np.ndarray:
    """Sums over the trailing ``dim`` grid axes, one per leading index, each
    along the flattened grid in the order of a single-field ``np.sum``."""
    return np.sum(_flat(arr, dim), axis=-1)


def laplacian(grid: Grid, w: np.ndarray, bc: BoundaryCondition) -> np.ndarray:
    """Second-order 2d+1-point Laplacian of both species of the stacked pairs
    ``w`` (..., 2, *grid.shape), stacked like ``w``."""
    return _lap_stencil(_extend(w, bc, grid.dim), grid.h, grid.dim)


@functools.lru_cache(maxsize=32)
def laplacian_matrix(grid: Grid, bc: BoundaryCondition) -> sp.csr_matrix:
    """Sparse matrix of the ghost-cell Laplacian on one component (symmetric)."""
    n = grid.n
    inv_h2 = 1.0 / grid.h ** 2
    main = np.full(n, -2.0)
    if bc is BoundaryCondition.NEUMANN:
        main[0] = main[-1] = -1.0
    else:
        main[0] = main[-1] = -3.0
    off = np.ones(n - 1)
    lap1 = sp.diags([off, main, off], [-1, 0, 1], format="csr") * inv_h2
    if grid.dim == 1:
        return lap1.tocsr()
    eye = sp.identity(n, format="csr")
    return (sp.kron(lap1, eye) + sp.kron(eye, lap1)).tocsr()


@dataclass(frozen=True)
class BlockPattern:
    """Fixed CSR sparsity of a 2N x 2N operator on stacked unknowns [u; v]
    whose four N x N blocks share the pattern of :func:`laplacian_matrix`.

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
    return BlockPattern(**arrays)


def inner(grid: Grid, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Discrete L2 pairing h^d (sum u_f u_g + sum v_f v_g) of stacked pairs
    (..., 2, *grid.shape), broadcast over the leading axes; one value per
    leading index (a 0-d array for two single pairs)."""
    sums = _grid_sums(f * g, grid.dim)
    return grid.cell_volume * (sums[..., 0] + sums[..., 1])


def h1_norms(grid: Grid, w: np.ndarray, bc: BoundaryCondition) -> np.ndarray:
    """Discrete H1 norm of each species of the stacked pairs ``w``
    (..., 2, *grid.shape), shape (..., 2): sqrt(h^d sum w^2 + h^d sum |grad w|^2)
    with the centered gradient of the ghost-extended field."""
    h, dim, vol = grid.h, grid.dim, grid.cell_volume
    grad_sq = sum(g * g for g in _grad_stencil(_extend(w, bc, dim), h, dim))
    return np.sqrt(vol * _grid_sums(w ** 2, dim) + vol * _grid_sums(grad_sq, dim))


def lp_norm(grid: Grid, w: np.ndarray, p: float) -> float:
    """(h^d sum(|u|^p + |v|^p))^(1/p) of one stacked pair, the pairing of
    |w|^p with 1; a quasi-norm when p < 1."""
    return float(inner(grid, np.abs(w) ** p, 1.0)) ** (1.0 / p)


def weak_norm(grid: Grid, w: np.ndarray, bc: BoundaryCondition) -> float:
    """Dual norm sqrt(<w, (I - Lap)^-1 w>) of one stacked pair (2, *grid.shape).

    I - Lap is symmetric positive definite, and in row-major node order a
    node's neighbours sit at offsets 1 and n^(d-1), so one banded Cholesky
    solve (bandwidth n^(d-1)) takes u and v as two right-hand sides.
    """
    lap = laplacian_matrix(grid, bc)
    width = grid.n ** (grid.dim - 1)
    ab = np.zeros((width + 1, grid.node_count))
    ab[-1] = 1.0 - lap.diagonal()
    for k in {1, width}:
        ab[-1 - k, k:] = -lap.diagonal(k)
    z = scipy.linalg.solveh_banded(ab, w.reshape(2, -1).T)
    # solveh_banded promises no memory order; a C-ordered z keeps the
    # pairing's sums in single-field order.
    val = float(inner(grid, w, np.ascontiguousarray(z.T).reshape(w.shape)))
    return float(np.sqrt(max(val, 0.0)))


_FIELD_HEADER = "skt-field v1"


def write_field(path: str | Path, f: FieldPair) -> None:
    """Write a field snapshot: header, then u block, then v block, row-major.

    Values are printed with 17 significant digits, which round-trips
    float64 exactly.
    """
    grid = f.grid
    lines = [f"{_FIELD_HEADER}, d={grid.dim}, N={grid.n}, h={grid.h:.17g}"]
    for block in (f.u, f.v):
        rows = block.reshape(grid.n, -1)
        for row in rows:
            lines.append(" ".join(f"{val:.17g}" for val in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_field(path: str | Path, grid: Grid) -> FieldPair:
    """Read a snapshot written by :func:`write_field` as a field on ``grid``
    (bit-exact round trip).

    The header must describe ``grid``: d and N exactly, h to 4 ulps, since a
    snapshot stores h rather than the length and h * N need not round back
    to it.  A mismatch or a malformed file raises ValueError.
    """
    text = Path(path).read_text().strip().split("\n")
    header = text[0]
    if not header.startswith(_FIELD_HEADER):
        raise ValueError(f"not a field snapshot: header {header!r}")
    fields = dict(item.strip().partition("=")[::2] for item in header.split(",")[1:])
    for key in ("d", "N", "h"):
        if key not in fields:
            raise ValueError(f"{path}: snapshot header has no {key}=: {header!r}")
    dim, n, h = int(fields["d"]), int(fields["N"]), float(fields["h"])
    if dim != grid.dim or n != grid.n or not abs(h - grid.h) <= 4.0 * np.spacing(grid.h):
        raise ValueError(f"{path}: stored d={dim}, N={n}, h={h:.17g} do not match the configured "
                         f"grid (h {grid.h:.17g}, d {grid.dim}, N {grid.n})")
    values = np.array(" ".join(text[1:]).split(), dtype=float)
    count = grid.node_count
    if values.size != 2 * count:
        raise ValueError(f"expected {2 * count} values, found {values.size}")
    return FieldPair(grid, values[:count].reshape(grid.shape),
                     values[count:].reshape(grid.shape))
