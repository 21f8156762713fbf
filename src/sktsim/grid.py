"""Cell-centered grids, boundary-aware stencils, and discrete norms.

The grid is cell-centered with ghost cells: homogeneous Neumann mirrors the
first interior value across the wall, homogeneous Dirichlet negates it (zero
boundary trace halfway between ghost and interior).  This makes the standard
2d+1-point Laplacian second-order accurate for both boundary conditions
without one-sided stencils.

Every array-form stencil in the package goes through two steps: ``_extend``
writes the ghost layer into a new array, and ``_stencil`` returns the
Laplacian and the centered-gradient components of an extended array.  The
split matters: the explicit step and the diagnostics apply the stencil to
p(ext(u)), which under Dirichlet is not ext(p(u)).  ``laplacian_matrix`` is
the same Laplacian in sparse form for the implicit solves.

The weak (dual) norm |w|_w = sup <w,v>/||v||_H1 is evaluated exactly in the
discrete setting as sqrt(<w, (I - Lap)^-1 w>) per component: the supremum
over discrete fields is attained at v = (I - Lap)^-1 w because the discrete
H1 product is <(I - Lap) . , .>.  One sparse solve replaces the sup.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "BlockPattern",
    "BoundaryCondition",
    "FieldPair",
    "Grid",
    "NormReport",
    "NumericalFailure",
    "block_pattern",
    "gradient_sq",
    "inner",
    "laplacian",
    "lp_norm",
    "norms",
    "read_field",
    "shifted_solve",
    "spacetime_norm",
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
    """Two species fields sampled at the cell centers of a shared grid."""

    grid: Grid
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        self.u = np.asarray(self.u, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.u.shape != self.grid.shape or self.v.shape != self.grid.shape:
            raise ValueError(f"field shape {self.u.shape}/{self.v.shape} does not "
                             f"match grid shape {self.grid.shape}")
        if not (np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.v))):
            raise NumericalFailure("non-finite field values")

    @classmethod
    def zeros(cls, grid: Grid) -> "FieldPair":
        return cls(grid, np.zeros(grid.shape), np.zeros(grid.shape))

    @classmethod
    def constant(cls, grid: Grid, cu: float, cv: float) -> "FieldPair":
        return cls(grid, np.full(grid.shape, float(cu)), np.full(grid.shape, float(cv)))

    def copy(self) -> "FieldPair":
        return FieldPair(self.grid, self.u.copy(), self.v.copy())

    def __add__(self, other: "FieldPair") -> "FieldPair":
        return FieldPair(self.grid, self.u + other.u, self.v + other.v)

    def __sub__(self, other: "FieldPair") -> "FieldPair":
        return FieldPair(self.grid, self.u - other.u, self.v - other.v)

    def __mul__(self, scalar: float) -> "FieldPair":
        return FieldPair(self.grid, scalar * self.u, scalar * self.v)

    __rmul__ = __mul__


@dataclass(frozen=True)
class NormReport:
    """Discrete norms of a field pair (components summed in quadrature)."""

    l2: float
    h1: float
    l4: float
    linf: float
    weak: float


def _extend(arr: np.ndarray, bc: BoundaryCondition) -> np.ndarray:
    """Copy into a new array with one ghost layer per side following the
    boundary rule.  The 2D corner ghosts are zero; no stencil reads them."""
    sign = -1.0 if bc is BoundaryCondition.DIRICHLET else 1.0
    if arr.ndim == 1:
        ext = np.empty(arr.size + 2)
        ext[1:-1] = arr
        ext[0], ext[-1] = sign * arr[0], sign * arr[-1]
        return ext
    ext = np.zeros((arr.shape[0] + 2, arr.shape[1] + 2))
    ext[1:-1, 1:-1] = arr
    ext[0, 1:-1], ext[-1, 1:-1] = sign * arr[0], sign * arr[-1]
    ext[1:-1, 0], ext[1:-1, -1] = sign * arr[:, 0], sign * arr[:, -1]
    return ext


def _stencil(ext: np.ndarray, h: float) -> tuple[np.ndarray, list[np.ndarray]]:
    """2d+1-point Laplacian and centered-gradient components (one per axis)
    at the interior nodes of an array already extended by :func:`_extend`."""
    inv_h2 = 1.0 / h ** 2
    inv_2h = 0.5 / h
    if ext.ndim == 1:
        lap = (ext[:-2] - 2.0 * ext[1:-1] + ext[2:]) * inv_h2
        return lap, [(ext[2:] - ext[:-2]) * inv_2h]
    lap = (ext[:-2, 1:-1] + ext[2:, 1:-1] + ext[1:-1, :-2] + ext[1:-1, 2:]
           - 4.0 * ext[1:-1, 1:-1]) * inv_h2
    return lap, [(ext[2:, 1:-1] - ext[:-2, 1:-1]) * inv_2h,
                 (ext[1:-1, 2:] - ext[1:-1, :-2]) * inv_2h]


def laplacian(f: FieldPair, bc: BoundaryCondition) -> FieldPair:
    """Second-order 2d+1-point Laplacian of both components."""
    h = f.grid.h
    return FieldPair(f.grid, _stencil(_extend(f.u, bc), h)[0], _stencil(_extend(f.v, bc), h)[0])


def _grad_sq_array(arr: np.ndarray, grid: Grid, bc: BoundaryCondition) -> np.ndarray:
    return sum(g * g for g in _stencil(_extend(arr, bc), grid.h)[1])


def gradient_sq(f: FieldPair, bc: BoundaryCondition) -> np.ndarray:
    """Per-node |grad u|^2 + |grad v|^2 from centered differences."""
    return (_grad_sq_array(f.u, f.grid, bc) + _grad_sq_array(f.v, f.grid, bc))


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
    Neumann).  The arrays are read-only and shared by every matrix built.
    """

    indices: np.ndarray
    indptr: np.ndarray
    row: np.ndarray
    col: np.ndarray
    lap: np.ndarray
    ident: np.ndarray
    node_diag: np.ndarray
    walls: np.ndarray

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
    arrays = dict(indices=stacked.indices.astype(np.int32), indptr=stacked.indptr.astype(np.int32),
                  row=(block * ncell + i).astype(np.int32), col=(block * ncell + j).astype(np.int32),
                  lap=lap.data[slot],
                  ident=np.flatnonzero((i == j) & (block % 3 == 0)),
                  node_diag=np.flatnonzero(i == j), walls=walls.astype(float))
    for arr in arrays.values():
        arr.flags.writeable = False
    return BlockPattern(**arrays)


def shifted_solve(arr: np.ndarray, grid: Grid, bc: BoundaryCondition) -> np.ndarray:
    """Solve (I - Lap) z = arr: banded direct in 1d, CG (rtol 1e-10) in 2d."""
    lap = laplacian_matrix(grid, bc)
    if grid.dim == 1:
        ab = np.zeros((2, grid.n))
        ab[0, 1:] = -lap.diagonal(1)
        ab[1] = 1.0 - lap.diagonal()
        return scipy.linalg.solveh_banded(ab, arr)
    A = (sp.identity(grid.node_count, format="csr") - lap).tocsr()
    z, info = spla.cg(A, arr.ravel(), rtol=1e-10, atol=0.0)
    if info != 0:
        raise RuntimeError(f"CG for the shifted solve did not converge (info={info})")
    return z.reshape(grid.shape)


def inner(f: FieldPair, g: FieldPair) -> float:
    """Discrete L2 pairing of two field pairs: h^d (sum u_f u_g + sum v_f v_g)."""
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    return f.grid.cell_volume * (float(np.sum(f.u * g.u)) + float(np.sum(f.v * g.v)))


def lp_norm(f: FieldPair, p: float) -> float:
    """(h^d sum(|u|^p + |v|^p))^(1/p); a quasi-norm when p < 1."""
    vol = f.grid.cell_volume
    total = vol * (float(np.sum(np.abs(f.u) ** p)) + float(np.sum(np.abs(f.v) ** p)))
    return total ** (1.0 / p)


def weak_norm(f: FieldPair, bc: BoundaryCondition) -> float:
    zu = shifted_solve(f.u, f.grid, bc)
    zv = shifted_solve(f.v, f.grid, bc)
    val = f.grid.cell_volume * (float(np.sum(f.u * zu)) + float(np.sum(f.v * zv)))
    return float(np.sqrt(max(val, 0.0)))


def norms(f: FieldPair, bc: BoundaryCondition) -> NormReport:
    """L2, H1, L4, Linf and the dual weak norm of a field pair."""
    vol = f.grid.cell_volume
    l2_sq = vol * (float(np.sum(f.u ** 2)) + float(np.sum(f.v ** 2)))
    grad_sq = vol * float(np.sum(gradient_sq(f, bc)))
    l4 = lp_norm(f, 4.0)
    linf = max(float(np.max(np.abs(f.u))), float(np.max(np.abs(f.v))))
    return NormReport(l2=float(np.sqrt(l2_sq)),
                      h1=float(np.sqrt(l2_sq + grad_sq)),
                      l4=l4,
                      linf=linf,
                      weak=weak_norm(f, bc))


def component_l2(arr: np.ndarray, grid: Grid) -> float:
    return float(np.sqrt(grid.cell_volume * np.sum(arr ** 2)))


def component_h1(arr: np.ndarray, grid: Grid, bc: BoundaryCondition) -> float:
    vol = grid.cell_volume
    return float(np.sqrt(vol * np.sum(arr ** 2) + vol * np.sum(_grad_sq_array(arr, grid, bc))))


def spacetime_norm(times: np.ndarray, fields: list[FieldPair], p: float) -> float:
    """Space-time L^p norm over stored levels via the left-endpoint rule in time.

    Each interval [t_k, t_{k+1}) contributes its width times the spatial
    quadrature of the level at t_k; the final level carries no weight.
    """
    times = np.asarray(times, dtype=float)
    if len(times) != len(fields):
        raise ValueError("times and fields must have matching length")
    total = 0.0
    for k in range(len(fields) - 1):
        w = times[k + 1] - times[k]
        f = fields[k]
        total += w * f.grid.cell_volume * (float(np.sum(np.abs(f.u) ** p))
                                           + float(np.sum(np.abs(f.v) ** p)))
    return total ** (1.0 / p)


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


def read_field(path: str | Path) -> FieldPair:
    """Read a snapshot written by :func:`write_field` (bit-exact round trip)."""
    text = Path(path).read_text().strip().split("\n")
    header = text[0]
    if not header.startswith(_FIELD_HEADER):
        raise ValueError(f"not a field snapshot: header {header!r}")
    fields = dict(item.strip().split("=") for item in header.split(",")[1:])
    dim, n, h = int(fields["d"]), int(fields["N"]), float(fields["h"])
    grid = Grid(dim=dim, length=h * n, n=n)
    values = np.array(" ".join(text[1:]).split(), dtype=float)
    count = grid.node_count
    if values.size != 2 * count:
        raise ValueError(f"expected {2 * count} values, found {values.size}")
    return FieldPair(grid, values[:count].reshape(grid.shape),
                     values[count:].reshape(grid.shape))
