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
``laplacian_matrix`` is the same Laplacian in sparse form; the implicit
operators share its sparsity, and :mod:`sktsim.linalg` alone decides how
they are stored and solved.

Fields and states have one layout, the stacked pair: one array of shape
(*batch, 2, *grid.shape) with u and v along the pair axis.  Configs,
snapshot files, manufactured solutions, the initial and terminal data and
``Trajectory.levels`` all produce it, with the grid passed beside it.  A
time step takes and returns stacked pairs, and a march carries nothing
else, so no object is built per step.  ``_extend``, the stencils and
``laplacian`` act on the trailing ``grid.dim`` axes only, so B independent
problems cost one call; ``_flat`` views the grid axes as one, the
(..., 2, N) layout of the stacked algebra maps.

:class:`FieldPair` is kept only for callers outside the package that still
hand over, or read back, u and v as two arrays: ``np.asarray`` of it is the
stacked pair, and ``Trajectory.final_state`` returns one.  The program
checks data where they enter, not here.  It goes once those callers pass
stacked arrays too.

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
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse as sp

__all__ = [
    "BoundaryCondition",
    "FieldPair",
    "Grid",
    "NumericalFailure",
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
    """u and v of stacked pairs as two arrays, for callers outside the
    package (see the module docstring); it checks nothing."""

    grid: Grid
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        self.u = np.asarray(self.u, dtype=float)
        self.v = np.asarray(self.v, dtype=float)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.stack((self.u, self.v), axis=-self.grid.dim - 1).astype(dtype, copy=False)

    @classmethod
    def zeros(cls, grid: Grid) -> "FieldPair":
        return cls(grid, np.zeros(grid.shape), np.zeros(grid.shape))


def _extend(arr: np.ndarray, bc: BoundaryCondition, dim: int) -> np.ndarray:
    """Copy into a new array with one ghost layer per side of each of the
    trailing ``dim`` axes, following the boundary rule; leading axes are a
    batch.  The 2D corner ghosts are zero; no stencil reads them.

    The ghosts of an axis are the copied wall cells under Neumann and their
    negation under Dirichlet.  A step of n - 1 along an axis of n >= 2 cells
    picks its first and last cell, and a step of n + 1 the two ghosts of the
    extended axis.
    """
    dirichlet = bc is BoundaryCondition.DIRICHLET
    n = arr.shape[-1]
    if dim == 1:
        ext = np.empty(arr.shape[:-1] + (n + 2,))
        ext[..., 1:-1] = arr
        walls = arr[..., ::n - 1]
        ext[..., ::n + 1] = -walls if dirichlet else walls
        return ext
    m = arr.shape[-2]
    ext = np.zeros(arr.shape[:-2] + (m + 2, n + 2))
    ext[..., 1:-1, 1:-1] = arr
    rows, cols = arr[..., ::m - 1, :], arr[..., ::n - 1]
    if dirichlet:
        rows, cols = -rows, -cols
    ext[..., ::m + 1, 1:-1] = rows
    ext[..., 1:-1, ::n + 1] = cols
    return ext


def _lap_stencil(ext: np.ndarray, h: float, dim: int) -> np.ndarray:
    """2d+1-point Laplacian at the interior nodes of an array already
    extended by :func:`_extend` over its trailing ``dim`` axes."""
    if dim == 1:
        lap = 2.0 * ext[..., 1:-1]
        np.subtract(ext[..., :-2], lap, out=lap)
        lap += ext[..., 2:]
    else:
        lap = ext[..., :-2, 1:-1] + ext[..., 2:, 1:-1]
        lap += ext[..., 1:-1, :-2]
        lap += ext[..., 1:-1, 2:]
        lap -= 4.0 * ext[..., 1:-1, 1:-1]
    lap *= 1.0 / h ** 2
    return lap


def _grad_stencil(ext: np.ndarray, h: float, dim: int) -> list[np.ndarray]:
    """Centered-gradient components (one per axis) at the interior nodes of
    an array already extended by :func:`_extend` over its trailing ``dim`` axes."""
    if dim == 1:
        grads = [ext[..., 2:] - ext[..., :-2]]
    else:
        grads = [ext[..., 2:, 1:-1] - ext[..., :-2, 1:-1], ext[..., 1:-1, 2:] - ext[..., 1:-1, :-2]]
    for g in grads:
        g *= 0.5 / h
    return grads


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


# What int() and float() may read, in configs and snapshot headers alike:
# ASCII digits only, no digit-group underscores.
_GRAMMAR = {int: re.compile(r"[+-]?[0-9]+"),
            float: re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")}

_FIELD_HEADER = "skt-field v1"


def write_field(path: str | Path, grid: Grid, w: np.ndarray) -> None:
    """Write the stacked pair ``w`` (2, *grid.shape) as a field snapshot:
    header, then u block, then v block, row-major.

    Values are printed with 17 significant digits, which round-trips
    float64 exactly.
    """
    lines = [f"{_FIELD_HEADER}, d={grid.dim}, N={grid.n}, h={grid.h:.17g}"]
    fmt = "{:.17g}".format
    lines += [" ".join(map(fmt, row)) for row in w.reshape(2 * grid.n, -1).tolist()]
    Path(path).write_text("\n".join(lines) + "\n")


def read_field(path: str | Path, grid: Grid) -> np.ndarray:
    """Read a snapshot written by :func:`write_field` as a stacked pair
    (2, *grid.shape) on ``grid`` (bit-exact round trip).

    The header must describe ``grid``: d and N exactly, h to 4 ulps, since a
    snapshot stores h rather than the length and h * N need not round back
    to it.  Header numbers follow ``_GRAMMAR``; the values must be ASCII
    without ``_``, checked once over the whole body.  A mismatch, a
    malformed file or a non-finite value raises ValueError naming the file.
    """
    header, _, body = Path(path).read_text().strip().partition("\n")
    if not header.startswith(_FIELD_HEADER):
        raise ValueError(f"{path}: not a field snapshot: header {header!r}")
    fields = dict(item.strip().partition("=")[::2] for item in header.split(",")[1:])
    for key, kind in (("d", int), ("N", int), ("h", float)):
        if key not in fields:
            raise ValueError(f"{path}: snapshot header has no {key}=: {header!r}")
        if not _GRAMMAR[kind].fullmatch(fields[key]):
            raise ValueError(f"{path}: snapshot header {key}={fields[key]!r} is not "
                             f"an ASCII {kind.__name__}")
    dim, n, h = int(fields["d"]), int(fields["N"]), float(fields["h"])
    if dim != grid.dim or n != grid.n or not abs(h - grid.h) <= 4.0 * np.spacing(grid.h):
        raise ValueError(f"{path}: stored d={dim}, N={n}, h={h:.17g} do not match the configured "
                         f"grid (h {grid.h:.17g}, d {grid.dim}, N {grid.n})")
    if not body.isascii() or "_" in body:
        raise ValueError(f"{path}: snapshot values must be ASCII numbers without '_'")
    try:
        values = np.array(body.split(), dtype=float)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    count = grid.node_count
    if values.size != 2 * count:
        raise ValueError(f"{path}: expected {2 * count} values, found {values.size}")
    bad = values[~np.isfinite(values)]
    if bad.size:
        raise ValueError(f"{path}: non-finite value {bad[0]} in the snapshot")
    return values.reshape((2, *grid.shape))
