"""Structure-aware implicit operators and their residual-checked solves.

Each implicit step is compared against reference matrices built here the
slow, obvious way: the IMEX operator from per-face COO triplets, the
continuous adjoint operator from ``sp.diags @ lap`` blocks and ``sp.bmat``.
The operator a step hands to its solver is captured by wrapping the one
solve entry point both steps share, ``linalg.solve``.
"""

import numpy as np
import pytest
import scipy.sparse as sp

import sktsim.adjoint
import sktsim.forward
import sktsim.linalg
from sktsim.adjoint import AdjointRHSKind, step_adjoint_backward
from sktsim.algebra import CFG_A, jac_P
from sktsim.forward import step_imex
from sktsim.grid import BoundaryCondition, Grid, NumericalFailure, laplacian_matrix
from sktsim.linalg import LinearSolveError, block_pattern, krylov_solve, solve_band
from sktsim.mms import bump_profile

NEU = BoundaryCondition.NEUMANN
DIR = BoundaryCondition.DIRICHLET
DT = 1e-3


def bump_state(grid):
    b = bump_profile(grid, 0.5 * grid.length, 0.3 * grid.length, 1.0)
    return np.stack((b + 0.2, 0.5 * b + 0.1))


def reference_divergence_form(c, grid, state, bc):
    """div(P grad .) on stacked [u; v] from per-face COO triplets."""
    ncell = grid.node_count
    (p11, p22), (p12, p21) = jac_P(c, state.reshape(2, -1))
    entries = ((p11, p12), (p21, p22))
    inv_h2 = 1.0 / grid.h ** 2
    idx = np.arange(ncell).reshape(grid.shape)
    if grid.dim == 1:
        faces = [(idx[:-1], idx[1:])]
        wall = np.array([idx[0], idx[-1]])
    else:
        faces = [(idx[:-1, :].ravel(), idx[1:, :].ravel()),
                 (idx[:, :-1].ravel(), idx[:, 1:].ravel())]
        wall = np.concatenate([idx[0, :], idx[-1, :], idx[:, 0], idx[:, -1]])
    rows, cols, data = [], [], []
    for a, b in faces:
        for r in range(2):
            for c_ in range(2):
                coeff = 0.5 * (entries[r][c_][a] + entries[r][c_][b]) * inv_h2
                for i, j, sign in ((a, b, 1.0), (a, a, -1.0), (b, a, 1.0), (b, b, -1.0)):
                    rows.append(i + r * ncell)
                    cols.append(j + c_ * ncell)
                    data.append(sign * coeff)
    if bc is DIR:  # a corner cell sits on two walls and gets the term twice
        for r, d in enumerate((c.d1, c.d2)):
            rows.append(wall + r * ncell)
            cols.append(wall + r * ncell)
            data.append(np.full(wall.shape, -2.0 * d * inv_h2))
    return sp.coo_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(2 * ncell, 2 * ncell)).toarray()


def reference_adjoint(c, grid, state, bc, dt):
    """I - dt P^T Lap on stacked [u; v] from ``sp.diags @ lap`` blocks."""
    lap = laplacian_matrix(grid, bc)
    (p11, p22), (p12, p21) = jac_P(c, state.reshape(2, -1))
    blocks = [[sp.diags(p11) @ lap, sp.diags(p21) @ lap],
              [sp.diags(p12) @ lap, sp.diags(p22) @ lap]]
    return np.eye(2 * grid.node_count) - dt * sp.bmat(blocks).toarray()


@pytest.fixture
def captured(monkeypatch):
    """Record (operator, b, x), all in stacked [u; v] order, of every implicit solve."""
    calls = []
    solve = sktsim.linalg.solve

    def recording(pattern, data, b, guess):
        x = solve(pattern, data, b, guess)
        calls.append((pattern.matrix(data).toarray(), b.ravel(), x.ravel()))
        return x

    monkeypatch.setattr(sktsim.linalg, "solve", recording)
    return calls


def rel_diff(a, b):
    return float(np.max(np.abs(a - b))) / float(np.max(np.abs(b)))


@pytest.mark.parametrize("dim,n", [(1, 32), (2, 12)])
@pytest.mark.parametrize("bc", [NEU, DIR])
def test_divergence_form_matrix_matches_reference(dim, n, bc):
    grid = Grid(dim, 1.0, n)
    state = bump_state(grid)
    pattern = block_pattern(grid, bc)
    L = pattern.matrix(sktsim.forward._divergence_form_data(CFG_A, grid, state, pattern))
    assert rel_diff(L.toarray(), reference_divergence_form(CFG_A, grid, state, bc)) <= 1e-13


@pytest.mark.parametrize("dim,n", [(1, 32), (2, 12)])
@pytest.mark.parametrize("bc", [NEU, DIR])
def test_imex_operator_matches_reference(captured, dim, n, bc):
    grid = Grid(dim, 1.0, n)
    state = bump_state(grid)
    step_imex(CFG_A, grid, state, bc, DT)
    (A, _, _), = captured
    expected = np.eye(A.shape[0]) - DT * reference_divergence_form(CFG_A, grid, state, bc)
    assert rel_diff(A, expected) <= 1e-13


@pytest.mark.parametrize("dim,n", [(1, 32), (2, 12)])
@pytest.mark.parametrize("bc", [NEU, DIR])
def test_adjoint_operator_matches_reference(captured, dim, n, bc):
    grid = Grid(dim, 1.0, n)
    state = bump_state(grid)
    phi = np.stack((np.cos(state[0]), state[1] ** 2))
    step_adjoint_backward(CFG_A, grid, phi, state, bc, DT, AdjointRHSKind.GROWTH)
    (A, _, _), = captured
    assert rel_diff(A, reference_adjoint(CFG_A, grid, state, bc, DT)) <= 1e-13


def steps_solve_reference_operators(calls, grid, bc):
    """Both 1D steps' solutions, from the bump state of ``grid``, meet the
    residual bound on the reference operators."""
    state = bump_state(grid)
    step_imex(CFG_A, grid, state, bc, DT)
    step_adjoint_backward(CFG_A, grid, state, state, bc, DT, AdjointRHSKind.GROWTH)
    size = 2 * grid.node_count
    references = (np.eye(size) - DT * reference_divergence_form(CFG_A, grid, state, bc),
                  reference_adjoint(CFG_A, grid, state, bc, DT))
    assert len(calls) == 2
    for (_, b, x), A in zip(calls, references):
        assert np.linalg.norm(b - A @ x) <= 1e-10 * np.linalg.norm(b)


@pytest.mark.parametrize("bc", [NEU, DIR])
def test_1d_steps_solve_reference_operators(captured, bc):
    # The captured operator is the CSR matrix of the values; only the solution
    # shows whether the band scatter put every value in its place.
    steps_solve_reference_operators(captured, Grid(1, 1.0, 32), bc)


def test_fine_1d_steps_solve_to_residual(captured):
    # n = 1024 with dt = 1e-3 (dt/h^2 ~ 1e3) defeated the unpreconditioned
    # Krylov solver; the banded direct solve must meet the residual bound.
    steps_solve_reference_operators(captured, Grid(1, 1.0, 1024), NEU)


def test_block_tridiagonal_solve_rejects_singular_or_nonfinite_systems():
    n = 6
    pattern = block_pattern(Grid(1, 1.0, n), NEU)
    identity = np.zeros(pattern.row.size)
    identity[pattern.ident] = 1.0
    b = np.arange(1.0, 2 * n + 1)
    assert np.array_equal(solve_band(pattern, identity, b), b)
    # A zero b returns before any solve: the all-zero operator is not factored.
    assert np.array_equal(solve_band(pattern, np.zeros(pattern.row.size), np.zeros(2 * n)),
                          np.zeros(2 * n))
    with pytest.raises(LinearSolveError, match="non-finite"):
        solve_band(pattern, identity, np.full(2 * n, np.inf))
    singular = identity.copy()
    singular[pattern.ident[n + 2]] = 0.0
    with pytest.raises(LinearSolveError, match="singular"):
        solve_band(pattern, singular, b)
    # A subnormal pivot is not singular, but the solution overflows.
    identity[pattern.ident[0]] = 1e-310
    with pytest.raises(LinearSolveError, match="residual nan"):
        solve_band(pattern, identity, b)


def test_krylov_solve_is_scale_invariant_and_rejects_overflow():
    A = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(50, 50), format="csr")
    b = np.linspace(1.0, 2.0, 50)
    x = krylov_solve(A, b, np.zeros(50))
    for scale in (1e-200, 1e200):  # the norm of b alone overflows or underflows
        assert np.allclose(krylov_solve(A, scale * b, np.zeros(50)) / scale, x, rtol=1e-9)
    assert np.array_equal(krylov_solve(A, np.zeros(50), np.ones(50)), np.zeros(50))
    with pytest.raises(LinearSolveError, match="non-finite"):
        krylov_solve(A, np.full(50, np.inf), np.zeros(50))


def test_linear_solve_error_is_a_numerical_failure():
    assert issubclass(LinearSolveError, NumericalFailure)
