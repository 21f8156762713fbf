"""Structure-aware implicit operators and their residual-checked solves.

Each implicit step is compared against reference matrices built here the
slow, obvious way: the IMEX operator from per-face COO triplets, the
continuous adjoint operator from ``sp.diags @ lap`` blocks and ``sp.bmat``.
The operator a step hands to its solver is captured by wrapping the one
solve entry point both steps share, ``linalg.solve``.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from helpers import DIR, NEU, frozen_alone

import sktsim.forward
import sktsim.linalg
from sktsim.adjoint import AdjointRHSKind, step_adjoint_backward
from sktsim.algebra import CFG_A, jac_P
from sktsim.config import parse_config_text
from sktsim.forward import step_imex
from sktsim.grid import Grid, NumericalFailure, laplacian_matrix
from sktsim.linalg import LinearSolveError, block_pattern, krylov_solve, solve_band
from sktsim.mms import bump_profile, heat_limit_coefficients

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
    step_adjoint_backward(CFG_A, grid, phi, frozen_alone(CFG_A, grid, state, bc, DT), DT,
                          AdjointRHSKind.GROWTH)
    (A, _, _), = captured
    assert rel_diff(A, reference_adjoint(CFG_A, grid, state, bc, DT)) <= 1e-13


def steps_solve_reference_operators(calls, grid, bc):
    """Both 1D steps' solutions, from the bump state of ``grid``, meet the
    residual bound on the reference operators."""
    state = bump_state(grid)
    step_imex(CFG_A, grid, state, bc, DT)
    step_adjoint_backward(CFG_A, grid, state, frozen_alone(CFG_A, grid, state, bc, DT), DT,
                          AdjointRHSKind.GROWTH)
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


def reference_band_solve(A, b):
    """``scipy.linalg.solve_banded`` on the dense operator ``A`` and the
    right-hand side ``b``, both in stacked [u; v] order, with the unknowns
    interleaved as [u0, v0, u1, v1, ...], where the bandwidth is 3."""
    order = np.arange(b.size).reshape(2, -1).T.ravel()
    A, b = A[np.ix_(order, order)], b[order]
    rows, cols = np.nonzero(A)
    assert np.all(np.abs(rows - cols) <= 3)
    ab = np.zeros((7, b.size))
    ab[3 + rows - cols, cols] = A[rows, cols]
    x = scipy.linalg.solve_banded((3, 3), ab, b)
    return x.reshape(-1, 2).T.ravel()


@pytest.mark.parametrize("n", [6, 64])
@pytest.mark.parametrize("bc", [NEU, DIR])
def test_1d_solves_equal_scipy_solve_banded_bitwise(captured, n, bc):
    # solve_band calls the gbsv that solve_banded wraps, on the same band.
    grid = Grid(1, 1.0, n)
    state = bump_state(grid)
    step_imex(CFG_A, grid, state, bc, DT)
    step_adjoint_backward(CFG_A, grid, np.stack((np.cos(state[0]), state[1] ** 2)),
                          frozen_alone(CFG_A, grid, state, bc, DT), DT, AdjointRHSKind.GROWTH)
    assert len(captured) == 2
    for A, b, x in captured:
        assert np.array_equal(x, reference_band_solve(A, b))


def test_solver_norm_equals_scipy_norm_bitwise():
    rng = np.random.default_rng(3)
    v = rng.standard_normal(128)
    for w in (v, 1e-200 * v, 1e200 * v, np.zeros(128), v[:1]):
        assert sktsim.linalg._norm(w) == scipy.linalg.norm(w)


@pytest.fixture
def captured_sparse(monkeypatch):
    """Record (pattern, data, b, x) of every implicit solve, keeping the
    operator as its values on the pattern (a fine 2D operator is too large to
    densify)."""
    calls = []
    solve = sktsim.linalg.solve

    def recording(pattern, data, b, guess):
        x = solve(pattern, data, b, guess)
        calls.append((pattern, data, b, x))
        return x

    monkeypatch.setattr(sktsim.linalg, "solve", recording)
    return calls


@pytest.mark.parametrize("n", [64, 96, 128])
@pytest.mark.parametrize("bc", [NEU, DIR])
def test_2d_steps_solve_at_unit_dt(captured_sparse, n, bc):
    # Plain BiCGStab missed the residual bound in one step or both in each
    # of these cases; dt = 1 puts dt/h^2 at 4e3 to 1.6e4.  The state is the
    # campaigns' desk data plus 0.1.
    coefficients = parse_config_text(
        (Path(__file__).resolve().parent.parent / "configs" / "cfg_a_2d.cfg").read_text(),
        source="cfg_a_2d").coefficients
    grid = Grid(2, 1.0, n)
    state = 0.3 + np.stack((bump_profile(grid, 0.5, 0.3, 1.0), bump_profile(grid, 0.4, 0.25, 0.6)))
    step_imex(coefficients, grid, state, bc, 1.0)
    frozen = frozen_alone(coefficients, grid, state, bc, 1.0)
    step_adjoint_backward(coefficients, grid, state, frozen, 1.0, AdjointRHSKind.GROWTH)
    assert len(captured_sparse) == 2
    for pattern, data, b, x in captured_sparse:
        residual = b.ravel() - pattern.matrix(data) @ x.ravel()
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(b)


def preconditioned_heat_operator(monkeypatch, bc, pattern_of=None):
    """(x, M A x) for a seeded stacked pair x, where A is the 2D IMEX operator
    of the heat limit on ``bc`` and M the preconditioner the solve builds,
    on ``pattern_of(pattern)`` when given."""
    solves = []
    monkeypatch.setattr(sktsim.linalg, "solve", lambda *args: solves.append(args) or args[2])
    grid = Grid(2, 1.0, 16)
    step_imex(heat_limit_coefficients(), grid, bump_state(grid), bc, 0.01)
    (pattern, data, _, _), = solves
    x = np.random.default_rng(11).standard_normal(pattern.shape).ravel()
    precondition = sktsim.linalg._mean_preconditioner(
        pattern if pattern_of is None else pattern_of(pattern), data)
    return x, precondition(pattern.matrix(data) @ x)


@pytest.mark.parametrize("bc", [NEU, DIR])
def test_preconditioner_inverts_the_heat_limit_operator(monkeypatch, bc):
    # P = I is constant, so the IMEX operator is I - dt Lap, the mean-coefficient
    # operator itself, and the preconditioner is its exact inverse.
    x, y = preconditioned_heat_operator(monkeypatch, bc)
    assert float(np.max(np.abs(y - x))) <= 1e-12 * float(np.max(np.abs(x)))


def test_preconditioner_check_fails_on_the_wrong_wall_basis(monkeypatch):
    neumann = block_pattern(Grid(2, 1.0, 16), NEU)
    x, y = preconditioned_heat_operator(
        monkeypatch, DIR, lambda pattern: dataclasses.replace(
            pattern, lap_eigvecs=neumann.lap_eigvecs, lap_eigvals=neumann.lap_eigvals))
    assert float(np.max(np.abs(y - x))) > 1e-3 * float(np.max(np.abs(x)))


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


def imex_batch(n=8, members=4, bc=NEU):
    """(pattern, values, b) of ``members`` seeded 1D IMEX systems on n nodes:
    values (members, nnz) and right-hand sides (members, 2, n)."""
    grid = Grid(1, 1.0, n)
    pattern = block_pattern(grid, bc)
    rng = np.random.default_rng(members)
    states = rng.uniform(0.1, 1.5, (members, 2, n))
    values = sktsim.forward._divergence_form_data(CFG_A, grid, states, pattern)
    values *= -DT
    values.T[pattern.ident] += 1.0
    return pattern, values, rng.standard_normal((members, 2, n))


def test_batched_band_solve_holds_each_member_to_its_own_residual(monkeypatch):
    # Member 1 has ||b|| 1e-8 times the others'.  Its solution, perturbed so
    # that its residual is about 1e-4 ||b_1||, must be refused, although the
    # residual is below RTOL times the norm of the pooled right-hand sides.
    pattern, values, b = imex_batch()
    b[1] *= 1e-8
    gbsv = sktsim.linalg._gbsv

    def perturbed(*args, **kwargs):
        lu, piv, x, info = gbsv(*args, **kwargs)
        member = x.reshape(4, -1)[1]  # member 1 of the interleaved solution, a view
        member += 1e-4 * np.abs(member).max()
        return lu, piv, x, info

    monkeypatch.setattr(sktsim.linalg, "_gbsv", perturbed)
    with pytest.raises(LinearSolveError, match="banded solve of member 1: residual") as err:
        sktsim.linalg.solve(pattern, values, b, b)
    r_norm = float(str(err.value).split("residual ")[1].split(" ")[0])
    assert r_norm > 1e-5 * np.linalg.norm(b[1])
    assert r_norm < sktsim.linalg.RTOL * np.linalg.norm(b)


def test_batched_band_solve_names_a_singular_member():
    # Member 2 is the identity with one diagonal entry zeroed.
    pattern, values, b = imex_batch()
    values[2] = 0.0
    values[2, pattern.ident] = 1.0
    values[2, pattern.ident[5]] = 0.0
    with pytest.raises(LinearSolveError, match="banded solve of member 2: singular matrix"):
        sktsim.linalg.solve(pattern, values, b, b)


def test_batched_band_solve_gives_a_zero_member_zeros():
    # Member 1 has b = 0 and a nonsingular operator: it is solved like the
    # others and gives zeros, and the other members are solved as on their own.
    pattern, values, b = imex_batch()
    b[1] = 0.0
    x = sktsim.linalg.solve(pattern, values, b, b)
    assert np.array_equal(x[1], np.zeros_like(x[1]))
    for m in (0, 2, 3):
        assert np.array_equal(x[m], sktsim.linalg.solve(pattern, values[m], b[m], b[m]))


def test_batched_band_solve_factors_a_zero_member():
    # A zero b does not exempt its member from the factorization: an all-zero
    # operator with b = 0 beside nonzero members is singular, named as such.
    pattern, values, b = imex_batch()
    values[1] = 0.0
    b[1] = 0.0
    with pytest.raises(LinearSolveError, match="banded solve of member 1: singular matrix"):
        sktsim.linalg.solve(pattern, values, b, b)


def test_krylov_solve_is_scale_invariant_and_rejects_overflow():
    A = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(50, 50), format="csr")
    b = np.linspace(1.0, 2.0, 50)
    identity = np.copy
    x = krylov_solve(A, b, np.zeros(50), identity)
    for scale in (1e-200, 1e200):  # the norm of b alone overflows or underflows
        assert np.allclose(krylov_solve(A, scale * b, np.zeros(50), identity) / scale, x, rtol=1e-9)
    assert np.array_equal(krylov_solve(A, np.zeros(50), np.ones(50), identity), np.zeros(50))
    with pytest.raises(LinearSolveError, match="non-finite"):
        krylov_solve(A, np.full(50, np.inf), np.zeros(50), identity)


def test_linear_solve_error_is_a_numerical_failure():
    assert issubclass(LinearSolveError, NumericalFailure)
