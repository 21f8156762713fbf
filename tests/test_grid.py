import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sktsim.grid import (
    BoundaryCondition,
    FieldPair,
    Grid,
    NumericalFailure,
    _extend,
    _grad_stencil,
    h1_norms,
    inner,
    laplacian,
    laplacian_matrix,
    lp_norm,
    read_field,
    weak_norm,
    write_field,
)

NEU = BoundaryCondition.NEUMANN
DIR = BoundaryCondition.DIRICHLET


def u_field(grid, values):
    return FieldPair(grid, values, np.zeros(grid.shape))


def random_pair(grid, seed):
    rng = np.random.default_rng(seed)
    return FieldPair(grid, rng.standard_normal(grid.shape), rng.standard_normal(grid.shape))


def stacked(f):
    """A FieldPair as the stacked pair (2, *grid.shape) the reductions take."""
    return np.stack((f.u, f.v))


def lap_pair(f, bc):
    """``laplacian`` of the stacked pairs of a FieldPair, as a FieldPair."""
    lap = laplacian(f.grid, f.stacked(), bc)
    return FieldPair(f.grid, *np.moveaxis(lap, -f.grid.dim - 1, 0))


def l2(grid, w):
    return math.sqrt(inner(grid, w, w))


def pair_h1(grid, w, bc):
    hu, hv = h1_norms(grid, w, bc).tolist()
    return math.sqrt(hu ** 2 + hv ** 2)


def grad_sq(grid, arr, bc):
    """Per-node |grad arr|^2 from the centered stencil on the ghost-extended field."""
    return sum(g * g for g in _grad_stencil(_extend(arr, bc, grid.dim), grid.h, grid.dim))


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(3, 1.0, 8)
    with pytest.raises(ValueError):
        Grid(1, -1.0, 8)
    with pytest.raises(ValueError):
        Grid(1, 1.0, 2)
    g = Grid(2, 2.0, 10)
    assert g.h == 0.2 and g.node_count == 100


def test_laplacian_constant_neumann_is_zero():
    grid = Grid(1, 1.0, 32)
    f = FieldPair.constant(grid, 3.0, -1.5)
    lap = lap_pair(f, NEU)
    assert np.all(lap.u == 0.0) and np.all(lap.v == 0.0)


def test_laplacian_exact_on_quadratics_interior():
    grid = Grid(1, 1.0, 16)
    x = grid.centers()
    lap = lap_pair(u_field(grid, x**2), NEU)
    assert np.allclose(lap.u[1:-1], 2.0, atol=1e-10)


@pytest.mark.parametrize("dim", [1, 2])
def test_laplacian_second_order_convergence(dim):
    errors = []
    for n in (32, 64, 128):
        grid = Grid(dim, 1.0, n)
        if dim == 1:
            x = grid.centers()
            vals, exact = np.cos(np.pi * x), -np.pi**2 * np.cos(np.pi * x)
        else:
            X, Y = grid.meshgrid()
            vals = np.cos(np.pi * X) * np.cos(np.pi * Y)
            exact = -2.0 * np.pi**2 * vals
        lap = lap_pair(u_field(grid, vals), NEU)
        errors.append(np.max(np.abs(lap.u - exact)))
    for e_coarse, e_fine in zip(errors, errors[1:]):
        assert 3.0 < e_coarse / e_fine < 5.0


def test_gradient_sq_constant_and_linear():
    grid = Grid(1, 1.0, 32)
    assert np.all(grad_sq(grid, np.full(grid.shape, 4.0), NEU) == 0.0)
    a = 2.5
    gsq = grad_sq(grid, a * grid.centers(), NEU)
    assert np.allclose(gsq[1:-1], a**2, atol=1e-12)


def test_gradient_sq_convergence_dirichlet():
    # sin(pi x) is odd across both walls, so Dirichlet ghosts are exact.
    errors = []
    for n in (32, 64, 128):
        grid = Grid(1, 1.0, n)
        x = grid.centers()
        gsq = grad_sq(grid, np.sin(np.pi * x), DIR)
        exact = (np.pi * np.cos(np.pi * x)) ** 2
        errors.append(np.max(np.abs(gsq - exact)))
    for e_coarse, e_fine in zip(errors, errors[1:]):
        assert 3.0 < e_coarse / e_fine < 5.0


def test_norms_constant_field():
    grid = Grid(1, 1.0, 32)
    w = np.stack((np.ones(grid.shape), np.zeros(grid.shape)))
    assert l2(grid, w) == pytest.approx(1.0, abs=1e-13)
    assert pair_h1(grid, w, NEU) == pytest.approx(1.0, abs=1e-13)
    assert weak_norm(grid, w, NEU) == pytest.approx(1.0, rel=1e-10)
    assert lp_norm(grid, w, 4.0) == pytest.approx(1.0, abs=1e-13)


def test_norms_zero_field():
    grid = Grid(2, 1.0, 8)
    w = np.zeros((2, *grid.shape))
    assert l2(grid, w) == pair_h1(grid, w, NEU) == lp_norm(grid, w, 4.0) == 0.0
    assert weak_norm(grid, w, NEU) == 0.0


def test_norms_sine_l2_analytic():
    # Midpoint sums of sin^2 over whole periods are exact, so the analytic
    # value 1/2 is hit at every resolution.
    for n in (32, 64, 128):
        grid = Grid(1, 1.0, n)
        w = np.stack((np.sin(np.pi * grid.centers()), np.zeros(grid.shape)))
        assert l2(grid, w)**2 == pytest.approx(0.5, abs=1e-13)


def test_quadrature_second_order_on_smooth_data():
    exact = (math.exp(2.0) - 1.0) / 2.0  # integral of exp(2x) on (0,1)
    errs = []
    for n in (32, 64, 128):
        grid = Grid(1, 1.0, n)
        w = np.stack((np.exp(grid.centers()), np.zeros(grid.shape)))
        errs.append(abs(l2(grid, w)**2 - exact))
    for e_coarse, e_fine in zip(errs, errs[1:]):
        assert 3.0 < e_coarse / e_fine < 5.0


def test_norms_h1_dominates_l2():
    grid = Grid(1, 1.0, 24)
    for seed in range(5):
        w = stacked(random_pair(grid, seed))
        assert np.all(h1_norms(grid, w, NEU) >= np.sqrt(grid.cell_volume * np.sum(w**2, axis=-1)))
        assert pair_h1(grid, w, NEU) >= l2(grid, w)


def test_weak_norm_bounded_by_l2():
    for dim, n in ((1, 64), (2, 16)):
        grid = Grid(dim, 1.0, n)
        for seed in range(8):
            w = stacked(random_pair(grid, seed))
            for bc in (NEU, DIR):
                assert weak_norm(grid, w, bc) <= l2(grid, w) * (1 + 1e-8)


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 20)])
@pytest.mark.parametrize("bc", [NEU, DIR])
def test_weak_norm_matches_dense_solve(dim, n, bc):
    grid = Grid(dim, 1.0, n)
    f = random_pair(grid, 7)
    shifted = np.eye(grid.node_count) - laplacian_matrix(grid, bc).toarray()
    z = np.linalg.solve(shifted, np.stack((f.u.ravel(), f.v.ravel()), axis=1))
    ref = math.sqrt(grid.cell_volume * (f.u.ravel() @ z[:, 0] + f.v.ravel() @ z[:, 1]))
    assert weak_norm(grid, stacked(f), bc) == pytest.approx(ref, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("dim,n", [(1, 128), (2, 12)])
@pytest.mark.parametrize("bc", [NEU, DIR])
def test_laplacian_self_adjoint(dim, n, bc):
    grid = Grid(dim, 1.0, n)
    f, g = random_pair(grid, 1), random_pair(grid, 2)
    lf, lg = laplacian(grid, stacked(f), bc), laplacian(grid, stacked(g), bc)
    f, g = stacked(f), stacked(g)
    lhs, rhs = inner(grid, lf, g), inner(grid, f, lg)
    scale = l2(grid, lf) * l2(grid, g) + l2(grid, f) * l2(grid, lg)
    assert abs(lhs - rhs) <= 1e-12 * max(scale, 1.0)


def test_laplacian_matrix_matches_stencil():
    for dim, n, bc in ((1, 16, NEU), (1, 16, DIR), (2, 8, NEU), (2, 8, DIR)):
        grid = Grid(dim, 1.0, n)
        f = random_pair(grid, dim * 10 + n)
        direct = lap_pair(f, bc).u.ravel()
        via_matrix = laplacian_matrix(grid, bc) @ f.u.ravel()
        assert np.allclose(direct, via_matrix, rtol=1e-13, atol=1e-10)


def test_divergence_theorem_neumann():
    grid = Grid(1, 1.0, 64)
    ones = np.ones((2, *grid.shape))
    for seed in range(5):
        lap = laplacian(grid, stacked(random_pair(grid, seed + 20)), NEU)
        scale = max(l2(grid, lap), 1.0)
        assert abs(inner(grid, lap, ones)) <= 1e-12 * scale


def test_inner_examples_and_bilinearity():
    grid = Grid(1, 1.0, 17)
    ones = np.ones((2, *grid.shape))
    assert inner(grid, ones, ones) == pytest.approx(2.0, abs=1e-13)

    f = stacked(random_pair(grid, 3))
    rotated = np.stack((-f[1], f[0]))
    assert inner(grid, f, rotated) == pytest.approx(0.0, abs=1e-13)

    g = stacked(random_pair(grid, 4))
    fg = inner(grid, f, g)
    assert abs(inner(grid, 2.0 * f, g) - 2.0 * fg) <= 1e-14 * max(abs(fg), 1.0)


@settings(max_examples=50)
@given(st.floats(min_value=-4, max_value=4), st.floats(min_value=-4, max_value=4))
def test_inner_linear_in_first_argument(a, b):
    grid = Grid(1, 1.0, 8)
    f, g, w = (stacked(random_pair(grid, seed)) for seed in (5, 6, 7))
    expected = a * inner(grid, f, w) + b * inner(grid, g, w)
    assert inner(grid, a * f + b * g, w) == pytest.approx(expected, abs=1e-12)


def test_field_snapshot_roundtrip_bit_exact(tmp_path):
    for dim, n in ((1, 33), (2, 9)):
        grid = Grid(dim, 1.0, n)
        f = random_pair(grid, 100 + dim)
        path = tmp_path / f"snap{dim}.field"
        write_field(path, f)
        g = read_field(path, grid)
        assert np.array_equal(f.u, g.u) and np.array_equal(f.v, g.v)
        assert g.grid.dim == dim and g.grid.n == n and g.grid.h == grid.h


def test_read_field_rejects_malformed(tmp_path):
    path = tmp_path / "bad.field"
    path.write_text("not a snapshot\n1 2 3\n")
    with pytest.raises(ValueError):
        read_field(path, Grid(1, 1.0, 3))


def test_read_field_round_trips_a_grid_whose_h_times_n_misses_the_length(tmp_path):
    # 49 * fl(1/49) != 1.0: a grid rebuilt from the stored h would differ.
    grid = Grid(1, 1.0, 49)
    assert grid.h * grid.n != grid.length
    f = random_pair(grid, 49)
    path = tmp_path / "snap49.field"
    write_field(path, f)
    g = read_field(path, grid)
    assert g.grid == grid
    assert np.array_equal(f.u, g.u) and np.array_equal(f.v, g.v)
    for other in (Grid(1, 1.5, 49), Grid(1, 1.0, 48), Grid(2, 1.0, 49)):
        with pytest.raises(ValueError, match="do not match the configured grid"):
            read_field(path, other)


def test_lp_norm_matches_manual():
    grid = Grid(1, 1.0, 16)
    f = random_pair(grid, 9)
    manual = (grid.h * (np.sum(np.abs(f.u) ** 3) + np.sum(np.abs(f.v) ** 3))) ** (1 / 3)
    assert lp_norm(grid, stacked(f), 3.0) == pytest.approx(manual, rel=1e-13)


@pytest.mark.parametrize("dim,n", [(1, 32), (2, 12)])
@pytest.mark.parametrize("bc", [NEU, DIR])
def test_batched_stencils_equal_per_member_results(dim, n, bc):
    # A FieldPair of shape (B, *grid.shape) holds B independent problems, and
    # stacked pairs of shape (B, 2, *grid.shape) hold B pairs.  Batched
    # results must match per-problem results to <= 1e-14 relative; the
    # stencils and the grid sums act on the trailing grid axes only, so they
    # match exactly.  A stencil or a sum that reads along a batch axis mixes
    # members and fails here.
    grid = Grid(dim, 1.0, n)
    members = [random_pair(grid, 30 + b) for b in range(6)]
    batch = FieldPair(grid, np.array([f.u for f in members]), np.array([f.v for f in members]))
    lap, gsq = lap_pair(batch, bc), grad_sq(grid, batch.u, bc)
    assert lap.u.shape == lap.v.shape == gsq.shape == (6,) + grid.shape
    pairs = np.stack((batch.u, batch.v), axis=1)
    h1, pairing = h1_norms(grid, pairs, bc), inner(grid, pairs, pairs[::-1])
    assert h1.shape == (6, 2) and pairing.shape == (6,)
    for b, f in enumerate(members):
        single = lap_pair(f, bc)
        assert np.array_equal(lap.u[b], single.u) and np.array_equal(lap.v[b], single.v)
        assert np.array_equal(gsq[b], grad_sq(grid, f.u, bc))
        assert np.array_equal(h1[b], h1_norms(grid, stacked(f), bc))
        assert pairing[b] == inner(grid, stacked(f), stacked(members[5 - b]))


def test_field_pair_batch_shapes():
    grid = Grid(2, 1.0, 4)
    pair = FieldPair(grid, np.zeros((3, 4, 4)), np.ones((3, 4, 4)))
    assert pair.u.shape == (3, 4, 4)
    bad = [((3, 4, 4), (2, 4, 4)),   # u/v mismatch
           ((4, 4), (3, 4, 4)),      # u/v mismatch
           ((3, 4, 5), (3, 4, 5)),   # wrong trailing shape
           ((3, 4), (3, 4)),         # too few grid axes
           ((16,), (16,))]
    for u_shape, v_shape in bad:
        with pytest.raises(ValueError):
            FieldPair(grid, np.zeros(u_shape), np.zeros(v_shape))
    u = np.zeros((3, 4, 4))
    u[2, 1, 1] = np.nan
    with pytest.raises(NumericalFailure):
        FieldPair(grid, u, np.zeros((3, 4, 4)))
