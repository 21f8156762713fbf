import decimal
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sktsim.algebra import (
    CFG_A,
    CoefficientError,
    Coefficients,
    check_conditions,
    dual_exponent,
    eval_l,
    eval_p,
    eval_q,
    inverse_norm_check,
    jac_P,
    jac_Q,
    max_alpha,
    mean_value_P,
    mean_value_Q,
    quad_form_margin,
)

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
state = st.tuples(finite, finite).map(lambda t: pair(*t))


def pair(u, v):
    """The stacked pair (2, N) of species values ``u`` and ``v`` (numbers or 1-D arrays)."""
    return np.stack((np.atleast_1d(u), np.atleast_1d(v))).astype(float)


def values(w):
    """The entries of one stacked pair (2, 1), u first."""
    return tuple(np.ravel(w).tolist())


def entries(jac):
    """(J11, J12, J21, J22) of a Jacobian at one pair, given as (diagonal, off-diagonal)."""
    (j11, j22), (j12, j21) = (values(part) for part in jac)
    return j11, j12, j21, j22


def test_cfg_a_derived_fields():
    assert CFG_A.d0 == 1.0
    assert 0.0 < CFG_A.alpha < 1.0


def test_coefficients_reject_negative_and_nonfinite():
    with pytest.raises(ValueError):
        Coefficients(1, -1, 1, 1)
    with pytest.raises(ValueError):
        Coefficients(1, math.inf, 1, 1)
    with pytest.raises(ValueError):
        Coefficients(1, 1, 1, 1, alpha=1.5)
    with pytest.raises(ValueError):
        Coefficients(1, 1, 1, 1, alpha=0.0)


@pytest.mark.parametrize("entries,product", [
    (dict(a11=1e160), "(2 a11)^2"), (dict(a12=1e200), "a12^2"),
    (dict(a11=5e153, a21=1e154), "8 a11 a21"), (dict(a11=5e153, a22=5e153), "64 a11 a22"),
])
def test_coefficients_refuse_overflowing_admissibility_products(entries, product):
    with pytest.raises(CoefficientError, match=re.escape(f"product {product} overflows")) as info:
        Coefficients(**{**dict(a11=1.0, a12=1.0, a21=1.0, a22=1.0), **entries})
    assert info.value.coefficient == max(entries, key=entries.get)
    # Just inside the guard the admissibility arithmetic stays finite
    # (a RuntimeWarning fails the test).
    assert math.isfinite(max_alpha(Coefficients(5e153, 1.0, 1.0, 1.0)))


def test_eval_p_worked_examples():
    assert values(eval_p(CFG_A, pair(2.0, 1.0))) == (8.0, 4.0)
    assert values(eval_p(CFG_A, pair(0.0, 0.0))) == (0.0, 0.0)
    assert values(eval_p(CFG_A, pair(0.0, 2.0))) == (0.0, 6.0)


def test_eval_q_worked_examples():
    assert values(eval_q(CFG_A, pair(1.0, 1.0))) == (2.0, 2.0)
    assert values(eval_q(CFG_A, pair(0.0, 0.0))) == (0.0, 0.0)
    assert values(eval_q(CFG_A, pair(2.0, 0.0))) == (4.0, 0.0)


def test_eval_l_worked_examples():
    assert values(eval_l(CFG_A, pair(3.0, 5.0))) == (3.0, 5.0)
    c = Coefficients(1, 1, 1, 1, a1=2.0, a2=0.0)
    assert values(eval_l(c, pair(1.0, 7.0))) == (2.0, 0.0)


def test_jacobian_worked_examples():
    assert entries(jac_P(CFG_A, pair(0.0, 0.0))) == (1.0, 0.0, 0.0, 1.0)
    assert entries(jac_P(CFG_A, pair(1.0, 1.0))) == (4.0, 1.0, 1.0, 4.0)
    assert entries(jac_P(CFG_A, pair(0.0, 1.0))) == (2.0, 0.0, 1.0, 3.0)
    assert entries(jac_Q(CFG_A, pair(0.0, 0.0))) == (0.0, 0.0, 0.0, 0.0)
    assert entries(jac_Q(CFG_A, pair(1.0, 1.0))) == (3.0, 1.0, 1.0, 3.0)
    assert entries(jac_Q(CFG_A, pair(1.0, 0.0))) == (2.0, 1.0, 0.0, 1.0)


def _fd_jacobian(fn, c, s, h):
    cols = []
    for du, dv in ((h, 0.0), (0.0, h)):
        plus = values(fn(c, s + pair(du, dv)))
        minus = values(fn(c, s - pair(du, dv)))
        cols.append(((plus[0] - minus[0]) / (2 * h), (plus[1] - minus[1]) / (2 * h)))
    return np.array([[cols[0][0], cols[1][0]], [cols[0][1], cols[1][1]]])


@pytest.mark.parametrize("fn,jac", [(eval_p, jac_P), (eval_q, jac_Q)])
def test_jacobian_matches_central_differences(fn, jac):
    # The maps are quadratic, so central differences are exact up to
    # roundoff; agreement is asserted tightly at both step sizes.
    rng = np.random.default_rng(7)
    for _ in range(100):
        s = rng.uniform(-5.0, 5.0, size=(2, 1))
        exact = np.reshape(entries(jac(CFG_A, s)), (2, 2))
        for h in (1e-4, 5e-5):
            fd = _fd_jacobian(fn, CFG_A, s, h)
            assert np.max(np.abs(fd - exact)) < 1e-8


def test_check_conditions_worked_examples():
    rep = check_conditions(CFG_A)
    assert rep.holds_1_5c and rep.holds_coef_cond
    assert rep.margin_1_5c == 63.0
    assert rep.margins_coef_cond == (7.0, 7.0)

    boundary = check_conditions(Coefficients(1, 8, 8, 1))
    assert not boundary.holds_1_5c  # 64 < 64 fails strictly

    degenerate = check_conditions(Coefficients(1, 0, 1, 1))
    assert not degenerate.holds_1_5c and not degenerate.holds_coef_cond


@given(st.tuples(*(st.floats(min_value=0.0, max_value=50.0, allow_subnormal=False)
                   for _ in range(4))))
def test_coef_cond_implies_1_5c(aij):
    a11, a12, a21, a22 = aij
    rep = check_conditions(Coefficients(a11, a12, a21, a22))
    if rep.holds_coef_cond:
        assert rep.holds_1_5c


def test_coef_cond_implication_bulk():
    rng = np.random.default_rng(11)
    draws = rng.uniform(0.0, 20.0, size=(100_000, 4))
    a11, a12, a21, a22 = draws.T
    coef = (a12**2 > 0) & (a12**2 < 8 * a11 * a21) & (a21**2 > 0) & (a21**2 < 8 * a22 * a12)
    one5c = (a12 * a21 > 0) & (a12 * a21 < 64 * a11 * a22)
    assert not np.any(coef & ~one5c)


def test_quad_form_margin_worked_examples():
    c = replace(CFG_A, alpha=0.5)
    assert quad_form_margin(c, pair(0.0, 0.0), pair(1.0, 0.0)).item() == 0.0  # d1 == d0
    # P(1,1) = [[4,1],[1,4]]: form = 6, minus d0*2 minus 0.5*2*2
    assert quad_form_margin(c, pair(1.0, 1.0), pair(1.0, -1.0)).item() == 2.0
    assert quad_form_margin(c, pair(3.0, 4.0), pair(0.0, 0.0)).item() == 0.0
    with pytest.raises(ValueError):
        quad_form_margin(c, pair(-1.0, 0.0), pair(1.0, 0.0))


def test_max_alpha_certificate_and_determinism():
    alpha = max_alpha(CFG_A)
    assert 0.0 < alpha < 1.0
    assert alpha == max_alpha(CFG_A)  # deterministic rerun
    # fresh samples not used during bisection
    rng = np.random.default_rng(2024)
    s = rng.uniform(0, 100, (2, 200_000))
    theta = rng.uniform(0, 2 * np.pi, 200_000)
    margins = quad_form_margin(replace(CFG_A, alpha=alpha), s, pair(np.cos(theta), np.sin(theta)))
    assert float(np.min(margins)) >= -1e-12


def test_max_alpha_decreases_toward_condition_boundary():
    # The certified margin collapses to zero as a12 = a21 approaches the
    # strict admissibility bound 8 (non-increasing on the approach branch).
    values = [max_alpha(Coefficients(1.0, g, g, 1.0))
              for g in (2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 7.5)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[-1] > 0.0  # still positive strictly inside the condition
    assert values[-1] < 0.15


def _simplex_min_eig(c, points):
    """lambda_min of sym A on a uniform scan of the density simplex, where
    P(s) = diag(d1, d2) + A(s)."""
    x = np.linspace(0.0, 1.0, points)
    (p11, p22), (p12, p21) = jac_P(c, pair(x, 1.0 - x))
    off = 0.5 * (p12 + p21)
    sym = np.stack([np.stack([p11 - c.d1, off], -1), np.stack([off, p22 - c.d2], -1)], -2)
    return float(np.linalg.eigvalsh(sym)[:, 0].min())


@pytest.mark.parametrize("c", [CFG_A, Coefficients(1.0, 7.5, 7.5, 1.0),
                               Coefficients(2.0, 0.5, 1.5, 0.7, d1=0.3, d2=2.0),
                               Coefficients(0.4, 1.5, 5.0, 3.0)])
def test_max_alpha_below_state_part_eigenvalue_on_simplex(c):
    assert max_alpha(c) <= _simplex_min_eig(c, 1_000_000)


def test_max_alpha_is_the_cfg_a_infimum_from_below():
    # On CFG_A the smaller endpoint matrix is [[2, 1/2], [1/2, 1]], whose
    # smallest eigenvalue 3/2 - 1/sqrt(2) is the infimum.
    assert 0.0 <= (1.5 - 1.0 / math.sqrt(2.0)) - max_alpha(CFG_A) <= 1e-15


@pytest.mark.parametrize("c", [CFG_A, Coefficients(1.0, 7.5, 7.5, 1.0),
                               Coefficients(2.0, 0.5, 1.5, 0.7, d1=0.3, d2=2.0),
                               Coefficients(0.4, 1.5, 5.0, 3.0)])
def test_max_alpha_is_tight_at_the_minimising_endpoint_ray(c):
    # A margin 1e-9 above max_alpha fails the bound along the endpoint ray
    # where lambda_min(sym A) is smaller, in its eigenvector, once the ray is
    # long enough (1e12) that |d1 - d2| cannot mask the deficit.
    ends = []
    for x in (0.0, 1.0):
        diag, off = jac_P(c, pair(x, 1.0 - x))
        a11, a22 = diag.ravel() - [c.d1, c.d2]
        sym = 0.5 * off.sum()
        lam, vec = np.linalg.eigh([[a11, sym], [sym, a22]])
        ends.append((lam[0], x, vec[:, 0]))
    _, x, xi = min(ends, key=lambda end: end[0])
    scale = 1e12
    tight = replace(c, alpha=max_alpha(c) + 1e-9)
    assert quad_form_margin(tight, pair(scale * x, scale * (1.0 - x)), pair(*xi)).item() < 0.0


def _endpoint_min_eig_exact(c):
    """The smaller endpoint eigenvalue in 60-digit decimal arithmetic, as
    2 det / (tr + sqrt(tr^2 - 4 det)), which does not cancel."""
    with decimal.localcontext(decimal.Context(prec=60)):
        lams = []
        for g11, g22, g12 in ((2 * c.a11, c.a21, c.a12 / 2), (c.a12, 2 * c.a22, c.a21 / 2)):
            g11, g22, g12 = (decimal.Decimal(x) for x in (g11, g22, g12))
            tr, det = g11 + g22, g11 * g22 - g12 * g12
            lams.append(2 * det / (tr + (tr * tr - 4 * det).sqrt()))
        return min(lams)


@pytest.mark.parametrize("c", [Coefficients(1e17, 1.0, 1.0, 1.0), Coefficients(1e153, 1.0, 1.0, 1.0),
                               Coefficients(1e17, 1.0, 0.5, 1.0), Coefficients(1e153, 1.0, 0.5, 1.0),
                               Coefficients(1e-160, 1e-160, 1e-160, 1e-160)])
def test_max_alpha_is_accurate_on_badly_scaled_coefficients(c):
    # half_tr - disc cancelled on the first four: a11 = 1e17 gave -44.4 and
    # a11 = 1e153 gave -4.4e137.  With a21 = 1 the infimum lies at the
    # well-scaled endpoint (0.79289...), with a21 = 0.5 at the badly scaled
    # one (just below 1/2).  On the last, det ~ 1e-320 would lose its digits
    # to underflow without the power-of-two scaling.
    exact = _endpoint_min_eig_exact(c)
    alpha = decimal.Decimal(max_alpha(c))
    assert 0 <= exact - alpha <= decimal.Decimal(1e-15) * exact


def test_max_alpha_capped_below_min_diffusion_coefficient():
    # sym A(sigma) = [[2, 1], [1, 2]] on every ray, so the ray infimum is
    # exactly 1 = min a_ij, which Coefficients does not accept as alpha.
    c = Coefficients(1.0, 2.0, 2.0, 1.0)
    assert _simplex_min_eig(c, 1001) == pytest.approx(1.0, rel=1e-15)
    alpha = max_alpha(c)
    assert 1.0 - 1e-15 < alpha < 1.0
    assert replace(c, alpha=alpha).alpha == alpha


def test_max_alpha_requires_condition():
    with pytest.raises(ValueError):
        max_alpha(Coefficients(1, 0, 1, 1))


def test_inverse_norm_check_identity_case():
    first, second = (x.item() for x in inverse_norm_check(CFG_A, pair(0.0, 0.0)))
    assert first == pytest.approx(1.0, abs=1e-14)
    assert second == 1.0
    assert first <= second


def test_inverse_norm_check_explicit_2x2():
    alpha = max_alpha(CFG_A)
    c = replace(CFG_A, alpha=alpha)
    first, second = (x.item() for x in inverse_norm_check(c, pair(1.0, 1.0)))
    # P = [[4, 1], [1, 4]] is symmetric; smallest eigenvalue 3
    assert first == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert second == pytest.approx(1.0 / (1.0 + 2.0 * alpha), rel=1e-12)
    assert first <= second


def test_inverse_norm_check_bulk_samples():
    alpha = max_alpha(CFG_A)
    c = replace(CFG_A, alpha=alpha)
    rng = np.random.default_rng(5)
    s = rng.uniform(0, 200, (2, 10_000))
    first, second = inverse_norm_check(c, s)
    assert np.all(first <= second * (1 + 1e-12))


def test_mean_value_worked_examples():
    lhs, rhs = map(values, mean_value_P(CFG_A, pair(2.0, 1.0), pair(0.0, 1.0)))
    assert lhs == (8.0, 2.0) and rhs == (8.0, 2.0)
    lhs, rhs = map(values, mean_value_Q(CFG_A, pair(2.0, 0.0), pair(0.0, 0.0)))
    assert lhs == (4.0, 0.0) and rhs == (4.0, 0.0)
    lhs, rhs = map(values, mean_value_P(CFG_A, pair(1.5, -2.0), pair(1.5, -2.0)))
    assert lhs == (0.0, 0.0) and rhs == (0.0, 0.0)


def _rel_gap(lhs, rhs, fn, s1, s2):
    # Both sides are differences of O(|f|) quantities, so "relative" is
    # anchored to the magnitude of the evaluated maps, not to a possibly
    # cancelling result.
    (f1u, f1v), (f2u, f2v) = fn(CFG_A, s1), fn(CFG_A, s2)
    scale = np.maximum.reduce([np.abs(f1u), np.abs(f1v), np.abs(f2u),
                               np.abs(f2v), np.ones_like(f1u)])
    return max(float(np.max(np.abs(lhs[0] - rhs[0]) / scale)),
               float(np.max(np.abs(lhs[1] - rhs[1]) / scale)))


@pytest.mark.parametrize("identity,fn", [(mean_value_P, eval_p), (mean_value_Q, eval_q)])
def test_mean_value_identity_bulk(identity, fn):
    rng = np.random.default_rng(13)
    s1, s2 = rng.uniform(-10, 10, (2, 2, 100_000))
    lhs, rhs = identity(CFG_A, s1, s2)
    assert _rel_gap(lhs, rhs, fn, s1, s2) <= 1e-12


@settings(max_examples=300)
@given(state, state)
def test_mean_value_identity_hypothesis(s1, s2):
    for identity, fn in ((mean_value_P, eval_p), (mean_value_Q, eval_q)):
        lhs, rhs = map(values, identity(CFG_A, s1, s2))
        f1, f2 = values(fn(CFG_A, s1)), values(fn(CFG_A, s2))
        scale = max(abs(f1[0]), abs(f1[1]), abs(f2[0]), abs(f2[1]), 1.0)
        for a, b in zip(lhs, rhs):
            assert abs(a - b) <= 1e-12 * scale


def test_dual_exponent_table():
    assert dual_exponent(2) == 2.0
    assert dual_exponent(1) == 4.0 / 3.0
    assert dual_exponent(4) == 4.0
    assert dual_exponent(3) == 2.4
    with pytest.raises(ValueError):
        dual_exponent(5)
