"""Pointwise algebra of the two-species cross-diffusion model.

Nonlinear maps, their Jacobians, admissibility conditions on the
coefficients, the closed-form positivity margin of the diffusion matrix,
and the exact midpoint factorizations of differences of the quadratic
maps.  Everything here is a pure function of its inputs.

Each map is written once, on stacked pairs: arrays of shape (..., 2, N)
with u and v along the species axis (one pair is an array of shape
(2, 1)).  The maps ``eval_p``, ``eval_q``, ``eval_l``, ``jac_P`` and
``jac_Q`` read per-species coefficient columns that each
:class:`Coefficients` builds once, and compute every element in the order
of its scalar formula.  The time steps and the gates call the same maps,
so the gates check the formulas the marches run.  The maps do not scan
their input: finiteness is checked where data enter the program, by the
linear solver on its right-hand side, and by the march on each new level.
A Jacobian is its diagonal (J11, J22) and its off-diagonal (J12, J21),
each stacked like the state, and :func:`_apply` multiplies it into
stacked pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "CFG_A",
    "CoefficientError",
    "Coefficients",
    "ConditionReport",
    "admissible",
    "check_conditions",
    "dual_exponent",
    "eval_l",
    "eval_p",
    "eval_q",
    "inverse_norm_check",
    "jac_P",
    "jac_Q",
    "max_alpha",
    "mean_value_P",
    "mean_value_Q",
    "quad_form_margin",
]


class _SpeciesColumns(NamedTuple):
    """Coefficient columns (u row, v row) of the maps on stacked pairs.

    Each has shape (2, 1) and broadcasts along the species axis of a stacked
    pair w (..., 2, N), with u = w[..., :1, :] and v = w[..., 1:, :]:
    p(w) = (d + a_u u + a_v v) w; P(w) has diagonal (P11, P22) =
    d + pd_u u + pd_v v and off-diagonal (P12, P21) = p_off w;
    l(w) = growth w; q(w) = (b_u u + b_v v) w; Q(w) has diagonal
    qd_u u + qd_v v and off-diagonal (Q12, Q21) = q_off w.
    """

    d: np.ndarray
    a_u: np.ndarray
    a_v: np.ndarray
    pd_u: np.ndarray
    pd_v: np.ndarray
    p_off: np.ndarray
    growth: np.ndarray
    b_u: np.ndarray
    b_v: np.ndarray
    qd_u: np.ndarray
    qd_v: np.ndarray
    q_off: np.ndarray

    @classmethod
    def of(cls, c: Coefficients) -> _SpeciesColumns:
        # The products 2 a_ii, 2 b_1 and 2 c_2 are leading factors: P11 is
        # d1 + (2 a11) u + a12 v, the order of d1 + 2 a11 u + a12 v.
        pairs = ((c.d1, c.d2), (c.a11, c.a21), (c.a12, c.a22),
                 (2.0 * c.a11, c.a21), (c.a12, 2.0 * c.a22), (c.a12, c.a21),
                 (c.a1, c.a2), (c.b1, c.b2), (c.c1, c.c2),
                 (2.0 * c.b1, c.b2), (c.c1, 2.0 * c.c2), (c.c1, c.b2))
        columns = []
        for pair in pairs:
            col = np.array(pair, dtype=float).reshape(2, 1)
            col.flags.writeable = False
            columns.append(col)
        return cls(*columns)


class CoefficientError(ValueError):
    """Invalid model constants; ``coefficient`` names the one at fault."""

    def __init__(self, coefficient: str, message: str) -> None:
        super().__init__(message)
        self.coefficient = coefficient


#: Products of the a_ij in :func:`check_conditions` and :func:`max_alpha`,
#: each as (label, factor, x, y) for factor * x * y.  Once they are finite,
#: so is all the arithmetic of both: a12 a21 lies below the larger square,
#: and (2 a_ii)^2 bounds the squared entry gap of an endpoint matrix in
#: :func:`max_alpha`.
_ADMISSIBILITY_PRODUCTS = (
    ("(2 a11)^2", 4.0, "a11", "a11"), ("(2 a22)^2", 4.0, "a22", "a22"),
    ("a12^2", 1.0, "a12", "a12"), ("a21^2", 1.0, "a21", "a21"),
    ("8 a11 a21", 8.0, "a11", "a21"), ("8 a22 a12", 8.0, "a22", "a12"),
    ("64 a11 a22", 64.0, "a11", "a22"),
)


@dataclass(frozen=True)
class Coefficients:
    """Model constants: diffusion a_ij/d_i, competition b_i/c_i, growth a_i.

    ``d0 = min(d1, d2)``, the species columns ``columns`` and
    ``has_reactions`` are derived; no caller sets them.  ``has_reactions``
    is False exactly when the six reaction constants a1, a2, b1, b2, c1 and
    c2 are all +0.0.  Then l - q is a signed zero at every node, adding it
    to the flux Laplacian changes no bit of a level, and the forward steps
    skip it.  ``alpha`` is the positivity margin used in the quadratic-form
    lower bound; if not given it defaults to half the smallest
    cross/self-diffusion entry.  When any a_ij vanishes no positive margin
    can certify the bound, and the stored placeholder value is only there
    to keep downstream trackers well-defined.

    Invalid constants raise :class:`CoefficientError`, naming the one at
    fault: a negative or non-finite constant, an a_ij whose admissibility
    products overflow (the larger factor of the product), or alpha (the
    smallest a_ij when alpha is defaulted).
    """

    a11: float
    a12: float
    a21: float
    a22: float
    b1: float = 0.0
    b2: float = 0.0
    c1: float = 0.0
    c2: float = 0.0
    a1: float = 0.0
    a2: float = 0.0
    d1: float = 0.0
    d2: float = 0.0
    alpha: float | None = None
    d0: float = field(init=False)
    columns: _SpeciesColumns = field(init=False, repr=False, compare=False)
    has_reactions: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        stored = (self.a11, self.a12, self.a21, self.a22, self.b1, self.b2,
                  self.c1, self.c2, self.a1, self.a2, self.d1, self.d2)
        for name, val in zip(("a11", "a12", "a21", "a22", "b1", "b2", "c1",
                              "c2", "a1", "a2", "d1", "d2"), stored):
            if not math.isfinite(val) or val < 0.0:
                raise CoefficientError(name,
                                       f"coefficient {name} must be finite and >= 0, got {val}")
        for label, factor, x, y in _ADMISSIBILITY_PRODUCTS:
            if not math.isfinite(factor * getattr(self, x) * getattr(self, y)):
                culprit = max(x, y, key=lambda name: getattr(self, name))
                raise CoefficientError(culprit, f"coefficient product {label} overflows")
        object.__setattr__(self, "d0", min(self.d1, self.d2))
        object.__setattr__(self, "columns", _SpeciesColumns.of(self))
        # -0.0 counts as a reaction: its signed-zero products could flip
        # the sign of a zero in a level.
        object.__setattr__(self, "has_reactions", any(
            val != 0.0 or math.copysign(1.0, val) < 0.0
            for val in (self.a1, self.a2, self.b1, self.b2, self.c1, self.c2)))
        entries = {"a11": self.a11, "a12": self.a12, "a21": self.a21, "a22": self.a22}
        m = min(entries.values())
        culprit = "alpha"
        if self.alpha is None:
            culprit = min(entries, key=entries.get)
            object.__setattr__(self, "alpha", 0.5 * m if m > 0.0 else 0.5)
        alpha = self.alpha
        if not math.isfinite(alpha) or alpha <= 0.0:
            raise CoefficientError(culprit, f"alpha must be finite and > 0, got {alpha}")
        if m > 0.0 and alpha >= m:
            raise CoefficientError(
                culprit, f"alpha must satisfy 0 < alpha < min(a11, a12, a21, a22) = {m}, got {alpha}")


#: All twelve constants equal to one; the standard desk configuration.
CFG_A = Coefficients(1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the two strict admissibility conditions on the a_ij.

    ``margin_1_5c`` is 64*a11*a22 - a12*a21; ``margins_coef_cond`` is the
    pair (8*a11*a21 - a12**2, 8*a22*a12 - a21**2).  The boolean flags also
    require the corresponding strict lower bounds (products/squares > 0).
    """

    holds_1_5c: bool
    holds_coef_cond: bool
    margin_1_5c: float
    margins_coef_cond: tuple[float, float]


def eval_p(c: Coefficients, w: np.ndarray) -> np.ndarray:
    """Nonlinear diffusion flux map ((d1 + a11*u + a12*v)*u, (d2 + a21*u + a22*v)*v)
    of the stacked pairs ``w`` (..., 2, N), stacked like ``w``."""
    k = c.columns
    return (k.d + k.a_u * w[..., :1, :] + k.a_v * w[..., 1:, :]) * w


def eval_q(c: Coefficients, w: np.ndarray) -> np.ndarray:
    """Competition map ((b1*u + c1*v)*u, (b2*u + c2*v)*v) of the stacked pairs ``w``."""
    k = c.columns
    return (k.b_u * w[..., :1, :] + k.b_v * w[..., 1:, :]) * w


def eval_l(c: Coefficients, w: np.ndarray) -> np.ndarray:
    """Linear growth map (a1*u, a2*v) of the stacked pairs ``w``."""
    return c.columns.growth * w


def jac_P(c: Coefficients, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The flux Jacobian P at the stacked pairs ``w`` (..., 2, N) as its
    diagonal (P11, P22) and its off-diagonal (P12, P21), each stacked like
    ``w``; entries are affine in the state."""
    k = c.columns
    return k.d + k.pd_u * w[..., :1, :] + k.pd_v * w[..., 1:, :], k.p_off * w


def jac_Q(c: Coefficients, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The competition Jacobian Q at the stacked pairs ``w`` as its diagonal
    (Q11, Q22) and its off-diagonal (Q12, Q21), like :func:`jac_P`."""
    k = c.columns
    return k.qd_u * w[..., :1, :] + k.qd_v * w[..., 1:, :], k.q_off * w


def _apply(diag: np.ndarray, off: np.ndarray, x: np.ndarray) -> np.ndarray:
    """J x for the Jacobian J with diagonal ``diag`` and off-diagonal ``off``
    and the stacked pairs ``x``: reversing the pair axis pairs each species
    with the off-diagonal entry of its row, (J x)_u = J11 x_u + J12 x_v.
    The transpose is ``_apply(diag, off[..., ::-1, :], x)``."""
    return diag * x + off * x[..., ::-1, :]


def admissible(a11: float | np.ndarray, a12: float | np.ndarray, a21: float | np.ndarray,
               a22: float | np.ndarray) -> tuple:
    """The two strict admissibility conditions, elementwise over floats or
    arrays of the a_ij: condition (1.5c), 0 < a12 a21 < 64 a11 a22, and the
    coefficient condition, 0 < a12^2 < 8 a11 a21 and 0 < a21^2 < 8 a22 a12.
    """
    prod = a12 * a21
    return ((0.0 < prod) & (prod < 64.0 * a11 * a22),
            (0.0 < a12 ** 2) & (a12 ** 2 < 8.0 * a11 * a21)
            & (0.0 < a21 ** 2) & (a21 ** 2 < 8.0 * a22 * a12))


def check_conditions(c: Coefficients) -> ConditionReport:
    """Evaluate both admissibility predicates (:func:`admissible`) and their margins.

    No epsilon slack: boundary cases (equality) fail, and a12 = 0 or
    a21 = 0 fails the strict lower bounds.
    """
    holds_1, holds_cc = admissible(c.a11, c.a12, c.a21, c.a22)
    margin_1_5c = 64.0 * c.a11 * c.a22 - c.a12 * c.a21
    m_a = 8.0 * c.a11 * c.a21 - c.a12 ** 2
    m_b = 8.0 * c.a22 * c.a12 - c.a21 ** 2
    return ConditionReport(holds_1_5c=holds_1, holds_coef_cond=holds_cc,
                           margin_1_5c=margin_1_5c, margins_coef_cond=(m_a, m_b))


def quad_form_margin(c: Coefficients, w: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Margin of the quadratic-form lower bound at (state, direction) samples.

    ``w`` and ``xi`` are stacked pairs (..., 2, N).  Returns
    (P(w) xi) . xi - d0 |xi|^2 - alpha (u+v) |xi|^2, shape (..., N); a
    nonnegative value certifies the bound at its sample.  Requires a
    physical state (u, v >= 0).
    """
    if np.any(w < 0.0):
        raise ValueError("quad_form_margin requires nonnegative densities")
    p_xi = _apply(*jac_P(c, w), xi) * xi
    xi_sq = xi * xi
    quad = p_xi[..., 0, :] + p_xi[..., 1, :]
    nsq = xi_sq[..., 0, :] + xi_sq[..., 1, :]
    return quad - c.d0 * nsq - c.alpha * (w[..., 0, :] + w[..., 1, :]) * nsq


def _sym_eig(g11: np.ndarray, g22: np.ndarray, g12: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Half trace and half gap of [[g11, g12], [g12, g22]], whose eigenvalues are half_tr -+ disc."""
    half_tr = 0.5 * (g11 + g22)
    disc = np.sqrt(np.maximum(0.25 * (g11 - g22) ** 2 + g12 ** 2, 0.0))
    return half_tr, disc


def max_alpha(c: Coefficients) -> float:
    """Largest positivity margin alpha that the coefficients certify.

    P(s) = diag(d1, d2) + A(s) with A linear in s, so (P(s) xi) . xi >=
    d0 |xi|^2 + alpha (u + v) |xi|^2 holds for every physical state and
    direction exactly when alpha <= lambda_min(sym A(sigma)) for every
    density direction sigma = (t, 1 - t), t in [0, 1].  sym A(sigma) is
    affine in t and lambda_min is concave on symmetric matrices, so the
    infimum is attained at t = 1 or t = 0, where sym A is
    [[2 a11, a12/2], [a12/2, a21]] and [[a12, a21/2], [a21/2, 2 a22]].
    Their determinants are positive exactly when a12^2 < 8 a11 a21 and
    a21^2 < 8 a22 a12: the strict coefficient condition, required here,
    states that both endpoint matrices are positive definite.

    The smaller eigenvalue of [[g11, g12], [g12, g22]] is taken as
    det / lambda_max, det = g11 g22 - g12^2 and lambda_max = half_tr + disc,
    since half_tr - disc cancels when one entry dwarfs the others.  Each
    endpoint matrix is first scaled by a power of two (exactly) to a largest
    entry in [1/2, 1), so that det neither underflows nor overflows.  The
    result is lowered by a bound on its rounding error to first order in the
    unit roundoff u, with one relative error u per operation on exact
    entries: u (g11 g22 + g12^2 + |det|) for det; u (half_tr + 3 disc +
    lambda_max) for lambda_max (the sum, the root, their sum), whose
    relative error carries over to the quotient; u |lambda| for the division
    and u |lambda| for the final subtraction.  In all, u ((g11 g22 + g12^2 +
    |lambda| (half_tr + 3 disc)) / lambda_max + 4 |lambda|).  The result is
    capped just below min a_ij, which :class:`Coefficients` requires of
    alpha.
    """
    report = check_conditions(c)
    if not report.holds_coef_cond:
        raise ValueError(
            "max_alpha requires the strict coefficient condition "
            "0 < a12^2 < 8 a11 a21 and 0 < a21^2 < 8 a22 a12; "
            f"margins were {report.margins_coef_cond}")
    ends = np.array([[2.0 * c.a11, c.a21, 0.5 * c.a12], [c.a12, 2.0 * c.a22, 0.5 * c.a21]])
    _, exponent = np.frexp(ends.max(axis=1))
    g11, g22, g12 = np.ldexp(ends, -exponent[:, None]).T
    half_tr, disc = _sym_eig(g11, g22, g12)
    lam_max = half_tr + disc
    g11g22, g12g12 = g11 * g22, g12 * g12
    lam = (g11g22 - g12g12) / lam_max
    lam -= 2.0 ** -53 * ((g11g22 + g12g12 + np.abs(lam) * (half_tr + 3.0 * disc)) / lam_max
                         + 4.0 * np.abs(lam))
    lam = np.ldexp(lam, exponent)
    return min(float(lam.min()), math.nextafter(min(c.a11, c.a12, c.a21, c.a22), 0.0))


def inverse_norm_check(c: Coefficients, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Operator 2-norm of P(w)^-1 next to the margin bound 1/(d0 + alpha(u+v))
    at the stacked pairs ``w`` (..., 2, N), each of shape (..., N).

    The caller asserts first <= second.  The norm comes from the closed-form
    smallest singular value of the 2x2 matrix (no iteration).  Requires a
    physical state and the coefficient condition.
    """
    if np.any(w < 0.0):
        raise ValueError("inverse_norm_check requires nonnegative densities")
    if not check_conditions(c).holds_coef_cond:
        raise ValueError("inverse_norm_check requires the strict coefficient condition")
    diag, off = jac_P(c, w)
    p11, p22, p12, p21 = diag[..., 0, :], diag[..., 1, :], off[..., 0, :], off[..., 1, :]
    # Eigenvalues of P^T P give the singular values.
    half_tr, disc = _sym_eig(p11 ** 2 + p21 ** 2, p12 ** 2 + p22 ** 2, p11 * p12 + p21 * p22)
    smin_sq = half_tr - disc
    if np.any(smin_sq <= 0.0):
        raise ValueError("singular diffusion matrix; conditions must be violated")
    return 1.0 / np.sqrt(smin_sq), 1.0 / (c.d0 + c.alpha * (w[..., 0, :] + w[..., 1, :]))


def mean_value_P(c: Coefficients, w1: np.ndarray, w2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the exact midpoint identity p(w1) - p(w2) = P((w1+w2)/2)(w1-w2)
    at the stacked pairs ``w1`` and ``w2``.

    The identity is algebraic (p is quadratic), so the two returned sides
    agree to machine precision.
    """
    return eval_p(c, w1) - eval_p(c, w2), _apply(*jac_P(c, 0.5 * (w1 + w2)), w1 - w2)


def mean_value_Q(c: Coefficients, w1: np.ndarray, w2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the exact midpoint identity q(w1) - q(w2) = Q((w1+w2)/2)(w1-w2)."""
    return eval_q(c, w1) - eval_q(c, w2), _apply(*jac_Q(c, 0.5 * (w1 + w2)), w1 - w2)


def dual_exponent(d: int) -> float:
    """Lebesgue exponent max(2d/(6-d), 4d/(d+2)) controlling initial-data dependence."""
    if d not in (1, 2, 3, 4):
        raise ValueError(f"dimension must be in {{1, 2, 3, 4}}, got {d}")
    return max(2.0 * d / (6.0 - d), 4.0 * d / (d + 2.0))
