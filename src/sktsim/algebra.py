"""Pointwise algebra of the two-species cross-diffusion model.

Nonlinear maps, their Jacobians, admissibility conditions on the
coefficients, positivity-margin certificates for the diffusion matrix,
and the exact midpoint factorizations of differences of the quadratic
maps.  Everything here is a pure function of its inputs; all operations
broadcast over numpy arrays so the same code serves scalars and whole
grids.

The time steps evaluate the maps on stacked pairs instead: arrays of shape
(..., 2, N) with u and v along the species axis, through the unchecked
cores ``_stacked_p``, ``_stacked_P``, ``_stacked_reaction`` and
``_stacked_Q``.  They read per-species coefficient columns that each
:class:`Coefficients` builds once, and every element is computed in the
order of its scalar formula, so they agree with the pair maps bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

__all__ = [
    "CFG_A",
    "Coefficients",
    "ConditionReport",
    "Matrix2",
    "SpeciesPair",
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


class SpeciesPair(NamedTuple):
    """Pair of species values (densities, differences, or adjoint components).

    Entries may be scalars or numpy arrays of matching shape.  Negative
    entries are allowed so the same type represents differences of states;
    operations that require physical (nonnegative) states say so.
    """

    u: float | np.ndarray
    v: float | np.ndarray


class Matrix2(NamedTuple):
    """2x2 matrix with scalar or array entries."""

    m11: float | np.ndarray
    m12: float | np.ndarray
    m21: float | np.ndarray
    m22: float | np.ndarray

    def apply(self, s: SpeciesPair) -> SpeciesPair:
        return SpeciesPair(self.m11 * s.u + self.m12 * s.v,
                           self.m21 * s.u + self.m22 * s.v)


class _SpeciesColumns(NamedTuple):
    """Coefficient columns (u row, v row) of the maps on stacked pairs.

    Each has shape (2, 1) and broadcasts along the species axis of a stacked
    pair w (..., 2, N), with u = w[..., :1, :] and v = w[..., 1:, :]:
    p(w) = (d + a_u u + a_v v) w; P(w) has diagonal (P11, P22) =
    d + pd_u u + pd_v v and off-diagonal (P12, P21) = p_off w;
    l(w) - q(w) = growth w - (b_u u + b_v v) w; Q(w) has diagonal
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
        # The products 2 a_ii and 2 b_1, 2 c_2 are the first factors of the
        # scalar formulas (2.0 * c.a11 * u is (2.0 * c.a11) * u).
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


@dataclass(frozen=True)
class Coefficients:
    """Model constants: diffusion a_ij/d_i, competition b_i/c_i, growth a_i.

    ``d0 = min(d1, d2)`` and the species columns ``columns`` are derived.  ``alpha`` is the positivity margin used
    in the quadratic-form lower bound; if not given it defaults to half the
    smallest cross/self-diffusion entry.  When any a_ij vanishes no positive
    margin can certify the bound, and the stored placeholder value is only
    there to keep downstream trackers well-defined.
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

    def __post_init__(self) -> None:
        stored = (self.a11, self.a12, self.a21, self.a22, self.b1, self.b2,
                  self.c1, self.c2, self.a1, self.a2, self.d1, self.d2)
        for name, val in zip(("a11", "a12", "a21", "a22", "b1", "b2", "c1",
                              "c2", "a1", "a2", "d1", "d2"), stored):
            if not math.isfinite(val) or val < 0.0:
                raise ValueError(f"coefficient {name} must be finite and >= 0, got {val}")
        object.__setattr__(self, "d0", min(self.d1, self.d2))
        object.__setattr__(self, "columns", _SpeciesColumns.of(self))
        m = min(self.a11, self.a12, self.a21, self.a22)
        if self.alpha is None:
            object.__setattr__(self, "alpha", 0.5 * m if m > 0.0 else 0.5)
        alpha = self.alpha
        if not math.isfinite(alpha) or alpha <= 0.0:
            raise ValueError(f"alpha must be finite and > 0, got {alpha}")
        if m > 0.0 and alpha >= m:
            raise ValueError(f"alpha must satisfy 0 < alpha < min(a11, a12, a21, a22) = {m}, got {alpha}")

    def with_alpha(self, alpha: float) -> "Coefficients":
        return replace(self, alpha=alpha)


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


def _require_finite(*values) -> None:
    for val in values:
        arr = np.asarray(val, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite input")


# The pair maps below check their input.  The time steps, whose levels the
# march checks for finiteness, call the unchecked stacked cores instead.

def eval_p(c: Coefficients, s: SpeciesPair) -> SpeciesPair:
    """Nonlinear diffusion flux map ((d1 + a11*u + a12*v)*u, (d2 + a21*u + a22*v)*v)."""
    _require_finite(s.u, s.v)
    u, v = s
    return SpeciesPair((c.d1 + c.a11 * u + c.a12 * v) * u,
                       (c.d2 + c.a21 * u + c.a22 * v) * v)


def eval_q(c: Coefficients, s: SpeciesPair) -> SpeciesPair:
    """Competition map ((b1*u + c1*v)*u, (b2*u + c2*v)*v)."""
    _require_finite(s.u, s.v)
    u, v = s
    return SpeciesPair((c.b1 * u + c.c1 * v) * u, (c.b2 * u + c.c2 * v) * v)


def eval_l(c: Coefficients, s: SpeciesPair) -> SpeciesPair:
    """Linear growth map (a1*u, a2*v)."""
    _require_finite(s.u, s.v)
    return SpeciesPair(c.a1 * s.u, c.a2 * s.v)


def jac_P(c: Coefficients, s: SpeciesPair) -> Matrix2:
    """Jacobian of the diffusion flux map; entries are affine in the state."""
    _require_finite(s.u, s.v)
    u, v = s
    return Matrix2(c.d1 + 2.0 * c.a11 * u + c.a12 * v, c.a12 * u,
                   c.a21 * v, c.d2 + c.a21 * u + 2.0 * c.a22 * v)


def jac_Q(c: Coefficients, s: SpeciesPair) -> Matrix2:
    """Jacobian of the competition map."""
    _require_finite(s.u, s.v)
    u, v = s
    return Matrix2(2.0 * c.b1 * u + c.c1 * v, c.c1 * u,
                   c.b2 * v, c.b2 * u + 2.0 * c.c2 * v)


def _stacked_p(c: Coefficients, w: np.ndarray) -> np.ndarray:
    """p of the stacked pairs ``w`` (..., 2, N), stacked like ``w``."""
    k = c.columns
    return (k.d + k.a_u * w[..., :1, :] + k.a_v * w[..., 1:, :]) * w


def _stacked_P(c: Coefficients, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The flux Jacobian P at the stacked pairs ``w`` (..., 2, N) as its
    diagonal (P11, P22) and its off-diagonal (P12, P21), each stacked like ``w``."""
    k = c.columns
    return k.d + k.pd_u * w[..., :1, :] + k.pd_v * w[..., 1:, :], k.p_off * w


def _stacked_reaction(c: Coefficients, w: np.ndarray) -> np.ndarray:
    """l - q of the stacked pairs ``w`` (..., 2, N), stacked like ``w``."""
    k = c.columns
    return k.growth * w - (k.b_u * w[..., :1, :] + k.b_v * w[..., 1:, :]) * w


def _stacked_Q(c: Coefficients, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The competition Jacobian Q at the stacked pairs ``w`` as its diagonal
    (Q11, Q22) and its off-diagonal (Q12, Q21), like :func:`_stacked_P`."""
    k = c.columns
    return k.qd_u * w[..., :1, :] + k.qd_v * w[..., 1:, :], k.q_off * w


def check_conditions(c: Coefficients) -> ConditionReport:
    """Evaluate both admissibility predicates with strict inequalities.

    No epsilon slack: boundary cases (equality) fail, and a12 = 0 or
    a21 = 0 fails the strict lower bounds.
    """
    prod = c.a12 * c.a21
    margin_1_5c = 64.0 * c.a11 * c.a22 - prod
    holds_1 = 0.0 < prod and prod < 64.0 * c.a11 * c.a22
    m_a = 8.0 * c.a11 * c.a21 - c.a12 ** 2
    m_b = 8.0 * c.a22 * c.a12 - c.a21 ** 2
    holds_cc = (0.0 < c.a12 ** 2 and c.a12 ** 2 < 8.0 * c.a11 * c.a21
                and 0.0 < c.a21 ** 2 and c.a21 ** 2 < 8.0 * c.a22 * c.a12)
    return ConditionReport(holds_1_5c=holds_1, holds_coef_cond=holds_cc,
                           margin_1_5c=margin_1_5c, margins_coef_cond=(m_a, m_b))


def quad_form_margin(c: Coefficients, s: SpeciesPair, xi) -> float | np.ndarray:
    """Margin of the quadratic-form lower bound at one (state, direction) sample.

    Returns (P(s) xi) . xi - d0 |xi|^2 - alpha (u+v) |xi|^2; a nonnegative
    value certifies the bound at this sample.  Requires a physical state
    (u, v >= 0).
    """
    _require_finite(s.u, s.v, xi[0], xi[1])
    if np.any(np.asarray(s.u) < 0.0) or np.any(np.asarray(s.v) < 0.0):
        raise ValueError("quad_form_margin requires nonnegative densities")
    x1, x2 = xi
    P = jac_P(c, s)
    quad = (P.m11 * x1 + P.m12 * x2) * x1 + (P.m21 * x1 + P.m22 * x2) * x2
    nsq = x1 * x1 + x2 * x2
    return quad - c.d0 * nsq - c.alpha * (s.u + s.v) * nsq


def _state_part_min_eig(c: Coefficients, sigma_u: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the symmetrized state-linear part of P.

    P(s) = diag(d1, d2) + A(s) with A linear in s, so the quadratic form of
    A on a state ray depends only on the density direction sigma on the
    simplex {sigma_u + sigma_v = 1}.  Returns lambda_min(sym A(sigma)).
    """
    x = sigma_u
    y = 1.0 - x
    a11 = 2.0 * c.a11 * x + c.a12 * y
    a22 = c.a21 * x + 2.0 * c.a22 * y
    off = 0.5 * (c.a12 * x + c.a21 * y)
    half_tr = 0.5 * (a11 + a22)
    disc = np.sqrt(np.maximum(0.25 * (a11 - a22) ** 2 + off ** 2, 0.0))
    return half_tr - disc


def _ray_infimum(c: Coefficients) -> float:
    """Infimum over density rays and directions of the normalized form of A.

    Dense scan of the closed-form eigenvalue over the density simplex,
    shaved by the exact Lipschitz bound of the eigenvalue in the scan
    variable so the returned value never exceeds the true infimum.
    """
    n_scan = 65537
    x = np.linspace(0.0, 1.0, n_scan)
    lam = _state_part_min_eig(c, x)
    # lambda_min is 1-Lipschitz in the matrix (Frobenius), and sym A is
    # affine in x, so |dlam/dx| <= ||S1||_F with S1 the slope matrix.
    s11 = 2.0 * c.a11 - c.a12
    s22 = c.a21 - 2.0 * c.a22
    soff = 0.5 * (c.a12 - c.a21)
    lip = math.sqrt(s11 ** 2 + s22 ** 2 + 2.0 * soff ** 2)
    gap = 1.0 / (n_scan - 1)
    return float(lam.min()) - 0.5 * lip * gap


def max_alpha(c: Coefficients) -> float:
    """Largest positivity margin alpha that the ray infimum certifies.

    P = diag(d1, d2) + A(s) with A linear in s, so (P(s) xi) . xi >=
    d0 |xi|^2 + alpha (u + v) |xi|^2 holds for every physical state and
    direction exactly when alpha <= lambda_min(sym A(sigma)) for every
    density direction sigma on the simplex.  Returns the Lipschitz-shaved
    scan of that infimum (:func:`_ray_infimum`), which never exceeds it,
    capped just below min(a11, a12, a21, a22) because :class:`Coefficients`
    requires alpha < min a_ij.  Deterministic; requires the strict
    coefficient condition.
    """
    report = check_conditions(c)
    if not report.holds_coef_cond:
        raise ValueError(
            "max_alpha requires the strict coefficient condition "
            "0 < a12^2 < 8 a11 a21 and 0 < a21^2 < 8 a22 a12; "
            f"margins were {report.margins_coef_cond}")
    return min(_ray_infimum(c), math.nextafter(min(c.a11, c.a12, c.a21, c.a22), 0.0))


def inverse_norm_check(c: Coefficients, s: SpeciesPair) -> tuple[float, float]:
    """Operator 2-norm of P(s)^-1 next to the margin bound 1/(d0 + alpha(u+v)).

    The caller asserts first <= second.  The norm comes from the closed-form
    smallest singular value of the 2x2 matrix (no iteration).  Requires a
    physical state and the coefficient condition.
    """
    if np.any(np.asarray(s.u) < 0.0) or np.any(np.asarray(s.v) < 0.0):
        raise ValueError("inverse_norm_check requires nonnegative densities")
    if not check_conditions(c).holds_coef_cond:
        raise ValueError("inverse_norm_check requires the strict coefficient condition")
    P = jac_P(c, s)
    # Eigenvalues of P^T P give the singular values.
    g11 = P.m11 ** 2 + P.m21 ** 2
    g22 = P.m12 ** 2 + P.m22 ** 2
    g12 = P.m11 * P.m12 + P.m21 * P.m22
    half_tr = 0.5 * (g11 + g22)
    disc = np.sqrt(np.maximum(0.25 * (g11 - g22) ** 2 + g12 ** 2, 0.0))
    smin_sq = half_tr - disc
    if np.any(smin_sq <= 0.0):
        raise ValueError("singular diffusion matrix; conditions must be violated")
    inv_norm = 1.0 / np.sqrt(smin_sq)
    bound = 1.0 / (c.d0 + c.alpha * (s.u + s.v))
    if np.ndim(inv_norm) == 0:
        return float(inv_norm), float(bound)
    return inv_norm, bound


def _midpoint(s1: SpeciesPair, s2: SpeciesPair) -> SpeciesPair:
    return SpeciesPair(0.5 * (s1.u + s2.u), 0.5 * (s1.v + s2.v))


def _diff(s1: SpeciesPair, s2: SpeciesPair) -> SpeciesPair:
    return SpeciesPair(s1.u - s2.u, s1.v - s2.v)


def mean_value_P(c: Coefficients, s1: SpeciesPair, s2: SpeciesPair) -> tuple[SpeciesPair, SpeciesPair]:
    """Both sides of the exact midpoint identity p(s1) - p(s2) = P((s1+s2)/2)(s1-s2).

    The identity is algebraic (p is quadratic), so the two returned pairs
    agree to machine precision.
    """
    p1, p2 = eval_p(c, s1), eval_p(c, s2)
    lhs = SpeciesPair(p1.u - p2.u, p1.v - p2.v)
    rhs = jac_P(c, _midpoint(s1, s2)).apply(_diff(s1, s2))
    return lhs, rhs


def mean_value_Q(c: Coefficients, s1: SpeciesPair, s2: SpeciesPair) -> tuple[SpeciesPair, SpeciesPair]:
    """Both sides of the exact midpoint identity q(s1) - q(s2) = Q((s1+s2)/2)(s1-s2)."""
    q1, q2 = eval_q(c, s1), eval_q(c, s2)
    lhs = SpeciesPair(q1.u - q2.u, q1.v - q2.v)
    rhs = jac_Q(c, _midpoint(s1, s2)).apply(_diff(s1, s2))
    return lhs, rhs


def dual_exponent(d: int) -> float:
    """Lebesgue exponent max(2d/(6-d), 4d/(d+2)) controlling initial-data dependence."""
    if d not in (1, 2, 3, 4):
        raise ValueError(f"dimension must be in {{1, 2, 3, 4}}, got {d}")
    return max(2.0 * d / (6.0 - d), 4.0 * d / (d + 2.0))
