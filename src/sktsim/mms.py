"""Manufactured solutions: closed-form residual forcing for scheme verification.

Given target fields (u*, v*), the continuum residual

    F = dt(u*) - Lap p(u*) + q(u*) - l(u*)

is injected as a source term, so the discrete error against the target is
measurable directly.  Because p is quadratic, Lap p needs only each target's
value, gradient and Laplacian:

    Lap p1 = (d1 + 2 a11 u + a12 v) Lap u + a12 u Lap v
             + 2 a11 |grad u|^2 + 2 a12 grad u . grad v,

and Lap p2 is the same with the species swapped.  The one target here,
:class:`ManufacturedSolution`, has zero normal derivative on the walls of
the box of the grid it is evaluated on, so it suits Neumann runs on any
box length.

The fields and the forcing are evaluated for a 1-D array of times at once,
which is how :func:`sktsim.forward.manufactured_convergence` asks for the
forcing of a block of steps: the grid coordinates and the parts of the
targets that do not depend on time are built once per call, ``math.exp`` is
applied per time, and the rest broadcasts, so each time's values are bit for
bit those of a call at that time alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sktsim.algebra import Coefficients
from sktsim.grid import Grid

__all__ = ["ManufacturedSolution", "bump_profile", "heat_limit_coefficients",
           "polynomial_neumann_solution"]


@dataclass(frozen=True)
class ManufacturedSolution:
    """Positive cubic-profile targets with zero normal derivative on the
    walls of the box they are evaluated on, and their residual forcing.

    On a grid of box length L the spatial profile W is the product over
    axes of w(s) = s^2 (3 - 2s), s = x / L, which has vanishing derivative
    at both walls; u = 1 + exp(-t) W / 2 and v = 1 + exp(-2t) (1 - W) / 2
    decay at different rates so the cross terms are exercised.
    :meth:`field` and :meth:`forcing` evaluate the targets' values,
    gradients, Laplacians and time derivatives once for all the times they
    are given, and :meth:`forcing` applies the Lap p identity of the module
    docstring to them.  Both take a scalar t, giving one stacked pair
    (2, *grid.shape), or a 1-D array of times, giving one stacked pair per
    time (len(t), 2, *grid.shape); the values at a time do not depend on
    the other times asked for.
    """

    coefficients: Coefficients
    dim: int

    def _targets(self, grid: Grid, t) -> tuple[np.ndarray, tuple]:
        """The times as an array and, for u and then v, the tuple (value,
        gradient components, Laplacian, time derivative), each broadcasting
        to (len(times), *grid.shape)."""
        if grid.dim != self.dim:
            raise ValueError(f"manufactured solution is {self.dim}D, grid is {grid.dim}D")
        times = np.asarray(t, dtype=float)
        if times.ndim > 1:
            raise ValueError(f"times must be a scalar or a 1-D array, got shape {times.shape}")
        L = grid.length
        s = [x / L for x in grid.meshgrid()]
        w = [si * si * (3.0 - 2.0 * si) for si in s]
        W = math.prod(w)
        rest = [math.prod(w[:i] + w[i + 1:]) for i in range(len(w))]  # W without axis i
        grad = [6.0 * si * (1.0 - si) / L * r for si, r in zip(s, rest)]
        lap = sum((6.0 - 12.0 * si) / L ** 2 * r for si, r in zip(s, rest))
        # The time factors, one per time, broadcast along the grid axes.
        per_time = (-1,) + (1,) * grid.dim
        flat = times.reshape(-1).tolist()
        a = np.array([0.5 * math.exp(-t) for t in flat]).reshape(per_time)
        b = np.array([0.5 * math.exp(-2.0 * t) for t in flat]).reshape(per_time)
        return times, ((1.0 + a * W, [a * g for g in grad], a * lap, -a * W),
                       (1.0 + b * (1.0 - W), [-b * g for g in grad], -b * lap,
                        -2.0 * b * (1.0 - W)))

    @staticmethod
    def _stacked(grid: Grid, times: np.ndarray, u, v) -> np.ndarray:
        """u and v, each broadcast to (len(times), *grid.shape), as stacked
        pairs; one pair for a scalar time."""
        out = np.empty((times.size, 2, *grid.shape))
        out[:, 0], out[:, 1] = u, v
        return out[0] if times.ndim == 0 else out

    def field(self, grid: Grid, t) -> np.ndarray:
        """The exact fields at time t (a scalar or a 1-D array) as stacked pairs."""
        times, ((u, *_), (v, *_)) = self._targets(grid, t)
        return self._stacked(grid, times, u, v)

    def forcing(self, grid: Grid, t) -> np.ndarray:
        """The residual forcing at time t (a scalar or a 1-D array) as stacked pairs."""
        c = self.coefficients
        times, ((u, gu, lu, tu), (v, gv, lv, tv)) = self._targets(grid, t)
        cross = sum(a * b for a, b in zip(gu, gv))
        lap_p1 = ((c.d1 + 2.0 * c.a11 * u + c.a12 * v) * lu + c.a12 * u * lv
                  + 2.0 * c.a11 * sum(g * g for g in gu) + 2.0 * c.a12 * cross)
        lap_p2 = ((c.d2 + c.a21 * u + 2.0 * c.a22 * v) * lv + c.a21 * v * lu
                  + 2.0 * c.a22 * sum(g * g for g in gv) + 2.0 * c.a21 * cross)
        return self._stacked(grid, times, tu - lap_p1 + (c.b1 * u + c.c1 * v - c.a1) * u,
                             tv - lap_p2 + (c.b2 * u + c.c2 * v - c.a2) * v)


def polynomial_neumann_solution(c: Coefficients, dim: int) -> ManufacturedSolution:
    """The cubic-profile targets (:class:`ManufacturedSolution`) for the
    coefficients ``c`` in ``dim`` dimensions."""
    return ManufacturedSolution(c, dim)


def heat_limit_coefficients() -> Coefficients:
    """Decoupled linear-diffusion limit: unit diffusion, all a_ij, b, c, growth zero."""
    return Coefficients(0, 0, 0, 0, d1=1.0, d2=1.0)


def bump_profile(grid: Grid, center: float, width: float, amplitude: float) -> np.ndarray:
    """Smooth compactly supported bump, C-infinity, amplitude at the center."""
    coords = grid.meshgrid()
    r_sq = sum(((x - center) / width) ** 2 for x in coords)
    out = np.zeros(grid.shape)
    inside = r_sq < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - r_sq[inside]))
    return out
