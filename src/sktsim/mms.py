"""Manufactured solutions: closed-form residual forcing for scheme verification.

Given target fields (u*, v*), the continuum residual

    F = dt(u*) - Lap p(u*) + q(u*) - l(u*)

is injected as a source term, so the discrete error against the target is
measurable directly.  Because p is quadratic, Lap p needs only each target's
value, gradient and Laplacian:

    Lap p1 = (d1 + 2 a11 u + a12 v) Lap u + a12 u Lap v
             + 2 a11 |grad u|^2 + 2 a12 grad u . grad v,

and Lap p2 is the same with the species swapped.  Target fields should be
compatible with the boundary condition of the run (zero normal derivative
for Neumann, zero trace for Dirichlet).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from sktsim.algebra import Coefficients
from sktsim.grid import Grid

__all__ = ["ManufacturedSolution", "bump_profile", "heat_limit_coefficients",
           "polynomial_neumann_solution"]


@dataclass(frozen=True)
class ManufacturedSolution:
    """Exact fields and residual forcing on cell centers.

    ``jets(coords, t)`` returns, for u and then v, the tuple (value, gradient
    components, Laplacian, time derivative) at the cell-center coordinates
    ``coords`` (one array per axis); :meth:`forcing` applies the Lap p
    identity of the module docstring to them.
    """

    coefficients: Coefficients
    dim: int
    jets: Callable[[tuple[np.ndarray, ...], float], tuple]

    def _jets_on(self, grid: Grid, t: float) -> tuple:
        if grid.dim != self.dim:
            raise ValueError(f"manufactured solution is {self.dim}D, grid is {grid.dim}D")
        return self.jets(grid.meshgrid(), t)

    def field(self, grid: Grid, t: float) -> np.ndarray:
        """The exact fields at time t as a stacked pair (2, *grid.shape)."""
        (u, *_), (v, *_) = self._jets_on(grid, t)
        return np.stack((u, v))

    def forcing(self, grid: Grid, t: float) -> np.ndarray:
        """The residual forcing at time t as a stacked pair (2, *grid.shape)."""
        c = self.coefficients
        (u, gu, lu, tu), (v, gv, lv, tv) = self._jets_on(grid, t)
        cross = sum(a * b for a, b in zip(gu, gv))
        lap_p1 = ((c.d1 + 2.0 * c.a11 * u + c.a12 * v) * lu + c.a12 * u * lv
                  + 2.0 * c.a11 * sum(g * g for g in gu) + 2.0 * c.a12 * cross)
        lap_p2 = ((c.d2 + c.a21 * u + 2.0 * c.a22 * v) * lv + c.a21 * v * lu
                  + 2.0 * c.a22 * sum(g * g for g in gv) + 2.0 * c.a21 * cross)
        return np.stack((tu - lap_p1 + (c.b1 * u + c.c1 * v - c.a1) * u,
                         tv - lap_p2 + (c.b2 * u + c.c2 * v - c.a2) * v))


def polynomial_neumann_solution(c: Coefficients, dim: int, length: float = 1.0) -> ManufacturedSolution:
    """Positive cubic-profile targets with zero normal derivative on the walls.

    The spatial profile W is the product over axes of w(s) = s^2 (3 - 2s),
    s = x / length, which has vanishing derivative at both walls;
    u = 1 + exp(-t) W / 2 and v = 1 + exp(-2t) (1 - W) / 2 decay at
    different rates so the cross terms are exercised.
    """

    def jets(coords: tuple[np.ndarray, ...], t: float) -> tuple:
        s = [x / length for x in coords]
        w = [si * si * (3.0 - 2.0 * si) for si in s]
        W = math.prod(w)
        rest = [math.prod(w[:i] + w[i + 1:]) for i in range(len(w))]  # W without axis i
        grad = [6.0 * si * (1.0 - si) / length * r for si, r in zip(s, rest)]
        lap = sum((6.0 - 12.0 * si) / length ** 2 * r for si, r in zip(s, rest))
        a, b = 0.5 * math.exp(-t), 0.5 * math.exp(-2.0 * t)
        return ((1.0 + a * W, [a * g for g in grad], a * lap, -a * W),
                (1.0 + b * (1.0 - W), [-b * g for g in grad], -b * lap, -2.0 * b * (1.0 - W)))

    return ManufacturedSolution(c, dim, jets)


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
