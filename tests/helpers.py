"""Helpers and constants that several test modules share."""

import math

import numpy as np

import sktsim.adjoint
from sktsim.grid import BoundaryCondition, _extend, _grad_stencil, h1_norms

NEU = BoundaryCondition.NEUMANN
DIR = BoundaryCondition.DIRICHLET


def component_h1(arr, grid, bc):
    """Discrete H1 norm of one unbatched component, summed over the whole grid."""
    vol, h, dim = grid.cell_volume, grid.h, grid.dim
    grad_sq = sum(g * g for g in _grad_stencil(_extend(arr, bc, dim), h, dim))
    return float(np.sqrt(vol * np.sum(arr ** 2) + vol * np.sum(grad_sq)))


def constant_pair(grid, cu, cv):
    """The stacked pair (2, *grid.shape) with constant species cu and cv."""
    return np.stack((np.full(grid.shape, float(cu)), np.full(grid.shape, float(cv))))


def pair_h1(grid, w, bc):
    """H1 norm sqrt(hu^2 + hv^2) of a stacked pair (2, *grid.shape)."""
    hu, hv = h1_norms(grid, w, bc).tolist()
    return math.sqrt(hu ** 2 + hv ** 2)


def frozen_alone(c, grid, state, bc=None, dt=None):
    """The stacked ``state`` frozen on its own, as the marches freeze their
    states: for step_adjoint_backward given bc and dt, else for
    step_adjoint_transpose."""
    if dt is None:
        return sktsim.adjoint._freeze_transpose(c, grid, state[None])[0]
    return sktsim.adjoint._freeze(c, grid, state[None], bc, dt)[0]
