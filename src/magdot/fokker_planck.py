"""Finite-volume drift-diffusion solver for the continuum pointer density.

Advances dP/dt = d/dm [ -v(m) P + (w(m)/N) dP/dm ] on [-1, 1] with
exponentially fitted (Chang-Cooper style) face fluxes:

    J_f = (D_f/dm) [ B(-p_f) P_left - B(p_f) P_right ],   p_f = v_f dm / D_f

with B(x) = x/(e^x - 1), `special.bernoulli`.  The fitting makes the
discrete stationary state exactly the mesh exponential of the face-midpoint
integral of N v/w, keeps cell couplings nonnegative at any Peclet number,
and reduces to upwinding in the drift-dominated limit.  Boundaries are
zero-flux: the drift points inward at m = +/-1 and probability cannot leave
the physical interval.

The solver holds each cell's probability mass, P dm, in the master
equation's `DiscreteDistribution` on the grid of cell centres, whose
`density()` is P.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .integrator import Generator, integrate
from .master import DiscreteDistribution, start_params
from .model import ModelParams, diffusion_w, drift_v
from .special import bernoulli

__all__ = [
    "FPConfig",
    "MAX_CELLS",
    "generator",
    "initial_field",
    "solve_fp",
    "equilibrium_profile",
    "gaussian_field",
]

# A run holds about a dozen float arrays of the mesh (two dozen to measure),
# 8 MB each at 10**6 cells: a few hundred MB, 30x the mesh that N = 10**6 needs.
MAX_CELLS = 10**6


@dataclass(frozen=True)
class FPConfig:
    cells: int = 2000

    def __post_init__(self):
        if not 100 <= self.cells <= MAX_CELLS:
            raise ValueError(f"cells must lie in [100, {MAX_CELLS}]")


def _mesh(cells: int) -> np.ndarray:
    dm = 2.0 / cells
    return -1.0 + dm * (np.arange(cells) + 0.5)


def _face_rates(params: ModelParams, cells: int):
    """Per-cell hop rates (up, down) of the finite-volume operator, and the
    faces' Peclet numbers."""
    dm = 2.0 / cells
    faces = -1.0 + dm * np.arange(1, cells)
    v_f = drift_v(params, faces)
    d_f = diffusion_w(params, faces) / params.n_spins
    pe = v_f * dm / d_f
    e_f = d_f / dm**2
    up = np.zeros(cells)
    down = np.zeros(cells)
    up[:-1] = e_f * bernoulli(-pe)   # cell j -> j+1 through face j+1
    down[1:] = e_f * bernoulli(pe)   # cell j -> j-1 through face j
    return up, down, pe


def gaussian_field(params: ModelParams, cfg: FPConfig = FPConfig()) -> DiscreteDistribution:
    """Initial narrow Gaussian (mean m0, width delta0/sqrt(N)) on the cells."""
    m, n = _mesh(cfg.cells), params.n_spins
    x = (m - params.m_offset) / params.delta0
    return DiscreteDistribution.from_log(n, -0.5 * n * x**2, m)


def equilibrium_profile(params: ModelParams,
                        cfg: FPConfig = FPConfig()) -> DiscreteDistribution:
    """The mesh-exact equilibrium: exp of the cumulative face-midpoint
    integral of N v/w, which is the exact stationary state of the solve_fp
    operator on the same mesh."""
    _, _, pe = _face_rates(params, cfg.cells)
    return DiscreteDistribution.from_log(
        params.n_spins, np.concatenate([[0.0], np.cumsum(pe)]), _mesh(cfg.cells))


def generator(params: ModelParams, cfg: FPConfig = FPConfig()) -> Generator:
    """The cell hops of the finite-volume operator, as a birth-death generator."""
    up, down, _ = _face_rates(params, cfg.cells)
    return Generator(up, down)


def initial_field(params: ModelParams, kind: str = "exact-paramagnet",
                  cfg: FPConfig = FPConfig()) -> DiscreteDistribution:
    """The start of the master engine's start `kind` on the cfg cells:
    "gaussian" is `gaussian_field`, and "exact-paramagnet" the binomial's
    continuum limit, the Gaussian of `master.start_params` (m = 0,
    delta0 = 1 whatever m0 and T0 are); any other kind is ValueError.
    """
    return gaussian_field(start_params(params, kind), cfg)


def solve_fp(params: ModelParams, start: DiscreteDistribution, times,
             cfg: FPConfig = FPConfig(), tol: float = 1e-9) -> list[DiscreteDistribution]:
    """Advance the drift-diffusion equation from `start`, a state on the cfg
    cells such as `initial_field`'s; returns the states at the ascending `times`.

    The cell hops form a birth-death generator, advanced by the master
    equation's uniformization integrator: L1 error of the cell masses at
    each reported state <= tol against its series start, landing exactly
    on the output times, with the integrator's positivity and mass checks.
    """
    if len(start.weights) != cfg.cells:
        raise ValueError("start field does not match cfg.cells")
    return integrate(generator(params, cfg), start, list(times), tol)[0]
