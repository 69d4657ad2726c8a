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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .integrator import Chain, Generator, integrate
from .master import start_params
from .model import ModelParams, diffusion_w, drift_v, refined_peak
from .special import bernoulli

__all__ = [
    "ContinuumField",
    "FPConfig",
    "MAX_CELLS",
    "chain",
    "solve_fp",
    "equilibrium_profile",
    "gaussian_field",
]

@dataclass
class ContinuumField:
    """Density P(m) at the centers of a uniform cell mesh over [-1, 1]."""

    mesh: np.ndarray
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.mesh = np.asarray(self.mesh, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.mesh.shape != self.values.shape:
            raise ValueError("mesh and values must have matching shapes")

    @property
    def dm(self) -> float:
        return float(self.mesh[1] - self.mesh[0])

    def total(self) -> float:
        """Midpoint-rule mass."""
        return float(self.values.sum() * self.dm)

    def mass_below(self, x: float) -> float:
        """Midpoint-rule mass of the cells whose centers lie below x."""
        return float(self.values[self.mesh < x].sum() * self.dm)

    def mean(self) -> float:
        return float((self.mesh @ self.values) / self.values.sum())

    def peak(self) -> float:
        """Location of the maximum density, parabolic-refined in ln P."""
        return refined_peak(self.mesh, self.values)


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
    """Per-cell hop rates (up, down) of the finite-volume operator."""
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


def gaussian_field(params: ModelParams, cfg: FPConfig = FPConfig()) -> ContinuumField:
    """Initial narrow Gaussian (mean m0, width delta0/sqrt(N)) on the mesh."""
    mesh = _mesh(cfg.cells)
    n = params.n_spins
    log_p = -0.5 * n * ((mesh - params.m_offset) / params.delta0) ** 2
    log_p -= log_p.max()
    vals = np.exp(log_p)
    vals /= vals.sum() * (2.0 / cfg.cells)
    return ContinuumField(mesh=mesh, values=vals, time=0.0)


def equilibrium_profile(params: ModelParams,
                        cfg: FPConfig = FPConfig()) -> ContinuumField:
    """The mesh-exact equilibrium: exp of the cumulative face-midpoint
    integral of N v/w, which is the exact stationary state of the solve_fp
    operator on the same mesh."""
    _, _, pe = _face_rates(params, cfg.cells)
    log_p = np.concatenate([[0.0], np.cumsum(pe)])
    log_p -= log_p.max()
    vals = np.exp(log_p)
    vals /= vals.sum() * (2.0 / cfg.cells)
    return ContinuumField(mesh=_mesh(cfg.cells), values=vals, time=0.0)


def chain(params: ModelParams, init: ContinuumField | str = "exact-paramagnet",
          cfg: FPConfig = FPConfig()) -> Chain:
    """The cell chain from `init`, weighted by the cell width.  `init` is a
    ContinuumField on the cfg mesh or a start kind of the master engine:
    "gaussian" is `gaussian_field`, and "exact-paramagnet" the binomial's
    continuum limit, the Gaussian of `master.start_params` (m = 0, delta0 = 1
    whatever m0 and T0 are); any other kind is ValueError.
    """
    if isinstance(init, str):
        init = gaussian_field(start_params(params, init), cfg)
    if len(init.mesh) != cfg.cells:
        raise ValueError("init field does not match cfg.cells")
    up, down, _ = _face_rates(params, cfg.cells)
    return Chain(Generator(up, down), init.values, 2.0 / cfg.cells,
                 lambda v, t: ContinuumField(init.mesh, v, t))


def solve_fp(params: ModelParams, init: ContinuumField | str, times,
             cfg: FPConfig = FPConfig(), tol: float = 1e-9) -> list[ContinuumField]:
    """Advance the drift-diffusion equation from `init`, a field or a start
    kind of `chain` at t = 0; returns fields at the asked times.

    The cell hops form a birth-death generator, advanced by the master
    equation's uniformization integrator: L1 error of the density at each
    reported state <= tol against its series start, landing exactly on
    the output times, with the integrator's positivity and mass checks.
    """
    times = list(times)
    ch = chain(params, init, cfg)
    states, _, _ = integrate(ch, 0.0 if isinstance(init, str) else init.time, times, tol)
    return [ch.wrap(v, t) for v, t in zip(states, times)]
