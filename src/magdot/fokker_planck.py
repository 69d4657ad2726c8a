"""Finite-volume drift-diffusion solver for the continuum pointer density.

Advances dP/dt = d/dm [ -v(m) P + (w(m)/N) dP/dm ] on [-1, 1] with
exponentially fitted (Chang-Cooper style) face fluxes:

    J_f = (D_f/dm) [ B(-p_f) P_left - B(p_f) P_right ],   p_f = v_f dm / D_f

with B(x) = x/(e^x - 1).  The fitting makes the discrete stationary state
exactly the mesh exponential of the face-midpoint integral of N v/w, keeps
cell couplings nonnegative at any Peclet number, and reduces to upwinding in
the drift-dominated limit.  Boundaries are zero-flux: the drift points
inward at m = +/-1 and probability cannot leave the physical interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .integrator import Generator, integrate
from .model import ModelParams, diffusion_w, drift_v, fixed_points

__all__ = [
    "ContinuumField",
    "FPConfig",
    "solve_fp",
    "equilibrium_profile",
    "gaussian_field",
]

FP_MASS_TOL = 1e-8


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

    def mean(self) -> float:
        return float((self.mesh @ self.values) / self.values.sum())

    def std(self) -> float:
        mu = self.mean()
        return float(math.sqrt(((self.mesh - mu) ** 2 @ self.values) / self.values.sum()))

    def peak(self, refine: bool = True) -> float:
        k = int(np.argmax(self.values))
        if not refine or k == 0 or k == len(self.mesh) - 1:
            return float(self.mesh[k])
        triple = self.values[k - 1:k + 2]
        if triple.min() <= 0.0:
            return float(self.mesh[k])
        y0, y1, y2 = np.log(triple)
        denom = y0 - 2.0 * y1 + y2
        if denom >= 0.0:
            return float(self.mesh[k])
        return float(self.mesh[k] + 0.5 * self.dm * (y0 - y2) / denom)

    def copy(self) -> "ContinuumField":
        return ContinuumField(self.mesh, self.values.copy(), self.time)


@dataclass(frozen=True)
class FPConfig:
    cells: int = 2000
    tol: float = 1e-9

    def __post_init__(self):
        if self.cells < 100:
            raise ValueError("need at least 100 cells")


def _mesh(cells: int) -> np.ndarray:
    dm = 2.0 / cells
    return -1.0 + dm * (np.arange(cells) + 0.5)


def _bernoulli(x):
    """B(x) = x / (e^x - 1), series through the origin."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-8
    xs = np.where(small, 1.0, x)
    return np.where(small, 1.0 - 0.5 * x + x * x / 12.0, xs / np.expm1(xs))


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
    up[:-1] = e_f * _bernoulli(-pe)   # cell j -> j+1 through face j+1
    down[1:] = e_f * _bernoulli(pe)   # cell j -> j-1 through face j
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


def equilibrium_profile(params: ModelParams, branch: str = "global",
                        cfg: FPConfig = FPConfig()) -> ContinuumField:
    """Equilibrium shapes: the mesh-exact exponential profile or one Gaussian well.

    branch "global": exp of the cumulative face-midpoint integral of N v/w,
    which is the exact stationary state of the solve_fp operator on the same
    mesh.  Branches "plus"/"minus": the Gaussian of width delta_F/sqrt(N)
    centered on the corresponding stable magnetization; rejected when the
    curvature expression is not positive there.
    """
    mesh = _mesh(cfg.cells)
    if branch == "global":
        _, _, pe = _face_rates(params, cfg.cells)
        log_p = np.concatenate([[0.0], np.cumsum(pe)])
        log_p -= log_p.max()
        vals = np.exp(log_p)
    elif branch in ("plus", "minus"):
        params.require_ferromagnetic()
        roots = [fp.m for fp in fixed_points(params) if fp.stable]
        pick = [r for r in roots if (r > 0 if branch == "plus" else r < 0)]
        if not pick:
            raise ValueError(f"no stable {branch} branch for these parameters")
        m_f = pick[0] if branch == "minus" else pick[-1]
        inv_df2 = 1.0 / (1.0 - m_f * m_f) - params.coupling_j / params.temp_bath
        if inv_df2 <= 0:
            raise ValueError(f"equilibrium width undefined on branch {branch}")
        n = params.n_spins
        vals = np.exp(-0.5 * n * inv_df2 * (mesh - m_f) ** 2)
    else:
        raise ValueError(f"unknown branch {branch!r}")
    vals /= vals.sum() * (2.0 / cfg.cells)
    return ContinuumField(mesh=mesh, values=vals, time=0.0)


def solve_fp(params: ModelParams, init: ContinuumField, times,
             cfg: FPConfig = FPConfig()) -> list[ContinuumField]:
    """Advance the drift-diffusion equation; returns fields at the asked times.

    The cell hops form a birth-death generator, advanced by the master
    equation's adaptive TR-BDF2 integrator: local L1 error of the density
    per step < cfg.tol, every step landing exactly on the output times.
    Mass is conserved by the flux form; drift beyond 1e-8 aborts.  Tiny
    undershoot (within 1e-11 of the peak scale) is clipped and renormalized.
    """
    times = list(times)
    if len(init.mesh) != cfg.cells:
        raise ValueError("init field does not match cfg.cells")

    up, down, _ = _face_rates(params, cfg.cells)
    states, _, _ = integrate(
        Generator(up, down), init.values, init.time, times, cfg.tol,
        clip_floor=-1e-11 * max(init.values.max(), 1.0), mass_tol=FP_MASS_TOL,
        weight=2.0 / cfg.cells)
    return [ContinuumField(init.mesh, v, t) for v, t in zip(states, times)]
