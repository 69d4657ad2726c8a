"""Birth-death generator and adaptive TR-BDF2 integrator, shared by the
master-equation and Fokker-Planck solvers.

Both solvers evolve dp/dt = A p, where A moves weight one site up at rate
up[k] and one site down at rate down[k].  The columns of A sum to zero, so
I - c A (c >= 0) has unit column sums and nonpositive off-diagonals: its
solves conserve mass and need no pivoting.

TR-BDF2 (Bank et al. 1985) takes a trapezoidal stage to t + gamma h and a
BDF2 stage to t + h; with gamma = 2 - sqrt(2) both solve with the matrix
I - (gamma/2) h A.  The scheme is L-stable, so accuracy alone sets the step.
The local error estimate (Hosea & Shampine 1996) is the h^3 term formed
from A p at the three stage points, filtered through the same matrix so
that it stays bounded on stiff modes.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

__all__ = ["Generator", "integrate", "StiffnessError", "NumericalError"]

GAMMA = 2.0 - math.sqrt(2.0)
D = 0.5 * GAMMA
W_STAGE = 1.0 / (GAMMA * (2.0 - GAMMA))  # BDF2 weight of the stage value
C3 = math.sqrt(0.5) - 2.0 / 3.0          # error constant: y_h - y(t+h) = C3 h^3 y'''
# h * C3 * y''' from A p at t, t + gamma h, t + h (second divided difference)
E_COEF = 2.0 * C3 * np.array([1.0 / GAMMA, -1.0 / (GAMMA * (1.0 - GAMMA)),
                              1.0 / (1.0 - GAMMA)])
TOL_FLOOR = 100.0 * np.finfo(float).eps  # smallest tol, relative to the L1 mass


class StiffnessError(RuntimeError):
    """Step size collapsed below the resolvable scale."""


class NumericalError(RuntimeError):
    """Positivity or mass conservation broken beyond the allowed slack."""


class Generator:
    """Tridiagonal birth-death operator with hop rates up[k], down[k]."""

    def __init__(self, up, down):
        self.up = np.asarray(up, dtype=float)
        self.down = np.asarray(down, dtype=float)
        self.loss = self.up + self.down
        self._h = self._lu = None

    def apply(self, p: np.ndarray) -> np.ndarray:
        dp = -self.loss * p
        dp[1:] += self.up[:-1] * p[:-1]
        dp[:-1] += self.down[1:] * p[1:]
        return dp

    def solve(self, h: float, b: np.ndarray) -> np.ndarray:
        """x with (I - (gamma/2) h A) x = b; the factorization is kept per h."""
        if h != self._h:
            c = D * h
            # a nonsingular M-matrix for h >= 0, so dgttrf's info is always 0
            self._lu = dgttrf(-c * self.up[:-1], 1.0 + c * self.loss,
                              -c * self.down[1:])[:5]
            self._h = h
        return dgttrs(*self._lu, b)[0]


def integrate(gen, p0, t0, stops, tol, *, clip_floor, mass_tol, weight=1.0,
              h_cap=None, on_step=None):
    """Advance p0 from t0 through the ascending `stops`; returns
    (weights at each stop, accepted steps, rejected steps).

    `gen` is a Generator, or a function of t that builds one; it is then
    called at t0 and after every accepted step, and held over the step.
    `tol` bounds the local error per step in the L1 norm scaled by `weight`
    (the cell width for densities).  Steps are clipped to land exactly on
    each stop and to `h_cap(t)` when given; a step below 1e-15 of the time
    span's magnitude is StiffnessError.  Undershoot above `clip_floor` is
    clipped and the mass renormalized; below it, or with a mass drift beyond
    `mass_tol`, NumericalError.  `on_step(t, p)` sees every accepted state.
    """
    p = np.array(p0, dtype=float)
    t = float(t0)
    mass0 = float(p.sum())
    scale = weight * max(mass0, 1.0)
    if any(b < a for a, b in zip([t] + list(stops), stops)):
        raise ValueError("output times must ascend from the start time")
    if not tol > 0.0:
        raise ValueError("tol must be > 0")
    if tol < TOL_FLOOR * scale:
        raise StiffnessError(f"tol {tol:.3e} is below the roundoff floor "
                             f"{TOL_FLOOR * scale:.3e} of the error estimate")
    time_dep = callable(gen)
    g = gen(t) if time_dep else gen
    f = g.apply(p)
    f3 = g.apply(g.apply(f))
    t_last = stops[-1] if stops else t
    h_min = 1e-15 * max(abs(t), abs(t_last))
    h = (tol / (C3 * weight * np.abs(f3).sum())) ** (1 / 3) if f3.any() else t_last - t
    out, i, n_steps, n_rejected, grow = [], 0, 0, 0, 5.0
    while True:
        while i < len(stops) and stops[i] - t <= 1e-12 * max(1.0, abs(stops[i])):
            out.append(p.copy())
            i += 1
        if i == len(stops):
            return out, n_steps, n_rejected
        if n_steps and time_dep:
            g = gen(t)
            f = g.apply(p)
        while True:
            h_try = min(h, h_cap(t)) if h_cap is not None else h
            land = t + 1.05 * h_try >= stops[i]
            h_try = stops[i] - t if land else h_try
            if h_try < h_min:
                raise StiffnessError(f"step size {h_try:.3e} underflowed at t = {t:.6g} "
                                     f"(threshold {h_min:.3e})")
            p_g = g.solve(h_try, p + (D * h_try) * f)
            f_g = g.apply(p_g)
            p_new = g.solve(h_try, (1.0 - W_STAGE) * p + W_STAGE * p_g)
            f_new = g.apply(p_new)
            est = g.solve(h_try, h_try * (E_COEF[0] * f + E_COEF[1] * f_g
                                          + E_COEF[2] * f_new))
            err = weight * float(np.abs(est).sum())
            factor = 0.9 * (tol / err) ** (1 / 3) if err > 0.0 else 5.0
            if err <= tol:
                break
            n_rejected += 1
            h, grow = h_try * max(0.1, factor), 1.0
        n_steps += 1
        t, p = (stops[i] if land else t + h_try), p_new
        lo = p.min()
        if lo < 0.0:
            if lo < clip_floor:
                raise NumericalError(f"undershoot {lo:.3e} exceeds clip floor at t = {t:.6g}")
            np.clip(p, 0.0, None, out=p)
            p *= mass0 / p.sum()
            f_new = g.apply(p)
        if abs(p.sum() - mass0) > mass_tol * max(1.0, mass0):
            raise NumericalError(f"mass drift {p.sum() - mass0:.3e} at t = {t:.6g}")
        if on_step is not None:
            on_step(t, p)
        h_next = h_try * min(grow, factor)
        h, grow, f = (max(h_next, h) if land else h_next), 5.0, f_new
