"""Birth-death generator and its uniformization integrator, shared by the
master-equation and Fokker-Planck solvers.

Both solvers evolve dp/dt = A p, where A moves weight one site up at rate
up[k] and one site down at rate down[k].  The columns of A sum to zero.

Uniformization (Jensen 1953) writes the exact propagator as a Poisson
mixture of powers of a stochastic matrix: with Lambda = max(up + down) and
P = I + A/Lambda,

    exp(hA) p = sum_k Pois(k; Lambda h) P^k p.

Every entry of P is nonnegative and its columns sum to one, so each term is
nonnegative and ||P^k p||_1 <= ||p||_1.  Cutting the sum where the Poisson
upper tail falls below eps and renormalizing the kept weights errs by at
most 2 eps ||p||_1 in L1 (Fox & Glynn 1988): a proven bound, not an
estimate.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = ["Generator", "integrate", "StiffnessError", "NumericalError"]

TOL_FLOOR = 100.0 * np.finfo(float).eps  # smallest tol, relative to the L1 mass
MAX_JUMPS = 512.0  # largest Lambda h of one step, so that long runs report states


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
        self.rate = float(self.loss.max())  # Lambda, the uniformization rate
        # P = I + A/Lambda; loss/Lambda <= 1 holds exactly in floating point
        lam = self.rate if self.rate > 0.0 else 1.0
        self.stay = 1.0 - self.loss / lam
        self.p_up = self.up[:-1] / lam
        self.p_down = self.down[1:] / lam

    def apply(self, p: np.ndarray) -> np.ndarray:
        dp = -self.loss * p
        dp[1:] += self.up[:-1] * p[:-1]
        dp[:-1] += self.down[1:] * p[1:]
        return dp

    def propagate(self, h: float, p: np.ndarray, tol: float) -> tuple[np.ndarray, int]:
        """exp(hA) p with L1 error at most tol, and the number of P products.

        The Poisson(Lambda h) weights are summed up to the count K of
        `poisson_cut` at eps = tol / (2 ||p||_1), then renormalized.
        """
        x = self.rate * h
        mass = float(np.abs(p).sum())
        if x == 0.0 or mass == 0.0:
            return np.array(p, dtype=float), 0
        w = poisson_cut(x, tol / (2.0 * mass))
        n_terms = len(w) - 1
        q = w[0] * p
        v = np.array(p, dtype=float)
        for wk in w[1:]:
            nxt = self.stay * v
            nxt[1:] += self.p_up * v[:-1]
            nxt[:-1] += self.p_down * v[1:]
            v = nxt
            q += wk * v
        return q, n_terms


def poisson_cut(x: float, eps: float) -> np.ndarray:
    """Normalized Poisson(x) weights of 0..K, with P(X > K) <= eps proven.

    The pmf is summed from the top of a window [0, k_b] whose tail beyond
    k_b is at most eps_b = eps/1024 (Bernstein); K is the smallest count
    whose in-window tail, inflated by 1e-9 for roundoff, plus eps_b is at
    most eps.  The weights are formed in log space relative to the largest,
    so one underflows only where it is below 1e-308 of the mode, whatever x.
    """
    eps_b = eps / 1024.0
    # Bernstein: P(X >= x + d) <= exp(-d^2 / (2 (x + d/3))) = eps_b at this d
    log_eps = max(-math.log(eps_b), 0.0)
    d = log_eps / 3.0 + math.sqrt(log_eps * log_eps / 9.0 + 2.0 * x * log_eps)
    k_b = math.ceil(x + d)
    log_fact = _log_factorials(k_b.bit_length())[:k_b + 1]
    log_w = np.arange(k_b + 1) * math.log(x) - log_fact
    pmf = np.exp(log_w - x)
    # tail[K] = sum of pmf over K < j <= k_b, summed from the small end
    tail = np.append(np.cumsum(pmf[:0:-1])[::-1], 0.0)
    log_w = log_w[:int(np.argmax(tail * (1.0 + 1e-9) + eps_b <= eps)) + 1]
    w = np.exp(log_w - log_w.max())
    return w / w.sum()


@lru_cache(maxsize=None)
def _log_factorials(bits: int) -> np.ndarray:
    """ln k! = lgamma(k + 1) for k < 2^bits: tables double in size, so a
    process builds a few and the cut slices them."""
    out = np.array([math.lgamma(k + 1.0) for k in range(1 << bits)])
    out.flags.writeable = False
    return out


def integrate(gen, p0, t0, stops, tol, *, clip_floor, mass_tol, weight=1.0,
              h_cap=None, on_step=None):
    """Advance p0 from t0 through the ascending `stops`; returns
    (weights at each stop, steps, Poisson terms summed).

    `gen` is a Generator, or a function of t that builds one; it is then
    called at t0 and after every step, and held over the step.  `tol`
    bounds the L1 error of each step, scaled by `weight` (the cell width for
    densities); uniformization meets it by construction, so no step is
    rejected.  A step runs to the next stop, cut to `h_cap(t)` when given
    and to MAX_JUMPS / Lambda; a step that would stop within 5% of a stop
    lands on it.  A step below 1e-15 of the time span's magnitude is
    StiffnessError.  Undershoot above `clip_floor` is clipped and the mass
    renormalized; below it, or with a mass drift beyond `mass_tol`,
    NumericalError.  `on_step(t, p)` sees every state reached by a step.
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
                             f"{TOL_FLOOR * scale:.3e} of the summation")
    time_dep = callable(gen)
    t_last = stops[-1] if stops else t
    h_min = 1e-15 * max(abs(t), abs(t_last))
    out, i, n_steps, n_terms = [], 0, 0, 0
    while True:
        while i < len(stops) and stops[i] - t <= 1e-12 * max(1.0, abs(stops[i])):
            out.append(p.copy())
            i += 1
        if i == len(stops):
            return out, n_steps, n_terms
        g = gen(t) if time_dep else gen
        h = stops[i] - t
        if h_cap is not None:
            h = min(h, h_cap(t))
        if g.rate * h > MAX_JUMPS:
            h = MAX_JUMPS / g.rate
        land = t + 1.05 * h >= stops[i]
        h = stops[i] - t if land else h
        if h < h_min:
            raise StiffnessError(f"step size {h:.3e} underflowed at t = {t:.6g} "
                                 f"(threshold {h_min:.3e})")
        p, terms = g.propagate(h, p, tol / weight)
        n_steps += 1
        n_terms += terms
        t = stops[i] if land else t + h
        lo = p.min()
        if lo < 0.0:
            if lo < clip_floor:
                raise NumericalError(f"undershoot {lo:.3e} exceeds clip floor at t = {t:.6g}")
            np.clip(p, 0.0, None, out=p)
            p *= mass0 / p.sum()
        if abs(p.sum() - mass0) > mass_tol * max(1.0, mass0):
            raise NumericalError(f"mass drift {p.sum() - mass0:.3e} at t = {t:.6g}")
        if on_step is not None:
            on_step(t, p)
