"""Birth-death generator and its uniformization integrator, shared by the
master-equation and Fokker-Planck solvers.

Both solvers evolve dp/dt = A p, where A moves weight one site up at rate
up[k] and one site down at rate down[k].  The columns of A sum to zero.

Uniformization (Jensen 1953) writes the exact propagator as a Poisson
mixture of powers of a stochastic matrix: with Lambda = max(up + down) and
P = I + A/Lambda,

    exp(hA) p = sum_k Pois(k; Lambda h) P^k p.

Every entry of P is nonnegative and its columns sum to one, so each term is
nonnegative and ||P^k p||_1 <= ||p||_1.  Keeping the weights of a window
of counts whose two Poisson tails together hold at most eps, and
renormalizing them, errs by at most 2 eps ||p||_1 in L1 (Fox & Glynn 1988):
a proven bound, not an estimate.  One series of vectors P^k p serves every
time of a span, each time reading it with its own weights.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Generator", "join_chains", "integrate", "StiffnessError", "NumericalError"]

TOL_FLOOR = 100.0 * np.finfo(float).eps  # smallest tol, relative to the L1 mass
MAX_JUMPS = 512.0  # largest Lambda h one series spans, so that long runs report states


class StiffnessError(RuntimeError):
    """Step size collapsed below the resolvable scale."""


class NumericalError(RuntimeError):
    """Positivity or mass conservation broken beyond the allowed slack."""


class Generator:
    """Tridiagonal birth-death operator with hop rates up[k], down[k]."""

    def __init__(self, up, down):
        self.up = np.asarray(up, dtype=float)
        self.down = np.asarray(down, dtype=float)
        loss = self.up + self.down
        self.rate = float(loss.max())  # Lambda, the uniformization rate
        # P = I + A/Lambda; loss/Lambda <= 1 holds exactly in floating point
        lam = self.rate if self.rate > 0.0 else 1.0
        self.stay = 1.0 - loss / lam
        self.p_up = self.up[:-1] / lam
        self.p_down = self.down[1:] / lam

    def propagate(self, p: np.ndarray, hs, tol: float) -> tuple[list[np.ndarray], int]:
        """exp(hA) p for each h of the ascending `hs`, all off one Poisson
        series; returns the states and the number of products with P.

        The vectors P^k p are formed once, up to the largest count any h
        needs, and written in place into the rows of a block of about
        256 KB.  Each h takes the Poisson(Lambda h) weights on its own
        window (`poisson_window` at eps = tol / (2 ||p||_1)), and whenever
        the block fills, each state adds its weights times the rows of its
        window that the block holds.  Each state's L1 error is at most tol.
        """
        mass = float(np.abs(p).sum())
        if self.rate == 0.0 or mass == 0.0:
            return [np.array(p, dtype=float) for _ in hs], 0
        eps = tol / (2.0 * mass)
        wins = [poisson_window(self.rate * h, eps) for h in hs]
        n_prod = max(lo + len(w) - 1 for lo, w in wins)
        n = len(p)
        rows = min(n_prod + 1, max(2, 2**15 // n))  # 2^15 doubles = 256 KB
        block = np.empty((rows, n))
        block[0] = p
        views = [(v, v[1:], v[:-1]) for v in block]
        tmp = np.empty(n - 1)
        acc = np.zeros((len(wins), n))
        for k in range(n_prod + 1):
            r = k % rows
            if k:
                # nxt = stay v; nxt[1:] += p_up v[:-1]; nxt[:-1] += p_down v[1:]
                v, v_hi, v_lo = views[r - 1]
                nxt, nxt_hi, nxt_lo = views[r]
                np.multiply(self.stay, v, out=nxt)
                np.multiply(self.p_up, v_lo, out=tmp)
                np.add(nxt_hi, tmp, out=nxt_hi)
                np.multiply(self.p_down, v_hi, out=tmp)
                np.add(nxt_lo, tmp, out=nxt_lo)
            if r == rows - 1 or k == n_prod:
                first = k - r  # the count held by row 0
                for i, (lo, w) in enumerate(wins):
                    a, b = max(lo, first), min(lo + len(w) - 1, k)
                    if a <= b:
                        acc[i] += w[a - lo:b - lo + 1] @ block[a - first:b - first + 1]
        return list(acc), n_prod


def join_chains(chains) -> Generator:
    """One Generator for the birth-death chains [(up, down), ...] laid end
    to end.

    No hop may cross a junction: the last up rate of each chain and the
    first down rate of the next must be zero, so that the joined generator
    is block-diagonal and each chain evolves as on its own.  A nonzero
    rate there is ValueError.
    """
    for i, ((up, _), (_, down)) in enumerate(zip(chains, chains[1:])):
        if up[-1] != 0.0 or down[0] != 0.0:
            raise ValueError(f"hop rates {up[-1]:.3e} up and {down[0]:.3e} down "
                             f"cross the junction after chain {i}")
    return Generator(np.concatenate([up for up, _ in chains]),
                     np.concatenate([down for _, down in chains]))


def poisson_window(x: float, eps: float) -> tuple[int, np.ndarray]:
    """First count L and normalized Poisson(x) weights of L..R, where
    P(X < L) <= eps/2 and P(X > R) <= eps/2 are proven.

    Fox & Glynn (1988): the weights are built outward from the mode
    floor(x) by the ratios w[k+1] = w[k] x/(k+1) and w[k-1] = w[k] k/x, so
    no intermediate is far from 1 and none needs a factorial.  They span a
    window whose tails beyond it are each at most eps_b = eps/1024, by
    Chernoff below and Bernstein above.  Each side is then cut where its
    in-window tail, inflated by 1e-9 for roundoff, plus eps_b is at most
    eps/2; the kept weights are renormalized.
    """
    eps_b = eps / 1024.0
    log_eps = max(-math.log(eps_b), 0.0)
    # P(X <= x - d) <= exp(-d^2 / (2x)) and
    # P(X >= x + d) <= exp(-d^2 / (2 (x + d/3))), each eps_b at these d
    lo = max(math.floor(x - math.sqrt(2.0 * x * log_eps)), 0)
    d = log_eps / 3.0 + math.sqrt(log_eps * log_eps / 9.0 + 2.0 * x * log_eps)
    hi = math.ceil(x + d)
    mode = int(x)
    w = np.empty(hi - lo + 1)
    c = mode - lo
    w[c] = 1.0
    w[c + 1:] = np.cumprod(x / np.arange(mode + 1, hi + 1.0))
    w[:c] = np.cumprod(np.arange(mode, lo, -1.0) / x)[::-1]
    # a cut may drop in-window mass up to `spare`, its share of eps/2 once
    # inflated by 1e-9 for roundoff; the sums run from the small end
    spare = (0.5 * eps - eps_b) * w.sum() / (1.0 + 1e-9)
    first = int(np.searchsorted(np.cumsum(w[:c]), spare, "right"))
    last = len(w) - 1 - int(np.searchsorted(np.cumsum(w[:c:-1]), spare, "right"))
    w = w[first:last + 1]
    return lo + first, w / w.sum()


def _passed(stops, i: int, t: float) -> int:
    """Index of the first stop from i on that lies beyond t (1e-12 slack)."""
    while i < len(stops) and stops[i] - t <= 1e-12 * max(1.0, abs(stops[i])):
        i += 1
    return i


def integrate(gen, p0, t0, stops, tol, *, clip_floor, mass_tol, weight=1.0,
              h_cap=None, on_step=None):
    """Advance p0 from t0 through the ascending `stops`; returns
    (weights at each stop, report points, products with P over all series).

    `gen` is a Generator, or a function of t that builds one; it is then
    called at t0 and at every report point, and held until the next.
    The states are reported at report points: each lies at the next stop,
    cut to `h_cap(t)` when given and to Lambda h <= MAX_JUMPS, from the
    previous one; a report point that would fall within 5% of a stop lands
    on it.  A held generator serves every report point within MAX_JUMPS
    jumps of a series start off one Poisson series (`Generator.propagate`),
    and the next series starts from the last of them; a rebuilt one serves
    one report point per series.  `tol` bounds the L1 error of each report
    point against the exact propagation from its series start, scaled by
    `weight` (the cell width for densities); uniformization meets it by
    construction, so nothing is rejected.  A step between report points
    below 1e-15 of the time span's magnitude is StiffnessError.  Undershoot
    above `clip_floor` is clipped and the mass renormalized; below it, or
    with a mass drift beyond `mass_tol`, NumericalError.  `on_step(t, p)`
    sees the state at every report point.
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
    i = _passed(stops, 0, t)
    out, n_steps, n_products = [p.copy() for _ in range(i)], 0, 0
    while i < len(stops):
        g = gen(t) if time_dep else gen
        # the report points this series serves
        series, s, j = [], t, i
        while j < len(stops) and not (series and time_dep):
            h = stops[j] - s
            if h_cap is not None:
                h = min(h, h_cap(s))
            if g.rate * h > MAX_JUMPS:
                h = MAX_JUMPS / g.rate
            land = s + 1.05 * h >= stops[j]
            h = stops[j] - s if land else h
            s_next = stops[j] if land else s + h
            if series and (h < h_min or g.rate * (s_next - t) > MAX_JUMPS):
                break
            if h < h_min:
                raise StiffnessError(f"step size {h:.3e} underflowed at t = {s:.6g} "
                                     f"(threshold {h_min:.3e})")
            series.append(s_next)
            s, j = s_next, _passed(stops, j, s_next)
        states, products = g.propagate(p, [u - t for u in series], tol / weight)
        n_products += products
        for t, p in zip(series, states):
            n_steps += 1
            lo = p.min()
            if lo < 0.0:
                if lo < clip_floor:
                    raise NumericalError(f"undershoot {lo:.3e} exceeds clip floor "
                                         f"at t = {t:.6g}")
                np.clip(p, 0.0, None, out=p)
                p *= mass0 / p.sum()
            if abs(p.sum() - mass0) > mass_tol * max(1.0, mass0):
                raise NumericalError(f"mass drift {p.sum() - mass0:.3e} at t = {t:.6g}")
            if on_step is not None:
                on_step(t, p)
            j = _passed(stops, i, t)
            out.extend(p.copy() for _ in range(j - i))
            i = j
    return out, n_steps, n_products
