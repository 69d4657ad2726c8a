"""Birth-death generator and its uniformization integrator, shared by the
master-equation and Fokker-Planck solvers.

Both solvers evolve dp/dt = A p, where A moves weight one site up at rate
up[k] and one site down at rate down[k].  The columns of A sum to zero.
`integrate` takes a start state and returns a state at each output time.

Uniformization (Jensen 1953) writes the exact propagator as a Poisson
mixture of powers of a stochastic matrix: with Lambda = max(up + down) and
P = I + A/Lambda,

    exp(hA) p = sum_k Pois(k; Lambda h) P^k p.

While every rate is nonnegative, every entry of P is nonnegative and its
columns sum to one, so each term is nonnegative and ||P^k p||_1 <= ||p||_1.
Keeping the weights of a window of counts whose two Poisson tails together
hold at most eps, and renormalizing them, then errs by at most 2 eps ||p||_1
in L1 (Fox & Glynn 1988): a proven bound, not an estimate, that a negative
rate voids.  One series of vectors P^k p serves every time of a span: each
time reads its own window of it, so the right tail beyond the mean (about
6.5 sqrt(Lambda h) products at tol = 1e-9) is paid once per series, and
the accumulation of a window's rows once per time.  Windows widen as
sqrt(Lambda h), so a held generator's series spans at most SERIES_JUMPS
jumps: beyond that, wider windows cost more to sum than the tails saved.

Positivity and mass are therefore the integrator's checks, the same for
every engine: `integrate` raises NumericalError on a negative entry (only a
negative rate can make one) or a mass drift beyond MASS_TOL, and mends neither.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Iterable

import numpy as np

from .special import poisson_weights

__all__ = ["Generator", "integrate", "StiffnessError", "NumericalError"]

TOL_FLOOR = 100.0 * np.finfo(float).eps  # smallest tol, relative to the L1 mass
MAX_JUMPS = 512.0  # largest Lambda h between report points, so that long runs report states
SERIES_JUMPS = 8 * MAX_JUMPS  # largest Lambda h of one held series; 4x and 16x ran no faster
MASS_TOL = 1e-10  # largest mass drift of a run, relative to max(1, its mass)


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

    def propagate(self, p: np.ndarray, hs, tol: float) -> tuple[Iterable[np.ndarray], int]:
        """exp(hA) p for each h of the ascending `hs`, all off one Poisson
        series; returns an iterator over the states, in the order of `hs`,
        and the number of products with P.

        Each h takes the Poisson(Lambda h) weights on its own window
        (`poisson_window` at eps = tol / (2 ||p||_1)), so each state's L1
        error is at most tol.  The vectors P^k p are formed once, up to the
        largest count any window holds, and are summed a block at a time
        (`_sum_windows`); a state is handed on as soon as its window closes.
        """
        mass = float(np.abs(p).sum())
        if self.rate == 0.0 or mass == 0.0:
            return [np.array(p, dtype=float) for _ in hs], 0
        eps = tol / (2.0 * mass)
        wins = [poisson_window(self.rate * h, eps) for h in hs]
        n_prod = max(lo + len(w) - 1 for lo, w in wins)
        block = np.empty((min(n_prod + 1, max(2, 2**15 // len(p))), len(p)))  # 256 KB
        block[0] = p
        return self._sum_windows(block, wins, n_prod), n_prod

    def _sum_windows(self, block, wins, n_prod):
        """Yield sum_k w[k - lo] P^k p for each window (lo, w) of `wins`, in
        their order, for the counts k = 0..n_prod.

        The vectors P^k p are written in place into the rows of `block`,
        whose row 0 holds p on entry, so block j holds the counts from
        j * len(block) on.  Only the windows that overlap the block just
        filled hold an accumulator: one such window adds its weights times
        its rows with a matrix-vector product, several add the whole block
        with one matrix product.  A window is closed after the block of its
        last count; as window ends need not ascend, a closed window waits
        until every window before it has been yielded.
        """
        rows, n = block.shape
        mul, add, stay, p_up, p_down = np.multiply, np.add, self.stay, self.p_up, self.p_down
        views = [(v, v[1:], v[:-1]) for v in block]
        steps = list(zip(views[-1:] + views[:-1], views))  # (row r - 1, row r)
        tmp = np.empty(n - 1)
        opens: dict[int, list[int]] = {}  # windows by the block of their first count
        shuts: dict[int, list[int]] = {}  # and of their last
        for i, (lo, w) in enumerate(wins):
            opens.setdefault(lo // rows, []).append(i)
            shuts.setdefault((lo + len(w) - 1) // rows, []).append(i)
        active, acc, closed, nxt = [], {}, {}, 0
        for j, first in enumerate(range(0, n_prod + 1, rows)):
            end = min(first + rows, n_prod + 1)  # one past the block's last count
            # u = stay v; u[1:] += p_up v[:-1]; u[:-1] += p_down v[1:]
            for (v, v_hi, v_lo), (u, u_hi, u_lo) in steps[0 if j else 1:end - first]:
                mul(stay, v, u)
                mul(p_up, v_lo, tmp)
                add(u_hi, tmp, u_hi)
                mul(p_down, v_hi, tmp)
                add(u_lo, tmp, u_lo)
            for i in opens.pop(j, ()):
                active.append(i)
                acc[i] = np.zeros(n)
            if len(active) == 1:
                lo, w = wins[active[0]]
                a, b = max(lo, first), min(lo + len(w), end)
                acc[active[0]] += w[a - lo:b - lo] @ block[a - first:b - first]
            elif active:
                mix = np.zeros((len(active), end - first))
                for row, i in zip(mix, active):
                    lo, w = wins[i]
                    a, b = max(lo, first), min(lo + len(w), end)
                    row[a - first:b - first] = w[a - lo:b - lo]
                sums = mix @ block[:end - first]
                for row, i in enumerate(active):
                    acc[i] += sums[row]
                del sums  # so that two blocks' sums are never held at once
            for i in shuts.pop(j, ()):
                active.remove(i)
                closed[i] = acc.pop(i)
            while nxt in closed:
                yield closed.pop(nxt)
                nxt += 1


def poisson_window(x: float, eps: float) -> tuple[int, np.ndarray]:
    """First count L and normalized Poisson(x) weights of L..R, where
    P(X < L) <= eps/2 and P(X > R) <= eps/2 are proven.

    `poisson_weights` spans a window whose tails beyond it are each at most
    eps_b = eps/1024, by Chernoff below and Bernstein above.  Each side is
    then cut where its in-window tail, inflated by 1e-9 for roundoff, plus
    eps_b is at most eps/2; the kept weights are renormalized.
    """
    eps_b = eps / 1024.0
    log_eps = max(-math.log(eps_b), 0.0)
    # P(X <= x - d) <= exp(-d^2 / (2x)), eps_b at this d
    lo = max(math.floor(x - math.sqrt(2.0 * x * log_eps)), 0)
    w = poisson_weights(x, lo, log_eps)
    c = int(x) - lo
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


def integrate(gen, start, stops, tol, *, h_cap=None, on_step=None):
    """Advance the state `start`, a dataclass with `weights` at `time`, under
    `gen` (a Generator, or a function of t that builds one) through the
    ascending `stops`; returns (`dataclasses.replace(start, weights=w,
    time=stop)` at each stop, report points, products with P over all series).

    Each report point lies at the next stop, cut to `h_cap(t)` when given
    and to Lambda h <= MAX_JUMPS, from the previous one; one that would fall
    within 5% of a stop lands on it.  A held generator serves every report
    point within SERIES_JUMPS jumps of a series start off one Poisson series
    (`Generator.propagate`), which hands each state on as soon as it has
    summed its window, and the next series starts from the last of them; a
    generator function is called at start.time and at every report point, and its
    generator serves one report point.  `tol` bounds the L1 error of each
    report point against the exact propagation from its series start, so
    nothing is rejected.  A step below 1e-15 of the time span's magnitude is
    StiffnessError.  A negative entry, or a mass drift beyond MASS_TOL of
    max(1, the start's mass), is NumericalError: nothing is clipped or
    renormalized.
    `on_step(t, p)` sees the weights at every report point.
    """
    p = np.array(start.weights, dtype=float)
    t = float(start.time)
    mass0 = float(p.sum())
    scale = max(mass0, 1.0)
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
    out = [replace(start, weights=p.copy(), time=u) for u in stops[:i]]
    n_steps = n_products = 0
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
            if series and (h < h_min or g.rate * (s_next - t) > SERIES_JUMPS):
                break
            if h < h_min:
                raise StiffnessError(f"step size {h:.3e} underflowed at t = {s:.6g} "
                                     f"(threshold {h_min:.3e})")
            series.append(s_next)
            s, j = s_next, _passed(stops, j, s_next)
        states, products = g.propagate(p, [u - t for u in series], tol)
        n_products += products
        for t, p in zip(series, states):
            n_steps += 1
            if p.min() < 0.0:
                raise NumericalError(f"negative entry {p.min():.3e} at t = {t:.6g}")
            drift = float(p.sum()) - mass0
            if abs(drift) > MASS_TOL * max(1.0, mass0):
                raise NumericalError(f"mass drift {drift:.3e} at t = {t:.6g}")
            if on_step is not None:
                on_step(t, p)
            j = _passed(stops, i, t)
            out.extend(replace(start, weights=p.copy(), time=u) for u in stops[i:j])
            i = j
    return out, n_steps, n_products
