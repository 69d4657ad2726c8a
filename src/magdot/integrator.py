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

On a small grid a product with P costs mostly numpy's per-call overhead, so
the series is formed in strides of s counts.  With q_j = P^(s j) p the
polyphase identity

    sum_k w_k P^k p = sum_{r<s} P^r (sum_j w_{sj+r} q_j)

is exact: each window keeps s accumulators, filled as before, and is closed
by Horner's rule in s - 1 products with P.  Each q_j is one leap from
q_{j-1}: entry k of q_j is row k of the (n, 2s + 1) band of P^s dotted
with the 2s + 1 entries of q_{j-1} about k, one `np.einsum` call that
writes q_j in place, with no temporary, against s products of five calls.
Every entry of P^s is a sum of nonnegative products, so the bound and the
checks below hold as they are, and `propagate` still counts the highest
Poisson count summed.  The stride is LEAP = 8 on grids of at most
LEAP_SIZE = 4096 entries when the series sums at least LEAP (LEAP - 1)
counts per report point, which pays the Horner products and the
accumulators, and 1 otherwise, the plain product loop.  Per count of a
1024-count series (2-core Xeon VM, one BLAS thread, band built
beforehand, best of 10) a leap took 0.62 us against 1.71 us for a product
at 201 entries, 1.37 against 3.16 us at 1001 and 4.68 against 10.75 us at
4001, and about half a product's cost up to 20001 entries; but each open
window keeps 8 accumulators, 8 times the memory of one, so LEAP_SIZE caps
memory, not time.  Building the band costs about 0.12 ms at 201 entries
and 0.34 ms at 1001, once per generator.  Strides 4 and 16 ran slower end
to end than 8.  Every stride s writes the series into blocks of about
256 KB less 2s + 1 rows, each row with s zeros at each end.

Positivity and mass are therefore the integrator's checks, the same for
every engine: `integrate` raises NumericalError on a negative entry (only a
negative rate can make one) or a mass drift beyond MASS_TOL, and mends neither.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Iterable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .special import poisson_weights

__all__ = ["Generator", "integrate", "StiffnessError", "NumericalError"]

TOL_FLOOR = 100.0 * np.finfo(float).eps  # smallest tol, relative to the L1 mass
MAX_JUMPS = 512.0  # largest Lambda h between report points, so that long runs report states
SERIES_JUMPS = 8 * MAX_JUMPS  # largest Lambda h of one held series; 4x and 16x ran no faster
LEAP = 8  # stride of a series on a small grid: one leap by P^LEAP per LEAP counts
LEAP_SIZE = 4096  # largest grid that leaps: each open window holds LEAP accumulators
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
        self._bands: dict[int, np.ndarray] = {}  # P^s by stride s, built on first use

    def propagate(self, p: np.ndarray, hs, tol: float) -> tuple[Iterable[np.ndarray], int]:
        """exp(hA) p for each h of the ascending `hs`, all off one Poisson
        series; returns an iterator over the states, in the order of `hs`,
        and the highest Poisson count summed (the products with P that a
        stride of 1 takes).

        Each h takes the Poisson(Lambda h) weights on its own window
        (`poisson_window` at eps = tol / (2 ||p||_1)), so each state's L1
        error is at most tol.  The series is formed in strides of LEAP
        counts on grids of at most LEAP_SIZE entries that sum at least
        LEAP (LEAP - 1) counts per h, and of one count otherwise, and is
        summed a block at a time (`_sum_windows`); a state is handed on as
        soon as its window closes.
        """
        mass = float(np.abs(p).sum())
        if self.rate == 0.0 or mass == 0.0:
            return [np.array(p, dtype=float) for _ in hs], 0
        eps = tol / (2.0 * mass)
        wins = [poisson_window(self.rate * h, eps) for h in hs]
        n_prod = max(lo + len(w) - 1 for lo, w in wins)
        leap = len(p) <= LEAP_SIZE and n_prod >= LEAP * (LEAP - 1) * len(wins)
        return self._sum_windows(p, wins, n_prod, LEAP if leap else 1), n_prod

    def _apply(self, v):
        """P v, as a new vector."""
        u = self.stay * v
        u[1:] += self.p_up * v[:-1]
        u[:-1] += self.p_down * v[1:]
        return u

    def _band(self, s: int) -> np.ndarray:
        """The (n, 2s + 1) band of P^s, C-contiguous: row k, column d holds
        the weight that P^s moves from level k + d - s into level k, and 0
        where that level lies off the grid.  Built once per stride, a
        diagonal to a row and then transposed, by s products P M from
        M = I, each on the 2t + 1 diagonals that P^t fills; every entry is
        a sum of nonnegative products while every rate is nonnegative.
        """
        if s not in self._bands:
            band = np.zeros((2 * s + 1, len(self.stay)))  # row d: diagonal d - s
            band[s] = 1.0
            for t in range(1, s + 1):
                # (P M)[k, l] = stay[k] M[k, l] + P[k, k - 1] M[k - 1, l] + P[k, k + 1] M[k + 1, l]
                old = band[s - t + 1:s + t].copy()
                band[s - t + 1:s + t] *= self.stay
                band[s - t:s + t - 1, 1:] += self.p_up * old[:, :-1]
                band[s - t + 2:s + t + 1, :-1] += self.p_down * old[:, 1:]
            self._bands[s] = np.ascontiguousarray(band.T)
        return self._bands[s]

    def _sum_windows(self, p, wins, n_prod, s):
        """Yield sum_k w[k - lo] P^k p for each window (lo, w) of `wins`, in
        their order, for the counts k = 0..n_prod, in strides of s counts.

        The vectors q_j = P^(s j) p are written in place into the rows of a
        block laid out alike at every stride: about 256 KB less 2s + 1 rows,
        each with s zeros at each end, so block b holds j from
        b * len(block) on.  At s = 1 each row is one product with P; at
        s > 1 one leap by P^s, an `np.einsum` call that dots each row of the
        band `_band(s)` with its sliding window of the previous row, with no
        temporary.  A window's sum is split by phase:

            sum_k w_k P^k p = sum_{r<s} P^r a_r,   a_r = sum_j w_{sj+r} q_j,

        so each window that overlaps the block just filled holds its s
        accumulators a_r: one such window at s = 1 adds its weights times
        its rows with a matrix-vector product, otherwise all their phases
        add the whole block with one matrix product.  A window is closed
        after the block of its last count, by Horner's rule in s - 1
        products with P; as window ends need not ascend, a closed window
        waits until every window before it has been yielded.
        """
        n = len(p)
        n_rows = n_prod // s + 1
        mul, add, stay, p_up, p_down = np.multiply, np.add, self.stay, self.p_up, self.p_down
        rows = min(n_rows, max(2, 2**15 // (n + 2 * s) - (2 * s + 1)))
        block = np.zeros((rows, n + 2 * s))
        inner = block[:, s:s + n]
        if s == 1:
            views = [(v, v[1:], v[:-1]) for v in inner]
            steps = list(zip(views[-1:] + views[:-1], views))  # (row r - 1, row r)
            tmp = np.empty(n - 1)
        else:
            band, einsum = self._band(s), np.einsum
            slides = list(sliding_window_view(block, 2 * s + 1, axis=1))  # (n, 2s + 1) per row
            leaps = list(zip(slides[-1:] + slides[:-1], inner))
        inner[0] = p
        opens: dict[int, list[int]] = {}  # windows by the block of their first count
        shuts: dict[int, list[int]] = {}  # and of their last
        for i, (lo, w) in enumerate(wins):
            opens.setdefault(lo // (s * rows), []).append(i)
            shuts.setdefault((lo + len(w) - 1) // (s * rows), []).append(i)
        active, acc, closed, nxt = [], {}, {}, 0
        for j, first in enumerate(range(0, n_rows, rows)):
            end = min(first + rows, n_rows)  # one past the block's last row
            if s == 1:
                # u = stay v; u[1:] += p_up v[:-1]; u[:-1] += p_down v[1:]
                for (v, v_hi, v_lo), (u, u_hi, u_lo) in steps[0 if j else 1:end - first]:
                    mul(stay, v, u)
                    mul(p_up, v_lo, tmp)
                    add(u_hi, tmp, u_hi)
                    mul(p_down, v_hi, tmp)
                    add(u_lo, tmp, u_lo)
            else:
                # u[k] = sum_d band[k, d] v[k + d - s]
                for v_win, u in leaps[0 if j else 1:end - first]:
                    einsum("kd,kd->k", band, v_win, out=u)
            for i in opens.pop(j, ()):
                active.append(i)
                acc[i] = np.zeros((s, n))
            if len(active) == 1 and s == 1:
                lo, w = wins[active[0]]
                a, b = max(lo, first), min(lo + len(w), end)
                acc[active[0]] += w[a - lo:b - lo] @ inner[a - first:b - first]
            elif active:
                # the block's counts k0..k1 - 1 in order, then one row per
                # (window, phase r) that weighs q_j by w[s j + r - lo]
                k0, k1 = s * first, s * end
                mix = np.zeros((len(active), k1 - k0))
                for row, i in zip(mix, active):
                    lo, w = wins[i]
                    a, b = max(lo, k0), min(lo + len(w), k1)
                    row[a - k0:b - k0] = w[a - lo:b - lo]
                mix = mix.reshape(len(active), end - first, s).transpose(0, 2, 1)
                sums = np.ascontiguousarray(mix).reshape(-1, end - first) @ inner[:end - first]
                for row, i in enumerate(active):
                    acc[i] += sums[row * s:(row + 1) * s]
                del sums  # so that two blocks' sums are never held at once
            for i in shuts.pop(j, ()):
                active.remove(i)
                parts = acc.pop(i)
                q = parts[-1]
                for r in range(s - 2, -1, -1):
                    q = self._apply(q)
                    q += parts[r]
                closed[i] = q
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
    time=stop)` at each stop, report points, the highest Poisson count of
    each series summed over the series).

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
