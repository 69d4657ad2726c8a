"""Exact discrete master equation for the pointer distribution P_d(m, t).

The magnetization grid has N+1 points m_k = -1 + 2k/N.  Spin flips move one
step up or down; the jump rates come from the bath kernel evaluated at the
two transition frequencies, either instantaneously (short-memory) or through
the finite-time window (full-memory).  The generator is conservative by
construction: the gain coefficient into a row equals the loss coefficient of
the neighbouring row, so total probability is preserved to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from .bath import KernelSpec, spectral_density, windowed_spectral
from .integrator import Generator, NumericalError, StiffnessError, integrate
from .model import ModelParams, omega_pm

__all__ = [
    "DiscreteDistribution",
    "FreeEnergyReport",
    "RateTable",
    "EvolveResult",
    "StiffnessError",
    "NumericalError",
    "initial_distribution",
    "transition_rates",
    "evolve",
    "stationary_distribution",
    "free_energy",
]

MASS_TOL = 1e-10
CLIP_FLOOR = -1e-14
LOCAL_HALF_SPAN = 0.05  # fit window of `local_width`, in m


@dataclass
class DiscreteDistribution:
    """Probability weights over the N+1 magnetization eigenvalues."""

    n_spins: int
    weights: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (self.n_spins + 1,):
            raise ValueError(
                f"expected {self.n_spins + 1} weights, got {self.weights.shape}"
            )
        if self.weights.min() < CLIP_FLOOR:
            raise NumericalError(
                f"negative weight {self.weights.min():.3e} below clip floor"
            )

    @property
    def grid(self) -> np.ndarray:
        n = self.n_spins
        return (2.0 * np.arange(n + 1) - n) / n

    def total(self) -> float:
        return float(self.weights.sum())

    def mean(self) -> float:
        return float(self.grid @ self.weights / self.total())

    def variance(self) -> float:
        mu = self.mean()
        return float(((self.grid - mu) ** 2) @ self.weights / self.total())

    def density(self) -> np.ndarray:
        """Continuum normalization P(m) = (N/2) P_d(m)."""
        return 0.5 * self.n_spins * self.weights

    def mass_below(self, x: float) -> float:
        """Weight strictly below x; weight sitting exactly at x counts half."""
        m = self.grid
        at = np.isclose(m, x, rtol=0.0, atol=1e-12)
        return float(self.weights[m < x].sum() - 0.5 * self.weights[at & (m < x)].sum()
                     + 0.5 * self.weights[at & ~(m < x)].sum())

    def peak(self, refine: bool = True, region: tuple[float, float] | None = None) -> float:
        """Location of the maximum weight, optionally parabolic-refined in ln P."""
        m = self.grid
        w = self.weights
        if region is not None:
            sel = (m >= region[0]) & (m <= region[1])
            m, w = m[sel], w[sel]
        k = int(np.argmax(w))
        if not refine or k == 0 or k == len(w) - 1:
            return float(m[k])
        triple = w[k - 1:k + 2]
        if triple.min() <= 0.0:
            return float(m[k])
        y0, y1, y2 = np.log(triple)
        denom = y0 - 2.0 * y1 + y2
        if denom >= 0.0:
            return float(m[k])
        return float(m[k] + 0.5 * (m[k] - m[k - 1]) * (y0 - y2) / denom)

    def conditional_std(self, lo: float = -np.inf, hi: float = np.inf) -> float:
        """Standard deviation of m restricted to lo < m < hi (peak width)."""
        m = self.grid
        sel = (m > lo) & (m < hi)
        w = self.weights[sel]
        tot = w.sum()
        if tot <= 0.0:
            raise ValueError("no weight in the requested window")
        mu = (m[sel] @ w) / tot
        return float(math.sqrt(((m[sel] - mu) ** 2 @ w) / tot))

    def median(self) -> float:
        """Interpolated median; tracks the transported center of a drifting
        peak exactly (a monotone map of a distribution maps its median)."""
        w = self.weights
        half = 0.5 * w.sum()
        cum = np.cumsum(w)
        k = int(np.searchsorted(cum, half))
        prev = cum[k - 1] if k > 0 else 0.0
        frac = (half - prev) / w[k] if w[k] > 0 else 0.5
        dm = 2.0 / self.n_spins
        return float(self.grid[k] + (frac - 0.5) * dm)

    def curvature_width(self, region: tuple[float, float] | None = None,
                        center: float | None = None) -> float:
        """Local Gaussian width from a quadratic fit of ln P.

        Fit window is +/-2 sigma around `center` (default: the mode),
        iteratively refit, so the estimate follows the peak itself rather
        than low-density tails or secondary bumps.
        """
        m = self.grid
        w = self.weights
        if region is not None:
            sel = (m >= region[0]) & (m <= region[1])
            m, w = m[sel], w[sel]
        c = float(m[int(np.argmax(w))]) if center is None else float(center)
        dm = float(m[1] - m[0])
        sigma = 2.0 * dm
        k = int(np.argmin(np.abs(m - c)))
        for _ in range(5):
            window = (m >= c - 2.0 * sigma) & (m <= c + 2.0 * sigma) & (w > 0)
            if window.sum() < 5:
                window = (np.arange(len(m)) >= k - 2) \
                    & (np.arange(len(m)) <= k + 2) & (w > 0)
            coeff = np.polyfit(m[window], np.log(w[window]), 2)
            if coeff[0] >= 0:
                break
            sigma = math.sqrt(-0.5 / coeff[0])
        return float(sigma)

    def local_width(self) -> float:
        """Local Gaussian width (-d^2 ln P/dm^2)^(-1/2) at the median.

        A quartic is fitted to ln P over a fixed window of +/-
        LOCAL_HALF_SPAN (rounded to whole grid points) around the grid point
        nearest the median, and its second derivative is taken at the median
        itself, which tracks the transported center of a drifting peak.
        Unlike `curvature_width`, the window does not scale with the width,
        so the estimate stays local on a wide, skewed peak and varies
        smoothly from snapshot to snapshot.  The window must stay below the
        width: a quartic cannot follow ln P across several widths of a
        non-Gaussian peak.
        """
        m = self.grid
        c = self.median()
        k = int(np.argmin(np.abs(m - c)))
        h = max(int(round(LOCAL_HALF_SPAN / (m[1] - m[0]))), 2)
        window = slice(max(k - h, 0), k + h + 1)
        x, w = m[window] - c, self.weights[window]
        keep = w > 0
        if keep.sum() < 5:
            raise ValueError("fewer than five positive weights in the window")
        coeff = np.polynomial.polynomial.polyfit(x[keep], np.log(w[keep]), 4)
        if coeff[2] >= 0:
            raise ValueError(f"ln P is not concave at m = {c}")
        return float(math.sqrt(-0.5 / coeff[2]))

    def copy(self) -> "DiscreteDistribution":
        return DiscreteDistribution(self.n_spins, self.weights.copy(), self.time)


@dataclass(frozen=True)
class FreeEnergyReport:
    entropy: float
    energy: float
    functional: float  # S - U/T, non-decreasing in the short-memory regime


@dataclass
class RateTable:
    """Jump rates and the raw gain/loss coefficients of the balance equation."""

    m: np.ndarray
    up: np.ndarray          # rate of m -> m + 2/N (loss-up coefficient)
    down: np.ndarray        # rate of m -> m - 2/N (loss-down coefficient)
    gain_above: np.ndarray  # coefficient of P(m + 2/N) in the row at m
    gain_below: np.ndarray  # coefficient of P(m - 2/N) in the row at m
    mode: str = "short-memory"
    time: float | None = None


@dataclass
class EvolveResult:
    final: DiscreteDistribution
    snapshots: list[DiscreteDistribution] = field(default_factory=list)
    free_energy_times: np.ndarray | None = None
    free_energy_values: np.ndarray | None = None
    n_steps: int = 0
    n_rejected: int = 0


def _log_binomial(n: int) -> np.ndarray:
    """ln C(n, k) built by cumulative sums of ln((n-k+1)/k).

    Adjacent differences are then single-log exact, which the detailed
    balance ratio identity needs at the 1e-12 level; gammaln's absolute
    error (~1e-12 for n ~ 1000) would spoil it.
    """
    k = np.arange(1, n + 1)
    out = np.empty(n + 1)
    out[0] = 0.0
    out[1:] = np.cumsum(np.log((n - k + 1.0) / k))
    return out


def initial_distribution(params: ModelParams, kind: str = "exact-paramagnet"
                         ) -> DiscreteDistribution:
    """Initial magnet state: exact binomial paramagnet or the Gaussian quench."""
    n = params.n_spins
    if kind == "exact-paramagnet":
        logw = _log_binomial(n) - n * math.log(2.0)
        w = np.exp(logw)
        w /= w.sum()
    elif kind == "gaussian":
        if params.delta0 is None or params.delta0 <= 0:
            raise ValueError("gaussian initial state needs delta0 > 0")
        m = (2.0 * np.arange(n + 1) - n) / n
        logw = -0.5 * n * ((m - params.m_offset) / params.delta0) ** 2
        logw -= logw.max()
        w = np.exp(logw)
        w /= w.sum()
    else:
        raise ValueError(f"unknown initial kind {kind!r}")
    return DiscreteDistribution(n_spins=n, weights=w, time=0.0)


def _kernel_spec(params: ModelParams) -> KernelSpec:
    return KernelSpec(temp_bath=params.temp_bath, debye_cutoff=params.debye_cutoff,
                      hbar=params.hbar)


def transition_rates(params: ModelParams, mode: str = "short-memory",
                     t: float | None = None, kernel_tol: float = 1e-8) -> RateTable:
    """Gain/loss coefficients of the balance equation on the full grid.

    The (1 -/+ m) occupation factors vanish identically at m = +/-1, closing
    the boundaries.  In full-memory mode the kernel is evaluated through the
    window at time `t` (required), which propagates quadrature failures.
    """
    spec = _kernel_spec(params)
    n = params.n_spins
    m = (2.0 * np.arange(n + 1) - n) / n
    om_p, om_m = omega_pm(params, m)
    pref = params.gamma * n / params.hbar**2

    if mode == "short-memory":
        k_p, k_m = spectral_density(spec, om_p), spectral_density(spec, om_m)
        k_np, k_nm = spectral_density(spec, -om_p), spectral_density(spec, -om_m)
    elif mode == "full-memory":
        if t is None:
            raise ValueError("full-memory rates need the current time t")
        k_p, k_m, k_np, k_nm = windowed_spectral(
            spec, np.stack([om_p, om_m, -om_p, -om_m]), t, tol=kernel_tol)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    two_n = 2.0 / n
    return RateTable(
        m=m,
        up=pref * k_p * (1.0 - m),
        down=pref * k_m * (1.0 + m),
        gain_above=pref * k_np * (1.0 + m + two_n),
        gain_below=pref * k_nm * (1.0 - m + two_n),
        mode=mode,
        time=t,
    )


def stationary_distribution(params: ModelParams) -> DiscreteDistribution:
    """Binomial x Boltzmann equilibrium, exact under detailed balance.

    P_d(m_k) ~ C(N,k) exp[N (g_eff m + J m^2/2)/T], assembled in log space.
    """
    n = params.n_spins
    m = (2.0 * np.arange(n + 1) - n) / n
    logw = _log_binomial(n) + n * (
        params.g_eff * m + 0.5 * params.coupling_j * m * m
    ) / params.temp_bath
    w = np.exp(logw - logsumexp(logw))
    w /= w.sum()
    return DiscreteDistribution(n_spins=n, weights=w, time=0.0)


def free_energy(dist: DiscreteDistribution, params: ModelParams) -> FreeEnergyReport:
    """Entropy, energy and the functional S - U/T of the m-diagonal state.

    S includes the C(N,k) multiplicity of each magnetization level; the
    0 ln 0 = 0 convention applies to empty levels.
    """
    n = dist.n_spins
    m = dist.grid
    w = dist.weights
    log_c = _log_binomial(n)
    pos = w > 0.0
    entropy = float(-(w[pos] * (np.log(w[pos]) - log_c[pos])).sum())
    energy = float(-n * (w @ (params.g_eff * m + 0.5 * params.coupling_j * m * m)))
    return FreeEnergyReport(entropy=entropy, energy=energy,
                            functional=entropy - energy / params.temp_bath)


def _free_energy_value(w, log_c, e_site, temp):
    pos = w > 0.0
    s = -(w[pos] * (np.log(w[pos]) - log_c[pos])).sum()
    u = -(w @ e_site)
    return s - u / temp


def evolve(dist: DiscreteDistribution, params: ModelParams, t_end: float,
           mode: str = "short-memory", tol: float = 1e-9,
           snapshot_times=None, record_free_energy: bool = False,
           rates: RateTable | None = None, kernel_tol: float = 1e-8
           ) -> EvolveResult:
    """Integrate the balance equation from dist.time to t_end.

    Adaptive TR-BDF2 (`integrator.integrate`): L-stable, so the local L1
    error per step (< tol) alone sets the step, and every step lands
    exactly on the snapshot times.  Negative undershoot down to -1e-14 is
    clipped and the mass renormalized; anything larger raises.  Full-memory
    mode builds the rate table once per accepted step, holds it over the
    step, and caps the step at 0.1 hbar/T + 0.05 t, the scale on which the
    windowed kernel still varies.
    """
    snapshot_times = sorted(snapshot_times) if snapshot_times else []
    if snapshot_times and snapshot_times[-1] > t_end * (1 + 1e-12):
        raise ValueError("snapshot times must not exceed t_end")

    full_memory = mode == "full-memory"
    if full_memory:
        def gen(t):
            rt = transition_rates(params, mode=mode, t=t, kernel_tol=kernel_tol)
            return Generator(rt.up, rt.down)
    else:
        rates = rates if rates is not None else transition_rates(params, mode=mode)
        gen = Generator(rates.up, rates.down)

    fe: list[tuple[float, float]] = []
    on_step = None
    if record_free_energy:
        n, m = dist.n_spins, dist.grid
        log_c = _log_binomial(n)
        e_site = n * (params.g_eff * m + 0.5 * params.coupling_j * m * m)

        def on_step(t, p):
            fe.append((t, _free_energy_value(p, log_c, e_site, params.temp_bath)))

        on_step(dist.time, dist.weights)

    states, n_steps, n_rejected = integrate(
        gen, dist.weights, dist.time, [min(s, t_end) for s in snapshot_times] + [t_end],
        tol, clip_floor=CLIP_FLOOR, mass_tol=MASS_TOL,
        h_cap=(lambda t: 0.1 * params.hbar / params.temp_bath + 0.05 * t)
        if full_memory else None, on_step=on_step)
    fe_t, fe_v = np.array(fe).T if record_free_energy else (None, None)
    return EvolveResult(
        final=DiscreteDistribution(dist.n_spins, states[-1], t_end),
        snapshots=[DiscreteDistribution(dist.n_spins, w, s)
                   for w, s in zip(states, snapshot_times)],
        free_energy_times=fe_t, free_energy_values=fe_v,
        n_steps=n_steps, n_rejected=n_rejected,
    )
