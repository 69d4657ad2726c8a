"""Exact discrete master equation for the pointer distribution P_d(m, t).

The magnetization grid has N+1 points m_k = -1 + 2k/N.  Spin flips move one
step up or down; the jump rates come from the bath kernel evaluated at the
two transition frequencies, either instantaneously (short-memory) or through
the finite-time window (full-memory).  The generator is conservative by
construction: the gain coefficient into a row equals the loss coefficient of
the neighbouring row, so total probability is preserved to roundoff.
hbar = 1: times are in hbar/J.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bath import KernelSpec, WindowedKernel, spectral_density
from .integrator import Chain, Generator, NumericalError, StiffnessError, integrate
from .model import ModelParams, omega_pm, refined_peak

__all__ = [
    "DiscreteDistribution",
    "FreeEnergyReport",
    "RateTable",
    "EvolveResult",
    "StiffnessError",
    "NumericalError",
    "initial_distribution",
    "transition_rates",
    "chain",
    "evolve",
    "stationary_distribution",
    "free_energy",
]

LOCAL_HALF_SPAN = 0.05  # largest half-width of the `local_width` fit, in m


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
        if self.weights.min() < 0.0:
            raise NumericalError(f"negative weight {self.weights.min():.3e}")

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

    def peak(self, region: tuple[float, float] | None = None) -> float:
        """Location of the maximum weight, parabolic-refined in ln P."""
        m, w = self.grid, self.weights
        if region is not None:
            sel = (m >= region[0]) & (m <= region[1])
            m, w = m[sel], w[sel]
        return refined_peak(m, w)

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

    def local_width(self, region: tuple[float, float] | None = None) -> float:
        """Local Gaussian width (-d^2 ln P/dm^2)^(-1/2) at the median of the
        weights inside `region` (default: all of them).

        A quartic is fitted to ln P over +/- min(LOCAL_HALF_SPAN, 1/sqrt(N))
        (rounded to whole grid points, at least two) around the grid point
        nearest that median, and its second derivative is taken at the
        median itself, which tracks the transported center of a drifting
        peak.  The window depends on N only, so every snapshot of a run is
        read through the same window.  1/sqrt(N) is of the order of the
        equilibrium width delta_F/sqrt(N) and narrower than a wide, skewed
        transient peak, across which a quartic cannot follow ln P;
        LOCAL_HALF_SPAN caps it where ln P stops looking like a quartic,
        near m_F and at small N.
        """
        d, m = self, self.grid
        if region is not None:
            inside = (m >= region[0]) & (m <= region[1])
            d = DiscreteDistribution(self.n_spins, np.where(inside, self.weights, 0.0))
        c = d.median()
        k = int(np.argmin(np.abs(m - c)))
        span = min(LOCAL_HALF_SPAN, 1.0 / math.sqrt(self.n_spins))
        h = max(int(round(span / (m[1] - m[0]))), 2)
        window = slice(max(k - h, 0), k + h + 1)
        x, w = m[window] - c, d.weights[window]
        keep = w > 0
        if keep.sum() < 5:
            raise ValueError("fewer than five positive weights in the window")
        coeff = np.polynomial.polynomial.polyfit(x[keep], np.log(w[keep]), 4)
        if coeff[2] >= 0:
            raise ValueError(f"ln P is not concave at m = {c}")
        return float(math.sqrt(-0.5 / coeff[2]))


@dataclass(frozen=True)
class FreeEnergyReport:
    entropy: float
    energy: float
    functional: float  # S - U/T, non-decreasing in the short-memory regime


@dataclass
class RateTable:
    """Jump rates of the balance equation; the gain into the row at m is
    down at m + 2/N plus up at m - 2/N."""

    m: np.ndarray
    up: np.ndarray    # rate of m -> m + 2/N
    down: np.ndarray  # rate of m -> m - 2/N
    mode: str = "short-memory"
    time: float | None = None


@dataclass
class EvolveResult:
    final: DiscreteDistribution
    snapshots: list[DiscreteDistribution] = field(default_factory=list)
    free_energy_times: np.ndarray | None = None
    free_energy_values: np.ndarray | None = None
    n_steps: int = 0
    n_rejected: int = 0      # always 0: uniformization rejects no step
    n_terms: int = 0         # products with P over all Poisson series
    uniform_rate: float = 0.0  # Lambda = max(up + down); the largest over the run


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
        m = params.grid
        logw = -0.5 * n * ((m - params.m_offset) / params.delta0) ** 2
        logw -= logw.max()
        w = np.exp(logw)
        w /= w.sum()
    else:
        raise ValueError(f"unknown initial kind {kind!r}")
    return DiscreteDistribution(n_spins=n, weights=w, time=0.0)


def _rate_builder(params: ModelParams, mode: str, kernel_tol: float):
    """Function of t that returns the RateTable of `transition_rates` at t.

    A full-memory builder holds one WindowedKernel, so each table adds only
    the window slice since the previous one: t must not decrease from call
    to call.
    """
    spec = KernelSpec(temp_bath=params.temp_bath, debye_cutoff=params.debye_cutoff)
    m = params.grid
    omega = np.stack(omega_pm(params, m))
    pref = params.gamma * params.n_spins
    if mode == "short-memory":
        k_pm = spectral_density(spec, omega)
        kernel = lambda t: k_pm
    elif mode == "full-memory":
        kernel = WindowedKernel(spec, omega, kernel_tol).at
    else:
        raise ValueError(f"unknown mode {mode!r}")

    def build(t):
        k_p, k_m = kernel(t)
        return RateTable(m=m, up=pref * k_p * (1.0 - m), down=pref * k_m * (1.0 + m),
                         mode=mode, time=t)

    return build


def transition_rates(params: ModelParams, mode: str = "short-memory",
                     t: float | None = None, kernel_tol: float = 1e-8) -> RateTable:
    """Jump rates of the balance equation on the full grid.

    The (1 -/+ m) occupation factors vanish identically at m = +/-1, closing
    the boundaries.  In full-memory mode the kernel is evaluated through the
    window at time `t` (required), which propagates quadrature failures.
    """
    if mode == "full-memory" and t is None:
        raise ValueError("full-memory rates need the current time t")
    return _rate_builder(params, mode, kernel_tol)(t)


def stationary_distribution(params: ModelParams) -> DiscreteDistribution:
    """Binomial x Boltzmann equilibrium, exact under detailed balance.

    P_d(m_k) ~ C(N,k) exp[N (g_eff m + J m^2/2)/T], assembled in log space.
    """
    n = params.n_spins
    m = params.grid
    logw = _log_binomial(n) + n * (
        params.g_eff * m + 0.5 * params.coupling_j * m * m
    ) / params.temp_bath
    w = np.exp(logw - logw.max())
    w /= w.sum()
    return DiscreteDistribution(n_spins=n, weights=w, time=0.0)


def free_energy(dist: DiscreteDistribution, params: ModelParams) -> FreeEnergyReport:
    """Entropy, energy and the functional S - U/T of the m-diagonal state."""
    entropy, energy = _entropy_energy(params)(dist.weights)
    return FreeEnergyReport(entropy=entropy, energy=energy,
                            functional=entropy - energy / params.temp_bath)


def _entropy_energy(params: ModelParams):
    """Function of the weights over the levels of `params` that returns their
    entropy S and energy U.

    S includes the C(N,k) multiplicity of each magnetization level; the
    0 ln 0 = 0 convention applies to empty levels.
    """
    m = params.grid
    log_c = _log_binomial(params.n_spins)
    level_energy = -(params.n_spins * (params.g_eff * m + 0.5 * params.coupling_j * m * m))

    def entropy_energy(w):
        pos = w > 0.0
        return (float(-(w[pos] * (np.log(w[pos]) - log_c[pos])).sum()),
                float(w @ level_energy))

    return entropy_energy


def chain(dist: DiscreteDistribution, gen) -> Chain:
    """The chain from `dist` under `gen` (a Generator, or a function of t
    that builds one), with unit weight."""
    return Chain(gen, dist.weights, 1.0,
                 lambda w, t: DiscreteDistribution(dist.n_spins, w, t))


def evolve(dist: DiscreteDistribution, params: ModelParams, t_end: float,
           mode: str = "short-memory", tol: float = 1e-9,
           snapshot_times=None, record_free_energy: bool = False,
           kernel_tol: float = 1e-8) -> EvolveResult:
    """Integrate the balance equation from dist.time to t_end.

    Uniformization (`integrator.integrate`): every state it reports (the
    snapshot times, which it lands on exactly, and at least one per
    MAX_JUMPS jumps) is read off a Poisson series of exp(hA) with an L1
    error of at most tol, and checked for positivity and mass.  Full-memory mode
    builds the rate table at every reported state, holds it until the next,
    and caps the interval at 0.1 hbar/T + 0.05 t, the scale on which the
    windowed kernel still varies.  One `bath.WindowedKernel` serves the run:
    the table at t reads Ktilde_t as the sum of the window slices between
    successive report points, each integrated to `kernel_tol`, so the
    kernel's error estimate at t is the sum of the slices' estimates.
    """
    snapshot_times = sorted(snapshot_times) if snapshot_times else []
    if snapshot_times and snapshot_times[-1] > t_end * (1 + 1e-12):
        raise ValueError("snapshot times must not exceed t_end")

    full_memory = mode == "full-memory"
    rates_at = _rate_builder(params, mode, kernel_tol)
    rates = []  # Lambda of every generator built

    def gen(t=None):
        rt = rates_at(t)
        g = Generator(rt.up, rt.down)
        rates.append(g.rate)
        return g

    fe: list[tuple[float, float]] = []
    on_step = None
    if record_free_energy:
        entropy_energy = _entropy_energy(params)

        def on_step(t, p):
            s, u = entropy_energy(p)
            fe.append((t, s - u / params.temp_bath))

        on_step(dist.time, dist.weights)

    ch = chain(dist, gen if full_memory else gen())
    states, n_steps, n_terms = integrate(
        ch, dist.time, [min(s, t_end) for s in snapshot_times] + [t_end], tol,
        h_cap=(lambda t: 0.1 / params.temp_bath + 0.05 * t)
        if full_memory else None, on_step=on_step)
    fe_t, fe_v = np.array(fe).T if record_free_energy else (None, None)
    return EvolveResult(
        final=ch.wrap(states[-1], t_end),
        snapshots=[ch.wrap(w, s) for w, s in zip(states, snapshot_times)],
        free_energy_times=fe_t, free_energy_values=fe_v,
        n_steps=n_steps, n_terms=n_terms,
        uniform_rate=max(rates, default=0.0),
    )
