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
from dataclasses import dataclass, field, replace

import numpy as np

from .bath import KernelSpec, WindowedKernel, spectral_density
from .integrator import Generator, NumericalError, StiffnessError, integrate
from .model import ModelParams, omega_pm, refined_peak

__all__ = [
    "DiscreteDistribution",
    "FreeEnergyReport",
    "EvolveResult",
    "StiffnessError",
    "NumericalError",
    "initial_distribution",
    "start_params",
    "transition_rates",
    "evolve",
    "stationary_distribution",
    "free_energy",
]

LOCAL_HALF_SPAN = 0.05  # largest half-width of the `local_width` fit, in m


@dataclass
class DiscreteDistribution:
    """Probability masses on a uniform grid of [-1, 1], summing to 1.

    The master equation's grid is the N+1 magnetization eigenvalues (the
    default); the Fokker-Planck solver's is the centres of its cells.
    """

    n_spins: int
    weights: np.ndarray
    time: float = 0.0
    grid: np.ndarray | None = None  # the N+1 levels unless given

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.grid is None:
            n = self.n_spins
            self.grid = (2.0 * np.arange(n + 1) - n) / n
        if self.weights.shape != self.grid.shape:
            raise ValueError(
                f"expected {len(self.grid)} weights, got {self.weights.shape}"
            )
        if self.weights.min() < 0.0:
            raise NumericalError(f"negative weight {self.weights.min():.3e}")

    @classmethod
    def from_log(cls, n_spins: int, log_w: np.ndarray, grid=None) -> DiscreteDistribution:
        """The masses proportional to exp(log_w), normalized to 1, at t = 0."""
        w = np.exp(log_w - log_w.max())
        return cls(n_spins, w / w.sum(), 0.0, grid)

    @property
    def _steps(self) -> int:
        """The grid spacing as a count: spacing = 2 / _steps (N for levels,
        the cell count for cell centres)."""
        return round(2.0 / (self.grid[1] - self.grid[0]))

    @property
    def mesh(self) -> np.ndarray:
        """Read-only alias of `grid`, the name bench/workloads.py reads."""
        return self.grid

    @property
    def values(self) -> np.ndarray:
        """Read-only alias of `density()`, the name bench/workloads.py reads."""
        return self.density()

    def total(self) -> float:
        return float(self.weights.sum())

    def mean(self) -> float:
        return float(self.grid @ self.weights / self.total())

    def density(self) -> np.ndarray:
        """Continuum normalization P(m): the weights over the spacing, as
        (N/2) P_d(m) on the levels."""
        return 0.5 * self._steps * self.weights

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
        dm = 2.0 / self._steps
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
            d = replace(self, weights=np.where(inside, self.weights, 0.0))
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
class EvolveResult:
    final: DiscreteDistribution
    snapshots: list[DiscreteDistribution] = field(default_factory=list)
    free_energy_times: np.ndarray | None = None
    free_energy_values: np.ndarray | None = None
    n_steps: int = 0
    n_rejected: int = 0      # always 0: uniformization rejects no step
    n_terms: int = 0         # Poisson counts summed, over all series
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
    """Initial magnet state: exact binomial paramagnet or the Gaussian quench
    of `start_params`, which rejects any other kind."""
    n, p = params.n_spins, start_params(params, kind)
    log_w = (_log_binomial(n) if kind == "exact-paramagnet"
             else -0.5 * n * ((p.grid - p.m_offset) / p.delta0) ** 2)
    return DiscreteDistribution.from_log(n, log_w)


def start_params(params: ModelParams, kind: str = "exact-paramagnet") -> ModelParams:
    """The parameters of the start `kind`: the exact paramagnet is m0 = 0 at
    T0 = inf whatever params says, so neither moves lambda or the regime
    there; "gaussian" keeps params' own; any other kind is ValueError."""
    if kind == "exact-paramagnet":
        return replace(params, temp_init=math.inf, m_offset=0.0, delta0=None)
    if kind != "gaussian":
        raise ValueError(f"unknown initial kind {kind!r}")
    return params


def _rate_builder(params: ModelParams, mode: str, kernel_tol: float):
    """Function of t that returns the Generator of `transition_rates` at t.

    A full-memory builder holds one WindowedKernel, so each call adds only
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
        return Generator(pref * k_p * (1.0 - m), pref * k_m * (1.0 + m))

    return build


def transition_rates(params: ModelParams, mode: str = "short-memory",
                     t: float | None = None, kernel_tol: float = 1e-8) -> Generator:
    """Jump rates of the balance equation on the full grid, as the generator
    that moves weight from m to m + 2/N at rate up and to m - 2/N at rate
    down.

    The (1 -/+ m) occupation factors vanish identically at m = +/-1, closing
    the boundaries.  In full-memory mode the kernel is evaluated through the
    window at time `t` (required), which propagates quadrature failures.
    """
    if mode == "full-memory" and t is None:
        raise ValueError("full-memory rates need the current time t")
    return _rate_builder(params, mode, kernel_tol)(t)


def stationary_distribution(params: ModelParams) -> DiscreteDistribution:
    """Binomial x Boltzmann equilibrium, exact under detailed balance.

    P_d(m_k) ~ C(N,k) exp[N (g m + J m^2/2)/T], assembled in log space.
    """
    n = params.n_spins
    m = params.grid
    return DiscreteDistribution.from_log(n, _log_binomial(n) + n * (
        params.coupling_g * m + 0.5 * params.coupling_j * m * m
    ) / params.temp_bath)


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
    level_energy = -params.n_spins * (params.coupling_g * m + 0.5 * params.coupling_j * m * m)

    def entropy_energy(w):
        pos = w > 0.0
        return (float(-(w[pos] * (np.log(w[pos]) - log_c[pos])).sum()),
                float(w @ level_energy))

    return entropy_energy


def evolve(dist: DiscreteDistribution, params: ModelParams, t_end: float,
           mode: str = "short-memory", tol: float = 1e-9,
           snapshot_times=None, record_free_energy: bool = False,
           kernel_tol: float = 1e-8) -> EvolveResult:
    """Integrate the balance equation from dist.time to t_end, reporting
    the states at the ascending `snapshot_times` (ValueError otherwise).

    Uniformization (`integrator.integrate`): every state it reports (the
    snapshot times, which it lands on exactly, and at least one per
    MAX_JUMPS jumps) is read off a Poisson series of exp(hA) with an L1
    error of at most tol against the exact propagation from that series'
    start, and checked for positivity and mass.  Short-memory rates are held,
    so one series serves every report point of up to SERIES_JUMPS jumps.
    Full-memory mode builds the generator at every reported state, holds it
    until the next, so each series serves one report point, and caps the
    interval at 0.1 hbar/T + 0.05 t, the scale on which the windowed kernel
    still varies.  One `bath.WindowedKernel` serves the run:
    the generator at t reads Ktilde_t as the sum of the window slices between
    successive report points, each integrated until, for each frequency, the
    K31 value agrees with its embedded G15 value to `kernel_tol`, so the
    kernel's error estimate at t is the sum of the slices' estimates.
    """
    snapshot_times = [] if snapshot_times is None else list(snapshot_times)
    if snapshot_times and max(snapshot_times) > t_end * (1 + 1e-12):
        raise ValueError("snapshot times must not exceed t_end")

    full_memory = mode == "full-memory"
    rates_at = _rate_builder(params, mode, kernel_tol)
    rates = []  # Lambda of every generator built

    def gen(t=None):
        g = rates_at(t)
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

    states, n_steps, n_terms = integrate(
        gen if full_memory else gen(), dist,
        [min(s, t_end) for s in snapshot_times] + [t_end], tol,
        h_cap=(lambda t: 0.1 / params.temp_bath + 0.05 * t)
        if full_memory else None, on_step=on_step)
    fe_t, fe_v = np.array(fe).T if record_free_energy else (None, None)
    return EvolveResult(
        final=states[-1], snapshots=states[:-1],
        free_energy_times=fe_t, free_energy_values=fe_v,
        n_steps=n_steps, n_terms=n_terms,
        uniform_rate=max(rates, default=0.0),
    )
