"""Model parameters and the pointwise functions of the magnet dynamics.

Conventions: hbar = 1, so times are in hbar/J; k_B absorbed into
temperatures, Ising coupling J = 1 canonically.  The pointer variable m is
the mean magnetization of the N apparatus spins; the measured spin enters
only through the signed coupling g, whose sign is the spin's state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

__all__ = [
    "ModelParams",
    "DerivedScales",
    "FixedPoint",
    "ParameterError",
    "field_h",
    "drift_v",
    "diffusion_w",
    "omega_pm",
    "fixed_points",
    "drift_zeros",
    "derived_scales",
    "repeller",
    "positive_g_frame",
    "x_coth_x",
    "refined_peak",
]

_INF = math.inf
SCAN_POINTS = 10_000  # cells of the sign-change scan of `_zeros`


class ParameterError(ValueError):
    """Raised when model parameters violate a declared invariant."""


def x_coth_x(x):
    """x*coth(x), continuous through x = 0 (limit 1).

    Series below |x| = 1e-4 to avoid cancellation; 1/tanh elsewhere.
    """
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    xs = np.where(small, 1.0, x)  # dummy to keep tanh well-conditioned
    out = np.where(small, 1.0 + x * x / 3.0 - x**4 / 45.0, xs / np.tanh(xs))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class ModelParams:
    """All physical constants of the spin + magnet + bath model.

    n_spins     N, number of apparatus spins (>= 2)
    coupling_j  Ising coupling J (canonical J = 1)
    temp_bath   bath temperature T
    temp_init   initial magnet temperature T0 (math.inf for a full quench)
    coupling_g  spin-apparatus coupling g, signed: the field of the spin's state
    gamma       magnet-bath coupling, must be << 1
    debye_cutoff  Debye frequency cutoff of the bath kernel
    m_offset    m0, mean of the initial magnetization distribution
    delta0      initial width parameter; derived from temp_init if None
    """

    n_spins: int
    temp_bath: float
    coupling_g: float
    coupling_j: float = 1.0
    temp_init: float = _INF
    gamma: float = 1e-3
    debye_cutoff: float = 100.0
    m_offset: float = 0.0
    delta0: float | None = None

    def __post_init__(self):
        if self.n_spins < 2:
            raise ParameterError(f"n_spins must be >= 2, got {self.n_spins}")
        for name in ("temp_bath", "coupling_g", "coupling_j", "gamma", "debye_cutoff",
                     "m_offset"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")
        if math.isnan(self.temp_init) or self.temp_init == -_INF:
            raise ParameterError(f"temp_init must be finite or inf, got {self.temp_init}")
        if self.temp_bath <= 0:
            raise ParameterError("temp_bath must be positive")
        if self.gamma <= 0:
            raise ParameterError("gamma must be positive")
        if self.debye_cutoff <= 0:
            raise ParameterError("debye_cutoff must be positive")
        if abs(self.m_offset) > 1:
            raise ParameterError("m_offset must lie in [-1, 1]")
        d0 = self.delta0
        if d0 is None:
            if math.isinf(self.temp_init):
                d0 = 1.0
            else:
                if self.temp_init <= self.coupling_j:
                    raise ParameterError(
                        "finite temp_init must exceed coupling_j (paramagnetic start)"
                    )
                d0 = math.sqrt(self.temp_init / (self.temp_init - self.coupling_j))
            object.__setattr__(self, "delta0", d0)
        else:
            if not (0 < d0 < _INF):
                raise ParameterError(f"delta0 must be positive and finite, got {d0}")
            if not math.isinf(self.temp_init):
                want = math.sqrt(self.temp_init / (self.temp_init - self.coupling_j))
                if abs(d0 - want) > 1e-12 * max(1.0, want):
                    raise ParameterError(
                        f"delta0 = {d0} inconsistent with temp_init "
                        f"(expected {want})"
                    )

    @property
    def grid(self) -> np.ndarray:
        """Magnetization eigenvalues m_k = -1 + 2k/N, exact at both ends."""
        n = self.n_spins
        return (2.0 * np.arange(n + 1) - n) / n

    def require_ferromagnetic(self):
        if self.temp_bath >= self.coupling_j:
            raise ParameterError(
                f"requires T < J (ferromagnetic bath): T={self.temp_bath}, "
                f"J={self.coupling_j}"
            )


@dataclass(frozen=True)
class DerivedScales:
    """Scales derived from ModelParams for the ferromagnetic regime.

    theta       drift time scale hbar / (gamma (J - T))
    m_ferro     positive stable magnetization
    m_repel     repulsive point -g/(J - T)
    delta_ferro equilibrium peak width parameter
    delta_total total initial width after diffusion, sqrt(T/(J-T) + delta0^2)
    bias_b      bias g/(J - T) + m0
    lam         bias in units of the final spread, b sqrt(N/2)/delta_total
    """

    theta: float
    m_ferro: float
    m_repel: float
    delta_ferro: float
    delta_total: float
    bias_b: float
    lam: float


@dataclass(frozen=True)
class FixedPoint:
    m: float
    stable: bool


def field_h(params: ModelParams, m):
    """Self-consistent field h(m) = g + J*m."""
    return params.coupling_g + params.coupling_j * np.asarray(m, dtype=float)


def drift_v(params: ModelParams, m):
    """Drift velocity of the order parameter.

    v(m) = (gamma h / hbar) (1 - m coth(h/T) + 1/N), written as
    (gamma/hbar) [h (1 + 1/N) - m T xcoth(h/T)] so the h -> 0 singularity
    cancels analytically.
    """
    m = np.asarray(m, dtype=float)
    h = field_h(params, m)
    t = params.temp_bath
    out = params.gamma * (
        h * (1.0 + 1.0 / params.n_spins) - m * t * x_coth_x(h / t)
    )
    return out if out.ndim else float(out)


def drift_v_prime(params: ModelParams, m):
    """dv/dm, analytic (used for stability tags and singular patches)."""
    m = np.asarray(m, dtype=float)
    h = field_h(params, m)
    t = params.temp_bath
    j = params.coupling_j
    x = h / t
    phi = x_coth_x(x)
    small = np.abs(x) < 1e-4
    xs = np.where(small, 1.0, x)
    cth = np.where(small, 0.0, 1.0 / np.tanh(xs))  # placeholder under mask
    # d(x coth x)/dx
    dphi = np.where(
        small,
        2.0 * x / 3.0 - 4.0 * x**3 / 45.0,
        cth - x * (cth * cth - 1.0),
    )
    out = params.gamma * (
        j * (1.0 + 1.0 / params.n_spins) - t * phi - m * j * dphi
    )
    return out if out.ndim else float(out)


def diffusion_w(params: ModelParams, m):
    """Diffusion coefficient w(m) = (gamma h/hbar)(coth(h/T) - m), > 0 for |m| < 1."""
    m = np.asarray(m, dtype=float)
    h = field_h(params, m)
    t = params.temp_bath
    out = params.gamma * (t * x_coth_x(h / t) - m * h)
    return out if out.ndim else float(out)


def omega_pm(params: ModelParams, m):
    """Transition frequencies (Omega_plus, Omega_minus) of the two spin flips.

    hbar Omega_pm = -/+ 2 h(m) - 2 J / N.
    """
    h = field_h(params, m)
    shift = 2.0 * params.coupling_j / params.n_spins
    return -2.0 * h - shift, +2.0 * h - shift


def refined_peak(m: np.ndarray, p: np.ndarray) -> float:
    """Location of the largest p on the uniform grid m, refined to the
    vertex of the parabola through ln p there and at its two neighbours.

    The grid point itself is returned at an edge, next to an empty
    neighbour, or where ln p is not concave.
    """
    k = int(np.argmax(p))
    if k == 0 or k == len(p) - 1:
        return float(m[k])
    triple = p[k - 1:k + 2]
    if triple.min() <= 0.0:
        return float(m[k])
    y0, y1, y2 = np.log(triple)
    denom = y0 - 2.0 * y1 + y2
    if denom >= 0.0:
        return float(m[k])
    return float(m[k] + 0.5 * (m[k] - m[k - 1]) * (y0 - y2) / denom)


def _mean_field_residual(params: ModelParams, m):
    return m - np.tanh(field_h(params, m) / params.temp_bath)


def _zeros(params: ModelParams, f) -> list[FixedPoint]:
    """Zeros of the vectorized f on [-1, 1], ascending, each stable where
    dv/dm < 0.

    Sign changes are located on a uniform scan of SCAN_POINTS cells (so
    nearly degenerate roots near the spinodal are not dropped).  Each
    bracket is then rescanned on 64 sub-cells and replaced by the first
    sub-cell holding a sign change, all brackets at once; eight passes take
    a 2e-4 bracket below 1e-18.  Exact zeros at scan nodes (e.g. m = 0 for
    g = 0) are added.
    """
    ms = np.linspace(-1.0, 1.0, SCAN_POINTS + 1)
    fs = f(ms)
    i = np.flatnonzero(np.sign(fs[:-1]) * np.sign(fs[1:]) < 0)
    lo, hi = ms[i], ms[i + 1]
    u, rows = np.linspace(0.0, 1.0, 65), np.arange(len(i))
    for _ in range(8):
        g = lo[:, None] + (hi - lo)[:, None] * u
        g[:, -1] = hi
        s = np.sign(f(g))
        j = np.argmax(s[:, :-1] * s[:, 1:] <= 0, axis=1)
        lo, hi = g[rows, j], g[rows, j + 1]
    roots = list(0.5 * (lo + hi))
    for m0 in ms[fs == 0.0]:
        if not any(abs(m0 - r) < 1e-9 for r in roots):
            roots.append(float(m0))
    roots.sort()
    slopes = drift_v_prime(params, np.array(roots))
    return [FixedPoint(m=float(r), stable=bool(d < 0)) for r, d in zip(roots, slopes)]


def fixed_points(params: ModelParams) -> list[FixedPoint]:
    """All solutions of m = tanh((g + J m)/T) in [-1, 1], with stability.
    For T >= J there is a single paramagnetic root.
    """
    return _zeros(params, lambda m: _mean_field_residual(params, m))


def drift_zeros(params: ModelParams) -> list[FixedPoint]:
    """Zeros of the drift v(m) itself (they differ from the mean-field roots
    at order 1/N^2); these bound the characteristic basins."""
    return _zeros(params, lambda m: drift_v(params, m))


def repeller(params: ModelParams) -> float:
    """Repulsive point -g/(J - T) of the drift's linear part; rejects T >= J.

    Unlike `derived_scales` it needs no second well, so it also serves a
    field strong enough to leave only one.
    """
    params.require_ferromagnetic()
    return -params.coupling_g / (params.coupling_j - params.temp_bath)


def positive_g_frame(params: ModelParams) -> tuple[ModelParams, float]:
    """params in the frame of g >= 0, and the sign that carries the frame's
    magnetizations back: at g < 0 the magnet mirrored m -> -m (g and m0
    negated) and -1, else params itself and +1."""
    if params.coupling_g >= 0:
        return params, 1.0
    return replace(params, coupling_g=-params.coupling_g, m_offset=-params.m_offset), -1.0


@lru_cache(maxsize=64)
def derived_scales(params: ModelParams) -> DerivedScales:
    """Evaluate the ferromagnetic scales; rejects T >= J and unstable widths.

    Cached per parameter set (both dataclasses are frozen), since the
    oracles, the measurement and the CLI each ask for the same scales and
    every evaluation scans `fixed_points`.  A rejection is not cached.
    """
    params.require_ferromagnetic()
    j, t = params.coupling_j, params.temp_bath
    theta = 1.0 / (params.gamma * (j - t))
    stable_pos = [fp.m for fp in fixed_points(params) if fp.stable and fp.m > 0]
    if not stable_pos:
        raise ParameterError("no positive stable magnetization for these parameters")
    m_f = max(stable_pos)
    inv_df2 = 1.0 / (1.0 - m_f * m_f) - j / t
    if inv_df2 <= 0:
        raise ParameterError(
            f"equilibrium width undefined at m_F={m_f} (unstable root passed)"
        )
    delta_f = 1.0 / math.sqrt(inv_df2)
    delta2 = t / (j - t) + params.delta0**2
    delta = math.sqrt(delta2)
    b = params.coupling_g / (j - t) + params.m_offset
    lam = b * math.sqrt(params.n_spins / 2.0) / delta
    return DerivedScales(
        theta=theta,
        m_ferro=m_f,
        m_repel=repeller(params),
        delta_ferro=delta_f,
        delta_total=delta,
        bias_b=b,
        lam=lam,
    )
