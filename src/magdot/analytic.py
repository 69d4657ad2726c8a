"""Closed-form layer: characteristics, transported Gaussians, scaling profile,
splitting probabilities and the named time scales.  hbar = 1: times are in
hbar/J.

These are the independent oracles against which the numerical solvers are
checked.  `CharMap` follows the exact characteristics of the drift: it
integrates dm'/v(m') with the fixed-point poles subtracted analytically (log
terms in closed form), so travel times stay accurate arbitrarily close to
the fixed points.  The "gaussian-linear" and "gaussian-cubic" densities of
`closed_form_P` carry their own closed-form backward maps.

scipy is imported inside the functions that need it (the exact flow, the
second-maximum onset and the width oracle), so that `import magdot` and
every solver path, `time_scales`, `classify_regime` and
`split_probabilities` included, load numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import (
    ModelParams,
    DerivedScales,
    derived_scales,
    drift_v,
    drift_v_prime,
    drift_zeros,
    field_h,
)
from .special import GL15_W, GL15_X, erfc

__all__ = [
    "CharMap",
    "CharacteristicsError",
    "RegimeReport",
    "TimeScales",
    "closed_form_P",
    "local_width_delta",
    "width_maximum",
    "suzuki_alpha",
    "suzuki_profile",
    "suzuki_second_max_onset",
    "split_probabilities",
    "time_scales",
    "classify_regime",
]


class CharacteristicsError(RuntimeError):
    """Degenerate or cross-basin characteristic request."""


@dataclass(frozen=True)
class TimeScales:
    tau_reg: float
    t_width_max: float
    delta_max: float
    t_flat: float
    tau_relax: float


@dataclass(frozen=True)
class RegimeReport:
    lam: float
    classification: str  # deterministic | marginal | active-bifurcation
    p_plus: float
    p_minus: float
    tau_reg: float
    stray_bias_ratio: float      # squared pre-measurement bias over its ceiling
    coupling_ratio: float        # squared coupling bias over the same scale


class _ExactFlow:
    """Antiderivative of 1/v on one basin, poles handled in closed form.

    Phi(x) = Q_reg(x) + sum_i ln|x - z_i| / v'(z_i), where Q_reg integrates
    1/v minus its simple poles (smooth across the whole closed basin).
    Phi is monotone on the basin, and travel time is Phi(m) - Phi(mu).
    """

    _GRID = 2000

    def __init__(self, params: ModelParams, lo: float, hi: float,
                 poles: list[tuple[float, float]]):
        self.lo = lo
        self.hi = hi
        self.poles = poles
        span = hi - lo
        self.edge = 1e-13 * span

        def f_reg(x):
            x = np.asarray(x, dtype=float)
            val = 1.0 / drift_v(params, x)
            for z, s in poles:
                val = val - 1.0 / (s * (x - z))
            return val

        # cumulative Gauss-Legendre panels over the closed basin
        edges = np.linspace(lo, hi, self._GRID + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        nodes = mid[:, None] + half[:, None] * GL15_X[None, :]
        panel = half * (f_reg(nodes) @ GL15_W)
        q = np.concatenate([[0.0], np.cumsum(panel)])
        from scipy.interpolate import CubicSpline
        self._q_reg = CubicSpline(edges, q)

    def _phi(self, x: float) -> float:
        val = float(self._q_reg(x))
        for z, s in self.poles:
            val += math.log(abs(x - z)) / s
        return val

    def travel(self, mu: float, m: float) -> float:
        return self._phi(m) - self._phi(mu)

    def advect(self, x0: float, t: float) -> float:
        """Point reached from x0 after time t (negative t runs backward)."""
        if t == 0.0:
            return x0
        target = self._phi(x0) + t
        a, b = self.lo + self.edge, self.hi - self.edge
        fa, fb = self._phi(a) - target, self._phi(b) - target
        if fa == 0.0:
            return a
        if fb == 0.0:
            return b
        if fa * fb > 0.0:
            # past the reachable end within float resolution: saturate
            return a if abs(fa) < abs(fb) else b
        from scipy.optimize import brentq
        return float(brentq(lambda x: self._phi(x) - target, a, b,
                            xtol=1e-15, rtol=8.9e-16, maxiter=200))


@dataclass(frozen=True)
class CharMap:
    """Forward/inverse maps and travel times along the exact drift flow."""

    params: ModelParams

    def _flow_for(self, *points: float) -> _ExactFlow:
        zeros = _cached_zeros(self.params)
        for x in points:
            for z, _ in zeros:
                if abs(x - z) < 1e-12:
                    raise CharacteristicsError(
                        f"point {x} sits on a fixed point of the drift")
            if not -1.0 < x < 1.0:
                raise CharacteristicsError(f"point {x} outside (-1, 1)")
        bounds = [-1.0] + [z for z, _ in zeros] + [1.0]
        idx = {np.searchsorted(bounds, x) for x in points}
        if len(idx) > 1:
            raise CharacteristicsError(
                "points lie on opposite sides of a fixed point; "
                "the travel time between them diverges")
        i = idx.pop()
        lo, hi = bounds[i - 1], bounds[i]
        poles = [(z, s) for z, s in zeros if z == lo or z == hi]
        return _cached_flow(self.params, lo, hi, tuple(poles))

    def forward(self, mu: float, t: float) -> float:
        """m(mu, t): characteristic through mu advanced by t.

        CharacteristicsError if within t it reaches an end of (-1, 1) that
        is not a drift zero: at small N the drift can point out there.
        """
        mu, t = float(mu), float(t)
        flow = self._flow_for(mu)
        poles = [z for z, _ in flow.poles]
        for end in (flow.lo, flow.hi):
            if end in poles:
                continue
            exit_t = flow.travel(mu, end)
            if 0.0 < exit_t <= t:
                raise CharacteristicsError(
                    f"the characteristic from {mu} leaves (-1, 1) at m = {end} "
                    f"at t = {exit_t:.6g}, within t = {t:.6g}")
        return flow.advect(mu, t)

    def inverse(self, m: float, t: float) -> float:
        """mu(m, t): the starting point whose characteristic reaches m at t.

        Where the backward flow from m leaves (-1, 1) within t, the result
        saturates next to that end, as the drift-only `closed_form_P` expects.
        """
        m, t = float(m), float(t)
        return self._flow_for(m).advect(m, -t)

    def travel_time(self, mu: float, m: float) -> float:
        """t such that the characteristic through mu reaches m."""
        mu, m = float(mu), float(m)
        return self._flow_for(mu, m).travel(mu, m)


@lru_cache(maxsize=32)
def _cached_flow(params: ModelParams, lo: float, hi: float, poles) -> _ExactFlow:
    return _ExactFlow(params, lo, hi, list(poles))


@lru_cache(maxsize=64)
def _cached_zeros(params: ModelParams):
    return tuple((fp.m, drift_v_prime(params, fp.m))
                 for fp in drift_zeros(params))


def _diffusion_c(params: ModelParams, t, theta: float):
    j, tb = params.coupling_j, params.temp_bath
    return -np.expm1(-2.0 * t / theta) * tb / (j - tb)


def _cubic_inverse_printed(ds: DerivedScales, m, t: float):
    """The cubic model's backward map in its printed small-repeller form,

        mu = m_P + (m - m_P) e^{-t/theta} m_F / sqrt(m_F^2 - m^2(1-e^{-2t/theta}))

    It is the exact backward flow of the cubic drift m(m_F^2 - m^2) when the
    repeller offset m_P vanishes, and holds to first order in m_P/m_F
    otherwise; the transported-Gaussian density is built from it.
    """
    m = np.asarray(m, dtype=float)
    e = math.exp(-t / ds.theta)
    m_f, m_p = ds.m_ferro, ds.m_repel
    return m_p + (m - m_p) * e * m_f / np.sqrt(
        m_f**2 - m * m * (1.0 - e * e))


def _cubic_inverse_printed_jacobian(ds: DerivedScales, m, t: float):
    """d mu/d m of the printed backward map: the probability-conserving
    transport factor.  Coincides with the drift-velocity ratio v(mu)/v(m)
    when the repeller offset vanishes."""
    m = np.asarray(m, dtype=float)
    e = math.exp(-t / ds.theta)
    m_f, m_p = ds.m_ferro, ds.m_repel
    d = m_f**2 - m * m * (1.0 - e * e)
    return e * m_f * (m_f**2 - m * m_p * (1.0 - e * e)) / d**1.5


def closed_form_P(params: ModelParams, m, t: float, model: str = "gaussian-cubic"):
    """Transported-density solutions of the drift-diffusion dynamics.

    model "drift-only": pure transport of the initial Gaussian along the
    exact characteristics (no diffusion).  "gaussian-linear": drift and
    diffusion with everything linearized about the origin.  "gaussian-cubic":
    the workhorse, diffusion blurring of the initial condition combined with
    the cubic-drift transport; valid between the attractors.
    """
    scalar = np.isscalar(m)
    m_arr = np.atleast_1d(np.asarray(m, dtype=float))
    ds = derived_scales(params)
    theta = ds.theta
    n = params.n_spins
    m0, d0 = params.m_offset, params.delta0

    if model == "drift-only":
        cmap = CharMap(params)
        if t == 0.0:
            mu = m_arr.copy()
        else:
            mu = np.array([cmap.inverse(x, t) for x in m_arr])
        jac = drift_v(params, mu) / drift_v(params, m_arr)
        out = (math.sqrt(n / (2.0 * math.pi)) / d0
               * np.exp(-0.5 * n * ((mu - m0) / d0) ** 2) * jac)
    elif model == "gaussian-linear":
        c = _diffusion_c(params, t, theta)
        width2 = c + d0 * d0
        e = math.exp(t / theta)
        mu = m_arr / e + ds.m_repel * (1.0 - 1.0 / e)
        out = (math.sqrt(n / (2.0 * math.pi * width2))
               * np.exp(-0.5 * n * (mu - m0) ** 2 / width2)
               * math.exp(-t / theta))
    elif model == "gaussian-cubic":
        if np.any(np.abs(m_arr) >= ds.m_ferro):
            raise ValueError("gaussian-cubic density defined for |m| < m_F")
        c = _diffusion_c(params, t, theta)
        width2 = c + d0 * d0
        if t == 0.0:
            mu = m_arr.copy()
            jac = np.ones_like(m_arr)
        else:
            mu = _cubic_inverse_printed(ds, m_arr, t)
            jac = _cubic_inverse_printed_jacobian(ds, m_arr, t)
        out = (math.sqrt(n / (2.0 * math.pi * width2))
               * np.exp(-0.5 * n * (mu - m0) ** 2 / width2) * jac)
    else:
        raise ValueError(f"unknown model {model!r}")
    return float(out[0]) if scalar else out


# -- scaling-regime profile -------------------------------------------------


def suzuki_alpha(params: ModelParams, t: float) -> float:
    ds = derived_scales(params)
    return math.sqrt(params.n_spins / 2.0) * math.exp(-t / ds.theta) \
        * ds.m_ferro / ds.delta_total


def suzuki_profile(params: ModelParams, m, t: float):
    """Intermediate-time density in the scaling window e^{t/theta} ~ sqrt(N).

    P(m) = (alpha m_F^2 / sqrt(pi)) (m_F^2 - m^2)^{-3/2}
           exp[-(alpha m / sqrt(m_F^2 - m^2) - lambda)^2],
    normalized on (-m_F, m_F) for any alpha, lambda.  The caller judges
    window validity from alpha = `suzuki_alpha(params, t)`.
    """
    ds = derived_scales(params)
    alpha = suzuki_alpha(params, t)
    m_arr = np.atleast_1d(np.asarray(m, dtype=float))
    vals = np.zeros_like(m_arr)
    inside = np.abs(m_arr) < ds.m_ferro
    mm = m_arr[inside]
    gap = ds.m_ferro**2 - mm * mm
    z = alpha * mm / np.sqrt(gap)
    vals[inside] = (alpha * ds.m_ferro**2 / math.sqrt(math.pi)
                    / gap**1.5 * np.exp(-(z - ds.lam) ** 2))
    return float(vals[0]) if np.isscalar(m) else vals


def suzuki_second_max_onset(params: ModelParams):
    """Birth of the second (negative-side) maximum for a biased profile.

    Solves m2^3 = -lam m_F^2 sqrt(m_F^2 - 2 m2^2)/sqrt(6) by bisection and
    returns (m2, alpha2, t2).  No closed reference value exists; tests check
    that (m2, alpha2) is a degenerate stationary point of the profile, and
    that the master's first maximum on m < 0 appears just after t2.
    """
    ds = derived_scales(params)
    lam, m_f = ds.lam, ds.m_ferro
    if lam <= 0:
        raise ValueError("second-maximum onset defined for positive bias")

    def f(m2):
        return m2**3 + lam * m_f**2 * math.sqrt(m_f**2 - 2.0 * m2**2) / math.sqrt(6.0)

    lo, hi = -m_f / math.sqrt(2.0) + 1e-15, 0.0
    from scipy.optimize import brentq
    m2 = brentq(f, lo, hi, xtol=1e-15)
    alpha2 = math.sqrt(1.5 * (m_f**2 - m2**2) * (m_f**2 - 2.0 * m2**2) / m_f**4)
    t2 = ds.theta * math.log(
        math.sqrt(params.n_spins / 2.0) * m_f / (ds.delta_total * alpha2))
    return m2, alpha2, t2


# -- width oracle, splitting, time scales, regime ----------------------------


# Taylor coefficients x^0 .. x^4 about the moving center of the width oracle
_ORDER = 5
# exact paramagnet (binomial): Phi = [(1+m)ln(1+m) + (1-m)ln(1-m)]/2 and
# Phi1 = -ln(1 - m^2)/2, as (m_c, Phi'', Phi''', Phi'''', Phi1', Phi1'')
_PARAMAGNET = (0.0, 1.0, 0.0, 2.0, 0.0, 1.0)
# y/(e^y - 1) = sum of B_k y^k / k!, through y^8
_BERNOULLI = np.array([1.0, -0.5, 1.0 / 12.0, 0.0, -1.0 / 720.0, 0.0,
                       1.0 / 30240.0, 0.0, -1.0 / 1209600.0])


def _bose_taylor(y0: float, s: float) -> np.ndarray:
    """Taylor coefficients in x of f(y0 + s x), f(y) = y/(e^y - 1), to x^3."""
    if abs(y0) < 0.1:
        poly = np.polynomial.polynomial
        d = [poly.polyval(y0, poly.polyder(_BERNOULLI, k)) for k in range(4)]
    else:
        # f = y n with n = 1/(e^y - 1), n' = -n (1 + n)
        n = 1.0 / math.expm1(y0)
        n1 = -n * (1.0 + n)
        n2 = -n1 * (1.0 + 2.0 * n)
        n3 = n1 * (1.0 + 6.0 * n * (1.0 + n))
        d = [y0 * n, n + y0 * n1, 2.0 * n1 + y0 * n2, 3.0 * n2 + y0 * n3]
    return np.array([d[k] * s**k / math.factorial(k) for k in range(4)]
                    + [0.0])


def _jump_rate_taylor(params: ModelParams, m: float):
    """Taylor coefficients in x of r_up(m + x) and r_down(m + x), to x^3.

    N r_up and N r_down are the short-memory rates of m -> m +/- 2/N in
    `master.transition_rates`: (gamma N/hbar^2) K(Omega_pm) (1 -/+ m), with
    K(w) = (hbar T/4) f(hbar w/T) exp(-|w|/Gamma) and f(y) = y/(e^y - 1).
    """
    t, j, n = params.temp_bath, params.coupling_j, params.n_spins
    pref = params.gamma * t / 4.0
    debye = t / params.debye_cutoff
    powers = np.arange(_ORDER)
    fact = np.array([math.factorial(k) for k in powers], dtype=float)
    out = []
    for sgn in (1.0, -1.0):
        y0 = (-2.0 * sgn * float(field_h(params, m)) - 2.0 * j / n) / t
        s = -2.0 * sgn * j / t  # d(hbar Omega/T)/dm
        cutoff = (math.exp(-abs(y0) * debye)
                  * (-math.copysign(debye, y0) * s) ** powers / fact)
        occupation = np.array([1.0 - sgn * m, -sgn, 0.0, 0.0, 0.0])
        taylor = np.convolve(np.convolve(occupation, _bose_taylor(y0, s)),
                             cutoff)[:_ORDER]
        out.append(pref * taylor)
    return out


def _peak_rhs(params: ModelParams):
    """Right-hand side of the WKB coefficient equations along the center.

    The master equation with P = exp(-N Phi + Phi1) gives, order by order in
    1/N, dPhi/dt + H(m, Phi') = 0 and dPhi1/dt + H_p Phi1' = -H_mp
    - H_pp Phi''/2, with H(m, p) = r_up (e^{2p} - 1) + r_down (e^{-2p} - 1).
    Expanded in x = m - m_c about the center, where Phi' = 0 and
    dm_c/dt = H_p(m_c, 0), the Taylor coefficients close at Phi'''' and
    Phi1'': the next ones cancel between the moving frame and H.
    """
    e0 = np.eye(_ORDER)[0]

    def mul(a, b):
        return np.convolve(a, b)[:_ORDER]

    def der(a):
        return np.append(a[1:] * np.arange(1, _ORDER), 0.0)

    def exp_series(q):
        out, term = e0.copy(), e0.copy()
        for k in range(1, _ORDER):
            term = mul(term, q) / k
            out += term
        return out

    def rhs(_t, y):
        m_c, a2, a3, a4, b1, b2 = y
        dphi = np.array([0.0, a2, a3 / 2.0, a4 / 6.0, 0.0])
        dphi1 = np.array([b1, b2, 0.0, 0.0, 0.0])
        r_up, r_dn = _jump_rate_taylor(params, m_c)
        e_up, e_dn = exp_series(2.0 * dphi), exp_series(-2.0 * dphi)
        up, dn = mul(r_up, e_up), mul(r_dn, e_dn)
        v_c = 2.0 * (r_up[0] - r_dn[0])
        ham = up + dn - r_up - r_dn
        ham_mp = 2.0 * (mul(der(r_up), e_up) - mul(der(r_dn), e_dn))
        # d/dt at fixed x of Phi and Phi1, as Taylor coefficients in x
        phi_rate = v_c * dphi - ham
        phi1_rate = (v_c * dphi1 - mul(2.0 * (up - dn), dphi1) - ham_mp
                     - mul(2.0 * (up + dn), der(dphi)))
        return [v_c, 2.0 * phi_rate[2], 6.0 * phi_rate[3],
                24.0 * phi_rate[4], phi1_rate[1], 2.0 * phi1_rate[2]]
    return rhs


def _peak_states(params: ModelParams, t_end: float):
    """Dense solution of the WKB coefficients from the exact paramagnet."""
    if params.m_offset != 0.0 or params.delta0 != 1.0:
        raise ValueError("the width oracle starts from the exact paramagnet "
                         "(m_offset = 0, delta0 = 1)")
    from scipy.integrate import solve_ivp
    sol = solve_ivp(_peak_rhs(params), (0.0, max(t_end, 1e-300)),
                    _PARAMAGNET, method="DOP853", rtol=1e-10, atol=1e-12,
                    dense_output=True)
    if not sol.success:
        raise RuntimeError(f"width oracle integration failed: {sol.message}")
    return sol.sol


def _median_and_width(n: int, state):
    """Median and width factor sqrt(N) sigma of exp(-N Phi + Phi1).

    The median lies (Phi1' - Phi'''/(3 Phi''))/(N Phi'') beyond the center
    (mode shift and skewness), and sigma^-2 = -d^2 ln P/dm^2 there, both to
    relative order 1/N.
    """
    m_c, a2, a3, _, b1, b2 = state
    shift = (b1 - a3 / (3.0 * a2)) / (n * a2)
    return m_c + shift, np.sqrt(n / (n * a2 + n * a3 * shift - b2))


def local_width_delta(params: ModelParams, t) -> np.ndarray | float:
    """Local width factor delta(t) = sigma sqrt(N) at the median, to 1/N.

    sigma is the Gaussian width read from the curvature of ln P at the
    median of the short-memory master-equation distribution that starts
    from the exact paramagnet.  ln P = -N Phi + Phi1 + O(1/N) is expanded
    about the deterministic center m_c(t), the characteristic of the master
    drift.  N Phi'' is the linear-noise curvature, with drift and diffusion
    taken along that exact path; Phi''' and the order-1 term Phi1
    (transport Jacobian, noise-induced drift, the finite jump size) give the
    1/N corrections to the curvature and to the median.  See `_peak_rhs`.
    """
    t = np.asarray(t, dtype=float)
    states = _peak_states(params, float(t.max(initial=0.0)))(t.ravel())
    out = _median_and_width(params.n_spins, states)[1].reshape(t.shape)
    return out if out.ndim else float(out)


def width_maximum(params: ModelParams) -> tuple[float, float]:
    """(t_max, delta_max): maximum of `local_width_delta` during registration.

    The next-order counterpart of `time_scales().t_width_max` and
    `.delta_max`, which it approaches as b/m_F -> 0 and N -> infinity.  The
    search runs until the center reaches 0.95 m_F; a width that still grows
    there (a bias too large for a transient maximum) raises ValueError.
    """
    ds = derived_scales(params)
    if ds.bias_b <= 0:
        raise ValueError("width maximum needs a positive bias")
    t_end = CharMap(params).travel_time(params.m_offset, 0.95 * ds.m_ferro)
    states = _peak_states(params, t_end)

    def width(t):
        return _median_and_width(params.n_spins, states(t))[1]

    tt = np.linspace(0.0, t_end, 257)
    k = int(np.argmax(width(tt)))
    if k == len(tt) - 1:
        raise ValueError("the width has no maximum before registration")
    lo, hi = tt[max(k - 1, 0)], tt[k + 1]
    from scipy.optimize import minimize_scalar
    res = minimize_scalar(lambda x: -width(x), bounds=(lo, hi),
                          method="bounded",
                          options={"xatol": 1e-9 * ds.theta})
    return float(res.x), float(-res.fun)


def split_probabilities(params: ModelParams) -> tuple[float, float]:
    """(p_plus, p_minus): asymptotic weights of the two ferromagnetic peaks."""
    ds = derived_scales(params)
    p_minus = 0.5 * erfc(ds.lam)
    return 1.0 - p_minus, p_minus


def time_scales(params: ModelParams) -> TimeScales:
    """Named times of the relaxation, in raw units (divide by theta to match
    figure axes).  The biased-regime scales diverge as the bias vanishes and
    are +inf for b <= 0; mirror g and m0 first for a negative bias.
    t_width_max and delta_max are leading order (cubic drift, diffusion at
    the origin, b/m_F -> 0, N -> infinity); `width_maximum` gives the values
    to relative order 1/N of the master equation.
    """
    ds = derived_scales(params)
    th, m_f, b, delta = ds.theta, ds.m_ferro, ds.bias_b, ds.delta_total
    n = params.n_spins
    if b > 0:
        tau_reg = th * math.log(3.0 * m_f / b)
        t_width = th * math.log(m_f / (math.sqrt(2.0) * b))
        d_max = 2.0 * m_f * delta / (3.0 * math.sqrt(3.0) * b)
    else:
        tau_reg = t_width = d_max = math.inf
    t_flat = th * math.log((m_f / delta) * math.sqrt(n / 3.0))
    tau_relax = th * math.log((m_f / delta) * math.sqrt(10.0 * n / 3.0))
    return TimeScales(tau_reg=tau_reg, t_width_max=t_width, delta_max=d_max,
                      t_flat=t_flat, tau_relax=tau_relax)


DETERMINISTIC_LAMBDA = 3.0  # |lambda| from which `classify_regime` says deterministic


def classify_regime(params: ModelParams, g0: float = 0.0) -> RegimeReport:
    """Regime label plus the two measurement-condition ratios.

    deterministic for |lambda| >= DETERMINISTIC_LAMBDA, active-bifurcation for
    |lambda| <= 1, marginal in between.  stray_bias_ratio compares the
    squared pre-measurement bias (stray field g0 plus offset m0) against
    delta^2/N; it must be small for the paramagnet to survive until the
    coupling is switched on.  coupling_ratio is the same ratio built from
    the measurement coupling g; it must be large for faithful registration.
    """
    ds = derived_scales(params)
    ts = time_scales(params)
    p_plus, p_minus = split_probabilities(params)
    lam = ds.lam
    if abs(lam) >= DETERMINISTIC_LAMBDA:
        label = "deterministic"
    elif abs(lam) <= 1.0:
        label = "active-bifurcation"
    else:
        label = "marginal"
    j, t = params.coupling_j, params.temp_bath
    n = params.n_spins
    denom = ds.delta_total**2 / n
    bias, pull = g0 / (j - t) + params.m_offset, params.coupling_g / (j - t)
    stray = bias * bias / denom  # products overflow to inf where ** raises
    coupling = pull * pull / denom
    return RegimeReport(
        lam=lam,
        classification=label,
        p_plus=p_plus,
        p_minus=p_minus,
        tau_reg=ts.tau_reg,
        stray_bias_ratio=stray,
        coupling_ratio=coupling,
    )
