import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import gammaln, polygamma

from magdot.analytic import (
    _bose_taylor,
    _cubic_inverse_printed,
    CharacteristicsError,
    CharMap,
    classify_regime,
    closed_form_P,
    local_width_delta,
    peak_width_delta,
    split_probabilities,
    suzuki_alpha,
    suzuki_peak_positions,
    suzuki_profile,
    suzuki_second_max_onset,
    suzuki_tail_density,
    time_scales,
    width_maximum,
)
from magdot.master import (
    DiscreteDistribution,
    evolve,
    initial_distribution,
    transition_rates,
)
from magdot.model import ModelParams, derived_scales, diffusion_w, drift_v
from magdot.snapshots import l1_distance

@pytest.fixture(scope="module")
def fig1_master_run(fig1_params):
    ds = derived_scales(fig1_params)
    th = ds.theta
    times = [th, 2.25 * th, 3 * th]
    res = evolve(initial_distribution(fig1_params, "exact-paramagnet"),
                 fig1_params, times[-1], snapshot_times=times)
    return ds, res.snapshots


class TestCharacteristics:
    def test_identity_at_zero_time(self, fig1_params):
        cm = CharMap(fig1_params)
        for mu in (-0.4, 0.05, 0.6):
            assert cm.forward(mu, 0.0) == pytest.approx(mu, abs=1e-12)
            assert cm.inverse(mu, 0.0) == pytest.approx(mu, abs=1e-12)

    def test_round_trip(self, fig1_params):
        ds = derived_scales(fig1_params)
        cm = CharMap(fig1_params)
        for mu0, frac in ((0.05, 2.0), (0.2, 1.0), (-0.05, 0.5)):
            t = frac * ds.theta
            m = cm.forward(mu0, t)
            assert abs(cm.inverse(m, t) - mu0) < 1e-9

    def test_travel_time_matches_registration_formula(self, fig1_params):
        # quadrature travel 0 -> 0.95 m_F vs the closed-form registration
        # time (derived in the cubic model): 2% window
        ds = derived_scales(fig1_params)
        cm = CharMap(fig1_params)
        tt = cm.travel_time(0.0, 0.95 * ds.m_ferro)
        want = time_scales(fig1_params).tau_reg
        assert abs(tt - want) / want < 0.02

    def test_travel_time_forward_consistency(self, fig1_params):
        ds = derived_scales(fig1_params)
        cm = CharMap(fig1_params)
        t = 1.7 * ds.theta
        m = cm.forward(0.02, t)
        assert cm.travel_time(0.02, m) == pytest.approx(t, rel=1e-9)

    def test_cross_basin_rejected(self, fig1_params):
        cm = CharMap(fig1_params)
        with pytest.raises(CharacteristicsError):
            cm.travel_time(-0.3, 0.3)  # astride the repeller at -0.145

    def test_fixed_point_start_rejected(self, fig2_params):
        cm = CharMap(fig2_params)
        with pytest.raises(CharacteristicsError):
            cm.forward(0.0, 1.0)  # m = 0 is the repeller when g = 0

    @pytest.mark.parametrize("n, temp, g", [(9, 0.386, 0.097), (7, 0.501, 0.148)])
    def test_forward_through_an_open_edge_rejected(self, n, temp, g):
        # at small N the 1/N term of the drift points outward at m = +/-1, so
        # the characteristics from +/-0.9 leave (-1, 1) within theta; the
        # backward map keeps saturating there
        p = ModelParams(n_spins=n, temp_bath=temp, coupling_g=g, sector="down")
        th = derived_scales(p).theta
        cm = CharMap(p)
        for mu in (-0.9, 0.9):
            with pytest.raises(CharacteristicsError, match="leaves"):
                cm.forward(mu, th)
            assert 0.0 < cm.travel_time(mu, 0.999999 * math.copysign(1.0, mu)) < th
            assert abs(cm.inverse(mu, th)) < 1.0

    def test_linearized_matches_exact_near_origin(self, fig1_params):
        # the gaussian-linear density peaks on the linearized flow from the
        # origin; at 0.2 theta it sits 1.7e-5 from the exact characteristic
        ds = derived_scales(fig1_params)
        t = 0.2 * ds.theta
        m_c = CharMap(fig1_params).forward(0.0, t)
        mesh = np.linspace(m_c - 1e-3, m_c + 1e-3, 2001)
        dens = closed_form_P(fig1_params, mesh, t, "gaussian-linear")
        assert mesh[np.argmax(dens)] == pytest.approx(m_c, abs=2e-4)


class TestClosedFormP:
    @pytest.mark.parametrize("model",
                             ("drift-only", "gaussian-linear", "gaussian-cubic"))
    def test_initial_profile_recovered(self, fig1_params, model):
        m = np.linspace(-0.5, 0.6, 23)
        got = closed_form_P(fig1_params, m, 0.0, model)
        want = math.sqrt(1000 / (2 * math.pi)) * np.exp(-500 * m * m)
        assert np.abs(got - want).max() < 1e-8

    def test_peak_tracks_characteristic(self, fig1_params):
        # the maximum of the transported Gaussian sits where the printed
        # backward map returns the initial center
        ds = derived_scales(fig1_params)
        t = 3 * ds.theta
        m_star = brentq(lambda m: _cubic_inverse_printed(ds, m, t),
                        ds.m_repel, ds.m_ferro, xtol=1e-15)
        mesh = np.linspace(m_star - 0.05, m_star + 0.05, 4001)
        dens = closed_form_P(fig1_params, mesh, t, "gaussian-cubic")
        # full-profile argmax leads the transported center by the Jacobian
        # pull, a genuine O(delta^2 e^{t/theta}/N) offset
        assert abs(mesh[np.argmax(dens)] - m_star) < 0.03

    def test_matches_master_equation(self, fig1_params, fig1_master_run):
        # the transported-Gaussian forms track the simulation closely while
        # the peak is in transit; entering the final equilibration stage
        # (registration is at ~2.9 theta here) they degrade at the size of
        # their small-repeller approximation, which these envelopes record
        ds, snaps = fig1_master_run
        envelope = {1.0: 0.05, 2.25: 0.25, 3.0: 0.45}
        for snap in snaps:
            sel = np.abs(snap.grid) < ds.m_ferro * (1.0 - 1e-4)
            mg = snap.grid[sel]
            vals = closed_form_P(fig1_params, mg, snap.time, "gaussian-cubic")
            l1 = l1_distance(mg, vals, snap.grid, snap.density())
            frac = round(snap.time / ds.theta, 2)
            assert l1 < envelope[frac], (frac, l1)

    def test_domain_guard(self, fig1_params):
        with pytest.raises(ValueError):
            closed_form_P(fig1_params, 0.95, 100.0, "gaussian-cubic")


class TestSuzuki:
    def test_flatness_ratios(self, fig2_params):
        ts = time_scales(fig2_params)
        ds = derived_scales(fig2_params)
        prof0 = suzuki_profile(fig2_params, 0.0, ts.t_flat)
        assert prof0.alpha**2 == pytest.approx(1.5, rel=1e-9)
        for frac, want in ((0.5, 0.93), (0.6, 0.84), (0.7, 0.65)):
            r = suzuki_profile(fig2_params, frac * ds.m_ferro,
                               ts.t_flat).values / prof0.values
            assert abs(r - want) < 0.005

    def test_normalization(self, fig2_params):
        from dataclasses import replace
        g_unit_lambda = math.sqrt(2.0 / 1000) \
            * derived_scales(fig2_params).delta_total * 0.35
        for params in (fig2_params, replace(fig2_params, coupling_g=g_unit_lambda)):
            ds = derived_scales(params)
            assert ds.lam in (0.0, pytest.approx(1.0, rel=1e-12))
            for alpha in (0.2, 1.2, math.sqrt(1.5)):
                t = ds.theta * math.log(
                    math.sqrt(500) * ds.m_ferro / (ds.delta_total * alpha))
                total, _ = quad(
                    lambda m: suzuki_profile(params, m, t).values,
                    -ds.m_ferro + 1e-13, ds.m_ferro - 1e-13, limit=300)
                assert total == pytest.approx(1.0, abs=1e-6)

    def test_peak_onset_degenerate_at_three_halves(self, fig2_params):
        assert suzuki_peak_positions(fig2_params, 1.25) is None
        just_after = suzuki_peak_positions(fig2_params, math.sqrt(1.5) - 1e-9)
        assert just_after is not None
        assert abs(just_after[1]) < 1e-3

    def test_peaks_approach_attractors(self, fig2_params):
        ds = derived_scales(fig2_params)
        lo, hi = suzuki_peak_positions(fig2_params, 1e-6)
        assert hi == pytest.approx(ds.m_ferro, rel=1e-9)
        assert lo == pytest.approx(-ds.m_ferro, rel=1e-9)

    def test_peak_formula_matches_profile_argmax(self, fig2_params):
        ds = derived_scales(fig2_params)
        alpha = 0.8
        t = ds.theta * math.log(
            math.sqrt(500) * ds.m_ferro / (ds.delta_total * alpha))
        mesh = np.linspace(-ds.m_ferro + 1e-9, ds.m_ferro - 1e-9, 200001)
        vals = suzuki_profile(fig2_params, mesh, t).values
        _, want = suzuki_peak_positions(fig2_params, alpha)
        # unbiased profile is symmetric: argmax may land on either peak
        assert abs(abs(mesh[np.argmax(vals)]) - want) < 1e-4

    def test_second_maximum_onset_is_degenerate_point(self, fig1_params):
        # the onset (m2, alpha2) must be a saddle of the profile: both the
        # slope and the curvature of ln P vanish there
        ds = derived_scales(fig1_params)
        m2, alpha2, t2 = suzuki_second_max_onset(fig1_params)
        assert -ds.m_ferro / math.sqrt(2) < m2 < 0
        assert suzuki_alpha(fig1_params, t2) == pytest.approx(alpha2, rel=1e-12)
        h = 1e-5
        samples = suzuki_profile(
            fig1_params, np.array([m2 - h, m2, m2 + h]), t2).values
        logp = np.log(samples)
        slope = (logp[2] - logp[0]) / (2 * h)
        curv = (logp[2] - 2 * logp[1] + logp[0]) / h**2
        scale = abs(math.log(samples[1]))
        assert abs(slope) * h < 1e-6 * max(scale, 1.0)
        assert abs(curv) * h * h < 1e-6 * max(scale, 1.0)

    def test_tail_form_matches_profile_at_small_alpha(self, fig2_params):
        ds = derived_scales(fig2_params)
        alpha = 0.05
        t = ds.theta * math.log(
            math.sqrt(500) * ds.m_ferro / (ds.delta_total * alpha))
        # around the near-attractor peak, x = 2/3
        for x in (0.4, 2.0 / 3.0, 1.2):
            m = ds.m_ferro * (1.0 - 0.5 * alpha**2 * x)
            full = suzuki_profile(fig2_params, m, t).values
            tail = suzuki_tail_density(fig2_params, m, alpha)
            assert tail / full == pytest.approx(1.0, rel=0.02)


class TestSplitProbabilities:
    def test_unbiased_half(self, fig2_params):
        p_plus, p_minus = split_probabilities(fig2_params)
        assert p_plus == 0.5 and p_minus == 0.5

    def test_unit_lambda_value(self, fig1_params):
        from dataclasses import replace
        ds = derived_scales(fig1_params)
        g1 = 1.0 * math.sqrt(2.0 / 1000) * ds.delta_total * 0.35
        p = replace(fig1_params, coupling_g=g1)
        _, p_minus = split_probabilities(p)
        assert p_minus == pytest.approx(0.078650, abs=5e-7)

    def test_reference_lambda(self, fig1_params):
        p_plus, p_minus = split_probabilities(fig1_params)
        assert p_minus == pytest.approx(0.0037632, abs=2e-7)
        assert p_plus + p_minus == 1.0

    def test_reflection(self, fig1_params):
        down = fig1_params.flipped()
        assert split_probabilities(fig1_params)[1] \
            + split_probabilities(down)[1] == pytest.approx(1.0, abs=1e-15)


class TestTimeScales:
    def test_reference_values(self, fig1_params, fig2_params):
        th = derived_scales(fig1_params).theta
        ts1 = time_scales(fig1_params)
        assert ts1.tau_reg / th == pytest.approx(2.936, abs=5e-4)
        assert ts1.t_width_max / th == pytest.approx(1.491, abs=5e-4)
        assert ts1.delta_max == pytest.approx(4.085, abs=5e-4)
        ts2 = time_scales(fig2_params)
        assert ts2.t_flat / th == pytest.approx(2.243, abs=5e-4)
        assert ts2.tau_relax / th == pytest.approx(3.394, abs=5e-4)

    def test_exact_formula_agreement(self, fig1_params):
        ds = derived_scales(fig1_params)
        ts = time_scales(fig1_params)
        assert ts.tau_reg == pytest.approx(
            ds.theta * math.log(3 * ds.m_ferro / ds.bias_b), rel=1e-9)
        assert ts.t_width_max == pytest.approx(
            ds.theta * math.log(ds.m_ferro / (math.sqrt(2) * ds.bias_b)),
            rel=1e-9)
        assert ts.delta_max == pytest.approx(
            2 * ds.m_ferro * ds.delta_total / (3 * math.sqrt(3) * ds.bias_b),
            rel=1e-9)

    def test_relax_flat_gap_identity(self, fig1_params, fig2_params):
        th = derived_scales(fig1_params).theta
        for params in (fig1_params, fig2_params):
            ts = time_scales(params)
            assert ts.tau_relax - ts.t_flat == pytest.approx(
                th * math.log(math.sqrt(10.0)), rel=1e-12)

    def test_divergence_for_unbiased(self, fig2_params):
        ts = time_scales(fig2_params)
        assert math.isinf(ts.tau_reg)
        assert math.isinf(ts.t_width_max)
        assert math.isinf(ts.delta_max)
        assert math.isfinite(ts.t_flat) and math.isfinite(ts.tau_relax)

    def test_width_trajectory_scan(self, fig1_params):
        # the printed maximum formulas are exact for the small-bias width
        # factor once the diffusion blur has saturated; with the live blur
        # the maximum drifts ~1.6% late at these parameters
        ds = derived_scales(fig1_params)
        ts = time_scales(fig1_params)
        th = ds.theta
        tt = np.linspace(0.5, 3.0, 60001) * th
        live = peak_width_delta(fig1_params, tt)
        k = np.argmax(live)
        assert abs(tt[k] / ts.t_width_max - 1.0) < 0.02
        assert abs(live[k] / ts.delta_max - 1.0) < 0.02
        be = ds.bias_b * np.exp(tt / th)
        m_t = be * ds.m_ferro / np.sqrt(ds.m_ferro**2 + be * be)
        saturated = ds.delta_total * m_t * (ds.m_ferro**2 - m_t**2) \
            / (ds.bias_b * ds.m_ferro**2)
        k = np.argmax(saturated)
        assert abs(tt[k] / ts.t_width_max - 1.0) < 1e-4
        assert abs(saturated[k] / ts.delta_max - 1.0) < 1e-6


def binomial_width(n, log_w, lo, hi, curv_extra=0.0):
    """Median and width factor of the continuous density exp(log_w(m)) on
    (lo, hi), where log_w is ln C(N, N(1+m)/2) plus a quadratic in m whose
    second derivative is curv_extra."""
    def mass(x):
        return quad(lambda m: math.exp(log_w(m)), lo, x, epsabs=0.0,
                    epsrel=1e-12, limit=200)[0]
    half = 0.5 * mass(hi)
    med = brentq(lambda x: mass(x) - half, lo, hi, xtol=1e-14)
    k = n * (1.0 + med) / 2.0
    curv = curv_extra - (n / 2.0) ** 2 * (polygamma(1, k + 1.0)
                                          + polygamma(1, n - k + 1.0))
    return med, math.sqrt(-n / curv)


def log_binomial(n, m):
    return (gammaln(n + 1.0) - gammaln(n * (1.0 + m) / 2.0 + 1.0)
            - gammaln(n * (1.0 - m) / 2.0 + 1.0))


class TestWidthMaximum:
    """Next-order width oracle: the WKB expansion ln P = -N Phi + Phi1 of
    the master equation about the moving center, read at the median."""

    def test_initial_width_is_the_binomial(self, fig1_params):
        # lattice curvature of ln C(N, k) at k = N/2
        n = fig1_params.n_spins
        want = math.sqrt(n / (0.5 * n * n * math.log1p(2.0 / n)))
        assert local_width_delta(fig1_params, 0.0) == pytest.approx(
            want, rel=1e-6)

    @pytest.mark.parametrize("lam_t", [0.3, 1.0, 3.0])
    @pytest.mark.parametrize("g, cutoff", [(0.03, 100.0), (0.05, 0.2)])
    def test_independent_spins_stay_binomial(self, lam_t, g, cutoff):
        # J = 0: each spin flips on its own, so the paramagnet stays
        # binomial with up-probability q(t), skewed for q != 1/2
        n = 1000
        p = ModelParams(n_spins=n, temp_bath=0.65, coupling_g=g,
                        coupling_j=0.0, debye_cutoff=cutoff)
        r = transition_rates(p)
        k = n // 2
        up, down = r.up[k] / k, r.down[k] / k  # per flippable spin
        q_inf = up / (up + down)
        q = q_inf + (0.5 - q_inf) * math.exp(-lam_t)
        c = 2.0 * q - 1.0

        def log_w(m):
            return (log_binomial(n, m) + n * (1.0 + m) / 2.0 * math.log(q)
                    + n * (1.0 - m) / 2.0 * math.log(1.0 - q))
        _, want = binomial_width(n, log_w, c - 0.5, c + 0.5)
        got = local_width_delta(p, lam_t / (up + down))
        assert got == pytest.approx(want, rel=2e-6)

    @pytest.mark.parametrize("frac", [0.5, 1.5, 2.5])
    def test_linear_noise_limit(self, frac):
        # N -> infinity: the variance carried along the exact characteristic,
        # (v(m_c)/v(0))^2 [1 + 2 v(0)^2 int_0^m_c w/v^3 dm]
        p = ModelParams(n_spins=10**8, temp_bath=0.65, coupling_g=0.05,
                        debye_cutoff=1e6)
        t = frac * derived_scales(p).theta
        m_c = CharMap(p).forward(0.0, t)
        v0 = drift_v(p, 0.0)
        s = 1.0 + 2.0 * v0**2 * quad(
            lambda m: diffusion_w(p, m) / drift_v(p, m) ** 3, 0.0, m_c,
            epsabs=0.0, epsrel=1e-12)[0]
        want = drift_v(p, m_c) / v0 * math.sqrt(s)
        assert local_width_delta(p, t) == pytest.approx(want, rel=1e-5)

    @pytest.mark.parametrize("cutoff", [1e6, 1.0])
    def test_stationary_limit(self, fig1_params, cutoff):
        # long after registration: the ferromagnetic peak of the exact
        # binomial x Boltzmann equilibrium, which detailed balance makes
        # independent of the Debye cutoff
        p = replace(fig1_params, debye_cutoff=cutoff)
        n = p.n_spins
        ds = derived_scales(p)
        j, temp = p.coupling_j, p.temp_bath

        def log_w(m):
            return (log_binomial(n, m) - log_binomial(n, ds.m_ferro)
                    + n * (p.g_eff * (m - ds.m_ferro)
                           + 0.5 * j * (m * m - ds.m_ferro**2)) / temp)
        _, want = binomial_width(n, log_w, 0.3, 1.0 - 1e-9,
                                 curv_extra=n * j / temp)
        assert local_width_delta(p, 60.0 * ds.theta) == pytest.approx(
            want, rel=1e-4)

    @pytest.mark.parametrize("y0", [-2.0, -0.1001, -0.05, 0.0, 0.0999, 0.7])
    def test_bose_factor_derivatives(self, y0):
        # Taylor coefficients of f(y0 + s x), f(y) = y/(e^y - 1), on both
        # sides of the switch between series and closed form at |y| = 0.1
        def f(y):
            return 1.0 if y == 0.0 else y / math.expm1(y)
        h = 1e-2
        fm2, fm1, f0, fp1, fp2 = (f(y0 + k * h) for k in (-2, -1, 0, 1, 2))
        want = [f0,
                (fp1 - fm1) / (2 * h) - (fp2 - 2 * fp1 + 2 * fm1 - fm2)
                / (12 * h),
                (fp1 - 2 * f0 + fm1) / h**2 / 2,
                (fp2 - 2 * fp1 + 2 * fm1 - fm2) / (2 * h**3) / 6]
        s = -1.3
        got = _bose_taylor(y0, s)
        for k in range(4):
            assert got[k] == pytest.approx(want[k] * s**k, abs=2e-6)

    def test_is_the_maximum(self, fig1_params):
        t_max, d_max = width_maximum(fig1_params)
        th = derived_scales(fig1_params).theta
        tt = t_max + np.linspace(-0.2, 0.2, 41) * th
        assert local_width_delta(fig1_params, tt).max() <= d_max * (1 + 1e-12)

    def test_approaches_leading_order(self):
        # b/m_F -> 0 and N -> infinity together: 0.16, 0.065, 0.033, 0.016
        errs = []
        for n, g in ((10**3, 0.05), (10**4, 0.02), (10**5, 0.01),
                     (10**6, 0.005)):
            p = ModelParams(n_spins=n, temp_bath=0.65, coupling_g=g,
                            debye_cutoff=1e6)
            t_max, d_max = width_maximum(p)
            ts = time_scales(p)
            errs.append((abs(t_max / ts.t_width_max - 1.0),
                         abs(d_max / ts.delta_max - 1.0)))
        for (t0, d0), (t1, d1) in zip(errs, errs[1:]):
            assert t1 < t0 and d1 < d0
        assert errs[-1][0] < 0.01 and errs[-1][1] < 0.01

    def test_needs_positive_bias(self, fig2_params):
        with pytest.raises(ValueError):
            width_maximum(fig2_params)

    def test_needs_paramagnet_start(self):
        p = ModelParams(n_spins=1000, temp_bath=0.65, coupling_g=0.05,
                        delta0=0.5)
        with pytest.raises(ValueError):
            local_width_delta(p, 1.0)


class TestLocalWidthEstimator:
    """`DiscreteDistribution.local_width` on a grid-sampled transported
    density exp(-N mu^2/2W^2) v(mu)/v(m), cut off at the repeller and at
    m_F, against the curvature of its ln P at its median."""

    @pytest.mark.parametrize("frac", [1.0, 1.7])
    def test_matches_analytic_curvature(self, fig1_params, frac):
        self.check(fig1_params, frac)

    def test_matches_analytic_curvature_near_m_ferro(self, fig1_params):
        # at 2.5 theta the peak sits near m_F and is narrower than +/-0.05
        self.check(replace(fig1_params, n_spins=2000), 2.5)

    @staticmethod
    def check(p, frac):
        n = p.n_spins
        ds = derived_scales(p)
        t = frac * ds.theta
        cm = CharMap(p)
        j, temp = p.coupling_j, p.temp_bath
        w2 = temp / (j - temp) * (1.0 - math.exp(-2.0 * t / ds.theta)) \
            + p.delta0**2

        def log_p(m):
            mu = cm.inverse(m, t)
            return (-0.5 * n * mu * mu / w2
                    + math.log(drift_v(p, mu) / drift_v(p, m)))
        m = p.grid
        inside = (m > ds.m_repel) & (m < ds.m_ferro)
        w = np.zeros_like(m)
        w[inside] = np.exp([log_p(x) for x in m[inside]])
        d = DiscreteDistribution(n, w / w.sum())
        med, h = d.median(), 5e-4
        assert med == pytest.approx(cm.forward(0.0, t), abs=1e-3)
        curv = (log_p(med + h) - 2.0 * log_p(med) + log_p(med - h)) / h**2
        assert d.local_width() == pytest.approx(math.sqrt(-1.0 / curv),
                                                rel=0.01)


class TestClassifyRegime:
    def test_reference_classifications(self, fig1_params, fig2_params):
        r1 = classify_regime(fig1_params)
        assert r1.classification == "marginal"
        assert r1.lam == pytest.approx(1.89, abs=1e-2)
        assert r1.p_minus == pytest.approx(0.004, abs=5e-4)
        assert r1.coupling_ratio == pytest.approx(7.14, abs=5e-3)
        r2 = classify_regime(fig2_params)
        assert r2.classification == "active-bifurcation"
        assert r2.p_plus == 0.5 and r2.p_minus == 0.5
        # doubling g doubles lambda past 3, in either sector
        strong = replace(fig1_params, coupling_g=0.1)
        for p in (strong, strong.flipped()):
            r3 = classify_regime(p)
            assert abs(r3.lam) == pytest.approx(3.78, abs=1e-2)
            assert r3.classification == "deterministic"

    def test_stray_bias_ratio(self, fig1_params):
        r = classify_regime(fig1_params, g0=0.05)
        # with g0 equal to g the two ratios coincide (m0 = 0)
        assert r.stray_bias_ratio == pytest.approx(r.coupling_ratio, rel=1e-12)
        assert classify_regime(fig1_params).stray_bias_ratio == 0.0
