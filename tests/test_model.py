import math

import numpy as np
import pytest

from magdot import model
from magdot.bath import KernelSpec
from magdot.model import (
    ModelParams,
    ParameterError,
    derived_scales,
    diffusion_w,
    drift_v,
    drift_v_prime,
    drift_zeros,
    field_h,
    fixed_points,
    omega_pm,
    repeller,
    x_coth_x,
)

from conftest import random_params, small_params


def coth_series(x):
    # independent oracle: Laurent series of coth, good for |x| < 1
    return 1.0 / x + x / 3.0 - x**3 / 45.0 + 2.0 * x**5 / 945.0


class TestFieldH:
    def test_zero_case(self):
        p = small_params(g=0.0)
        assert field_h(p, 0.0) == 0.0

    def test_direct_substitution(self):
        p = small_params(g=0.05)
        assert field_h(p, 0.0) == pytest.approx(0.05, abs=0)

    def test_sector_sign_flip(self):
        p = small_params(g=0.05, sector="down")
        assert field_h(p, 0.0) == pytest.approx(-0.05, abs=0)


class TestDrift:
    def test_zero_at_origin_for_zero_field(self):
        p = small_params(g=0.0)
        assert drift_v(p, 0.0) == 0.0

    def test_near_zero_at_m_ferro(self, fig1_params):
        # m_F solves the mean-field equation, which zeroes the drift only up
        # to its 1/N bookkeeping term: |v(m_F)| <= gamma*h*(1/N)*1.01
        ds = derived_scales(fig1_params)
        v = drift_v(fig1_params, ds.m_ferro)
        bound = fig1_params.gamma * field_h(fig1_params, ds.m_ferro) / 1000 * 1.01
        assert abs(v) < bound
        # and the drift's own zero is a true zero
        z = [fp.m for fp in drift_zeros(fig1_params) if fp.m > 0.5][0]
        assert abs(drift_v(fig1_params, z)) < 1e-15

    def test_positive_at_origin(self, fig1_params):
        assert drift_v(fig1_params, 0.0) > 0.0

    def test_sign_change_across_fixed_points(self, fig1_params):
        eps = 1e-4
        for fp in drift_zeros(fig1_params):
            left = drift_v(fig1_params, fp.m - eps)
            right = drift_v(fig1_params, fp.m + eps)
            if fp.stable:
                assert left > 0 > right
            else:
                assert left < 0 < right

    def test_prime_matches_finite_difference(self, fig1_params):
        for m in (-0.7, -0.05, 0.0, 0.3, 0.9):
            h = 1e-6
            fd = (drift_v(fig1_params, m + h) - drift_v(fig1_params, m - h)) / (2 * h)
            assert drift_v_prime(fig1_params, m) == pytest.approx(fd, rel=1e-6)


class TestDiffusion:
    def test_zero_field_limit(self):
        p = small_params(g=0.0, temp=0.65)
        assert diffusion_w(p, 0.0) == pytest.approx(p.gamma * 0.65, rel=1e-14)

    def test_series_oracle(self):
        p = small_params(g=0.05, temp=0.65)
        want = p.gamma * 0.05 * (coth_series(0.05 / 0.65) - 0.0)
        assert diffusion_w(p, 0.0) == pytest.approx(want, rel=1e-10)

    def test_positive_inside_interval(self, fig1_params):
        m = np.linspace(-0.99, 0.99, 199)
        assert np.all(diffusion_w(fig1_params, m) > 0.0)


class TestOmega:
    def test_zero_field_value(self):
        p = small_params(n=1000, g=0.0)
        om_p, om_m = omega_pm(p, 0.0)
        assert om_p == pytest.approx(-0.002, abs=1e-15)
        assert om_m == pytest.approx(-0.002, abs=1e-15)

    def test_sum_rule(self, fig1_params):
        for m in (-0.8, 0.0, 0.33, 1.0):
            om_p, om_m = omega_pm(fig1_params, m)
            assert om_p + om_m == pytest.approx(-4.0 / 1000, abs=1e-14)

    def test_direct_substitution(self, fig1_params):
        _, om_m = omega_pm(fig1_params, 0.5)
        assert om_m == pytest.approx(1.098, abs=1e-12)


class TestFixedPoints:
    def test_reference_values(self, fig1_params, fig2_params):
        r1 = [fp.m for fp in fixed_points(fig1_params) if fp.stable and fp.m > 0]
        assert abs(r1[0] - 0.89707) < 1e-5
        r2 = fixed_points(fig2_params)
        stable = sorted(fp.m for fp in r2 if fp.stable)
        assert abs(stable[1] - 0.87206) < 1e-5
        assert abs(stable[0] + 0.87206) < 1e-5
        assert any(not fp.stable and abs(fp.m) < 1e-12 for fp in r2)

    def test_three_roots_with_unstable_middle(self, fig1_params):
        fps = fixed_points(fig1_params)
        assert len(fps) == 3
        assert [fp.stable for fp in fps] == [True, False, True]
        assert fps[1].m == pytest.approx(-0.05 / 0.35, abs=3e-3)

    def test_paramagnetic_single_root(self):
        p = small_params(temp=2.0, g=0.0)
        fps = fixed_points(p)
        assert len(fps) == 1
        assert fps[0].m == pytest.approx(0.0, abs=1e-12)
        assert fps[0].stable

    def test_sector_flip_mirror(self, fig1_params):
        flipped = fig1_params.flipped()
        a = sorted(fp.m for fp in fixed_points(fig1_params))
        b = sorted(-fp.m for fp in fixed_points(flipped))
        assert np.allclose(a, b, atol=1e-10)

    def test_residual_tolerance(self, fig1_params):
        t = fig1_params.temp_bath
        for fp in fixed_points(fig1_params):
            res = fp.m - math.tanh(field_h(fig1_params, fp.m) / t)
            assert abs(res) < 1e-10


def bisected_zeros(f):
    """Reference: scalar bisection of every sign change on a 10,000-cell scan,
    each to a 1e-15 bracket, plus exact zeros at scan nodes."""
    ms = np.linspace(-1.0, 1.0, 10_001)
    res = f(ms)
    roots = []
    for i in np.flatnonzero(np.sign(res[:-1]) * np.sign(res[1:]) < 0):
        lo, hi, flo = ms[i], ms[i + 1], res[i]
        while hi - lo >= 1e-15:
            mid = 0.5 * (lo + hi)
            fm = f(mid)
            if flo * fm <= 0:
                hi = mid
            else:
                lo, flo = mid, fm
        roots.append(0.5 * (lo + hi))
    roots += [m for m in ms[res == 0.0] if all(abs(m - r) >= 1e-9 for r in roots)]
    return sorted(roots)


@random_params
def test_zeros_match_scalar_bisection(params):
    t = params.temp_bath
    for fn, f in ((fixed_points, lambda m: m - np.tanh(field_h(params, m) / t)),
                  (drift_zeros, lambda m: drift_v(params, m))):
        got = fn(params)
        ref = bisected_zeros(f)
        assert len(got) == len(ref)
        assert np.allclose([fp.m for fp in got], ref, rtol=0.0, atol=1e-14)
        assert [fp.stable for fp in got] == [drift_v_prime(params, r) < 0 for r in ref]


class TestDerivedScales:
    def test_reference_values(self, fig1_params):
        ds = derived_scales(fig1_params)
        assert ds.theta == pytest.approx(1.0 / (1e-3 * 0.35), rel=1e-14)
        assert ds.delta_total**2 == pytest.approx(0.65 / 0.35 + 1.0, rel=1e-14)
        assert ds.delta_total == pytest.approx(1.690309, abs=1e-6)
        assert ds.bias_b == pytest.approx(0.142857142857, rel=1e-10)
        assert ds.lam == pytest.approx(1.8899, abs=1e-4)
        assert ds.delta_ferro == pytest.approx(0.528290, abs=1e-5)

    def test_unbiased_case(self, fig2_params):
        ds = derived_scales(fig2_params)
        assert ds.bias_b == 0.0
        assert ds.lam == 0.0
        assert ds.delta_ferro == pytest.approx(0.6158, abs=1e-4)

    def test_bias_identity_exact(self, fig1_params):
        ds = derived_scales(fig1_params)
        n = fig1_params.n_spins
        assert ds.bias_b == pytest.approx(
            ds.lam * math.sqrt(2.0 / n) * ds.delta_total, rel=1e-15)

    def test_rejects_paramagnetic_bath(self):
        p = small_params(temp=1.5)
        with pytest.raises(ParameterError):
            derived_scales(p)

    def test_cached_per_parameter_set(self, monkeypatch):
        calls = []

        def counted(params, *args, **kwargs):
            calls.append(params)
            return fixed_points(params, *args, **kwargs)

        monkeypatch.setattr(model, "fixed_points", counted)
        derived_scales.cache_clear()
        p = small_params(n=37)
        first = derived_scales(p)
        assert derived_scales(p) is first
        assert derived_scales(small_params(n=37)) is first  # equal parameters hit
        assert calls == [p]
        # a rejection is not cached: it raises on every call
        bad = small_params(temp=1.5)
        for _ in range(2):
            with pytest.raises(ParameterError):
                derived_scales(bad)


class TestContinuityAtZeroField:
    def test_functions_continuous_through_h_zero(self, fig1_params):
        m0 = -fig1_params.coupling_g / fig1_params.coupling_j
        eps = 1e-12
        for fn in (lambda m: drift_v(fig1_params, m),
                   lambda m: diffusion_w(fig1_params, m),
                   lambda m: field_h(fig1_params, m),
                   lambda m: omega_pm(fig1_params, m)[0],
                   lambda m: omega_pm(fig1_params, m)[1]):
            assert abs(fn(m0 - eps) - fn(m0 + eps)) < 1e-10


class TestXCothX:
    def test_limit_value(self):
        assert x_coth_x(0.0) == 1.0

    def test_matches_series_across_crossover(self):
        for x in (1e-6, 5e-5, 2e-4, 1e-3):
            assert x_coth_x(x) == pytest.approx(x * coth_series(x), rel=1e-12)
        # truncated series itself is only ~1e-8 accurate this far out
        assert x_coth_x(0.3) == pytest.approx(0.3 * coth_series(0.3), rel=1e-7)
        assert x_coth_x(-0.3) == x_coth_x(0.3)


class TestValidation:
    def test_rejects_small_n(self):
        with pytest.raises(ParameterError):
            ModelParams(n_spins=1, temp_bath=0.65, coupling_g=0.0)

    def test_rejects_nonpositive_temps_and_rates(self):
        with pytest.raises(ParameterError):
            ModelParams(n_spins=10, temp_bath=0.0, coupling_g=0.0)
        with pytest.raises(ParameterError):
            ModelParams(n_spins=10, temp_bath=0.65, coupling_g=0.0, gamma=0.0)
        with pytest.raises(ParameterError):
            ModelParams(n_spins=10, temp_bath=0.65, coupling_g=0.0,
                        debye_cutoff=-1.0)

    def test_delta0_from_quench_temperature(self):
        p = ModelParams(n_spins=10, temp_bath=0.65, coupling_g=0.0, temp_init=2.0)
        assert p.delta0 == pytest.approx(math.sqrt(2.0), rel=1e-14)
        assert small_params().delta0 == 1.0

    def test_rejects_inconsistent_delta0(self):
        with pytest.raises(ParameterError):
            ModelParams(n_spins=10, temp_bath=0.65, coupling_g=0.0,
                        temp_init=2.0, delta0=0.5)

    def test_rejects_subcritical_quench(self):
        with pytest.raises(ParameterError):
            ModelParams(n_spins=10, temp_bath=0.65, coupling_g=0.0, temp_init=0.9)

    def test_hbar_is_a_unit_not_a_parameter(self):
        # hbar = 1 sets the time unit; neither the model nor the bath takes it
        with pytest.raises(TypeError, match="hbar"):
            ModelParams(n_spins=10, temp_bath=0.65, coupling_g=0.0, hbar=1.0)
        with pytest.raises(TypeError, match="hbar"):
            KernelSpec(0.65, 100.0, hbar=1.0)

    def test_grid_endpoints_exact(self):
        g = small_params(n=1000).grid
        assert g[0] == -1.0 and g[-1] == 1.0 and g[500] == 0.0


class TestRepeller:
    def test_one_well_sector_has_a_repeller(self):
        # a strong field leaves the down sector one well, so derived_scales
        # rejects it, but the repeller of the drift's linear part still exists
        p = small_params(n=200, g=0.2, sector="down")
        with pytest.raises(ParameterError):
            derived_scales(p)
        assert repeller(p) == pytest.approx(0.2 / 0.35, rel=1e-14)


@random_params
def test_repeller_is_derived_scales_m_repel(params):
    if params.temp_bath >= params.coupling_j:
        with pytest.raises(ParameterError):
            repeller(params)
        return
    try:
        ds = derived_scales(params)
    except ParameterError:  # one well: no m_repel to compare with
        return
    assert repeller(params) == ds.m_repel
