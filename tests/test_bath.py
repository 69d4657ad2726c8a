import cmath
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from magdot import bath, special
from magdot.bath import (
    KernelConvergenceError,
    KernelSpec,
    WindowedKernel,
    autocorrelation,
    spectral_density,
    windowed_spectral,
)

# an oracle that loses accuracy must fail, not warn
pytestmark = pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")

SPEC = KernelSpec(temp_bath=0.65, debye_cutoff=100.0)


def windowed_time_domain(spec, omega, t):
    """Independent oracle: int_{-t}^{t} e^{-i w s} K(s) ds with the closed-form
    autocorrelation, integrated over the full window without exploiting the
    Hermitian symmetry (so the imaginary residue is an honest check).

    K(s) varies on the scale |s| + 1/Gamma and reaches Gamma^2/(8 pi) at
    s = 0, so the window is cut at +/- 2^k/Gamma and each piece gets its own
    quad call: a tolerance relative to each piece stays above the roundoff
    of its large, mutually cancelling values at large Gamma*t."""
    def re(s):
        return (cmath.exp(-1j * omega * s) * autocorrelation(spec, s)).real

    def im(s):
        return (cmath.exp(-1j * omega * s) * autocorrelation(spec, s)).imag

    geo = [2.0**k / spec.debye_cutoff for k in range(64)
           if 2.0**k / spec.debye_cutoff < t]
    edges = [-t] + [-x for x in reversed(geo)] + [0.0] + geo + [t]
    kw = dict(epsabs=1e-13, epsrel=1e-12, limit=400)
    return tuple(sum(quad(f, a, b, **kw)[0] for a, b in zip(edges, edges[1:]))
                 for f in (re, im))


def tol_scale(spec, omega, tol=1e-8):
    """The absolute error windowed_spectral allows at `tol`."""
    return tol * max(spectral_density(spec, omega), 0.25 * spec.temp_bath)


class TestSpectralDensity:
    def test_zero_frequency_limit(self):
        assert spectral_density(SPEC, 0.0) == pytest.approx(0.65 / 4, rel=1e-14, abs=0.0)
        assert spectral_density(SPEC, 1e-12) == pytest.approx(0.65 / 4, rel=1e-9, abs=0.0)

    def test_detailed_balance_identity(self):
        for w in (0.1, 1.0, 5.0):
            lhs = spectral_density(SPEC, -w)
            rhs = spectral_density(SPEC, w) * math.exp(w / 0.65)
            assert abs(lhs / rhs - 1.0) < 1e-12

    def test_algebraic_inversion(self):
        w = 1.0
        val = spectral_density(SPEC, w) * math.exp(w / 100.0) \
            * (math.exp(w / 0.65) - 1.0) / w
        assert val == pytest.approx(0.25, rel=1e-13, abs=0.0)

    def test_nonnegative_everywhere(self):
        w = np.linspace(-400.0, 50.0, 3001)
        assert np.all(spectral_density(SPEC, w) >= 0.0)


class TestWindowed:
    def test_zero_window(self):
        assert windowed_spectral(SPEC, 1.0, 0.0) == 0.0

    def test_long_time_limit_one_percent(self):
        t = 50.0 / 0.65
        for w in (0.3, 1.0):
            kt = windowed_spectral(SPEC, w, t)
            assert abs(kt / spectral_density(SPEC, w) - 1.0) < 0.01

    def test_long_time_envelope_two_percent(self):
        t = 50.0 * max(1.0 / 0.65, 1.0 / 100.0)
        for w in (-0.5, 0.3, 1.0, 2.0):
            kt = windowed_spectral(SPEC, w, t)
            assert abs(kt - spectral_density(SPEC, w)) \
                < 0.02 * spectral_density(SPEC, w)

    def test_time_domain_oracle(self):
        spec = KernelSpec(temp_bath=0.65, debye_cutoff=10.0)
        for w, t in ((0.7, 0.5), (1.5, 2.0), (-0.4, 1.0)):
            re, im = windowed_time_domain(spec, w, t)
            assert abs(im) < 1e-10  # Hermitian symmetry forces a real window
            assert windowed_spectral(spec, w, t, tol=1e-9) == pytest.approx(
                re, abs=1e-8, rel=1e-6)

    def test_early_window_flat_value(self):
        # for t much shorter than both bath scales the window is flat in
        # frequency: Ktilde_t ~ 2 t K(0), corrections O((t * support)^2)
        spec = KernelSpec(temp_bath=0.65, debye_cutoff=10.0)
        t = 2e-4
        want = 2.0 * t * autocorrelation(spec, 0.0).real
        for w in (-1.0, 0.0, 2.0):
            assert windowed_spectral(spec, w, t) == pytest.approx(want, rel=1e-2, abs=0.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            windowed_spectral(SPEC, 1.0, -1.0)
        with pytest.raises(ValueError):
            windowed_spectral(SPEC, 1.0, 1.0, tol=0.5)

    @pytest.mark.parametrize("cutoff", [10.0, 100.0, 1e4, 1e6])
    def test_matches_oracle_within_tol(self, cutoff):
        spec = KernelSpec(temp_bath=0.65, debye_cutoff=cutoff)
        for w, t in ((0.5, 0.2), (-1.3, 1.0), (2.0, 3.0), (0.3, 12.0)):
            re, im = windowed_time_domain(spec, w, t)
            assert abs(im) < 1e-10
            assert abs(windowed_spectral(spec, w, t) - re) <= tol_scale(spec, w)
            assert abs(windowed_spectral(spec, w, t, tol=1e-10) - re) \
                <= tol_scale(spec, w, 1e-10)

    def test_large_cutoff_short_window(self):
        # a frequency-panel quadrature of the sinc window returned 0.352525
        # here without raising (1.9% off); 0.35925460798783 is a 40-digit
        # mpmath quadrature of the time-domain integral
        spec = KernelSpec(temp_bath=0.65, debye_cutoff=1e4)
        re, _ = windowed_time_domain(spec, 0.5, 0.2)
        assert re == pytest.approx(0.35925460798783, abs=1e-12)
        assert abs(windowed_spectral(spec, 0.5, 0.2) - re) <= tol_scale(spec, 0.5)

    def test_very_large_cutoff(self):
        # Gamma*t = 1e6 exhausted the frequency-panel budget.  Against the
        # 40-digit mpmath value 0.11242938980336, the double-precision
        # roundoff of K near s = 0 (|K| ~ Gamma^2 / 8 pi) is about 1e-11
        spec = KernelSpec(temp_bath=0.65, debye_cutoff=1e6)
        re, _ = windowed_time_domain(spec, 0.5, 1.0)
        assert re == pytest.approx(0.11242938980336, abs=5e-11)
        assert abs(windowed_spectral(spec, 0.5, 1.0) - re) <= tol_scale(spec, 0.5)

    def test_array_call_matches_scalar_calls(self):
        w = np.array([[-2.0, -0.3, 0.0], [0.4, 1.1, 3.5]])
        vals = windowed_spectral(SPEC, w, 1.7)
        assert vals.shape == w.shape
        for wi, vi in zip(w.ravel(), vals.ravel()):
            scalar = windowed_spectral(SPEC, wi, 1.7)
            assert type(scalar) is float
            assert scalar == pytest.approx(vi, abs=tol_scale(SPEC, wi))
        assert type(windowed_spectral(SPEC, 1.0, 0.0)) is float

    def test_rule_is_numpy_leggauss_to_the_bit(self):
        # a Golub-Welsch rule, nodes 4.4e-16 and weights 1.1e-15 off, moved
        # the 1e6 cutoff case of test_matches_oracle_within_tol to 1.82e-11
        # against its 1.625e-11 tolerance
        x, w = np.polynomial.legendre.leggauss(15)
        assert special.GL15_X.tobytes() == x.tobytes()
        assert special.GL15_W.tobytes() == w.tobytes()

    def test_node_chunk_memory(self):
        # a scalar frequency gets _NODE_CHUNK nodes per K evaluation; the
        # trigamma recurrence must stay one node array wide, not 16.  Peak
        # measured 194,528 B; the bound is 10% above the 204,472 B of the
        # two-trigamma form
        spec = KernelSpec(temp_bath=0.65, debye_cutoff=1e6)
        windowed_spectral(spec, 0.3, 1.0)
        tracemalloc.start()
        try:
            windowed_spectral(spec, 0.3, 12.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 204_472

    def test_panel_budget_error(self, monkeypatch):
        monkeypatch.setattr(bath, "_MAX_NODES", 100)
        with pytest.raises(KernelConvergenceError):
            windowed_spectral(SPEC, 1.0, 80.0, tol=1e-10)


class TestWindowedKernel:
    def test_time_must_not_decrease(self):
        k = WindowedKernel(SPEC, [0.3, 1.0])
        k.at(2.0)
        assert np.array_equal(k.at(2.0), windowed_spectral(SPEC, [0.3, 1.0], 2.0))
        with pytest.raises(ValueError):
            k.at(1.0)

    def test_budget_error_keeps_the_last_window(self, monkeypatch):
        k = WindowedKernel(SPEC, 1.0, tol=1e-10)
        before = k.at(1.0)
        monkeypatch.setattr(bath, "_MAX_NODES", 100)
        with pytest.raises(KernelConvergenceError):
            k.at(80.0)
        assert k.t == 1.0 and k.at(1.0) == before

    def test_tol_below_rounding_floor_is_refused(self):
        # near s = 0 the K31 sum climbs to Gamma/8 pi = 3.8e4 before it
        # cancels; at tol 1e-12 (target 3.6e-13) a slice [0, 1.66] here was
        # accepted 6.8e-11 off, so a target below eps Gamma/8 pi is refused
        spec = KernelSpec(temp_bath=1.42, debye_cutoff=9.53e5)
        with pytest.raises(ValueError, match=r"rounding floor eps\*Gamma/\(8 pi\) = 8\.42e-12"):
            WindowedKernel(spec, 1.45, 1e-12)
        re, _ = windowed_time_domain(spec, 1.45, 1.66)
        assert abs(WindowedKernel(spec, 1.45, 1e-10).at(1.66) - re) \
            <= tol_scale(spec, 1.45, 1e-10)

    def test_random_parameters_within_summed_targets(self):
        # T and Gamma log-uniform on [1, 1e6], 1-5 frequencies in [-4, 4] and
        # 3-5 ascending reads up to 20 hbar/T: after its n-th read a kernel at
        # tol 1e-8 lies within the n slice targets it summed of one at tol
        # 1e-12, or at the tightest tol above the rounding floor eps
        # Gamma/8 pi where that is larger (310 of 9,000 draws).  Over those
        # 9,000 draws the worst was 8.6e-3 of that sum (2.5e-2 with a tol 1e-12
        # reference below the floor), at Gamma ~ 1e6 where both sit on the
        # roundoff of K near s = 0; these 200 draws reach 3.4e-4.  The bound
        # is 0.05
        rng = np.random.default_rng(20261020)
        worst = 0.0
        for _ in range(200):
            temp, cutoff = 10.0 ** rng.uniform(0.0, 6.0, 2)
            omega = rng.uniform(-4.0, 4.0, rng.integers(1, 6))
            times = np.sort(rng.uniform(0.0, 20.0, rng.integers(3, 6))) / temp
            spec = KernelSpec(temp_bath=temp, debye_cutoff=cutoff)
            floor_tol = np.finfo(float).eps * cutoff / (8.0 * math.pi * 0.25 * temp)
            loose = WindowedKernel(spec, omega, 1e-8)
            tight = WindowedKernel(spec, omega, max(1e-12, 1.001 * floor_tol))
            target = 1e-8 * np.maximum(spectral_density(spec, omega), 0.25 * temp)
            for n, t in enumerate(times, 1):
                gap = np.abs(loose.at(t) - tight.at(t)) / (n * target)
                worst = max(worst, gap.max())
        assert worst <= 0.05

    def test_one_over_t_approach(self):
        # K(s) ~ a/s^2 at long times, so Ktilde_t(0) - Ktilde(0) ~ -2a/t.
        # Measured t (Ktilde_t(0) - Ktilde(0)) = -1.034466e-3, -1.034497e-3
        # and -1.034505e-3 at t = 100, 200, 400 (a spread of 3.8e-5 of its
        # value, the O(1/t^2) correction); the bound is 1e-4
        k = WindowedKernel(SPEC, 0.0)
        k0 = spectral_density(SPEC, 0.0)
        gap = {t: k.at(t) - k0 for t in (100.0, 200.0, 400.0)}
        assert [gap[100.0], gap[200.0], gap[400.0]] == pytest.approx(
            [-1.03e-5, -5.2e-6, -2.6e-6], rel=1e-2, abs=0.0)
        scaled = [t * g for t, g in gap.items()]
        assert max(scaled) - min(scaled) <= 1e-4 * abs(scaled[0])


def worst_error_against_mpmath(spec, s):
    """Largest |K - K_ref| / |K_ref| over the times s, where K_ref is the
    trigamma pair (T^2/8 pi) [psi'(1 + c - i tau) + psi'(c + i tau)] itself,
    evaluated by mpmath at 40 digits without the recurrence and conjugation
    identities that autocorrelation uses."""
    mpmath = pytest.importorskip("mpmath")
    got = autocorrelation(spec, s)
    worst = 0.0
    with mpmath.workdps(40):
        temp = mpmath.mpf(spec.temp_bath)
        c = temp / mpmath.mpf(spec.debye_cutoff)
        for si, ki in zip(s, got):
            tau = mpmath.mpf(float(si)) * temp
            ref = temp**2 / (8 * mpmath.pi) * (
                mpmath.psi(1, 1 + c - 1j * tau) + mpmath.psi(1, c + 1j * tau))
            worst = max(worst, float(abs(ki - ref) / abs(ref)))
    return worst


class TestAutocorrelation:
    # bounds are about 3x the worst errors measured on this grid over the three
    # temperatures: 1.7e-13, 1.1e-12, 8.5e-11 and 5.0e-9 for Gamma = 10, 100,
    # 1e4 and 1e6 (Re K cancels between its two terms as s grows)
    @pytest.mark.parametrize("cutoff, bound", [
        (10.0, 5e-13), (100.0, 3e-12), (1e4, 2.5e-10), (1e6, 1.5e-8)])
    def test_matches_mpmath_trigamma_pair(self, cutoff, bound):
        s = np.geomspace(1e-9, 1e3, 13)
        s = np.concatenate([[0.0], s, -s])
        for temp in (0.3, 0.65, 2.0):
            spec = KernelSpec(temp_bath=temp, debye_cutoff=cutoff)
            assert worst_error_against_mpmath(spec, s) <= bound

    def test_trigamma_matches_mpmath(self):
        # worst measured error 2.7e-16; the quad oracle passes 0-d inputs
        mpmath = pytest.importorskip("mpmath")
        im = np.array([0.0, 1e-3, 1.0, 15.0, 16.0, 1e3, 1e5])
        z = np.array([1.0, 1.5, 17.0])[:, None] + 1j * np.concatenate([im, -im])
        got = bath._trigamma(z)
        assert got.shape == z.shape
        for zi, gi in zip(z.ravel(), got.ravel()):
            scalar = bath._trigamma(zi)
            assert scalar.shape == ()
            with mpmath.workdps(40):
                ref = mpmath.psi(1, mpmath.mpc(zi.real, zi.imag))
                for val in (gi, complex(scalar)):
                    assert float(abs(val - ref) / abs(ref)) <= 1e-15

    def test_hermitian_symmetry(self):
        for s in (0.03, 0.7, 4.0):
            assert autocorrelation(SPEC, -s) == pytest.approx(
                autocorrelation(SPEC, s).conjugate(), rel=1e-13, abs=0.0)

    def test_zero_time_value_tracks_cutoff(self):
        # K(0) ~ hbar^2 Gamma^2 / (8 pi) for Gamma >> T
        val = autocorrelation(SPEC, 0.0).real
        assert val == pytest.approx(100.0**2 / (8.0 * math.pi), rel=0.02, abs=0.0)

    def test_forward_transform_recovers_spectrum(self):
        # windowed transform at long time == spectral density; uses the
        # closed-form K(s), so this closes the loop K -> Ktilde
        spec = KernelSpec(temp_bath=0.65, debye_cutoff=10.0)
        re, im = windowed_time_domain(spec, 1.0, 60.0)
        assert abs(im) < 1e-9
        assert re == pytest.approx(spectral_density(spec, 1.0), rel=5e-3, abs=0.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            KernelSpec(temp_bath=-1.0, debye_cutoff=10.0)
        with pytest.raises(ValueError):
            KernelSpec(temp_bath=1.0, debye_cutoff=0.0)

    @pytest.mark.parametrize("name", ["temp_bath", "debye_cutoff"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_spec_rejects_non_finite(self, name, value):
        base = dict(temp_bath=0.65, debye_cutoff=100.0)
        with pytest.raises(ValueError, match=name):
            KernelSpec(**{**base, name: value})
