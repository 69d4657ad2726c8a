import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import polygamma

from magdot import bath, master
from magdot.master import (
    DiscreteDistribution,
    NumericalError,
    evolve,
    free_energy,
    initial_distribution,
    stationary_distribution,
    transition_rates,
)
from magdot.model import ModelParams, derived_scales, omega_pm

from conftest import relax_time, small_params


class TestInitialDistribution:
    def test_binomial_n2(self):
        p = ModelParams(n_spins=2, temp_bath=0.65, coupling_g=0.0)
        d = initial_distribution(p, "exact-paramagnet")
        assert np.allclose(d.weights, [0.25, 0.5, 0.25], atol=1e-15)

    def test_binomial_moments(self, fig1_params):
        d = initial_distribution(fig1_params, "exact-paramagnet")
        assert abs(d.mean()) < 1e-14
        assert d.variance() == pytest.approx(1e-3, rel=1e-10)

    def test_gaussian_mean_grid_oracle(self):
        p = small_params(n=1000, g=0.05, m_offset=0.1, delta0=0.5)
        d = initial_distribution(p, "gaussian")
        # independent grid-summation oracle
        m = (2.0 * np.arange(1001) - 1000) / 1000
        w = np.exp(-0.5 * 1000 * ((m - 0.1) / 0.5) ** 2)
        want = float((m * w).sum() / w.sum())
        assert d.mean() == pytest.approx(want, abs=1e-12)
        assert abs(d.mean() - 0.1) < 1e-3

    def test_unknown_kind(self, fig1_params):
        with pytest.raises(ValueError):
            initial_distribution(fig1_params, "delta")


class TestTransitionRates:
    def test_boundary_closure_exact(self, fig1_params):
        rt = transition_rates(fig1_params)
        assert rt.up[-1] == 0.0
        assert rt.down[0] == 0.0

    def test_conservative_generator(self, fig1_params):
        # a flip up from m_k and the flip down from m_(k+1) exchange the same
        # quantum, so the gain into a row is the neighbouring loss rate and
        # each column of the generator sums to zero
        rt = transition_rates(fig1_params)
        om_p, om_m = omega_pm(fig1_params, rt.m)
        assert np.abs(om_m[1:] + om_p[:-1]).max() < 1e-12 * np.abs(om_p).max()

    def test_detailed_balance_against_stationary(self, fig1_params):
        rt = transition_rates(fig1_params)
        w = stationary_distribution(fig1_params).weights
        ratio = rt.up[:-1] * w[:-1] / (rt.down[1:] * w[1:])
        assert np.abs(ratio - 1.0).max() < 1e-10

    def test_generator_columns_sum_to_zero(self):
        p = small_params(n=60)
        rt = transition_rates(p)
        n = 61
        gen = np.zeros((n, n))
        gen[np.arange(n), np.arange(n)] = -(rt.up + rt.down)
        gen[np.arange(1, n), np.arange(n - 1)] = rt.up[:-1]
        gen[np.arange(n - 1), np.arange(1, n)] = rt.down[1:]
        colsums = np.abs(gen.sum(axis=0))
        assert colsums.max() < 1e-12 * np.abs(gen).max()

    def test_full_memory_needs_time(self, fig1_params):
        with pytest.raises(ValueError):
            transition_rates(fig1_params, mode="full-memory")


class TestStationary:
    def test_n2_brute_force(self):
        p = ModelParams(n_spins=2, temp_bath=0.65, coupling_g=0.0)
        st = stationary_distribution(p)
        w = np.array([math.exp(1 / 0.65), 2.0, math.exp(1 / 0.65)])
        w /= w.sum()
        assert np.allclose(st.weights, w, rtol=1e-14)

    def test_ratio_identity(self, fig1_params):
        # P(m)/P(m - 2/N) = exp(hbar Om_minus(m)/T) (1 - m + 2/N)/(1 + m)
        st = stationary_distribution(fig1_params)
        m = st.grid
        w = st.weights
        om_m = omega_pm(fig1_params, m)[1]
        lhs = w[1:] / w[:-1]
        rhs = np.exp(om_m[1:] / 0.65) * (1 - m[1:] + 2e-3) / (1 + m[1:])
        assert np.abs(lhs / rhs - 1.0).max() < 1e-12

    def test_bimodal_symmetric_peaks(self, fig2_params):
        st = stationary_distribution(fig2_params)
        m, w = st.grid, st.weights
        kp = np.argmax(np.where(m > 0, w, -1.0))
        km = np.argmax(np.where(m < 0, w, -1.0))
        assert abs(m[kp] - 0.87206) <= 2.0 / 1000 + 1e-12
        assert abs(m[km] + 0.87206) <= 2.0 / 1000 + 1e-12
        assert np.abs(w - w[::-1]).max() < 1e-15


class TestFreeEnergy:
    def test_paramagnet_entropy(self, fig1_params):
        d = initial_distribution(fig1_params, "exact-paramagnet")
        fe = free_energy(d, fig1_params)
        assert fe.entropy == pytest.approx(1000 * math.log(2.0), rel=1e-12)

    def test_stationary_maximizes_functional(self):
        p = small_params(n=100)
        th = relax_time(p)
        d = initial_distribution(p, "exact-paramagnet")
        res = evolve(d, p, 3 * th, record_free_energy=True)
        st_val = free_energy(stationary_distribution(p), p).functional
        assert res.free_energy_values[-1] <= st_val + 1e-9
        assert np.all(res.free_energy_values <= st_val + 1e-9)


class TestEvolve:
    def test_zero_time_identity(self, fig1_params):
        d = initial_distribution(fig1_params, "exact-paramagnet")
        out = evolve(d, fig1_params, 0.0).final
        assert np.array_equal(out.weights, d.weights)

    def test_mass_conservation_and_h_theorem(self):
        p = small_params(n=150)
        th = relax_time(p)
        d = initial_distribution(p, "exact-paramagnet")
        res = evolve(d, p, 4 * th, record_free_energy=True)
        assert abs(res.final.total() - 1.0) < 1e-10
        fv = res.free_energy_values
        assert np.diff(fv).min() >= -1e-12 * np.abs(fv).max()

    def test_stationarity_invariance(self):
        p = small_params(n=150)
        st = stationary_distribution(p)
        out = evolve(st, p, 10 * relax_time(p)).final
        assert np.abs(out.weights - st.weights).sum() < 1e-8

    def test_symmetry_preserved_for_unbiased_runs(self):
        p = small_params(n=100, g=0.0)
        th = relax_time(p)
        d = initial_distribution(p, "exact-paramagnet")
        res = evolve(d, p, 2 * th, snapshot_times=[0.5 * th, 1 * th, 2 * th])
        for s in res.snapshots:
            assert np.abs(s.weights - s.weights[::-1]).max() < 1e-10

    def test_snapshot_beyond_t_end_rejected(self):
        p = small_params(n=80)
        d = initial_distribution(p, "exact-paramagnet")
        with pytest.raises(ValueError):
            evolve(d, p, 1.0, snapshot_times=[2.0])

    def test_snapshots_at_requested_times(self):
        p = small_params(n=80)
        th = relax_time(p)
        want = [0.3 * th, 1.1 * th, 2.0 * th]
        res = evolve(initial_distribution(p, "exact-paramagnet"), p, 2 * th,
                     snapshot_times=want)
        assert [s.time for s in res.snapshots] == want

    def test_rejects_backward_time(self, fig1_params):
        d = initial_distribution(fig1_params, "exact-paramagnet")
        d.time = 5.0
        with pytest.raises(ValueError):
            evolve(d, fig1_params, 1.0)

    def test_negative_weight_guard(self):
        with pytest.raises(NumericalError):
            DiscreteDistribution(n_spins=2, weights=np.array([0.5, 0.6, -1e-3]))


class TestFullMemory:
    def test_rates_vanish_at_zero_time(self):
        p = small_params(n=32, debye_cutoff=10.0)
        rt = transition_rates(p, mode="full-memory", t=0.0)
        assert rt.up.max() == 0.0 and rt.down.max() == 0.0

    def test_early_transient_drift(self):
        # Ktilde_t is flat at early times, so the drift reduces to
        # -gamma Gamma^2 t m / pi: the origin starts out stable
        p = small_params(n=32, debye_cutoff=10.0)
        t = 5e-4
        rt = transition_rates(p, mode="full-memory", t=t)
        a1 = (2.0 / 32) * (rt.up - rt.down)
        m = rt.m
        sel = (np.abs(m) < 0.9) & (m != 0.0)
        pred = -p.gamma * p.debye_cutoff**2 * t * m / math.pi
        assert np.median(a1[sel] / pred[sel]) == pytest.approx(1.0, abs=0.05)

    def test_converges_to_short_memory(self):
        p = small_params(n=32, debye_cutoff=10.0)
        rt_full = transition_rates(p, mode="full-memory", t=120.0)
        rt_short = transition_rates(p)
        rel = np.abs(rt_full.up[:-1] - rt_short.up[:-1]) / rt_short.up[:-1]
        assert rel.max() < 1e-3

    def test_evolve_conserves_mass(self):
        p = small_params(n=32, debye_cutoff=10.0)
        d = initial_distribution(p, "exact-paramagnet")
        res = evolve(d, p, 3.0, mode="full-memory")
        assert abs(res.final.total() - 1.0) < 1e-10
        assert res.n_steps > 5

    def test_one_rate_build_per_accepted_step(self, monkeypatch):
        # a full-memory table is built around one windowed-kernel reading
        builds = []
        real = bath.WindowedKernel.at

        def counting(self, t):
            builds.append(t)
            return real(self, t)

        monkeypatch.setattr(bath.WindowedKernel, "at", counting)
        p = small_params(n=32, debye_cutoff=10.0)
        res = evolve(initial_distribution(p, "exact-paramagnet"), p, 3.0,
                     mode="full-memory")
        # one table at the start and one after each accepted step but the last
        assert len(builds) == res.n_steps
        assert len(set(builds)) == len(builds) and builds[0] == 0.0

    @pytest.mark.parametrize("cutoff, bound", [(100.0, 1e-5), (1e6, 1e-3)])
    def test_accumulated_kernel_matches_fresh_transforms(self, cutoff, bound):
        # one WindowedKernel read at the report times of a run against a
        # transform from s = 0 at each; measured worst 4.4e-7 (cutoff 100)
        # and 3.2e-5 (cutoff 1e6) of the tol scale, roundoff of the slice sums
        p = ModelParams(n_spins=50, temp_bath=0.65, coupling_g=0.05, debye_cutoff=cutoff)
        times = evolve(initial_distribution(p), p, 20.0, mode="full-memory",
                       record_free_energy=True).free_energy_times
        spec = bath.KernelSpec(p.temp_bath, p.debye_cutoff)
        omega = np.stack(omega_pm(p, p.grid))
        scale = 1e-8 * np.maximum(bath.spectral_density(spec, omega), 0.25 * p.temp_bath)
        k = bath.WindowedKernel(spec, omega)
        assert len(times) > 40
        for t in times:
            err = np.abs(k.at(t) - bath.windowed_spectral(spec, omega, t)) / scale
            assert err.max() <= bound

    @pytest.mark.parametrize("cutoff, bound", [(100.0, 1e-5), (1e6, 1e-3)])
    def test_kernel_summed_over_a_drift_time_run(self, cutoff, bound):
        # the same comparison after the 156 slices of a run to 2 theta;
        # measured 4.0e-7 (cutoff 100) and 1.4e-4 (cutoff 1e6) of the tol
        # scale, and the same after 50, 100 and 150 slices
        p = ModelParams(n_spins=20, temp_bath=0.65, coupling_g=0.05, debye_cutoff=cutoff)
        times = evolve(initial_distribution(p), p, 2 * derived_scales(p).theta,
                       mode="full-memory", record_free_energy=True).free_energy_times
        spec = bath.KernelSpec(p.temp_bath, p.debye_cutoff)
        omega = np.stack(omega_pm(p, p.grid))
        scale = 1e-8 * np.maximum(bath.spectral_density(spec, omega), 0.25 * p.temp_bath)
        k = bath.WindowedKernel(spec, omega)
        assert len(times) >= 150
        for t in times:
            acc = k.at(t)
        err = np.abs(acc - bath.windowed_spectral(spec, omega, times[-1])) / scale
        assert err.max() <= bound

    def test_accumulated_run_matches_rebuilt_run(self, monkeypatch):
        # measured L1 6.6e-17 between the two runs
        p = ModelParams(n_spins=50, temp_bath=0.65, coupling_g=0.05, debye_cutoff=100.0)
        d = initial_distribution(p)
        acc = evolve(d, p, 2.0, mode="full-memory")
        monkeypatch.setattr(master, "WindowedKernel", lambda spec, omega, tol: SimpleNamespace(
            at=lambda t: bath.windowed_spectral(spec, omega, t, tol)))
        fresh = evolve(d, p, 2.0, mode="full-memory")
        assert (fresh.n_steps, fresh.n_terms) == (acc.n_steps, acc.n_terms)
        assert np.abs(fresh.final.weights - acc.final.weights).sum() <= 1e-12

    def test_full_memory_approaches_short_memory_run(self):
        # after a few bath memory times the windowed rates have converged,
        # so the full-memory run tracks the short-memory one up to the small
        # early-time transient offset
        p = small_params(n=24, debye_cutoff=5.0)
        d = initial_distribution(p, "exact-paramagnet")
        t_end = 25.0  # >> hbar/T ~ 1.5 and 1/Gamma = 0.2
        full = evolve(d, p, t_end, mode="full-memory").final
        short = evolve(d, p, t_end).final
        assert np.abs(full.weights - short.weights).sum() < 5e-3


class TestDistributionStats:
    def test_median_of_symmetric_binomial(self, fig1_params):
        d = initial_distribution(fig1_params, "exact-paramagnet")
        assert d.median() == pytest.approx(0.0, abs=1e-12)

    def test_mass_below_splits_atom_at_threshold(self):
        d = DiscreteDistribution(n_spins=2, weights=np.array([0.25, 0.5, 0.25]))
        assert d.mass_below(0.0) == pytest.approx(0.5, abs=1e-15)
        assert d.mass_below(0.5) == pytest.approx(0.75, abs=1e-15)

    @pytest.mark.parametrize("m_offset", [0.0, 0.1])
    def test_local_width_of_gaussian(self, m_offset):
        p = small_params(n=1000, g=0.0, m_offset=m_offset, delta0=0.4)
        d = initial_distribution(p, "gaussian")
        want = 0.4 / math.sqrt(1000)
        assert d.local_width() == pytest.approx(want, rel=1e-6)

    def test_local_width_rejects_convex_median(self):
        d = DiscreteDistribution(n_spins=100, weights=np.full(101, 1 / 101))
        d.weights[50] *= 0.5
        assert d.median() == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(ValueError):
            d.local_width()

    @pytest.mark.parametrize("g", [0.05, 0.0])
    @pytest.mark.parametrize("n", [100, 1000, 4000, 64000])
    def test_local_width_of_equilibrium(self, n, g):
        # exact curvature of ln P = ln C(N, k) + N (g m + J m^2/2)/T, with
        # k = N (1 + m)/2, at the median of the weights in (0, 1)
        p = small_params(n=n, g=g)
        d = stationary_distribution(p)
        upper = np.where(d.grid >= 0.0, d.weights, 0.0)
        k = 0.5 * n * (1.0 + DiscreteDistribution(n, upper).median())
        curv = -(0.5 * n) ** 2 * (polygamma(1, k + 1) + polygamma(1, n - k + 1)) \
            + n * p.coupling_j / p.temp_bath
        assert d.local_width(region=(0.0, 1.0)) == pytest.approx(
            math.sqrt(-1.0 / curv), rel=1e-4 if n >= 4000 else 3e-3)

    def test_local_width_region_picks_one_of_two_peaks(self, fig2_params):
        # at g = 0 the median of the whole distribution sits in the valley
        d = evolve(initial_distribution(fig2_params), fig2_params,
                   10 * relax_time(fig2_params)).final
        with pytest.raises(ValueError, match="not concave"):
            d.local_width()
        want = derived_scales(fig2_params).delta_ferro / math.sqrt(fig2_params.n_spins)
        assert d.local_width(region=(0.0, 1.0)) == pytest.approx(want, rel=0.05)
