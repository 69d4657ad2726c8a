import math
import warnings

import numpy as np
import pytest

from magdot.fokker_planck import (
    FPConfig,
    equilibrium_profile,
    gaussian_field,
    generator,
    initial_field,
    solve_fp,
)
from magdot.analytic import width_maximum
from magdot.master import evolve, initial_distribution
from magdot.model import ModelParams, derived_scales, fixed_points
from magdot.snapshots import l1_distance

from conftest import relax_time, small_params


class TestFields:
    def test_gaussian_field_moments(self):
        p = small_params(n=1000)
        f = gaussian_field(p, FPConfig(cells=2000))
        assert f.total() == pytest.approx(1.0, abs=1e-12)
        assert abs(f.mean()) < 1e-15
        std = math.sqrt((f.grid - f.mean()) ** 2 @ f.weights / f.total())
        assert std == pytest.approx(1.0 / math.sqrt(1000), rel=1e-4)

    def test_config_floor(self):
        with pytest.raises(ValueError):
            FPConfig(cells=50)

    def test_large_n_chain_builds_without_warnings(self):
        # at N = 1e6 the outer faces' Peclet numbers overflow e^x, where
        # B(x) = x/(e^x - 1) is 0; building the start and generator may not warn
        p = ModelParams(n_spins=10**6, temp_bath=0.65, coupling_g=0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            initial_field(p, "gaussian", FPConfig(cells=2000))
            gen = generator(p, FPConfig(cells=2000))
        assert np.all(np.isfinite(gen.up)) and np.all(np.isfinite(gen.down))
        assert gen.up[0] > 0.0 and gen.down[1] == 0.0  # inward only at m = -1

    def test_mismatched_mesh_rejected(self):
        p = small_params()
        f = gaussian_field(p, FPConfig(cells=400))
        with pytest.raises(ValueError):
            solve_fp(p, f, [1.0], FPConfig(cells=500))


class TestEquilibriumProfile:
    def test_global_profile_is_stationary(self):
        p = small_params(n=200)
        cfg = FPConfig(cells=500)
        eq = equilibrium_profile(p, cfg)
        out = solve_fp(p, eq, [10 * relax_time(p)], cfg)[0]
        assert np.abs(out.weights - eq.weights).sum() < 1e-8

    def test_global_profile_matches_face_integral(self):
        # independent reconstruction of exp(N int v/w dm) with the same
        # face-midpoint rule the flux fitting is exact for
        from magdot.model import diffusion_w, drift_v
        p = small_params(n=200)
        cells = 500
        eq = equilibrium_profile(p, FPConfig(cells=cells))
        dm = 2.0 / cells
        faces = -1.0 + dm * np.arange(1, cells)
        pe = drift_v(p, faces) * dm / (diffusion_w(p, faces) / 200)
        log_p = np.concatenate([[0.0], np.cumsum(pe)])
        vals = np.exp(log_p - log_p.max())
        vals /= vals.sum() * dm
        assert np.abs(vals - eq.density()).max() / eq.density().max() < 1e-12

    def test_peaks_match_fixed_points(self):
        # cell width must stay above the O(1/N) offset between the drift's
        # own zeros (where the profile peaks) and the mean-field roots
        p = small_params(n=1000)
        cfg = FPConfig(cells=800)
        eq = equilibrium_profile(p, cfg)
        stable = [fp.m for fp in fixed_points(p) if fp.stable]
        m = eq.grid
        for root in stable:
            window = (m > root - 0.1) & (m < root + 0.1)
            local = m[window][np.argmax(eq.weights[window])]
            assert abs(local - root) <= 2.0 / cfg.cells + 1e-12


class TestSolve:
    def test_symmetry_preserved(self):
        p = small_params(n=200, g=0.0)
        cfg = FPConfig(cells=500)
        th = relax_time(p)
        outs = solve_fp(p, gaussian_field(p, cfg), [0.5 * th, 2 * th], cfg)
        for f in outs:
            assert np.abs(f.density() - f.density()[::-1]).max() < 1e-10

    def test_mass_conservation(self):
        p = small_params(n=200)
        cfg = FPConfig(cells=500)
        out = solve_fp(p, gaussian_field(p, cfg), [2 * relax_time(p)], cfg)[0]
        assert out.total() == pytest.approx(1.0, abs=1e-10)

    def test_positivity(self):
        p = small_params(n=200)
        cfg = FPConfig(cells=500)
        out = solve_fp(p, gaussian_field(p, cfg), [3 * relax_time(p)], cfg)[0]
        assert out.weights.min() >= 0.0

    def test_times_must_ascend(self):
        p = small_params(n=200)
        cfg = FPConfig(cells=500)
        with pytest.raises(ValueError):
            solve_fp(p, gaussian_field(p, cfg), [2.0, 1.0], cfg)

    def test_matches_master_equation(self):
        p = small_params(n=200)
        cfg = FPConfig(cells=1000)
        th = relax_time(p)
        times = [0.5 * th, 2 * th]
        fp_out = solve_fp(p, gaussian_field(p, cfg), times, cfg)
        res = evolve(initial_distribution(p, "exact-paramagnet"), p, times[-1],
                     snapshot_times=times)
        for f, s in zip(fp_out, res.snapshots):
            l1 = l1_distance(f.grid, f.density(), s.grid, s.density())
            assert l1 < 0.02

    def test_agreement_improves_with_n(self):
        cfg = FPConfig(cells=1000)
        l1 = {}
        for n in (250, 1000):
            p = small_params(n=n)
            th = relax_time(p)
            f = solve_fp(p, gaussian_field(p, cfg), [th], cfg)[0]
            s = evolve(initial_distribution(p, "exact-paramagnet"), p, th).final
            l1[n] = l1_distance(f.grid, f.density(), s.grid, s.density())
        assert l1[1000] < l1[250]

    def test_mesh_refinement_order(self):
        p = small_params(n=200)
        th = relax_time(p)
        sols = {}
        for cells in (250, 500, 1000, 2000):
            cfg = FPConfig(cells=cells)
            sols[cells] = solve_fp(p, gaussian_field(p, cfg), [th], cfg)[0]
        ref = sols[2000]
        err = {c: l1_distance(sols[c].grid, sols[c].density(), ref.grid, ref.density())
               for c in (250, 500, 1000)}
        assert err[500] < err[250] / 1.7
        assert err[1000] < err[500] / 1.7


class TestObservables:
    """The state observables that the master engine's states have, read from
    FP states on their cell grid."""

    def test_peak_in_region_matches_master(self):
        # the two peaks of the symmetric split at 5 theta; the FP's drift-
        # diffusion limit puts the upper one 3.0e-5 above the master's
        p = small_params(n=1000, g=0.0)
        t_end = 5.0 * derived_scales(p).theta
        cfg = FPConfig(cells=4000)
        f = solve_fp(p, initial_field(p, "exact-paramagnet", cfg), [t_end], cfg)[0]
        s = evolve(initial_distribution(p), p, t_end).final
        assert abs(f.peak(region=(0.0, 1.0)) - s.peak(region=(0.0, 1.0))) < 1e-4

    @pytest.mark.slow
    @pytest.mark.parametrize("n, cells", [(10**4, 8000), (10**5, 16000)])
    def test_width_maximum_matches_oracle(self, n, cells):
        # criterion 9 beyond the master's reach: the largest local width over
        # snapshots every 0.01 theta within 0.25 theta of the oracle's time,
        # at lambda = 1.89 as in figure 1.  Measured 1.6e-4 (N = 1e4) and
        # 4.5e-4 (N = 1e5) above the oracle
        p = small_params(n=n, g=0.05 * math.sqrt(1000 / n))
        th = derived_scales(p).theta
        t_pred, d_pred = width_maximum(p)
        k = round(t_pred / (0.01 * th))
        times = 0.01 * th * np.arange(k - 25, k + 26)
        cfg = FPConfig(cells=cells)
        states = solve_fp(p, initial_field(p, "exact-paramagnet", cfg), times, cfg, tol=1e-9)
        widths = [s.local_width() * math.sqrt(n) for s in states]
        assert 0 < int(np.argmax(widths)) < len(widths) - 1
        assert max(widths) == pytest.approx(d_pred, rel=1e-3)
