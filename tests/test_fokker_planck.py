import math
import warnings

import numpy as np
import pytest

from magdot.fokker_planck import (
    FPConfig,
    chain,
    equilibrium_profile,
    gaussian_field,
    solve_fp,
)
from magdot.master import evolve, initial_distribution
from magdot.model import ModelParams, fixed_points
from magdot.snapshots import l1_distance

from conftest import relax_time, small_params


class TestFields:
    def test_gaussian_field_moments(self):
        p = small_params(n=1000)
        f = gaussian_field(p, FPConfig(cells=2000))
        assert f.total() == pytest.approx(1.0, abs=1e-12)
        assert abs(f.mean()) < 1e-15
        assert f.std() == pytest.approx(1.0 / math.sqrt(1000), rel=1e-4)

    def test_config_floor(self):
        with pytest.raises(ValueError):
            FPConfig(cells=50)

    def test_large_n_chain_builds_without_warnings(self):
        # at N = 1e6 the outer faces' Peclet numbers overflow e^x, where
        # B(x) = x/(e^x - 1) is 0; building the chain may not warn
        p = ModelParams(n_spins=10**6, temp_bath=0.65, coupling_g=0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gen = chain(p, "gaussian", FPConfig(cells=2000)).gen
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
        assert np.abs(out.values - eq.values).sum() * out.dm < 1e-8

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
        assert np.abs(vals - eq.values).max() / eq.values.max() < 1e-12

    def test_peaks_match_fixed_points(self):
        # cell width must stay above the O(1/N) offset between the drift's
        # own zeros (where the profile peaks) and the mean-field roots
        p = small_params(n=1000)
        cfg = FPConfig(cells=800)
        eq = equilibrium_profile(p, cfg)
        stable = [fp.m for fp in fixed_points(p) if fp.stable]
        m = eq.mesh
        for root in stable:
            window = (m > root - 0.1) & (m < root + 0.1)
            local = m[window][np.argmax(eq.values[window])]
            assert abs(local - root) <= eq.dm + 1e-12


class TestSolve:
    def test_symmetry_preserved(self):
        p = small_params(n=200, g=0.0)
        cfg = FPConfig(cells=500)
        th = relax_time(p)
        outs = solve_fp(p, gaussian_field(p, cfg), [0.5 * th, 2 * th], cfg)
        for f in outs:
            assert np.abs(f.values - f.values[::-1]).max() < 1e-10

    def test_mass_conservation(self):
        p = small_params(n=200)
        cfg = FPConfig(cells=500)
        out = solve_fp(p, gaussian_field(p, cfg), [2 * relax_time(p)], cfg)[0]
        assert out.total() == pytest.approx(1.0, abs=1e-10)

    def test_positivity(self):
        p = small_params(n=200)
        cfg = FPConfig(cells=500)
        out = solve_fp(p, gaussian_field(p, cfg), [3 * relax_time(p)], cfg)[0]
        assert out.values.min() >= 0.0

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
            l1 = l1_distance(f.mesh, f.values, s.grid, s.density())
            assert l1 < 0.02

    def test_agreement_improves_with_n(self):
        cfg = FPConfig(cells=1000)
        l1 = {}
        for n in (250, 1000):
            p = small_params(n=n)
            th = relax_time(p)
            f = solve_fp(p, gaussian_field(p, cfg), [th], cfg)[0]
            s = evolve(initial_distribution(p, "exact-paramagnet"), p, th).final
            l1[n] = l1_distance(f.mesh, f.values, s.grid, s.density())
        assert l1[1000] < l1[250]

    def test_mesh_refinement_order(self):
        p = small_params(n=200)
        th = relax_time(p)
        sols = {}
        for cells in (250, 500, 1000, 2000):
            cfg = FPConfig(cells=cells)
            sols[cells] = solve_fp(p, gaussian_field(p, cfg), [th], cfg)[0]
        ref = sols[2000]
        err = {c: l1_distance(sols[c].mesh, sols[c].values, ref.mesh, ref.values)
               for c in (250, 500, 1000)}
        assert err[500] < err[250] / 1.7
        assert err[1000] < err[500] / 1.7
