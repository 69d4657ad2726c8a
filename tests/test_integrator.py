"""The shared birth-death generator and the adaptive TR-BDF2 integrator.

Solver properties are checked over random (N, T, g, Gamma, sector, and the
offset m0 and width delta0 of a Gaussian initial state): drawn by hypothesis
when it is installed, by a seeded numpy generator otherwise.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from magdot import integrator
from magdot.fokker_planck import FPConfig, equilibrium_profile, solve_fp
from magdot.integrator import Generator, StiffnessError, integrate
from magdot.master import (
    evolve,
    initial_distribution,
    stationary_distribution,
    transition_rates,
)
from magdot.model import ModelParams

from conftest import small_params

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # seeded numpy draws instead
    given = None

N_CASES = 8


def random_params(test):
    """Run test(params) over random model parameters, both sectors, T < J and T > J."""
    if given is not None:
        params = st.builds(
            ModelParams,
            n_spins=st.integers(4, 40),
            temp_bath=st.one_of(st.floats(0.3, 0.9), st.floats(1.1, 1.5)),
            coupling_g=st.floats(0.0, 0.2),
            debye_cutoff=st.floats(0.0, 6.0).map(lambda x: 10.0**x),
            sector=st.sampled_from(["up", "down"]),
            m_offset=st.floats(-0.6, 0.6),
            delta0=st.floats(0.3, 2.0),
        )
        return settings(max_examples=N_CASES, deadline=None, derandomize=True,
                        database=None)(given(params=params)(test))
    rng = np.random.default_rng(20261018)
    cases = [ModelParams(
        n_spins=int(rng.integers(4, 41)),
        temp_bath=float(rng.choice([rng.uniform(0.3, 0.9), rng.uniform(1.1, 1.5)])),
        coupling_g=float(rng.uniform(0.0, 0.2)),
        debye_cutoff=float(10.0 ** rng.uniform(0.0, 6.0)),
        sector=str(rng.choice(["up", "down"])),
        m_offset=float(rng.uniform(-0.6, 0.6)),
        delta0=float(rng.uniform(0.3, 2.0))) for _ in range(N_CASES)]
    return pytest.mark.parametrize("params", cases)(test)


def relax_time(p):
    """theta for T < J, the paramagnetic relaxation time for T > J."""
    return p.hbar / (p.gamma * abs(p.coupling_j - p.temp_bath))


def dense_generator(up, down):
    return np.diag(-(up + down)) + np.diag(up[:-1], -1) + np.diag(down[1:], 1)


class TestGenerator:
    def test_apply_and_solve_match_dense_matrix(self, rng):
        up, down = rng.uniform(0.0, 5.0, 30), rng.uniform(0.0, 5.0, 30)
        up[-1] = down[0] = 0.0
        a = dense_generator(up, down)
        gen = Generator(up, down)
        p = rng.uniform(0.0, 1.0, 30)
        assert np.allclose(gen.apply(p), a @ p, rtol=1e-14, atol=1e-14)
        assert abs(gen.apply(p).sum()) < 1e-13  # columns sum to zero
        for h in (0.01, 3.0, 0.01):  # the cached factorization follows h
            m = np.eye(30) - integrator.D * h * a
            assert np.allclose(m @ gen.solve(h, p), p, rtol=1e-13, atol=1e-13)

    def test_factorization_cached_per_step_size(self, rng, monkeypatch):
        calls = []
        real = integrator.dgttrf

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(integrator, "dgttrf", counting)
        gen = Generator(rng.uniform(0.0, 1.0, 10), rng.uniform(0.0, 1.0, 10))
        b = rng.uniform(0.0, 1.0, 10)
        gen.solve(0.5, b)
        gen.solve(0.5, b)
        assert len(calls) == 1
        gen.solve(0.25, b)
        assert len(calls) == 2


class TestIntegrate:
    def setup_method(self):
        self.p = small_params(n=60)
        rt = transition_rates(self.p)
        self.gen = Generator(rt.up, rt.down)
        self.p0 = initial_distribution(self.p).weights
        self.th = relax_time(self.p)

    def run(self, stops, tol=1e-9, **kw):
        return integrate(self.gen, self.p0, 0.0, stops, tol, clip_floor=-1e-14,
                         mass_tol=1e-10, **kw)

    def test_steps_land_exactly_on_stops(self):
        stops = [0.0, 0.13 * self.th, 0.13 * self.th, 0.7 * self.th, 2.0 * self.th]
        seen = []
        states, n_steps, _ = self.run(stops, on_step=lambda t, p: seen.append(t))
        assert len(states) == len(stops) and len(seen) == n_steps
        assert set(stops[1:]) <= set(seen)
        assert np.array_equal(states[0], self.p0)
        assert np.array_equal(states[1], states[2])

    def test_dense_stops_match_expm(self, rng):
        # many stops, so that some land by stretching the step and some by
        # shortening it
        stops = sorted(rng.uniform(0.0, 2.0 * self.th, 100))
        states, n_steps, _ = self.run(stops)
        a = dense_generator(self.gen.up, self.gen.down)
        for s, w in zip(stops, states):
            assert np.abs(w - expm(a * s) @ self.p0).sum() <= n_steps * 1e-9

    def test_error_estimate_sets_the_step(self):
        # an order-2 method needs about (1e3)^(1/3) = 10x fewer steps at a
        # 1000x looser tol; a stability-capped step would not change at all
        _, tight, _ = self.run([3.0 * self.th], tol=1e-9)
        _, loose, _ = self.run([3.0 * self.th], tol=1e-6)
        assert loose < tight / 5

    def test_tol_below_roundoff_fails_fast(self):
        with pytest.raises(StiffnessError, match="roundoff"):
            self.run([self.th], tol=1e-30)
        with pytest.raises(ValueError):
            self.run([self.th], tol=0.0)

    def test_step_underflow_raises(self):
        with pytest.raises(StiffnessError, match="underflow"):
            self.run([self.th], h_cap=lambda t: 1e-20 * self.th)


@random_params
def test_master_agrees_with_dense_expm(params):
    tau = relax_time(params)
    times = [0.5 * tau, 2.0 * tau]
    d = initial_distribution(params)
    res = evolve(d, params, times[-1], snapshot_times=times)
    rt = transition_rates(params)
    a = dense_generator(rt.up, rt.down)
    for s in res.snapshots:
        exact = expm(a * s.time) @ d.weights
        # the L1 semigroup is contractive, so local errors below tol add up
        assert np.abs(s.weights - exact).sum() <= res.n_steps * 1e-9


@random_params
def test_offset_gaussian_start_agrees_with_dense_expm(params):
    tau = relax_time(params)
    d = initial_distribution(params, "gaussian")
    res = evolve(d, params, 2.0 * tau, snapshot_times=[0.3 * tau, 2.0 * tau],
                 record_free_energy=True)
    rt = transition_rates(params)
    a = dense_generator(rt.up, rt.down)
    for s in res.snapshots:
        assert np.abs(s.weights - expm(a * s.time) @ d.weights).sum() <= res.n_steps * 1e-9
        assert abs(s.total() - 1.0) < 1e-10 and s.weights.min() >= 0.0
    fv = res.free_energy_values
    assert np.diff(fv).min() >= -1e-12 * np.abs(fv).max()


@random_params
def test_detailed_balance(params):
    # up[k] pi[k] = down[k+1] pi[k+1]: the stationary state carries no
    # probability current between neighbouring levels
    pi = stationary_distribution(params).weights
    rt = transition_rates(params)
    lhs, rhs = rt.up[:-1] * pi[:-1], rt.down[1:] * pi[1:]
    assert np.all(lhs > 0.0)
    assert np.abs(lhs / rhs - 1.0).max() < 1e-12


@random_params
def test_mass_positivity_and_h_theorem(params):
    tau = relax_time(params)
    times = [0.5 * tau, 1.5 * tau, 4.0 * tau]
    res = evolve(initial_distribution(params), params, times[-1],
                 snapshot_times=times, record_free_energy=True)
    for s in res.snapshots:
        assert abs(s.total() - 1.0) < 1e-10
        assert s.weights.min() >= 0.0
    fv = res.free_energy_values
    assert len(fv) == res.n_steps + 1
    assert np.diff(fv).min() >= -1e-12 * np.abs(fv).max()


@random_params
def test_stationary_distribution_is_fixed_point(params):
    st_dist = stationary_distribution(params)
    out = evolve(st_dist, params, 10.0 * relax_time(params)).final
    assert np.abs(out.weights - st_dist.weights).sum() < 1e-10


@random_params
def test_global_profile_is_fixed_point_of_solve_fp(params):
    cfg = FPConfig(cells=200)
    eq = equilibrium_profile(params, "global", cfg)
    out = solve_fp(params, eq, [10.0 * relax_time(params)], cfg)[0]
    assert np.abs(out.values - eq.values).sum() * out.dm < 1e-10


@random_params
def test_sector_mirror_symmetry(params):
    tau = relax_time(params)
    up = params if params.sector == "up" else params.flipped()
    runs = [evolve(initial_distribution(p), p, 2.0 * tau, snapshot_times=[tau, 2.0 * tau])
            for p in (up, up.flipped())]
    for s_up, s_down in zip(runs[0].snapshots, runs[1].snapshots):
        assert np.abs(s_up.weights - s_down.weights[::-1]).max() < 1e-12
