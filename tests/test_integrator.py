"""The shared birth-death generator and its uniformization integrator.

Solver properties are checked over random (N, T, signed g, Gamma, and the
offset m0 and width delta0 of a Gaussian initial state) drawn by
`conftest.random_params`.
"""

import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import pdtr, pdtrc

from magdot import fokker_planck, integrator
from magdot.fokker_planck import FPConfig, equilibrium_profile, initial_field, solve_fp
from magdot.integrator import (
    Generator,
    NumericalError,
    StiffnessError,
    integrate,
)
from magdot.master import (
    DiscreteDistribution,
    evolve,
    initial_distribution,
    stationary_distribution,
    transition_rates,
)
from magdot.model import ModelParams

from conftest import dense_generator, random_params, relax_time, small_params


class TestGenerator:
    def test_apply_and_solve_match_dense_matrix(self, rng):
        up, down = rng.uniform(0.0, 5.0, 30), rng.uniform(0.0, 5.0, 30)
        up[-1] = down[0] = 0.0
        p = rng.uniform(0.0, 1.0, 30)
        # propagation at Lambda h from about 1e-3 to 4e3, also with rows that never
        # jump and with no jump at all (Lambda = 0), each h on its own series and
        # all of them off one
        up[10:13] = down[10:13] = 0.0
        hs = (1e-4, 0.3, 40.0, 400.0)
        for u, d in ((up, down), (0.0 * up, 0.0 * down)):
            gen, a = Generator(u, d), dense_generator(u, d)
            exact = [expm(h * a) @ p for h in hs]
            for tol in (1e-6, 1e-11):
                for h, e in zip(hs, exact):
                    (q,), n_products = gen.propagate(p, [h], tol)
                    assert np.abs(q - e).sum() <= tol
                    assert n_products >= gen.rate * h  # the sum reaches the mean
                states, n_series = gen.propagate(p, hs, tol)
                assert n_series == n_products  # the largest h sets the count
                for q, e in zip(states, exact):
                    assert np.abs(q - e).sum() <= tol
        assert gen.rate == 0.0 and n_products == 0

    def test_block_sums_match_window_sums(self, rng):
        # 2000 levels make blocks of 16 rows of one count each at stride 1,
        # and of 2 rows of 8 counts each at stride 8.  The windows start and end
        # inside blocks, overlap, fill one block exactly, repeat, nest and so
        # close out of order, stand alone in a block, and end in a partial
        # block; at stride 8 they start and end on every phase mod 8, and
        # some hold fewer than 8 counts
        n = 2000
        up, down = rng.uniform(0.0, 5.0, n), rng.uniform(0.0, 5.0, n)
        up[-1] = down[0] = 0.0
        gen = Generator(up, down)
        p = rng.uniform(0.0, 1.0, n)
        spans = [(0, 5), (3, 40), (10, 6), (16, 16), (30, 70), (30, 70), (99, 1),
                 (5, 95), (120, 8), (130, 30), (150, 3), (160, 1),
                 (17, 14), (44, 90), (63, 3)]
        assert {lo % 8 for lo, _ in spans} == {(lo + m - 1) % 8 for lo, m in spans} == set(range(8))
        wins = [(lo, w / w.sum()) for lo, w in ((lo, rng.uniform(0.1, 1.0, m))
                                                for lo, m in spans)]
        # every vector P^k p by the same products, then one matrix-vector
        # product per window
        vecs = [p]
        for _ in range(160):
            v = vecs[-1]
            u = gen.stay * v
            u[1:] += gen.p_up * v[:-1]
            u[:-1] += gen.p_down * v[1:]
            vecs.append(u)
        vecs = np.array(vecs)
        for s in (1, 8):
            got = list(gen._sum_windows(p, wins, 160, s))
            assert len(got) == len(wins)
            for (lo, w), q in zip(wins, got):
                assert np.abs(q - w @ vecs[lo:lo + len(w)]).sum() <= 1e-15 * p.sum()

    def test_poisson_window_against_mpmath(self):
        # 40-digit reference, normalized over the same window
        mpmath = pytest.importorskip("mpmath")
        for x in (1e-9, 0.5, 12.0, 512.0, 4096.0, 1e5):
            for eps in (1e-3, integrator.TOL_FLOOR):
                lo, w = integrator.poisson_window(x, eps)
                with mpmath.workdps(40):
                    mx = mpmath.mpf(x)
                    ref = [mpmath.exp(k * mpmath.log(mx) - mx - mpmath.loggamma(k + 1))
                           for k in range(lo, lo + len(w))]
                    total = mpmath.fsum(ref)
                    ref = [float(r / total) for r in ref]
                assert np.abs(np.array(ref) - w).sum() <= 1e-14

    def test_poisson_window_tails(self):
        xs = (1e-9, 1e-6, 1e-3, 0.1, 1.0, 3.7, 10.0, 50.0, 200.0, 512.0)
        tols = (0.9, 0.1, 1e-3, 1e-6, 1e-9, 1e-12, integrator.TOL_FLOOR)
        for x in xs:
            for tol in tols:
                for mass in (1.0, 0.03):
                    eps = tol / (2.0 * mass)
                    lo, w = integrator.poisson_window(x, eps)
                    hi = lo + len(w) - 1
                    assert lo <= math.floor(x) <= hi
                    # the dropped mass on each side, so both together stay below eps,
                    # and no side keeps more than one term beyond the tightest cut
                    ks = np.arange(hi + 2)
                    dropped_below = np.append(0.0, pdtr(ks[:-1], x))  # P(X < k)
                    assert dropped_below[lo] <= 0.5 * eps
                    assert pdtrc(hi, x) <= 0.5 * eps
                    tight_lo = ks[:math.floor(x) + 1][dropped_below[:math.floor(x) + 1]
                                                      <= 0.5 * eps].max()
                    tight_hi = max(math.floor(x), ks[np.argmax(pdtrc(ks, x) <= 0.5 * eps)])
                    assert lo >= tight_lo - 1 and hi <= tight_hi + 1
                    assert abs(w.sum() - 1.0) < 1e-15 and w.min() >= 0.0


class TestIntegrate:
    def setup_method(self):
        self.p = small_params(n=60)
        rt = transition_rates(self.p)
        self.gen = Generator(rt.up, rt.down)
        self.d0 = initial_distribution(self.p)
        self.p0 = self.d0.weights
        self.th = relax_time(self.p)

    def run(self, stops, tol=1e-9, **kw):
        return integrate(self.gen, self.d0, stops, tol, **kw)

    def test_steps_land_exactly_on_stops(self):
        stops = [0.0, 0.13 * self.th, 0.13 * self.th, 0.7 * self.th, 2.0 * self.th]
        seen = []
        states, n_steps, _ = self.run(stops, on_step=lambda t, p: seen.append(t))
        assert len(states) == len(stops) and len(seen) == n_steps
        assert set(stops[1:]) <= set(seen)
        # a state comes out at each stop: the start's, at the stop's time
        assert [s.time for s in states] == stops
        assert all(s.grid is self.d0.grid and s.n_spins == self.d0.n_spins for s in states)
        assert np.array_equal(states[0].weights, self.p0)
        assert np.array_equal(states[1].weights, states[2].weights)

    def test_fp_cell_state_starts_at_its_own_time(self):
        # a Fokker-Planck start on 200 cells, at t = 0.5 theta: its states keep
        # the cell grid and match the dense propagator from the start's time
        cfg = FPConfig(cells=200)
        start = replace(initial_field(self.p, "gaussian", cfg), time=0.5 * self.th)
        gen = fokker_planck.generator(self.p, cfg)
        stops = [0.5 * self.th, self.th, 2.0 * self.th]
        states, n_steps, _ = integrate(gen, start, stops, 1e-9)
        a = dense_generator(gen.up, gen.down)
        for s, u in zip(states, stops):
            assert s.time == u and s.grid is start.grid and s.n_spins == start.n_spins
            exact = expm(a * (u - start.time)) @ start.weights
            assert np.abs(s.weights - exact).sum() <= n_steps * 1e-9

    def test_dense_stops_match_expm(self, rng):
        # many stops, so that some land by stretching the step and some by
        # shortening it, over up to several MAX_JUMPS jumps
        a = dense_generator(self.gen.up, self.gen.down)
        for span in (0.9, 3.5, 7.9):
            stops = sorted(rng.uniform(0.0, span * integrator.MAX_JUMPS / self.gen.rate, 100))
            states, n_steps, n_products = self.run(stops)
            # the span holds fewer than SERIES_JUMPS jumps, so one series serves
            # every stop: it costs the products of the last stop's window
            # alone, and each stop lies within tol of the exact state, not
            # n_steps tol
            assert self.gen.rate * stops[-1] <= integrator.SERIES_JUMPS
            assert n_products == self.gen.propagate(self.p0, [stops[-1]], 1e-9)[1]
            assert n_steps >= len(set(stops))
            for s, w in zip(stops, states):
                assert np.abs(w.weights - expm(a * s) @ self.p0).sum() <= 1e-9 + 1e-14

    def test_steps_span_at_most_max_jumps(self):
        # a long run still reports states: each step covers Lambda h <= MAX_JUMPS,
        # stretched by at most 5% to land on a stop
        t_end = 20.0 * self.th
        seen = [0.0]
        _, n_steps, n_terms = self.run([t_end], on_step=lambda t, p: seen.append(t))
        jumps = self.gen.rate * np.diff(seen)
        assert jumps.max() <= 1.05 * integrator.MAX_JUMPS
        assert n_steps >= self.gen.rate * t_end / (1.05 * integrator.MAX_JUMPS)
        assert n_terms >= self.gen.rate * t_end

    def test_series_memory_follows_active_windows(self):
        # 32 report points forced into one series at N = 2e4: the series keeps
        # an accumulator for each window that overlaps the current block (and
        # the block's sums), not one for every report point.  Measured peak
        # 17.0 N floats against 6 overlapping windows
        p = ModelParams(n_spins=20_000, temp_bath=0.65, coupling_g=0.0,
                        debye_cutoff=1e6)
        gen, d = transition_rates(p), initial_distribution(p)
        t_end = integrator.SERIES_JUMPS / gen.rate
        tracemalloc.start()
        try:
            _, n_steps, n_products = integrate(gen, d, [t_end], 1e-9, h_cap=lambda t: t_end / 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n_steps == 32
        assert n_products == gen.propagate(d.weights, [t_end], 1e-9)[1]
        ends = [(lo, lo + len(w) - 1) for lo, w in
                (integrator.poisson_window(gen.rate * t_end * i / 32, 0.5e-9)
                 for i in range(1, 33))]
        overlap = max(sum(lo <= k <= hi for lo, hi in ends) for k, _ in ends)
        assert overlap <= 8
        assert peak <= (2 * overlap + 8) * 8 * len(d.weights)

    def test_tol_below_roundoff_fails_fast(self):
        with pytest.raises(StiffnessError, match="roundoff"):
            self.run([self.th], tol=1e-30)
        with pytest.raises(ValueError):
            self.run([self.th], tol=0.0)

    def test_step_underflow_raises(self):
        with pytest.raises(StiffnessError, match="underflow"):
            self.run([self.th], h_cap=lambda t: 1e-20 * self.th)

    def test_negative_rate_raises_instead_of_clipping(self):
        # a negative down rate makes P(0, 1) = -0.8: the first product leaves a
        # negative entry, which the integrator reports rather than mends
        gen = Generator([0.5, 0.0], [0.0, -0.4])
        with pytest.raises(NumericalError, match="negative entry .* at t = 1"):
            integrate(gen, DiscreteDistribution(1, [0.0, 1.0]), [1.0], 1e-9)

    def test_mass_leak_raises(self, monkeypatch):
        # P's columns sum to 1 + 1e-9: the mass grows by about 1e-9 a product,
        # which the check reports once it passes MASS_TOL
        monkeypatch.setattr(self.gen, "stay", self.gen.stay + 1e-9)
        with pytest.raises(NumericalError, match="mass drift .* at t ="):
            self.run([self.th])

    def test_early_negative_full_memory_rates_leave_no_negative_weight(self):
        # full-memory rates dip below zero early in this run (-1.7e-3 at t = 1);
        # the states stay nonnegative, so the run completes
        p = ModelParams(n_spins=50, temp_bath=0.3, coupling_g=0.2, debye_cutoff=10.0)
        assert transition_rates(p, "full-memory", 1.0).down.min() < 0.0
        res = evolve(initial_distribution(p), p, 5.0, mode="full-memory",
                     snapshot_times=[1.0, 2.0, 5.0])
        assert min(s.weights.min() for s in res.snapshots) >= 0.0
        assert res.final.total() == pytest.approx(1.0, abs=integrator.MASS_TOL)


def test_registration_run_product_count():
    # the benchmark's registration run at N = 500: 51 snapshots to 2.25 theta
    # with the free-energy monitor, all off one Poisson series; it took 1,395
    # products in three series of at most MAX_JUMPS
    p = small_params(n=500)
    th = relax_time(p)
    fracs = sorted({0.5, 1.0, 2.25} | set(np.round(np.arange(0.9, 2.125, 0.025), 6)))
    res = evolve(initial_distribution(p), p, 2.25 * th,
                 snapshot_times=[f * th for f in fracs], record_free_energy=True)
    assert len(res.snapshots) == 51
    assert res.n_terms <= 1_258


def test_registration_fp_run_term_count():
    # the benchmark's registration FP run at N = 500 on 1000 cells, to the
    # caption times: its two series sum Poisson counts up to 4,695 in all,
    # whether they are formed a product or a leap at a time
    p = small_params(n=500)
    th = relax_time(p)
    cfg = FPConfig(cells=1000)
    states, _, n_terms = integrate(fokker_planck.generator(p, cfg),
                                   fokker_planck.gaussian_field(p, cfg),
                                   [0.5 * th, th, 2.25 * th], 1e-9)
    assert len(states) == 3
    assert n_terms <= 4_695


@random_params
def test_tol_sets_the_truncation(params):
    # one step of the integrator is one truncated Poisson sum: its L1 error
    # stays below tol, and a tighter tol sums more terms
    rt = transition_rates(params)
    gen = Generator(rt.up, rt.down)
    d = initial_distribution(params, "gaussian")
    t = min(2.0 * relax_time(params), integrator.MAX_JUMPS / gen.rate)
    exact = expm(t * dense_generator(rt.up, rt.down)) @ d.weights
    terms = []
    for tol in (1e-6, 1e-9, 1e-12):
        (p,), n_steps, n_terms = integrate(gen, d, [t], tol)
        assert n_steps == 1
        assert np.abs(p.weights - exact).sum() <= tol
        terms.append(n_terms)
    assert terms[0] < terms[1] < terms[2]


@random_params
def test_master_agrees_with_dense_expm(params):
    # the last stop lies 500 jumps beyond 2 tau, so that a series sums
    # enough counts per report point to take leaps by P^LEAP
    tau = relax_time(params)
    rt = transition_rates(params)
    times = [0.5 * tau, 2.0 * tau, 2.0 * tau + 500.0 / rt.rate]
    d = initial_distribution(params)
    strides, sum_windows = [], Generator._sum_windows

    def spy(gen, p, wins, n_prod, s):
        strides.append(s)
        return sum_windows(gen, p, wins, n_prod, s)

    with mock.patch.object(Generator, "_sum_windows", spy):
        res = evolve(d, params, times[-1], snapshot_times=times)
    assert integrator.LEAP in strides
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
    eq = equilibrium_profile(params, cfg)
    out = solve_fp(params, eq, [10.0 * relax_time(params)], cfg)[0]
    assert np.abs(out.weights - eq.weights).sum() < 1e-10


@random_params
def test_sector_mirror_symmetry(params):
    tau = relax_time(params)
    g = params.coupling_g
    runs = [evolve(initial_distribution(p), p, 2.0 * tau, snapshot_times=[tau, 2.0 * tau])
            for p in (replace(params, coupling_g=s * abs(g)) for s in (1, -1))]
    for s_up, s_down in zip(runs[0].snapshots, runs[1].snapshots):
        assert np.abs(s_up.weights - s_down.weights[::-1]).max() < 1e-12
