import math
from dataclasses import replace

import numpy as np
import pytest

from magdot import fokker_planck, master
from magdot.fokker_planck import FPConfig, gaussian_field, solve_fp
from magdot.integrator import MASS_TOL, integrate
from magdot.master import evolve, initial_distribution
from magdot.measurement import (
    SpinState,
    _evolve_sectors,
    offdiagonal_scales,
    run_measurement,
)
from magdot.model import ModelParams, derived_scales
from magdot.special import erfc

from conftest import random_params, relax_time, small_params

TOL = 1e-9
FP_CELLS = FPConfig(cells=200)


def own_run_l1(final, sp, t_end, engine):
    """L1 distance of a sector's state from the same sector run on its own,
    by `evolve` or `solve_fp` from the Gaussian start."""
    if engine == "master":
        own = evolve(initial_distribution(sp, "gaussian"), sp, t_end, tol=TOL).final
        return float(np.abs(final.weights - own.weights).sum())
    own = solve_fp(sp, gaussian_field(sp, FP_CELLS), [t_end], FP_CELLS, tol=TOL)[0]
    return float(np.abs(final.weights - own.weights).sum())


def own_run_cost(sp, t_end, engine, init):
    """Report points and products of one `integrate` of a sector's chain
    alone, from the start `init`."""
    if engine == "master":
        start, gen = initial_distribution(sp, init), master.transition_rates(sp)
    else:
        start = fokker_planck.initial_field(sp, init, FP_CELLS)
        gen = fokker_planck.generator(sp, FP_CELLS)
    _, n_steps, n_terms = integrate(gen, start, [t_end], TOL)
    return n_steps, n_terms


class TestSpinState:
    def test_down_population_is_one_minus_r_up(self):
        # no second population to set, by keyword or by position
        with pytest.raises(TypeError):
            SpinState(r_up=0.7, r_down=0.3)
        with pytest.raises(TypeError):
            SpinState(0.7, 0.3)

    def test_cauchy_schwarz_bound(self):
        SpinState(r_up=0.5, offdiag_mag=0.5)  # boundary OK
        with pytest.raises(ValueError):
            SpinState(r_up=0.9, offdiag_mag=0.5)

    def test_nonnegative_populations(self):
        for r_up in (1.2, -0.2, math.nan):
            with pytest.raises(ValueError):
                SpinState(r_up=r_up)


class TestOffdiagonalScales:
    def test_reference_values(self):
        p = small_params(n=1000, g=0.05, debye_cutoff=100.0)
        od = offdiagonal_scales(p, g_spread=0.1)
        assert od.tau_red == pytest.approx(1.0 / (math.sqrt(2000) * 0.05),
                                           rel=1e-12)
        assert od.tau_red == pytest.approx(0.4472, abs=1e-4)
        assert od.t_recurrence == pytest.approx(math.pi / 0.1, rel=1e-12)
        # direct formula: gamma N hbar^2 Gamma^2 / g^2
        assert od.bath_suppression_ratio == pytest.approx(
            1e-3 * 1000 * 100.0**2 / 0.05**2, rel=1e-12)
        assert od.bath_suppression_ratio == pytest.approx(4e6, rel=1e-9)
        assert od.spread_suppression_ratio == pytest.approx(
            0.1 / 0.05 * math.sqrt(1000), rel=1e-12)

    def test_reduction_precedes_recurrence(self):
        for n in (2, 10, 1000, 10**6):
            for g in (1e-3, 0.05, 1.0):
                p = ModelParams(n_spins=n, temp_bath=0.65, coupling_g=g)
                od = offdiagonal_scales(p)
                assert od.tau_red < od.t_recurrence

    def test_scale_ordering_diagnostic(self):
        od = offdiagonal_scales(small_params(n=1000, g=0.05))
        assert od.tau_red < od.theta < od.tau_reg
        assert od.ordering_ok

    def test_rejects_nonpositive_coupling(self):
        with pytest.raises(ValueError):
            offdiagonal_scales(small_params(g=0.0))


class TestRunMeasurement:
    def test_pure_up_registration(self):
        p = small_params(n=200, g=0.1)
        th = derived_scales(p).theta
        rep = run_measurement(SpinState(1.0), p, t_end=6 * th)
        up = rep.sectors["up"]
        ds = derived_scales(p)
        assert abs(up.peak_m - ds.m_ferro) < 0.02
        assert up.p_wrong == pytest.approx(0.5 * erfc(ds.lam), abs=0.003)
        assert rep.born_check < 1e-10
        assert rep.conclusive

    def test_sector_mirror_symmetry(self):
        # the down sector is the up sector's run read mirrored, so from the
        # symmetric start the two are mirror images exactly, by construction;
        # test_integrator.py::test_sector_mirror_symmetry checks the symmetry
        # itself with independent runs at +g and -g
        p = small_params(n=120, g=0.08)
        th = derived_scales(p).theta
        rep = run_measurement(SpinState(0.5), p, t_end=4 * th)
        up = rep.sectors["up"].final
        down = rep.sectors["down"].final
        assert np.array_equal(up.weights, down.weights[::-1])
        assert rep.sectors["up"].p_correct == pytest.approx(
            rep.sectors["down"].p_correct, abs=1e-12)

    @pytest.mark.parametrize("cells", [400, 401])
    def test_fp_splits_evenly_at_zero_coupling(self, cells):
        # at g = 0 the repeller m = 0 is the centre of an odd mesh's middle
        # cell, whose mass counts half to each side, as a master level at
        # the repeller does
        p = ModelParams(n_spins=200, temp_bath=0.65, coupling_g=0.0)
        rep = run_measurement(SpinState(0.5), p, 96.0, engine="fp",
                              fp_config=FPConfig(cells=cells))
        for sec in rep.sectors.values():
            assert sec.p_correct == pytest.approx(sec.p_wrong, abs=1e-12)

    @pytest.mark.parametrize("engine", ["master", "fp"])
    def test_a_symmetric_start_costs_one_run(self, engine):
        # a start at m = 0 is its own mirror image, so the up chain's one run
        # serves both sectors; the exact paramagnet is at m = 0 whatever m0
        # says.  A start off the origin costs the two sectors' own runs
        p = small_params(n=120, g=0.08, delta0=1.0)
        t_end = 2.0 * derived_scales(p).theta
        for m0, init, runs in ((0.0, "gaussian", 1), (0.3, "exact-paramagnet", 1),
                               (0.2, "gaussian", 2)):
            sp = replace(p, m_offset=m0)
            rep = run_measurement(SpinState(0.5), sp, t_end, engine=engine, tol=TOL,
                                  fp_config=FP_CELLS, init=init)
            costs = [own_run_cost(replace(sp, coupling_g=g), t_end, engine, init)
                     for g in (sp.coupling_g, -sp.coupling_g)[:runs]]
            assert (rep.n_steps, rep.n_terms) == tuple(map(sum, zip(*costs)))

    @pytest.mark.parametrize("engine", ["master", "fp"])
    @pytest.mark.parametrize("g", [-0.08, 0.0])
    def test_sectors_at_negative_and_zero_g_match_own_runs(self, engine, g):
        # at g < 0 the up sector is the field -|g| and the down sector +|g|;
        # at g = 0 the two sectors are one chain.  Each sector lies within
        # tol of its own run, from the origin and from an offset start
        for m0 in (0.0, 0.2):
            p = small_params(n=120, g=g, m_offset=m0, delta0=1.0)
            t_end = 2.0 * relax_time(p)
            rep = run_measurement(SpinState(0.5), p, t_end, engine=engine, tol=TOL,
                                  fp_config=FP_CELLS, init="gaussian")
            for name, sign in (("up", 1.0), ("down", -1.0)):
                own = replace(p, coupling_g=sign * g)
                assert own_run_l1(rep.sectors[name].final, own, t_end, engine) <= TOL

    def test_negative_g_reads_its_scales_at_positive_g(self):
        # -g is the down state of +g: the sectors swap, and lambda, the
        # regime, tau_reg and the coherence scales are those of +g, with the
        # stray field g0 mirrored as well
        p = small_params(n=120, g=0.08)
        t_end = 4 * derived_scales(p).theta
        a = run_measurement(SpinState(0.7), p, t_end, g0=0.01)
        b = run_measurement(SpinState(0.7), replace(p, coupling_g=-0.08), t_end, g0=-0.01)
        assert b.regime == a.regime and b.offdiag == a.offdiag
        assert b.regime.lam > 0 and math.isfinite(b.regime.tau_reg)
        assert (b.conclusive, b.faithful) == (a.conclusive, a.faithful)
        for name, other in (("up", "down"), ("down", "up")):  # to rounding
            assert np.abs(b.sectors[name].final.weights
                          - a.sectors[other].final.weights).max() < 1e-14
            assert b.sectors[name].p_correct == pytest.approx(
                a.sectors[other].p_correct, abs=1e-14)
        assert b.sectors["up"].born_weight == 0.7
        assert b.sectors["down"].born_weight == 1.0 - 0.7

    def test_unbiased_coupling_fails(self):
        # both sectors identical, each splitting half/half: no measurement
        p = small_params(n=100, g=0.0)
        th = derived_scales(p).theta
        rep = run_measurement(SpinState(0.5), p, t_end=4 * th)
        for sec in rep.sectors.values():
            assert sec.p_correct == pytest.approx(0.5, abs=1e-9)
        assert np.abs(rep.sectors["up"].final.weights
                      - rep.sectors["down"].final.weights).max() < 1e-14
        assert rep.conclusive
        assert rep.faithful is False

    def test_inconclusive_before_horizon(self):
        p = small_params(n=200, g=0.1)
        th = derived_scales(p).theta
        rep = run_measurement(SpinState(1.0), p, t_end=0.5 * th)
        assert not rep.conclusive
        assert rep.faithful is None

    def test_faithful_monotone_in_coupling(self):
        # p_wrong = erfc(lambda(g))/2 strictly decreases with g, so the
        # verdict can only flip false -> true along a g grid
        gs = np.linspace(0.01, 0.3, 12)
        lam = [derived_scales(small_params(n=200, g=float(g))).lam for g in gs]
        pw = [0.5 * erfc(x) for x in lam]
        assert all(a > b for a, b in zip(pw, pw[1:]))

        p_weak = small_params(n=200, g=0.02)
        p_strong = small_params(n=200, g=0.2)
        th = derived_scales(p_weak).theta
        weak = run_measurement(SpinState(1.0), p_weak, t_end=8 * th,
                               p_wrong_bound=1e-2)
        strong = run_measurement(SpinState(1.0), p_strong, t_end=8 * th,
                                 p_wrong_bound=1e-2)
        assert weak.faithful is False
        assert strong.faithful is True

    def test_fp_engine_agrees_with_master(self):
        from magdot.fokker_planck import FPConfig
        p = small_params(n=200, g=0.1)
        th = derived_scales(p).theta
        a = run_measurement(SpinState(1.0), p, t_end=4 * th)
        b = run_measurement(SpinState(1.0), p, t_end=4 * th, engine="fp",
                            fp_config=FPConfig(cells=800))
        assert a.sectors["up"].p_wrong == pytest.approx(
            b.sectors["up"].p_wrong, abs=2e-3)
        assert abs(a.sectors["up"].peak_m - b.sectors["up"].peak_m) < 0.01

    def test_offdiag_carried_through(self):
        p = small_params(n=100, g=0.1)
        th = derived_scales(p).theta
        rep = run_measurement(SpinState(0.5, offdiag_mag=0.3), p,
                              t_end=3 * th)
        assert rep.offdiag_mag == 0.3
        assert rep.offdiag is not None
        assert rep.offdiag.tau_red == pytest.approx(
            1.0 / (math.sqrt(200) * 0.1), rel=1e-12)

    @pytest.mark.parametrize("engine", ["master", "fp"])
    def test_offset_start_keeps_each_sector(self, engine):
        # a Gaussian start off the origin breaks the mirror symmetry of the
        # sectors; the mirrored run still matches the down sector's own run,
        # and each sector keeps its mass
        p = small_params(n=120, g=0.08, m_offset=0.2, delta0=1.0)
        t_end = 2.0 * derived_scales(p).theta
        rep = run_measurement(SpinState(0.5), p, t_end, engine=engine, tol=TOL,
                              fp_config=FP_CELLS, init="gaussian")
        up, down = rep.sectors["up"], rep.sectors["down"]
        assert abs(up.p_correct - down.p_correct) > 0.1
        sector_params = {"up": p, "down": replace(p, coupling_g=-p.coupling_g)}
        for name, sec in rep.sectors.items():
            assert sec.p_correct + sec.p_wrong == pytest.approx(1.0, abs=MASS_TOL)
            assert own_run_l1(sec.final, sector_params[name], t_end, engine) <= TOL
        assert 0 < rep.n_steps <= rep.n_terms

    def test_fp_engine_honours_tol(self):
        # a looser tol cuts the Poisson windows short on the FP engine too
        p = small_params(n=200, g=0.1)
        t_end = 3.0 * derived_scales(p).theta
        terms = [run_measurement(SpinState(1.0), p, t_end, engine="fp", tol=tol,
                                 fp_config=FP_CELLS).n_terms for tol in (1e-4, 1e-9)]
        assert terms[0] < terms[1]

    @pytest.mark.parametrize("kind", ["no-such-kind", ""])
    def test_fp_refuses_a_start_it_cannot_honour(self, kind):
        # the FP engine raises rather than ignore a kind it has no start for
        p = small_params(n=60, g=0.08)
        with pytest.raises(ValueError, match="unknown initial kind"):
            run_measurement(SpinState(0.5), p, t_end=derived_scales(p).theta,
                            engine="fp", fp_config=FP_CELLS, init=kind)

    def test_fp_exact_paramagnet_is_the_centred_unit_gaussian(self):
        # the binomial's continuum limit, m = 0 and delta0 = 1, whatever m0
        # and T0 are; at m0 = 0 and T0 = inf it is the default Gaussian
        p = small_params(n=60, g=0.08)
        want = gaussian_field(p, FP_CELLS).weights
        for kw in ({"m_offset": 0.3}, {"temp_init": 2.0, "delta0": None}, {}):
            start = fokker_planck.initial_field(replace(p, **kw), "exact-paramagnet",
                                                FP_CELLS)
            assert np.array_equal(start.weights, want)
        assert np.array_equal(fokker_planck.initial_field(p, cfg=FP_CELLS).weights, want)

    def test_rejects_bad_engine(self):
        p = small_params(n=100, g=0.1)
        with pytest.raises(ValueError):
            run_measurement(SpinState(1.0), p, t_end=1.0, engine="magic")


@random_params
def test_sectors_match_own_runs(params):
    # the up chain's run and its mirrored run: each sector within tol in L1
    # of its own run, from the random Gaussian start (offset m0, width
    # delta0), at T < J and T > J
    tau = relax_time(params)
    for engine, t_end in (("master", 2.0 * tau), ("fp", tau)):
        finals, n_steps, n_terms = _evolve_sectors(params, t_end, engine, TOL,
                                                   FP_CELLS, "gaussian")
        assert 0 < n_steps <= n_terms
        for g, final in zip((params.coupling_g, -params.coupling_g), finals.values()):
            assert final.time == t_end
            assert own_run_l1(final, replace(params, coupling_g=g), t_end, engine) <= TOL
