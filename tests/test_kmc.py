"""The uniformized jump-process sampler.

Histograms are checked against dense `expm` solutions of the master
equation, state by state and in total L1, against the noise of a multinomial
sample of the same size: over random parameters (`conftest.random_params`)
and exactly at N = 3, where a few uniformized steps decide the law.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import pdtrc

from magdot.kmc import poisson_hazards, sample_trajectories
from magdot.integrator import Generator
from magdot.master import (
    DiscreteDistribution,
    evolve,
    initial_distribution,
    transition_rates,
)
from magdot.model import derived_scales, repeller

from conftest import dense_generator, random_params, relax_time, small_params

N_WALKERS = 2**18 + 4321


def zero_rates(n):
    return Generator(np.zeros(n + 1), np.zeros(n + 1))


def test_frozen_walkers_with_zero_rates():
    p = small_params(n=20)
    ens = sample_trajectories(p, 50, t_end=100.0, seed=0, rates=zero_rates(20))
    init = initial_distribution(p, "exact-paramagnet")
    # nobody moves: histogram is a sample of the initial distribution only
    ens2 = sample_trajectories(p, 50, t_end=0.0, seed=0, rates=zero_rates(20))
    assert np.array_equal(ens.counts, ens2.counts)


def test_deterministic_under_seed():
    p = small_params(n=50)
    th = derived_scales(p).theta
    a = sample_trajectories(p, 500, 0.5 * th, seed=42)
    b = sample_trajectories(p, 500, 0.5 * th, seed=42)
    c = sample_trajectories(p, 500, 0.5 * th, seed=43)
    assert np.array_equal(a.counts, b.counts)
    assert not np.array_equal(a.counts, c.counts)
    assert a.counts.dtype == np.int64 and a.counts.sum() == 500


def test_counts_pinned_at_two_to_the_18_walkers():
    # 2^18 walkers on the (seed, 0) stream draw what the earlier sampler's
    # first 2^18-walker block drew, so these counts were taken from it
    p = small_params(n=12)
    ens = sample_trajectories(p, 2**18, 0.5 * derived_scales(p).theta, seed=3)
    assert ens.counts.tolist() == [6796, 13560, 17972, 21027, 22468, 23251, 24342,
                                   25102, 25711, 26069, 24497, 20307, 11042]
    assert ens.n_steps == 20
    np.testing.assert_array_equal(ens.histogram.weights, ens.counts / 2**18)


def test_memory_does_not_grow_with_walkers():
    # one count vector over N + 1 states: 2^22 walkers at N = 50 peak at
    # 22,673 B; a per-walker int64 array alone would be 32 MiB
    p = small_params(n=50)
    t = 0.5 * derived_scales(p).theta
    sample_trajectories(p, 10, t, seed=1)
    tracemalloc.start()
    try:
        sample_trajectories(p, 2**22, t, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 65_536


def test_histogram_matches_master_equation():
    p = small_params(n=100, g=0.158113883008419)  # keeps lambda at ~1.89
    th = derived_scales(p).theta
    res = evolve(initial_distribution(p, "exact-paramagnet"), p, 2 * th)
    ens = sample_trajectories(p, 20_000, 2 * th, seed=11)
    l1 = np.abs(ens.histogram.weights - res.final.weights).sum()
    assert l1 < 0.05  # ~3x the multinomial noise floor at this sample size


def test_symmetric_split_fraction():
    p = small_params(n=100, g=0.0)
    th = derived_scales(p).theta
    n = 20_000
    ens = sample_trajectories(p, n, 2 * th, seed=5)
    sigma = 0.5 / math.sqrt(n)
    assert abs(ens.up_fraction - 0.5) < 3 * sigma


def test_up_fraction_counts_a_level_on_the_repeller_half():
    # at N = 4, g = 0.05, T = 0.9 the repeller -0.5000000000000001 sits on
    # the level -0.5; its walkers count half, as in `mass_below`
    p = small_params(n=4, g=0.05, temp=0.9)
    ens = sample_trajectories(p, 1000, 5.0, seed=0)
    assert ens.counts[1] > 0
    assert ens.up_fraction == pytest.approx(
        1.0 - ens.histogram.mass_below(repeller(p)), abs=1e-12)


def test_input_validation():
    p = small_params(n=20)
    with pytest.raises(ValueError):
        sample_trajectories(p, 0, 1.0)
    for bad in (2.5, True, "10"):
        with pytest.raises(ValueError, match="n_traj must be an integer"):
            sample_trajectories(p, bad, 1.0)
    ens = sample_trajectories(p, np.int64(5), 1.0)
    assert ens.n_traj == 5 and ens.counts.shape == (21,) and ens.counts.sum() == 5
    # one count vector carries any int64 number of walkers, and no more
    big = sample_trajectories(p, 2**63 - 1, 1.0)
    assert big.counts.sum() == 2**63 - 1
    for bad in (2**63, 10**20):
        with pytest.raises(ValueError, match=r"n_traj must be >= 1 and < 2\*\*63"):
            sample_trajectories(p, bad, 1.0)


def test_rejects_negative_seed_and_bad_end_time():
    p = small_params(n=20)
    for kw in (dict(t_end=1.0, seed=-1), dict(t_end=math.inf),
               dict(t_end=math.nan), dict(t_end=-5.0)):
        with pytest.raises(ValueError):
            sample_trajectories(p, 10, **kw)
    ens = sample_trajectories(p, 10, t_end=0.0)  # t = 0 is legal: no steps
    assert ens.n_steps == 0


def test_seed_must_be_an_integer_below_2_64():
    # a float seed was truncated to the stream of its integer part, and
    # 2**64 overflowed the uint64 Philox key with a bare OverflowError
    p = small_params(n=20)
    for bad in (2.5, 2.0, True, "3", np.float64(2.0)):
        with pytest.raises(ValueError, match="seed must be an integer"):
            sample_trajectories(p, 10, 1.0, seed=bad)
    for bad in (2**64, 2**70):
        with pytest.raises(ValueError, match=r"seed must be >= 0 and < 2\*\*64"):
            sample_trajectories(p, 10, 1.0, seed=bad)
    sample_trajectories(p, 10, 1.0, seed=2**64 - 1)
    for seed in (np.uint64(7), np.int32(7)):
        ens = sample_trajectories(p, 10, 1.0, seed=seed)
        assert ens.seed == 7
        assert np.array_equal(ens.counts,
                              sample_trajectories(p, 10, 1.0, seed=7).counts)


def test_rejects_negative_rates():
    # at short times the windowed kernel, and so a full-memory rate, can be
    # negative; a jump process cannot carry it
    p = small_params(n=50, g=0.2, temp=0.3, debye_cutoff=10.0)
    rt = transition_rates(p, mode="full-memory", t=1.0)
    assert min(rt.up.min(), rt.down.min()) < -1e-4
    with pytest.raises(ValueError, match="rates must be finite and >= 0"):
        sample_trajectories(p, 10, 1.0, rates=rt)
    nan = Generator(np.full(51, np.nan), np.zeros(51))
    with pytest.raises(ValueError, match="rates must be finite and >= 0"):
        sample_trajectories(p, 10, 1.0, rates=nan)


def test_rejects_rates_or_init_of_another_size():
    p = small_params(n=20)
    with pytest.raises(ValueError, match="N \\+ 1 = 21 states"):
        sample_trajectories(p, 10, 1.0, rates=zero_rates(30))
    with pytest.raises(ValueError, match="init is over N = 30"):
        sample_trajectories(p, 10, 1.0, init=initial_distribution(small_params(n=30)))


@pytest.mark.parametrize("x", [0.0, 1e-3, 5.0, 192.0, 1e4])
def test_hazards_reproduce_poisson_survival(x):
    h = poisson_hazards(x)
    assert h[-1] == 1.0 and np.all((h >= 0.0) & (h <= 1.0))
    # P(K >= j), j >= 1, is the chance of passing the stops 0..j-1
    survival = np.cumprod(1.0 - h[:-1])
    np.testing.assert_allclose(survival, pdtrc(np.arange(h.size - 1), x),
                               rtol=0.0, atol=1e-12)
    assert pdtrc(h.size - 1, x) <= 1e-300  # the tail the table drops


def assert_sampled_from(ens, p):
    """Counts within 5 multinomial sigma per state, and the L1 distance
    within 5 standard deviations above its expected value (the noise floor)."""
    n = ens.n_traj
    var = n * p * (1.0 - p)
    counts = ens.counts
    # + 3 walkers: a state with n p << 1 is not Gaussian
    assert np.all(np.abs(counts - n * p) <= 5.0 * np.sqrt(var) + 3.0)
    floor = np.sqrt(2.0 * var / np.pi).sum() / n
    spread = math.sqrt((1.0 - 2.0 / math.pi) * var.sum()) / n
    assert np.abs(counts / n - p).sum() <= floor + 5.0 * spread


@random_params
def test_histogram_agrees_with_dense_expm(params):
    init = initial_distribution(params, "gaussian")
    rt = transition_rates(params)
    a = dense_generator(rt.up, rt.down)
    for frac in (0.3, 2.0):
        t = frac * relax_time(params)
        ens = sample_trajectories(params, N_WALKERS, t, seed=3, init=init)
        assert_sampled_from(ens, np.clip(expm(a * t) @ init.weights, 0.0, None))


def test_exact_at_three_spins():
    # with 0.1 to 8 uniformized steps per walker, a wrong step count, clock
    # rate or stop rule moves the law far beyond the noise of 2^20 walkers.
    # Under `hop` every step moves (total rate Lambda everywhere), so the
    # parity of a walker's final state is the parity of its Poisson count.
    p = small_params(n=3, g=0.1, temp=0.8)
    hop = Generator(np.array([2.0, 1.0, 1.0, 0.0]), np.array([0.0, 1.0, 1.0, 2.0]))
    corner = DiscreteDistribution(n_spins=3, weights=np.array([1.0, 0.0, 0.0, 0.0]),
                                  time=0.0)
    for rt, init in ((transition_rates(p), initial_distribution(p)), (hop, corner)):
        lam = (rt.up + rt.down).max()
        a = dense_generator(rt.up, rt.down)
        for steps in (0.1, 0.5, 2.0, 8.0):
            t = steps / lam
            ens = sample_trajectories(p, 2**20, t, seed=1, rates=rt, init=init)
            assert ens.uniform_rate == lam
            assert_sampled_from(ens, expm(a * t) @ init.weights)


def test_reports_uniform_rate_and_steps():
    p = small_params(n=50)
    rt = transition_rates(p)
    t = 0.5 * derived_scales(p).theta
    ens = sample_trajectories(p, 3 * 2**18, t, seed=4)
    assert ens.uniform_rate == (rt.up + rt.down).max()
    # the largest of 3 * 2^18 Poisson(Lambda t) step counts
    mean = ens.uniform_rate * t
    assert mean < ens.n_steps < mean + 7.0 * math.sqrt(mean) + 7.0
    frozen = sample_trajectories(p, 10, t, rates=zero_rates(50))
    assert frozen.uniform_rate == 0.0 and frozen.n_steps == 0
