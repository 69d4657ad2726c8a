"""Stochastic jump-process sampler over the master-equation generator.

Independent oracle for `evolve`: exact simulation of the birth-death chain by
uniformization.  With Lambda = max_k(up_k + down_k), every walker makes a
Poisson(Lambda t) number of steps, each up, down or stay with probabilities
up_k/Lambda, down_k/Lambda and the rest.  Walkers are i.i.d., so all of them
are carried as one vector of occupation counts over the N + 1 states.  The
step count is drawn one step at a time through the Poisson hazard
h_j = P(K = j | K >= j): at step j each active walker leaves with
probability h_j and otherwise moves, so one four-way multinomial per state
(leave, up, down, stay) does both, and the walkers that leave at step j made
exactly j moves.  A run costs O(N Lambda t) in time and O(N) in memory,
whatever the number of walkers.  The draws come from a counter-based Philox
stream keyed by (seed, 0), so the counts are deterministic for a given
(seed, n_traj); a smaller request is not a prefix of a larger one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .master import DiscreteDistribution, initial_distribution, transition_rates
from .model import ModelParams, repeller
from .special import poisson_weights

__all__ = ["TrajectoryEnsemble", "poisson_hazards", "sample_trajectories"]

_TAIL_NATS = 700.0  # the hazard table drops a Poisson tail below e^-700


@dataclass
class TrajectoryEnsemble:
    histogram: DiscreteDistribution
    counts: np.ndarray             # int64 walkers ending in each of the N + 1 states
    up_fraction: float             # share ending above the repeller, ties half
    n_traj: int
    seed: int
    uniform_rate: float            # Lambda, the rate of the uniformizing clock
    n_steps: int                   # steps applied to the count vector


def poisson_hazards(x: float) -> np.ndarray:
    """h[j] = P(K = j | K >= j) for K ~ Poisson(x), j = 0..R, with h[R] = 1.

    The weights are `poisson_weights` from 0 up to the reach R where the
    upper tail is e^-700; weights that underflow to 0 at the right end are
    dropped.  The survival P(K >= j) is summed from the right end, so a
    small one is not a difference of large ones.  [1.0] when x = 0: every
    walker stops before its first step.
    """
    if x == 0.0:
        return np.ones(1)
    w = poisson_weights(x, 0, _TAIL_NATS)
    w = w[:np.flatnonzero(w)[-1] + 1]
    return w / np.cumsum(w[::-1])[::-1]


def sample_trajectories(params: ModelParams, n_traj: int, t_end: float,
                        seed: int = 0, rates=None,
                        init: DiscreteDistribution | None = None) -> TrajectoryEnsemble:
    """Sample n_traj jump-process trajectories up to t_end.

    Sampling is short-memory only: the rates, any object with hop-rate
    arrays `up` and `down` over the N + 1 states (default: the short-memory
    `transition_rates`), do not depend on time and must be finite and >= 0.
    Initial states are drawn from `init` (default: exact paramagnet).
    Deterministic for a given (seed, n_traj), the seed an integer in
    [0, 2**64).  `n_steps` is the number of steps the count vector took.
    """
    if isinstance(n_traj, bool) or not isinstance(n_traj, (int, np.integer)):
        raise ValueError(f"n_traj must be an integer (got {n_traj!r})")
    if not 1 <= n_traj < 2**63:  # the count vector is int64
        raise ValueError(f"n_traj must be >= 1 and < 2**63 (got {n_traj})")
    n_traj = int(n_traj)
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer (got {seed!r})")
    seed = int(seed)
    if not 0 <= seed < 2**64:  # one uint64 word of the Philox key
        raise ValueError(f"seed must be >= 0 and < 2**64 (got {seed})")
    if not (math.isfinite(t_end) and t_end >= 0.0):
        raise ValueError(f"t_end must be finite and >= 0 (got {t_end})")
    n = params.n_spins
    if rates is None:
        rates = transition_rates(params, mode="short-memory")
    if init is None:
        init = initial_distribution(params, "exact-paramagnet")
    if np.shape(rates.up) != (n + 1,) or np.shape(rates.down) != (n + 1,):
        raise ValueError(f"rates must cover the N + 1 = {n + 1} states of params "
                         f"(got {np.size(rates.up)} up and {np.size(rates.down)} down)")
    if init.n_spins != n:
        raise ValueError(f"init is over N = {init.n_spins} spins, params over N = {n}")
    bad = ~(np.isfinite(rates.up) & np.isfinite(rates.down)
            & (rates.up >= 0.0) & (rates.down >= 0.0))
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(
            f"rates must be finite and >= 0, got up = {rates.up[k]:.3e}, "
            f"down = {rates.down[k]:.3e} at m = {params.grid[k]:+.4f}; such "
            f"rates cannot be sampled as a jump process")
    m_repel = repeller(params) if params.temp_bath < params.coupling_j else 0.0

    total = rates.up + rates.down
    lam = float(total.max())
    # up/down/stay per state; a zero total rate stays put, Lambda = 0 never steps
    moves = np.column_stack((rates.up, rates.down, lam - total)) / (lam or 1.0)
    hazards = poisson_hazards(lam * t_end)
    weights = init.weights / init.weights.sum()

    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0],
                                                            dtype=np.uint64)))
    active = rng.multinomial(n_traj, weights)
    counts = np.zeros(n + 1, dtype=np.int64)
    pvals = np.empty((n + 1, 4))  # leave, up, down, stay
    for j, h in enumerate(hazards):  # a walker leaving at step j made j moves
        pvals[:, 0] = h
        np.multiply(moves, 1.0 - h, out=pvals[:, 1:])
        step = rng.multinomial(active, pvals)
        counts += step[:, 0]
        active = step[:, 3].copy()
        active[1:] += step[:-1, 1]
        active[:-1] += step[1:, 2]
        if not active.any():
            break

    # the tie rule of `mass_below`, summed over the counts, which are exact
    below = DiscreteDistribution(n_spins=n, weights=counts.astype(float),
                                 time=t_end).mass_below(m_repel)
    return TrajectoryEnsemble(
        histogram=DiscreteDistribution(n_spins=n, weights=counts / n_traj, time=t_end),
        counts=counts,
        up_fraction=(n_traj - below) / n_traj,
        n_traj=n_traj,
        seed=seed,
        uniform_rate=lam,
        n_steps=j,
    )
