"""Stochastic jump-process sampler over the master-equation generator.

Independent oracle for `evolve`: exact simulation of the birth-death chain by
uniformization.  With Lambda = max_k(up_k + down_k), every walker makes a
Poisson(Lambda t) number of steps, each up, down or stay with probabilities
up_k/Lambda, down_k/Lambda and the rest.  Walkers are i.i.d., so a block is
carried as occupation counts: at step j the walkers whose count is j leave as
a multivariate-hypergeometric draw over the states, the rest move by one
multinomial per state, and the final states are shuffled into launch slots.
A block costs O(N Lambda t) whatever its size.  Block b draws from a
counter-based Philox stream keyed by (seed, b), so results are reproducible
for a given seed and mergeable in trajectory order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .master import DiscreteDistribution, RateTable, transition_rates
from .model import ModelParams, repeller

__all__ = ["TrajectoryEnsemble", "sample_trajectories"]

_BLOCK = 2**16


@dataclass
class TrajectoryEnsemble:
    histogram: DiscreteDistribution
    final_states: np.ndarray       # grid index per trajectory, in launch order
    up_fraction: float             # share ending above the repeller, ties half
    n_traj: int
    seed: int
    uniform_rate: float            # Lambda, the rate of the uniformizing clock
    n_steps: int                   # steps applied to the counts, over all blocks


def sample_trajectories(params: ModelParams, n_traj: int, t_end: float,
                        seed: int = 0, rates: RateTable | None = None,
                        init: DiscreteDistribution | None = None) -> TrajectoryEnsemble:
    """Sample n_traj jump-process trajectories up to t_end.

    Sampling is short-memory only: the rates (default: the short-memory
    `transition_rates`) do not depend on time.  Initial states are drawn
    from `init` (default: exact paramagnet).  Deterministic for a fixed seed.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0 (got {seed})")
    if not (math.isfinite(t_end) and t_end >= 0.0):
        raise ValueError(f"t_end must be finite and >= 0 (got {t_end})")
    if rates is None:
        rates = transition_rates(params, mode="short-memory")
    if init is None:
        from .master import initial_distribution
        init = initial_distribution(params, "exact-paramagnet")
    m_repel = repeller(params) if params.temp_bath < params.coupling_j else 0.0

    n = params.n_spins
    total = rates.up + rates.down
    lam = float(total.max())
    # up/down/stay per state; a zero total rate stays put, Lambda = 0 never steps
    moves = np.column_stack((rates.up, rates.down, lam - total)) / (lam or 1.0)
    weights = init.weights / init.weights.sum()

    finals = np.empty(n_traj, dtype=np.int64)
    n_steps = 0
    for b, start in enumerate(range(0, n_traj, _BLOCK)):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, b],
                                                                dtype=np.uint64)))
        # always simulate a full block so trajectory i is the same walker no
        # matter how many trajectories were requested in total
        active = rng.multinomial(_BLOCK, weights)
        stops = np.bincount(rng.poisson(lam * t_end, _BLOCK))
        done = np.zeros(n + 1, dtype=np.int64)
        for s in stops[:-1]:  # stops[j] walkers end after j steps, the rest step on
            leaving = rng.multivariate_hypergeometric(active, s)
            done += leaving
            step = rng.multinomial(active - leaving, moves)
            active = step[:, 2].copy()
            active[1:] += step[:-1, 0]
            active[:-1] += step[1:, 1]
        n_steps += stops.size - 1
        states = rng.permutation(np.repeat(np.arange(n + 1), done + active))
        finals[start:start + _BLOCK] = states[:n_traj - start]

    counts = np.bincount(finals, minlength=n + 1)
    m = params.grid
    up_fraction = float(counts[m > m_repel].sum()
                        + 0.5 * counts[m == m_repel].sum()) / n_traj
    return TrajectoryEnsemble(
        histogram=DiscreteDistribution(n_spins=n, weights=counts / n_traj, time=t_end),
        final_states=finals,
        up_fraction=up_fraction,
        n_traj=n_traj,
        seed=seed,
        uniform_rate=lam,
        n_steps=n_steps,
    )
