"""Shared fixtures, parameter sets and the random-parameter decorator.

`random_params` draws (N, T, g, Gamma, sector, and the offset m0 and width
delta0 of a Gaussian initial state) with hypothesis when it is installed,
with a seeded numpy generator otherwise.
"""

import numpy as np
import pytest

from magdot.model import ModelParams

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # seeded numpy draws instead
    given = None

# The reference parameter sets of the two figure runs.  The bath cutoff is
# physically irrelevant for these figures (it only rescales rates by
# exp(-|w|/Gamma) ~ 1); acceptance runs use a large value so that the
# drift/diffusion functions, which carry no cutoff factor, describe the
# master rates without a ~1% systematic lag.
FIG_KW = dict(n_spins=1000, temp_bath=0.65, coupling_j=1.0, debye_cutoff=1e6)


@pytest.fixture(scope="session")
def fig1_params():
    return ModelParams(coupling_g=0.05, **FIG_KW)


@pytest.fixture(scope="session")
def fig2_params():
    return ModelParams(coupling_g=0.0, **FIG_KW)


def small_params(n=150, g=0.05, temp=0.65, **kw):
    kw.setdefault("debye_cutoff", 1e6)
    return ModelParams(n_spins=n, temp_bath=temp, coupling_g=g, **kw)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


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
    return 1.0 / (p.gamma * abs(p.coupling_j - p.temp_bath))


def dense_generator(up, down):
    return np.diag(-(up + down)) + np.diag(up[:-1], -1) + np.diag(down[1:], 1)
