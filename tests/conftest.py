"""Shared fixtures, parameter sets and the random-parameter decorator.

`random_params` draws (N, T, |g|, Gamma, the spin state that signs g, and
the offset m0 and width delta0 of a Gaussian initial state) with hypothesis,
derandomized, so that every run draws the same cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magdot.model import ModelParams

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


def _signed(sector, coupling_g, **kw):
    """ModelParams with g signed by the drawn spin state: +|g| up, -|g| down."""
    return ModelParams(coupling_g=coupling_g if sector == "up" else -coupling_g, **kw)


def random_params(test):
    """Run test(params) over random model parameters, both signs of g, T < J and T > J."""
    params = st.builds(
        _signed,
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


def relax_time(p):
    """theta for T < J, the paramagnetic relaxation time for T > J."""
    return 1.0 / (p.gamma * abs(p.coupling_j - p.temp_bath))


def dense_generator(up, down):
    return np.diag(-(up + down)) + np.diag(up[:-1], -1) + np.diag(down[1:], 1)
