import math

import numpy as np
import pytest
from scipy.integrate import quad

from magdot.special import bernoulli, erfc


def erfc_quadrature(x: float) -> float:
    """Direct quadrature of the defining integral, written as
    (2/sqrt(pi)) e^{-x^2} int_0^inf e^{-2xu-u^2} du to avoid underflow."""
    val, _ = quad(lambda u: math.exp(-2.0 * x * u - u * u), 0.0, np.inf,
                  epsabs=1e-16, epsrel=1e-13, limit=200)
    return 2.0 / math.sqrt(math.pi) * math.exp(-x * x) * val


def test_against_quadrature_oracle():
    xs = np.linspace(0.0, 6.0, 241)
    worst = max(abs(erfc(float(x)) / erfc_quadrature(float(x)) - 1.0) for x in xs)
    assert worst < 1e-12


def test_anchor_values():
    assert erfc(0.0) == 1.0
    assert erfc(1.0) == pytest.approx(0.15729920705028513, rel=1e-13)


def test_reflection_identity():
    for x in (0.1, 0.77, 1.3, 2.5, 4.0):
        assert erfc(x) + erfc(-x) == pytest.approx(2.0, abs=1e-15)


def test_monotone_decreasing():
    xs = np.linspace(-3, 6, 181)
    vals = [erfc(float(x)) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_array_input():
    xs = np.array([0.0, 1.0, 2.0])
    out = erfc(xs)
    assert out.shape == xs.shape
    assert out[1] == erfc(1.0)


def test_bernoulli_series_and_limits():
    # below |x| = 1e-8 the x^2/12 term is under half an ulp of 1 - x/2, so
    # the series gives the bits of the two-term one the bath spectrum used
    x = np.random.default_rng(7).uniform(-1e-8, 1e-8, 40_000)
    assert np.array_equal(bernoulli(x), 1.0 - x / 2.0)
    big = np.array([-800.0, -30.0, 0.0, 1e-3, 30.0, 709.0, 710.0, 1e5])
    with np.errstate(all="raise"):
        got = bernoulli(big)
    want = [800.0, 30.0 / -math.expm1(-30.0), 1.0, 1e-3 / math.expm1(1e-3),
            30.0 / math.expm1(30.0), 709.0 / math.expm1(709.0), 0.0, 0.0]
    assert got.tolist() == want
