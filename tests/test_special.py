import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from magdot.special import GL15_W, GL15_X, K31_W, K31_X, bernoulli, erfc


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
    assert erfc(1.0) == pytest.approx(0.15729920705028513, rel=1e-13, abs=0.0)


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


def kronrod31_mpmath(mpmath, dps=60):
    """Nodes and weights of the 31-point Gauss-Kronrod rule on [-1, 1] to
    `dps` digits (worked 40 digits above that, for the monomial system),
    derived without the constants under test.  The Kronrod
    nodes are the roots of the Stieltjes polynomial E_16: monic, even, and
    orthogonal under the weight P_15 to every polynomial of degree < 16.  In
    y = x^2 it is y^8 + a_7 y^7 + ... + a_0, and its coefficients solve
    int P_15 E_16 x^j = 0 for odd j < 16, whose entries are exact rationals.
    The weights make the rule integrate P_0 ... P_30 exactly."""
    p15 = {15 - 2 * k: Fraction((-1) ** k * math.comb(15, k) * math.comb(30 - 2 * k, 15),
                                2**15) for k in range(8)}

    def moment(m):  # int_{-1}^{1} x^m P_15(x) dx
        return sum(c * Fraction(2, j + m + 1) for j, c in p15.items() if (j + m) % 2 == 0)

    with mpmath.workdps(dps + 40):
        mpf = lambda f: mpmath.mpf(f.numerator) / f.denominator
        odd = range(1, 16, 2)
        a = mpmath.lu_solve(mpmath.matrix([[mpf(moment(2 * i + j)) for i in range(8)]
                                           for j in odd]),
                            mpmath.matrix([-mpf(moment(16 + j)) for j in odd]))
        kronrod = mpmath.polyroots([1] + [a[i] for i in reversed(range(8))],
                                   maxsteps=500, extraprec=400)
        gauss = mpmath.polyroots([mpf(p15[j]) for j in range(15, 0, -2)],
                                 maxsteps=500, extraprec=400)
        half = sorted(mpmath.sqrt(mpmath.re(y)) for y in list(kronrod) + list(gauss))
        x = [-v for v in reversed(half)] + [mpmath.mpf(0)] + half
        w = mpmath.lu_solve(mpmath.matrix([[mpmath.legendre(k, xi) for xi in x]
                                           for k in range(31)]),
                            mpmath.matrix([2] + [0] * 30))
        return [float(v) for v in x], [float(v) for v in w]


def test_kronrod_rule_against_mpmath_derivation():
    # float() of an mpf rounds correctly, so the 16 Kronrod nodes and the 31
    # weights must match to the bit; the 15 Gauss nodes are numpy's leggauss
    # values, two of which sit 1 ulp from the correctly rounded roots
    mpmath = pytest.importorskip("mpmath")
    x, w = kronrod31_mpmath(mpmath)
    assert K31_X[0::2].tolist() == x[0::2]
    assert K31_W.tolist() == w
    gauss = np.array(x[1::2])
    assert np.all(np.abs(K31_X[1::2] - gauss) <= np.spacing(np.abs(gauss)))


def test_kronrod_rule_embeds_gl15():
    assert K31_X[1::2].tobytes() == np.polynomial.legendre.leggauss(15)[0].tobytes()
    assert np.all(np.diff(K31_X) > 0)


def test_kronrod_rule_integrates_legendre_through_degree_46():
    # measured worst 3.3e-16; P_48 is off by 1.2e-3, so degree 47 is the last
    # exact one (P_47, being odd, vanishes by symmetry); G15 fails at P_30
    legendre = np.polynomial.legendre
    for k in range(47):
        p_k = legendre.legval(K31_X, [0] * k + [1])
        assert abs(K31_W @ p_k - (2.0 if k == 0 else 0.0)) <= 1e-15
    assert abs(K31_W @ legendre.legval(K31_X, [0] * 48 + [1])) > 1e-4
    assert abs(GL15_W @ legendre.legval(GL15_X, [0] * 30 + [1])) > 1e-2
