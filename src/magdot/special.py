"""The complementary error function on floats and numpy arrays, from the
standard library's `math.erfc` so that the oracles that run in every
measurement stay off scipy; the Bernoulli function x/(e^x - 1) that the
bath spectrum and the Fokker-Planck face fluxes share; the 15-point
Gauss-Legendre rule that the exact characteristics use; and its 31-point
Kronrod extension, the nested pair with which the bath kernel integrates
and estimates its error in one pass; and the Poisson weights from which the
integrator cuts its windows and the jump-process sampler its hazards."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["GL15_W", "GL15_X", "K31_W", "K31_X", "bernoulli", "erfc", "poisson_weights"]

# 15-point Gauss-Legendre weights on [-1, 1]; the nodes GL15_X follow K31_X
GL15_W = np.array([
    0.030753241996117203, 0.0703660474881084, 0.10715922046717141,
    0.13957067792615444, 0.16626920581699398, 0.1861610000155622,
    0.1984314853271116, 0.2025782419255613, 0.1984314853271116,
    0.1861610000155622, 0.16626920581699398, 0.13957067792615444,
    0.10715922046717141, 0.0703660474881084, 0.030753241996117203,
])

# 31-point Gauss-Kronrod rule on [-1, 1] (Piessens et al., QUADPACK 1983):
# the 15 nodes at odd indices are the Gauss nodes; the 16 Kronrod nodes,
# the roots of the Stieltjes polynomial E_16, and all 31 weights are the
# correctly rounded values of a 60-digit mpmath derivation (a test derives
# them again).  Exact for polynomials of degree 47; K31 - G15 on a panel is
# the error estimate of the G15 value, and so a pessimistic one of K31.
K31_X = np.array([
    -0.9980022986933971, -0.9879925180204854, -0.9677390756791391,
    -0.9372733924007058, -0.8972645323440819, -0.8482065834104272,
    -0.790418501442466, -0.7244177313601701, -0.650996741297417,
    -0.5709721726085388, -0.4850818636402397, -0.3941513470775634,
    -0.29918000715316884, -0.20119409399743451, -0.1011420669187175, 0.0,
    0.1011420669187175, 0.20119409399743451, 0.29918000715316884,
    0.3941513470775634, 0.4850818636402397, 0.5709721726085388,
    0.650996741297417, 0.7244177313601701, 0.790418501442466,
    0.8482065834104272, 0.8972645323440819, 0.9372733924007058,
    0.9677390756791391, 0.9879925180204854, 0.9980022986933971,
])
K31_W = np.array([
    0.005377479872923349, 0.015007947329316122, 0.02546084732671532,
    0.03534636079137585, 0.04458975132476488, 0.05348152469092809,
    0.06200956780067064, 0.06985412131872826, 0.07684968075772038,
    0.08308050282313302, 0.08856444305621176, 0.09312659817082532,
    0.09664272698362368, 0.09917359872179196, 0.10076984552387559,
    0.10133000701479154, 0.10076984552387559, 0.09917359872179196,
    0.09664272698362368, 0.09312659817082532, 0.08856444305621176,
    0.08308050282313302, 0.07684968075772038, 0.06985412131872826,
    0.06200956780067064, 0.05348152469092809, 0.04458975132476488,
    0.03534636079137585, 0.02546084732671532, 0.015007947329316122,
    0.005377479872923349,
])

# the Gauss nodes, numpy.polynomial.legendre.leggauss(15) to the bit (a test
# compares them), so that importing magdot does not load numpy.polynomial
GL15_X = K31_X[1::2]


def bernoulli(x):
    """B(x) = x / (e^x - 1), series through the origin; an overflowing
    expm1 gives the correct limit 0 without a warning."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-8
    xs = np.where(small, 1.0, x)
    with np.errstate(over="ignore"):
        return np.where(small, 1.0 - 0.5 * x + x * x / 12.0, xs / np.expm1(xs))


def erfc(x):
    """erfc(x) for a float, or elementwise for an ndarray."""
    if isinstance(x, np.ndarray):
        return np.array([math.erfc(float(v)) for v in x.ravel()]).reshape(x.shape)
    return math.erfc(float(x))


def poisson_weights(x: float, lo: int, nats: float) -> np.ndarray:
    """Poisson(x) weights of the counts lo..R, scaled to 1 at the mode floor(x).

    Fox & Glynn (1988): the weights are built outward from the mode by the
    ratios w[k+1] = w[k] x/(k+1) and w[k-1] = w[k] k/x, so no intermediate
    is far from 1 and none needs a factorial.  They reach R = x + d, where
    the Bernstein bound P(X >= x + d) <= exp(-d^2 / (2 (x + d/3))) is
    e^-nats.  lo is at most floor(x).
    """
    d = nats / 3.0 + math.sqrt(nats * nats / 9.0 + 2.0 * x * nats)
    hi = math.ceil(x + d)
    mode = int(x)
    w = np.empty(hi - lo + 1)
    c = mode - lo
    w[c] = 1.0
    w[c + 1:] = np.cumprod(x / np.arange(mode + 1, hi + 1.0))
    w[:c] = np.cumprod(np.arange(mode, lo, -1.0) / x)[::-1]
    return w
