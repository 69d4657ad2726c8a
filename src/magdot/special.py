"""Error functions on floats and numpy arrays, from the standard library's
`math.erfc` so that the oracles that run in every measurement stay off
scipy; the Bernoulli function x/(e^x - 1) that the bath spectrum and the
Fokker-Planck face fluxes share; and the 15-point Gauss-Legendre rule that
the bath kernel and the exact characteristics share."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["GL15_W", "GL15_X", "bernoulli", "erf", "erfc"]

# 15-point Gauss-Legendre rule on [-1, 1]: numpy.polynomial.legendre.leggauss(15)
# to the bit (a test compares them), written out so that importing magdot
# does not load numpy.polynomial
GL15_X = np.array([
    -0.9879925180204854, -0.9372733924007058, -0.8482065834104272,
    -0.7244177313601701, -0.5709721726085388, -0.3941513470775634,
    -0.20119409399743451, 0.0, 0.20119409399743451, 0.3941513470775634,
    0.5709721726085388, 0.7244177313601701, 0.8482065834104272,
    0.9372733924007058, 0.9879925180204854,
])
GL15_W = np.array([
    0.030753241996117203, 0.0703660474881084, 0.10715922046717141,
    0.13957067792615444, 0.16626920581699398, 0.1861610000155622,
    0.1984314853271116, 0.2025782419255613, 0.1984314853271116,
    0.1861610000155622, 0.16626920581699398, 0.13957067792615444,
    0.10715922046717141, 0.0703660474881084, 0.030753241996117203,
])


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


def erf(x):
    return 1.0 - erfc(x)
