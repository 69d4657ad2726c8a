"""Error functions on floats and numpy arrays, from the standard library's
`math.erfc`, so that the oracles that run in every measurement stay off
scipy."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["erf", "erfc"]


def erfc(x):
    """erfc(x) for a float, or elementwise for an ndarray."""
    if isinstance(x, np.ndarray):
        return np.array([math.erfc(float(v)) for v in x.ravel()]).reshape(x.shape)
    return math.erfc(float(x))


def erf(x):
    return 1.0 - erfc(x)
