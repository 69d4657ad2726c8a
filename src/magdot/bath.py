"""Phonon bath spectral function and its finite-time windowed transform.

The bath enters the magnet dynamics only through

    Ktilde(w)   = (hbar^2 w / 4) exp(-|w|/Gamma) / (exp(hbar w / T) - 1)
    Ktilde_t(w) = int dw' Ktilde(w') sin((w'-w) t) / (pi (w'-w))

The windowed form is the finite-time Fourier integral of the closed-form
autocorrelation K(s) (a trigamma pair, K(-s) = conj K(s)):

    Ktilde_t(w) = int_{-t}^{t} e^{-iws} K(s) ds
                = 2 int_0^t [cos(ws) Re K(s) + sin(ws) Im K(s)] ds,

evaluated by composite Gauss-Legendre quadrature in time, with one set of
K(s) values shared by a whole array of frequencies.  K is analytic off the
imaginary axis and its nearest pole sits at s = i/Gamma, so panels double
in width away from s = 0.  Tests check the result against an independent
scipy `quad` of the same integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "KernelSpec",
    "KernelConvergenceError",
    "spectral_density",
    "windowed_spectral",
    "autocorrelation",
]

_GL15_X, _GL15_W = leggauss(15)

_NODE_CHUNK = 32768  # cap on simultaneous frequency x node products (256 kB each array)
_MAX_NODES = 1 << 20  # node budget of one windowed transform


class KernelConvergenceError(RuntimeError):
    """Node budget exhausted before the requested tolerance was reached."""


@dataclass(frozen=True)
class KernelSpec:
    temp_bath: float
    debye_cutoff: float
    hbar: float = 1.0

    def __post_init__(self):
        if self.temp_bath <= 0:
            raise ValueError("temp_bath must be positive")
        if self.debye_cutoff <= 0:
            raise ValueError("debye_cutoff must be positive")


def spectral_density(spec: KernelSpec, omega):
    """Ktilde(w); the w = 0 value is the continuous limit hbar*T/4.

    Nonnegative for all real w: numerator and denominator flip sign together.
    """
    w = np.asarray(omega, dtype=float)
    hb, t, cut = spec.hbar, spec.temp_bath, spec.debye_cutoff
    x = hb * w / t
    small = np.abs(x) < 1e-8
    xs = np.where(small, 1.0, x)
    # w/(e^x - 1) = (T/hbar) * x/expm1(x); overflow in expm1 gives 0, correct
    with np.errstate(over="ignore"):
        ratio = np.where(small, 1.0 - x / 2.0, xs / np.expm1(xs))
    out = 0.25 * hb * t * ratio * np.exp(-np.abs(w) / cut)
    return out if out.ndim else float(out)


def _window_integral(spec, omega, edges):
    """2 int_0^t [cos(ws) Re K(s) + sin(ws) Im K(s)] ds by GL15 on each panel.

    K(s) is evaluated once per node and shared by every frequency; the
    frequency x node products are formed at most _NODE_CHUNK at a time.
    """
    half = 0.5 * np.diff(edges)
    s = ((edges[:-1] + half)[:, None] + half[:, None] * _GL15_X).ravel()
    wt = 2.0 * (half[:, None] * _GL15_W).ravel()
    out = np.zeros(omega.size)
    step = max(1, _NODE_CHUNK // omega.size)
    for i in range(0, s.size, step):
        k = wt[i:i + step] * autocorrelation(spec, s[i:i + step])
        phase = np.outer(omega, s[i:i + step])
        out += np.cos(phase) @ k.real + np.sin(phase) @ k.imag
    return out


def windowed_spectral(spec: KernelSpec, omega, t: float, tol: float = 1e-8):
    """Ktilde_t(omega): the spectral function seen through a time window [-t, t].

    Equals 0 at t = 0 and converges to spectral_density(omega) for
    t >> max(hbar/T, 1/Gamma).  A scalar omega gives a float, an array an
    array of the same shape.  The panel mesh on [0, t] doubles from 1/Gamma
    (the distance of K's nearest pole from the real axis) up to hbar/T, then
    stays uniform, no wider than min(hbar/2T, pi/max|omega|).  The mesh is
    bisected until, for each omega, two successive meshes agree to `tol`
    relative to max(|Ktilde(omega)|, hbar*T/4); raises KernelConvergenceError
    before evaluating a mesh of more than _MAX_NODES nodes.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if not (0.0 < tol <= 1e-2):
        raise ValueError("tol must lie in (0, 1e-2]")
    w = np.asarray(omega, dtype=float)
    flat = w.ravel()
    out = np.zeros(flat.size)
    if t > 0.0 and flat.size:
        hb, temp, cut = spec.hbar, spec.temp_bath, spec.debye_cutoff
        target = tol * np.maximum(np.abs(spectral_density(spec, flat)), 0.25 * hb * temp)
        width = min(0.5 * hb / temp, math.pi / max(np.abs(flat).max(), 1e-300))
        top = min(t, 2.0 * width)
        geo = 2.0 ** np.arange(max(math.floor(math.log2(top * cut)) + 1, 0)) / cut
        geo = geo[geo <= top]
        start = geo[-1] if geo.size else 0.0
        edges = np.concatenate([[0.0], geo, np.linspace(
            start, t, math.ceil((t - start) / width) + 1)[1:]])
        todo, coarse = np.arange(flat.size), None
        while todo.size:
            if _GL15_X.size * (edges.size - 1) > _MAX_NODES:
                raise KernelConvergenceError(
                    f"windowed kernel quadrature needs more than {_MAX_NODES} nodes "
                    f"for {todo.size} frequencies (tol {tol:.1e}, Gamma*t = {cut * t:.3g})")
            fine = _window_integral(spec, flat[todo], edges)
            if coarse is not None:
                ok = np.abs(fine - coarse) <= target[todo]
                out[todo[ok]] = fine[ok]
                todo, fine = todo[~ok], fine[~ok]
            coarse = fine
            edges = np.insert(edges, np.arange(1, edges.size), 0.5 * (edges[:-1] + edges[1:]))
    return out.reshape(w.shape) if w.ndim else float(out[0])


# -- closed-form autocorrelation ------------------------------------------

_BERNOULLI = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730, 7.0 / 6)


def _trigamma(z):
    """psi'(z) for complex arrays, Re z > 0: recurrence + asymptotic series."""
    z = np.asarray(z, dtype=complex)
    out = np.zeros_like(z)
    zz = z.copy()
    for _ in range(32):  # push |z| beyond 16 for the asymptotic tail
        mask = np.abs(zz) < 16.0
        if not mask.any():
            break
        out[mask] += 1.0 / zz[mask] ** 2
        zz[mask] += 1.0
    inv = 1.0 / zz
    inv2 = inv * inv
    tail = inv + 0.5 * inv2
    term = inv2
    for b2k in _BERNOULLI:
        term = term * inv2
        tail += b2k * term * zz  # B_2k / z^(2k+1)
    return out + tail


def autocorrelation(spec: KernelSpec, s):
    """Bath autocorrelation K(s) (complex; K(-s) = conj(K(s))).

    Closed form: K(s) = (T^2/8 pi) [psi'(1 + c - i tau) + psi'(c + i tau)]
    with c = T/(hbar Gamma) and tau = s T / hbar.
    """
    s = np.asarray(s, dtype=float)
    t, hb, cut = spec.temp_bath, spec.hbar, spec.debye_cutoff
    c = t / (hb * cut)
    tau = s * t / hb
    val = (t * t / (8.0 * math.pi)) * (
        _trigamma(1.0 + c - 1j * tau) + _trigamma(c + 1j * tau)
    )
    return val if val.ndim else complex(val)
