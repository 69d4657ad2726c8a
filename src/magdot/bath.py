"""Phonon bath spectral function and its finite-time windowed transform.

hbar = 1: times are in hbar/J and frequencies in J/hbar.  The bath enters
the magnet dynamics only through

    Ktilde(w)   = (hbar^2 w / 4) exp(-|w|/Gamma) / (exp(hbar w / T) - 1)
    Ktilde_t(w) = int dw' Ktilde(w') sin((w'-w) t) / (pi (w'-w))

The windowed form is the finite-time Fourier integral of the closed-form
autocorrelation K(s), K(-s) = conj K(s):

    Ktilde_t(w) = int_{-t}^{t} e^{-iws} K(s) ds
                = 2 int_0^t [cos(ws) Re K(s) + sin(ws) Im K(s)] ds.

K is a trigamma pair, (T^2/8 pi) [psi'(1 + conj z) + psi'(z)] with
z = T/(hbar Gamma) + i s T/hbar.  The recurrence psi'(z) = psi'(1 + z) + 1/z^2
and the conjugation psi'(conj z) = conj psi'(z) make it one trigamma, always
at Re >= 1:

    K(s) = (T^2/8 pi) [2 Re psi'(1 + z) + 1/z^2],

so Im K = (T^2/8 pi) Im z^-2 is exact and only Re K needs psi'.  Tests check
K against a 40-digit mpmath evaluation of the pair.

The windowed integral is evaluated by a composite Gauss-Kronrod pair in
time, the 31-point Kronrod rule and the 15-point Gauss rule it embeds, with
one set of K(s) values shared by a whole array of frequencies.  A frequency
is accepted when the K31 value agrees with its embedded G15 value.  K is
analytic off the imaginary axis and its nearest pole sits at s = i/Gamma,
so panels double in width away from s = 0.  Tests check the result against
an independent scipy `quad` of the same integral.

A `WindowedKernel` carries (t, Ktilde_t) for fixed frequencies and adds only
the slice [t_prev, t] when read at a later t, so a run that reads the kernel
at ascending times integrates [0, t] once, not once per reading.  Its
Ktilde_t is the sum of its slices; each slice meets `tol` on its own, so the
error estimate of Ktilde_t is the sum of the slices' estimates.
`windowed_spectral` is one slice [0, t].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import GL15_W, K31_W, K31_X, bernoulli

__all__ = [
    "KernelSpec",
    "KernelConvergenceError",
    "spectral_density",
    "windowed_spectral",
    "WindowedKernel",
    "autocorrelation",
]

_NODE_CHUNK = 32768  # cap on simultaneous frequency x node products (256 kB each array)
_MAX_NODES = 1 << 20  # node budget of one window slice


class KernelConvergenceError(RuntimeError):
    """Node budget exhausted before the requested tolerance was reached."""


@dataclass(frozen=True)
class KernelSpec:
    temp_bath: float
    debye_cutoff: float

    def __post_init__(self):
        for name in ("temp_bath", "debye_cutoff"):
            value = getattr(self, name)
            if not (0 < value < math.inf):
                raise ValueError(f"{name} must be positive and finite, got {value}")


def spectral_density(spec: KernelSpec, omega):
    """Ktilde(w); the w = 0 value is the continuous limit hbar*T/4.

    Nonnegative for all real w: numerator and denominator flip sign together.
    """
    w = np.asarray(omega, dtype=float)
    t, cut = spec.temp_bath, spec.debye_cutoff
    # w/(e^(w/T) - 1) = T B(w/T)
    out = 0.25 * t * bernoulli(w / t) * np.exp(-np.abs(w) / cut)
    return out if out.ndim else float(out)


def _window_integral(spec, omega, edges):
    """2 int [cos(ws) Re K(s) + sin(ws) Im K(s)] ds over the span of `edges`
    by K31 on each panel, and |K31 - G15| of that sum, for each frequency.

    K(s) is evaluated once per node and shared by every frequency; the
    frequency x node products are formed at most _NODE_CHUNK at a time.
    Each weight vector gets its own matrix-vector products: one product
    with both as columns rounds the K31 sum worse, and took the Gamma = 1e6,
    tol = 1e-10 oracle test to 1.08 of its tolerance (0.35 this way).
    """
    less_g15 = K31_W.copy()
    less_g15[1::2] -= GL15_W  # K31 - G15, which has no weight at the Kronrod nodes
    half = 0.5 * np.diff(edges)
    s = ((edges[:-1] + half)[:, None] + half[:, None] * K31_X).ravel()
    weights = [2.0 * (half[:, None] * w).ravel() for w in (K31_W, less_g15)]
    out = np.zeros((2, omega.size))
    step = max(1, _NODE_CHUNK // omega.size)
    for i in range(0, s.size, step):
        k = autocorrelation(spec, s[i:i + step])
        phase = np.outer(omega, s[i:i + step])
        cos, sin = np.cos(phase), np.sin(phase)
        for row, wt in zip(out, weights):
            kw = wt[i:i + step] * k
            row += cos @ kw.real + sin @ kw.imag
    return out[0], np.abs(out[1])


class WindowedKernel:
    """Ktilde_t(omega) for a fixed array of frequencies, accumulated over
    ascending t.

    Ktilde_t2 = Ktilde_t1 + 2 int_t1^t2 [cos(ws) Re K + sin(ws) Im K] ds, so
    `at(t)` integrates only the slice [t_prev, t] since the previous call and
    adds it on; a t below the previous one is ValueError.  Every slice is cut
    from one global panel mesh on [0, inf): it doubles from 1/Gamma (the
    distance of K's nearest pole from the real axis) up to about hbar/T, then
    stays uniform, no wider than min(hbar/2T, pi/max|omega|).  The slice's
    panels are bisected until, for each omega, the K31 value agrees with its
    embedded G15 value to `tol` relative to max(|Ktilde(omega)|, hbar*T/4),
    so the error estimate of Ktilde_t is the sum of its slices' estimates;
    only the frequencies that have not agreed go on to the bisected mesh.  A
    slice raises KernelConvergenceError, and leaves the kernel at t_prev,
    before evaluating a mesh of more than _MAX_NODES nodes.  A target below
    eps Gamma/8 pi, the rounding of the sum near s = 0, is ValueError.
    """

    def __init__(self, spec: KernelSpec, omega, tol: float = 1e-8):
        if not (0.0 < tol <= 1e-2):
            raise ValueError("tol must lie in (0, 1e-2]")
        w = np.asarray(omega, dtype=float)
        self.spec, self.tol, self.t = spec, tol, 0.0
        self._shape, self._omega = w.shape, w.ravel()
        self._value = np.zeros(self._omega.size)
        if self._omega.size:
            temp, cut = spec.temp_bath, spec.debye_cutoff
            self._target = tol * np.maximum(np.abs(spectral_density(spec, self._omega)),
                                            0.25 * temp)
            # near s = 0, 2 Re K ~ Re (1/4 pi) (1/Gamma + is)^-2 carries the
            # K31 sum up to int_0^(1/Gamma) 2 Re K ds = Gamma/8 pi before it
            # cancels to O(1), so no sum rounds better than eps Gamma/8 pi
            floor = np.finfo(float).eps * cut / (8.0 * math.pi)
            if self._target.min() < floor:
                raise ValueError(
                    f"kernel tol {tol:.1e} asks for {self._target.min():.2e}, below the "
                    f"rounding floor eps*Gamma/(8 pi) = {floor:.2e} of the quadrature "
                    f"sum at Gamma = {cut:.3g}")
            self._width = min(0.5 / temp,
                              math.pi / max(np.abs(self._omega).max(), 1e-300))
            top = 2.0 * self._width
            geo = 2.0 ** np.arange(max(math.floor(math.log2(top * cut)) + 1, 0)) / cut
            self._geo = np.concatenate([[0.0], geo[geo <= top]])

    def at(self, t: float):
        """Ktilde_t(omega), shaped like omega (a float for a scalar omega)."""
        if t < 0:
            raise ValueError("t must be nonnegative")
        if t < self.t:
            raise ValueError(f"t = {t:.6g} lies below the last window t = {self.t:.6g}")
        if t > self.t and self._omega.size:
            self._value += self._slice(self.t, t)
        self.t = float(t)
        out = self._value.reshape(self._shape)
        return out.copy() if out.ndim else float(out)

    def _edges(self, a: float, b: float) -> np.ndarray:
        """Edges of the global mesh inside (a, b), between a and b."""
        geo, width = self._geo, self._width
        start = geo[-1]
        j = np.arange(max(math.floor((a - start) / width), 0) + 1,
                      math.ceil((b - start) / width))
        inner = np.concatenate([geo, start + width * j])
        return np.concatenate([[a], inner[(inner > a) & (inner < b)], [b]])

    def _slice(self, a: float, b: float) -> np.ndarray:
        """2 int_a^b [cos(ws) Re K + sin(ws) Im K] ds for every omega."""
        out = np.empty(self._omega.size)
        edges = self._edges(a, b)
        todo = np.arange(self._omega.size)
        while True:
            if K31_X.size * (edges.size - 1) > _MAX_NODES:
                raise KernelConvergenceError(
                    f"windowed kernel quadrature needs more than {_MAX_NODES} nodes "
                    f"for {todo.size} frequencies on [{a:.6g}, {b:.6g}] (tol {self.tol:.1e}, "
                    f"Gamma*t = {self.spec.debye_cutoff * b:.3g})")
            value, err = _window_integral(self.spec, self._omega[todo], edges)
            ok = err <= self._target[todo]
            out[todo[ok]] = value[ok]
            todo = todo[~ok]
            if not todo.size:
                return out
            fine = np.empty(2 * edges.size - 1)
            fine[0::2] = edges
            fine[1::2] = 0.5 * (edges[:-1] + edges[1:])
            edges = fine


def windowed_spectral(spec: KernelSpec, omega, t: float, tol: float = 1e-8):
    """Ktilde_t(omega): the spectral function seen through a time window [-t, t].

    Equals 0 at t = 0 and converges to spectral_density(omega) for
    t >> max(hbar/T, 1/Gamma).  A scalar omega gives a float, an array an
    array of the same shape.  One slice [0, t] of a `WindowedKernel`, with
    its mesh, its KernelConvergenceError and its tolerance: for each omega
    the K31 value agrees with its embedded G15 value to `tol`.  So `tol`
    bounds the error estimate once here, where a kernel read at k ascending
    times sums k slice estimates.
    """
    return WindowedKernel(spec, omega, tol).at(t)


# -- closed-form autocorrelation ------------------------------------------

_BERNOULLI = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730, 7.0 / 6)


def _trigamma(z):
    """psi'(z) for complex arrays, Re z >= 1: 16 recurrence steps, then the
    asymptotic series (|z + 16| >= 17)."""
    z = np.asarray(z, dtype=complex)
    out = np.zeros_like(z)
    zz = z.copy()
    for _ in range(16):  # psi'(z) = 1/z^2 + psi'(z + 1); no (nodes x 16) temporary
        out += 1.0 / (zz * zz)
        zz += 1.0
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

    K(s) = (T^2/8 pi) [2 Re psi'(1 + z) + 1/z^2] with z = T/(hbar Gamma)
    + i s T/hbar: the trigamma pair of the module docstring as one trigamma.
    """
    s = np.asarray(s, dtype=float)
    t, cut = spec.temp_bath, spec.debye_cutoff
    z = t / cut + 1j * (s * t)
    val = (t * t / (8.0 * math.pi)) * (2.0 * _trigamma(1.0 + z).real + 1.0 / (z * z))
    return val if val.ndim else complex(val)
