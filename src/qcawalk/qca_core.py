"""One-dimensional QCA: coefficient validation, taxonomy, and banded steps.

The single step operator is a band-4 unitary acting on the whole integer
lattice.  Its row pattern, pinned once here and used everywhere:

    out[2k]   = a*in[2k-1] + b*in[2k] + c*in[2k+1] + d*in[2k+2]
    out[2k+1] = d*in[2k-1] + c*in[2k] + b*in[2k+1] + a*in[2k+2]
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .amplitudes import AmplitudeField, Distribution, _sq_modulus, to_distribution

__all__ = [
    "RESIDUAL_TOLERANCE",
    "AngleTriple",
    "QcaParams",
    "QcaTypeClass",
    "unitarity_residuals",
    "classify",
    "params_from_angles",
    "qca_step",
    "evolve_eta",
    "qca_distribution",
    "normalized_qubit",
]

# The one tolerance of every check: unitarity residuals, the zero test of
# ``classify``, sample mass totals and the pass threshold of ``verify``.
RESIDUAL_TOLERANCE = 1e-12
TWO_PI = 2.0 * math.pi


def _reduced_phase(name: str, value: float) -> float:
    """An angle reduced mod 2*pi; non-finite values are rejected."""
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"non-finite angle {name}={v!r}")
    return v % TWO_PI


def _abs_sq(z: complex) -> float:
    """``abs(z) ** 2``, or inf where it overflows (a float power raises there)."""
    try:
        return abs(z) ** 2
    except OverflowError:
        return math.inf


def unitarity_residuals(
    a: complex, b: complex, c: complex, d: complex
) -> tuple[float, float, float, float, float]:
    """Magnitudes of the five constraints the banded step must satisfy.

    All five vanish exactly when the step operator built from (a, b, c, d)
    is unitary.
    """
    a, b, c, d = complex(a), complex(b), complex(c), complex(d)
    r1 = abs(_abs_sq(a) + _abs_sq(b) + _abs_sq(c) + _abs_sq(d) - 1.0)
    r2 = abs(a * d.conjugate() + a.conjugate() * d + b * c.conjugate() + b.conjugate() * c)
    r3 = abs(a * c.conjugate() + b * d.conjugate())
    r4 = abs(a * b.conjugate() + a.conjugate() * b)
    r5 = abs(c * d.conjugate() + c.conjugate() * d)
    return (r1, r2, r3, r4, r5)


@dataclass(frozen=True)
class QcaParams:
    """Validated coefficient tuple of the banded step operator.

    Construction rejects tuples whose unitarity residuals exceed
    ``RESIDUAL_TOLERANCE``.
    """

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            z = complex(getattr(self, name))
            if not cmath.isfinite(z):
                raise ValueError(f"non-finite coefficient {name}={z!r}")
            object.__setattr__(self, name, z)
        residuals = unitarity_residuals(self.a, self.b, self.c, self.d)
        worst = max(residuals)
        if worst > RESIDUAL_TOLERANCE:
            raise ValueError(
                f"coefficients fail unitarity (max residual {worst:.3e}): "
                f"({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"
            )

    def astuple(self) -> tuple[complex, complex, complex, complex]:
        return (self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class AngleTriple:
    """Angle parameters generating a valid coefficient tuple; stored mod 2*pi."""

    theta: float
    phi: float
    delta: float

    def __post_init__(self):
        for name in ("theta", "phi", "delta"):
            object.__setattr__(self, name, _reduced_phase(name, getattr(self, name)))


class QcaTypeClass(Enum):
    """Exhaustive taxonomy of validated coefficient tuples."""

    TRIVIAL_A = "TrivialA"
    TRIVIAL_B = "TrivialB"
    TRIVIAL_C = "TrivialC"
    TRIVIAL_D = "TrivialD"
    TYPE_I = "TypeI"
    TYPE_II = "TypeII"
    TYPE_III = "TypeIII"
    TYPE_IV = "TypeIV"
    TYPE_V = "TypeV"


# The coefficients each class leaves nonzero, smallest set first.
_NONZERO = {
    QcaTypeClass.TRIVIAL_A: "a",
    QcaTypeClass.TRIVIAL_B: "b",
    QcaTypeClass.TRIVIAL_C: "c",
    QcaTypeClass.TRIVIAL_D: "d",
    QcaTypeClass.TYPE_I: "bc",
    QcaTypeClass.TYPE_II: "ab",
    QcaTypeClass.TYPE_III: "cd",
    QcaTypeClass.TYPE_IV: "ad",
    QcaTypeClass.TYPE_V: "abcd",
}


def classify(params: QcaParams) -> QcaTypeClass:
    """Taxonomy tag of a validated tuple: the smallest class holding its nonzeros.

    Coefficients below ``RESIDUAL_TOLERANCE`` in modulus count as zero.  A
    tuple with three coefficients above it is Type V, as its exact tuple is:
    unitarity forces the fourth to be tiny, not zero.  No class holds the
    pair {a, c} or {b, d}, and unitarity bounds the product of such a pair
    by the tolerance, so where the nonzeros are exactly such a pair the
    smaller one counts as zero too.
    """
    moduli = dict(zip("abcd", map(abs, params.astuple())))
    nonzero = {name for name, r in moduli.items() if r >= RESIDUAL_TOLERANCE}
    if nonzero in ({"a", "c"}, {"b", "d"}):
        nonzero.remove(min(nonzero, key=moduli.__getitem__))
    return next(tag for tag, held in _NONZERO.items() if nonzero.issubset(held))


def params_from_angles(angles: AngleTriple) -> QcaParams:
    """Coefficient tuple generated by the trigonometric parametrization.

    Every angle triple yields a tuple passing all five unitarity residuals
    up to floating round-off.
    """
    ct, st = math.cos(angles.theta), math.sin(angles.theta)
    cp, sp = math.cos(angles.phi), math.sin(angles.phi)
    phase = complex(math.cos(angles.delta), math.sin(angles.delta))
    return QcaParams(
        phase * (ct * cp),
        -1j * phase * (ct * sp),
        phase * (st * sp),
        1j * phase * (st * cp),
    )


def qca_step(field: AmplitudeField, params: QcaParams) -> AmplitudeField:
    """One application of the banded step operator, run by run."""
    a, b, c, d = params.astuple()
    # row k of the window view is in[2k-1 .. 2k+2]; its columns give out[2k], out[2k+1]
    stencil = np.array([[a, d], [b, c], [c, b], [d, a]], dtype=np.complex128)

    def kernel(lo: int, x: np.ndarray) -> tuple[int, np.ndarray]:
        base = (lo - 2) & ~1            # even-aligned left edge of the output range
        npairs = (lo + x.size + 3 - base) // 2
        # buf[j] holds the input amplitude at site base - 1 + j.
        buf = np.zeros(2 * npairs + 3, dtype=np.complex128)
        buf[lo - base + 1 : lo - base + 1 + x.size] = x
        step = buf.strides[0]
        windows = np.ndarray((npairs, 4), np.complex128, buf, 0, (2 * step, step))
        return base, (windows @ stencil).ravel()

    return field._stepped(kernel)


_I_POWERS = (1, 1j, -1, -1j)


def _fourier_power(n: int, params: QcaParams):
    """Kernel applying ``n`` steps to a start on a ring of 2-site cells in Fourier space.

    On cells (2k, 2k+1) the step is translation-invariant, so ``n`` steps
    multiply the cell transform by ``U(p)**n`` with the symbol
    ``U(p) = [[b + d e^{ip}, c + a e^{-ip}], [c + a e^{ip}, b + d e^{-ip}]]``.
    A validated tuple has ``bd = ac``, so ``det U(p) = s**2 = b**2 + d**2 -
    a**2 - c**2`` for every p, and ``U(p) / s`` is the SU(2) matrix
    ``M = [[alpha, -conj(beta)], [beta, conj(alpha)]]``.  With ``cos w = Re
    alpha``, ``M**n = cos(nw) I + sin(nw) / sin(w) (M - cos(w) I)`` is unitary
    to rounding, so mass holds at any n.  It reads (alpha, beta) only through
    w, ``Im alpha / sin w`` and ``beta / sin w``, which no scaling of (alpha,
    beta) changes: taking ``sin w`` from the same components projects onto
    SU(2) without a normalization.  ``cos w = b/s + (d/s) cos p`` is even in
    p, so the terms in w are taken on p in [0, pi] and mirrored.

    ``kernel(start, ring)`` takes the start's (2, m) cells, the first at
    cell 0 of a ring of any size, and returns the (2, ring) evolved ring.
    The start's transform ``x(p) = sum_j start[:, j] e^{-ipj}`` is formed by
    Horner's rule, so the inverse FFT is the only one.
    """
    a, b, c, d = params.astuple()
    # one arg s for every p, free of a sqrt's rounding and s**n's drift, both n-fold;
    # s = i**k * t with |arg t| <= pi/4 keeps the rounding of n * arg t small,
    # and i**(n * k) is exact
    s_sq = b * b + d * d - a * a - c * c
    k = 1 if s_sq.real < 0 else 0
    half_arg = cmath.phase(-s_sq if k else s_sq) / 2
    s = _I_POWERS[k] * cmath.exp(1j * half_arg)
    phase = _I_POWERS[n * k % 4] * cmath.exp(1j * n * half_arg)
    a, b, c, d = a / s, b / s, c / s, d / s

    def kernel(start: np.ndarray, ring: int) -> np.ndarray:
        from numpy import fft  # loaded on the first jump only

        half = ring // 2 + 1  # p = 2 pi j / ring for j <= ring / 2
        mirror = slice((ring - 1) // 2, 0, -1)  # entry ring - j of the ring is entry j
        e = np.exp(2j * math.pi / ring * np.arange(half))
        e = np.concatenate((e, e[mirror].conj()))
        alpha, beta = b + d * e, c + a * e
        # arctan2, not arccos(Re alpha), keeps w accurate where M is near +-I
        sin_w = np.sqrt(alpha.imag[:half] ** 2 + _sq_modulus(beta[:half]))
        nw = n * np.arctan2(sin_w, alpha.real[:half])
        ratio = np.divide(np.sin(nw), sin_w, out=np.zeros(half), where=sin_w > 0)
        cos_nw, ratio = (np.concatenate((v, v[mirror])) for v in (np.cos(nw), ratio))
        mu, nu = cos_nw + 1j * ratio * alpha.imag, ratio * beta
        x, back = start[:, -1:], e.conj()  # x(p) by Horner's rule in e^{-ip}
        for column in start[:, -2::-1].T:
            x = x * back + column[:, None]
        x0, x1 = phase * x
        out = np.empty((2, ring), np.complex128)
        out[0] = mu * x0 - nu.conj() * x1
        out[1] = nu * x0 + mu.conj() * x1
        return fft.ifft(out)

    return kernel


def _evolve(field: AmplitudeField, n: int, params: QcaParams) -> AmplitudeField:
    """``n`` steps of a start field that spans a few sites.

    Type V tuples take one Fourier jump.  The other classes keep stepping:
    their zeros are structural (confinement, translation), and the jump's
    noise floor would blur them.
    """
    if n < 0:
        raise ValueError(f"step count must be nonnegative, got {n}")
    if n > 0 and classify(params) is QcaTypeClass.TYPE_V:
        return field._jumped(2 * n, _fourier_power(n, params))
    for _ in range(n):
        field = qca_step(field, params)
    return field


def evolve_eta(m: int, n: int, params: QcaParams) -> AmplitudeField:
    """State after ``n`` steps from the basis field concentrated at ``m``."""
    return _evolve(AmplitudeField.delta(m), n, params)


def normalized_qubit(qubit) -> tuple[complex, complex]:
    """Coerce a 2-component amplitude pair, rejecting non-unit norms."""
    alpha, beta = qubit
    alpha, beta = complex(alpha), complex(beta)
    if not (cmath.isfinite(alpha) and cmath.isfinite(beta)):
        raise ValueError(f"non-finite qubit amplitudes ({alpha!r}, {beta!r})")
    norm = _abs_sq(alpha) + _abs_sq(beta)
    if abs(norm - 1.0) > RESIDUAL_TOLERANCE:
        raise ValueError(f"qubit is not normalized: |alpha|^2+|beta|^2 = {norm!r}")
    return alpha, beta


def qca_distribution(
    m: int, sign: str, qubit, n: int, params: QcaParams
) -> Distribution:
    """Site masses of the combination of two neighbouring basis evolutions.

    ``sign`` selects whether the second branch starts at ``m + 1`` or
    ``m - 1``; the combination weights are the qubit amplitudes.  The
    combined start field is evolved once.
    """
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    alpha, beta = normalized_qubit(qubit)
    second = m + (1 if sign == "+" else -1)
    # By linearity this is the combination of the two basis evolutions.
    start = AmplitudeField({m: alpha, second: beta})
    return to_distribution(_evolve(start, n, params))
