"""One-dimensional QCA: coefficient validation, taxonomy, and banded steps.

The single step operator is a band-4 unitary acting on the whole integer
lattice.  Its row pattern, pinned once here and used everywhere:

    out[2k]   = a*in[2k-1] + b*in[2k] + c*in[2k+1] + d*in[2k+2]
    out[2k+1] = d*in[2k-1] + c*in[2k] + b*in[2k+1] + a*in[2k+2]
"""

from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .amplitudes import AmplitudeField, Distribution, to_distribution

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
        # every window that fits in the pack, whose zero ends hold each site a step reaches
        base = (lo + 2) & ~1            # even-aligned left edge of the output range
        npairs = (lo + x.size - 1 - base) // 2
        at, step = base - 1 - lo, x.strides[0]
        windows = np.ndarray((npairs, 4), np.complex128, x, at * step, (2 * step, step))
        return base, (windows @ stencil).ravel()

    return field._stepped(kernel)


_I_POWERS = (1, 1j, -1, -1j)
# The jump kernel's rows, each one ring long: the twiddles, alpha, beta, mu,
# the real terms (cos nw and sin nw / sin w, side by side) and the start's
# two-row transform.
_ROWS = 7


class _Workspace(threading.local):
    """One thread's buffers for the jump kernel, kept between jumps.

    numpy ufuncs release the GIL, so each thread has its own.  The buffers
    only grow: a ring smaller than the largest seen so far takes a
    contiguous view of them, so alternating ring sizes allocate nothing.
    """

    index = np.arange(0)
    rows = np.empty(0, np.complex128)

    def views(self, ring: int) -> tuple[np.ndarray, np.ndarray]:
        """The twiddle indices 0 .. ring // 2 and the (_ROWS, ring) complex rows."""
        half, size = ring // 2 + 1, _ROWS * ring
        if self.rows.size < size:
            self.index, self.rows = np.arange(half), np.empty(size, np.complex128)
        return self.index[:half], self.rows[:size].reshape(_ROWS, ring)


_WORKSPACE = _Workspace()


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
    Horner's rule, so the inverse FFT is the only one.  Every ring-long
    intermediate, and the returned ring, lives in this thread's
    ``_Workspace``: the result is valid until the thread's next jump.
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
        index, rows = _WORKSPACE.views(ring)
        e, alpha, beta, mu = rows[:4]
        cos_nw, ratio = rows[4].view(np.float64).reshape(2, ring)
        # the half-ring terms in w sit in mu's row until mu is formed
        sin_w, nw = mu.view(np.float64)[: 2 * half].reshape(2, half)
        transform = rows[5:]
        np.exp(np.multiply(2j * math.pi / ring, index, out=e[:half]), out=e[:half])
        np.conjugate(e[mirror], out=e[half:])
        np.add(b, np.multiply(d, e, out=alpha), out=alpha)
        np.add(c, np.multiply(a, e, out=beta), out=beta)
        # sin w = sqrt(Im(alpha)**2 + |beta|**2), cos_nw and ratio still free;
        # arctan2, not arccos(Re alpha), keeps w accurate where M is near +-I
        beta_sq = np.multiply(beta.real[:half], beta.real[:half], out=cos_nw[:half])
        beta_sq += np.multiply(beta.imag[:half], beta.imag[:half], out=ratio[:half])
        np.add(np.square(alpha.imag[:half], out=sin_w), beta_sq, out=sin_w)
        np.sqrt(sin_w, out=sin_w)
        np.multiply(n, np.arctan2(sin_w, alpha.real[:half], out=nw), out=nw)
        ratio[:half] = 0.0
        np.divide(np.sin(nw, out=cos_nw[:half]), sin_w, out=ratio[:half], where=sin_w > 0)
        np.cos(nw, out=cos_nw[:half])
        cos_nw[half:], ratio[half:] = cos_nw[mirror], ratio[mirror]
        # mu = cos_nw + 1j * ratio * Im(alpha), nu = ratio * beta
        np.multiply(np.multiply(1j, ratio, out=mu), alpha.imag, out=mu)
        np.add(cos_nw, mu, out=mu)
        nu = np.multiply(ratio, beta, out=beta)
        back = np.conjugate(e, out=e)
        x = start[:, -1:]  # x(p) by Horner's rule in e^{-ip}
        for column in start[:, -2::-1].T:
            x = np.multiply(x, back, out=transform)
            x += column[:, None]
        # a one-cell start is its own transform: (2, 1), scaled into a new pair
        x0, x1 = np.multiply(phase, x, out=transform if x is transform else None)
        # the output takes alpha's row, spent, and nu's, each entry read before it
        # is overwritten; e's row, spent too, takes the conjugate products
        out = rows[1:3]
        nu_x1 = np.multiply(np.conjugate(nu, out=e), x1, out=e)
        np.subtract(np.multiply(mu, x0, out=out[0]), nu_x1, out=out[0])
        np.multiply(nu, x0, out=out[1])
        np.add(out[1], np.multiply(np.conjugate(mu, out=e), x1, out=e), out=out[1])
        return fft.ifft(out, out=out)

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
