"""Coefficient tuples of the 1D QCA: validation, taxonomy, angles and the cell symbol.

Pure Python over ``complex`` and ``math``: checking and naming a tuple
loads no numpy, so ``qcawalk classify`` runs without it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "RESIDUAL_TOLERANCE",
    "AngleTriple",
    "QcaParams",
    "QcaTypeClass",
    "unitarity_residuals",
    "classify",
    "params_from_angles",
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


def _symbol(params: QcaParams) -> list:
    """The blocks of e^{ip}, 1 and e^{-ip} in the tuple's cell symbol: the B walk's P, T and Q.

    Each block is two rows of numbers.  The Fourier jump of ``amplitudes``
    reads it, and ``algebra`` multiplies symbols.
    """
    a, b, c, d = params.astuple()
    return [[[d, 0j], [a, 0j]], [[b, c], [c, b]], [[0j, a], [0j, d]]]


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
