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

from .amplitudes import AmplitudeField, Distribution, to_distribution

__all__ = [
    "RESIDUAL_TOLERANCE",
    "ZERO_TOLERANCE",
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

RESIDUAL_TOLERANCE = 1e-12
ZERO_TOLERANCE = 1e-12
TWO_PI = 2.0 * math.pi


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
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"non-finite angle {name}={v!r}")
            object.__setattr__(self, name, v % TWO_PI)


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


_SINGLE_TAGS = {
    "a": QcaTypeClass.TRIVIAL_A,
    "b": QcaTypeClass.TRIVIAL_B,
    "c": QcaTypeClass.TRIVIAL_C,
    "d": QcaTypeClass.TRIVIAL_D,
}

_PAIR_TAGS = {
    frozenset({"b", "c"}): QcaTypeClass.TYPE_I,
    frozenset({"a", "b"}): QcaTypeClass.TYPE_II,
    frozenset({"c", "d"}): QcaTypeClass.TYPE_III,
    frozenset({"a", "d"}): QcaTypeClass.TYPE_IV,
}


def classify(params: QcaParams) -> QcaTypeClass:
    """Unique taxonomy tag of a validated tuple.

    Coefficients below ``ZERO_TOLERANCE`` in modulus count as zero.  Tuples
    with three nonzero coefficients (or a nonzero pair other than the four
    admissible ones) cannot be unitary and are rejected.
    """
    nonzero = frozenset(
        name for name in ("a", "b", "c", "d")
        if abs(getattr(params, name)) >= ZERO_TOLERANCE
    )
    if len(nonzero) == 1:
        return _SINGLE_TAGS[next(iter(nonzero))]
    if len(nonzero) == 2:
        tag = _PAIR_TAGS.get(nonzero)
        if tag is None:
            raise ValueError(
                f"nonzero pair {sorted(nonzero)} is incompatible with unitarity"
            )
        return tag
    if len(nonzero) == 4:
        return QcaTypeClass.TYPE_V
    raise ValueError(
        f"{len(nonzero)} nonzero coefficients cannot form a unitary step"
    )


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

    def kernel(lo: int, x: np.ndarray) -> tuple[int, np.ndarray]:
        base = (lo - 2) & ~1            # even-aligned left edge of the output range
        npairs = (lo + x.size + 3 - base) // 2
        # buf[j] holds the input amplitude at site base - 1 + j.
        buf = np.zeros(2 * npairs + 3, dtype=np.complex128)
        buf[lo - base + 1 : lo - base + 1 + x.size] = x

        x1 = buf[0 : 2 * npairs : 2]        # in[2k-1]
        x2 = buf[1 : 2 * npairs + 1 : 2]    # in[2k]
        x3 = buf[2 : 2 * npairs + 2 : 2]    # in[2k+1]
        x4 = buf[3 : 2 * npairs + 3 : 2]    # in[2k+2]

        out = np.empty(2 * npairs, dtype=np.complex128)
        out[0::2] = a * x1 + b * x2 + c * x3 + d * x4
        out[1::2] = d * x1 + c * x2 + b * x3 + a * x4
        return base, out

    return field._stepped(kernel)


def _evolve(field: AmplitudeField, n: int, params: QcaParams) -> AmplitudeField:
    if n < 0:
        raise ValueError(f"step count must be nonnegative, got {n}")
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
