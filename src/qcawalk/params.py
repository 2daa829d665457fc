"""Coefficient tuples of the 1D QCA and the 2x2 block algebra of the walk families.

Pure Python over ``complex`` and ``math``, with named tuples for records:
checking and naming a tuple loads neither numpy nor ``dataclasses``, so
``qcawalk classify`` runs without them.  A 2x2 block is two rows of two
numbers, and a step's symbol the list of its blocks, from the coefficient of
the highest power of ``e^{ip}`` down; the numpy modules wrap these lists and
keep no second copy.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from enum import Enum

__all__ = [
    "RESIDUAL_TOLERANCE",
    "L_UPPER",
    "R_UPPER",
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


def _record(name: str, fields: str) -> type:
    """A named-tuple base that builds every instance by calling the class.

    ``_make`` (so ``_replace``), ``pickle`` and ``copy`` call ``cls(*values)``,
    so a subclass's ``__new__`` checks them all.
    """
    base = namedtuple(name, fields)
    base._make = classmethod(lambda cls, values: cls(*values))
    base.__reduce__ = lambda self: (type(self), tuple(self))
    return base


class QcaParams(_record("QcaParams", "a b c d")):
    """Validated coefficient tuple of the banded step operator.

    Construction rejects tuples whose unitarity residuals exceed
    ``RESIDUAL_TOLERANCE``.
    """

    __slots__ = ()

    def __new__(cls, a: complex, b: complex, c: complex, d: complex):
        coeffs = []
        for name, value in zip("abcd", (a, b, c, d)):
            z = complex(value)
            if not cmath.isfinite(z):
                raise ValueError(f"non-finite coefficient {name}={z!r}")
            coeffs.append(z)
        worst = max(unitarity_residuals(*coeffs))
        if worst > RESIDUAL_TOLERANCE:
            raise ValueError(
                f"coefficients fail unitarity (max residual {worst:.3e}): {tuple(coeffs)!r}"
            )
        return super().__new__(cls, *coeffs)

    def astuple(self) -> tuple[complex, complex, complex, complex]:
        return tuple(self)


class AngleTriple(_record("AngleTriple", "theta phi delta")):
    """Angle parameters generating a valid coefficient tuple; stored mod 2*pi."""

    __slots__ = ()

    def __new__(cls, theta: float, phi: float, delta: float):
        return super().__new__(cls, *map(_reduced_phase, cls._fields, (theta, phi, delta)))


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
    moduli = dict(zip("abcd", map(abs, params)))
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


L_UPPER = "L-upper"
R_UPPER = "R-upper"
_ORDERS = (L_UPPER, R_UPPER)

_ZERO = ((0j, 0j), (0j, 0j))
_IDENTITY = ((1 + 0j, 0j), (0j, 1 + 0j))


def _add(x, y) -> list:
    return [[x[i][0] + y[i][0], x[i][1] + y[i][1]] for i in range(2)]


def _product(x, y) -> list:
    return [[x[i][0] * y[0][j] + x[i][1] * y[1][j] for j in range(2)] for i in range(2)]


def _adjoint(x) -> list:
    return [[x[0][j].conjugate(), x[1][j].conjugate()] for j in range(2)]


def _distance(x, y) -> float:
    """Largest entry modulus of ``x - y``; inf where one overflows or is not a number."""
    try:
        moduli = [abs(a - b) for row_x, row_y in zip(x, y) for a, b in zip(row_x, row_y)]
    except OverflowError:
        return math.inf
    return math.inf if any(map(math.isnan, moduli)) else max(moduli)


def _symbol_product(later: list, first: list) -> list:
    """The symbol of ``first``'s step followed by ``later``'s: the Laurent product.

    Each coefficient sums its terms in the order of ``later``'s blocks.
    """
    out = [None] * (len(later) + len(first) - 1)
    for i, x in enumerate(later):
        for j, y in enumerate(first):
            term = _product(x, y)
            out[i + j] = term if out[i + j] is None else _add(out[i + j], term)
    return out


def _symbol_gap(x: list, y: list) -> float:
    """Largest ``_distance`` between the blocks of two lists, such as two symbols."""
    return max(map(_distance, x, y))


def _unitarity_residual(p, t, q) -> float:
    """Largest entry of the defect of ``S^H S = 1`` for a step whose symbol is ``[P, T, Q]``.

    It multiplies the symbols of ``S(-p)^H`` and ``S(-p)``, ``[P^H, T^H, Q^H]`` and
    ``[Q, T, P]``, whose coefficients sum ``P^H P + T^H T + Q^H Q``, ``P^H T + T^H Q``
    and ``P^H Q`` in that order (the other two are adjoints): the step is unitary
    when the first is 1 and the others 0.  inf where an entry overflows.
    """
    gram = _symbol_product([_adjoint(p), _adjoint(t), _adjoint(q)], [q, t, p])
    return _symbol_gap(gram, [_ZERO, _ZERO, _IDENTITY, _ZERO, _ZERO])


# One row per walk family: whether its coin splits into P, Q by columns (else by
# rows), the p_side and order of its generalized step and half steps, and its lattice
# offset: walk site k holds lattice sites 2k + offset (upper component) and 2k + offset + 1.
_Family = namedtuple("_Family", "by_columns p_side order offset")
_FAMILIES = {"A": _Family(False, -1, R_UPPER, -1), "B": _Family(True, 1, L_UPPER, 0)}


def _family(name: str) -> _Family:
    try:
        return _FAMILIES[name]
    except KeyError:
        raise ValueError(f"family must be 'A' or 'B', got {name!r}") from None


def _split_coin(u, row: _Family) -> tuple[list, list]:
    """Move blocks P, Q with P + Q = u: P keeps the first row (or column), Q the second.

    The other entries are zeros, not products with a 0/1 mask, which could
    turn a zero entry into -0.0, which the JSON output would show.
    """
    if row.by_columns:
        return [[u[0][0], 0j], [u[1][0], 0j]], [[0j, u[0][1]], [0j, u[1][1]]]
    return [list(u[0]), [0j, 0j]], [[0j, 0j], list(u[1])]


def _generalized_blocks(params: QcaParams, family: str) -> list:
    """Move/stay blocks ``[P, T, Q]`` whose walk, in the family's frame, is the banded step.

    The move blocks split the coin ``[[d, m], [m, d]]`` and the stay block
    is ``[[b, s], [s, b]]``: family A moves with m = c and stays with s = a,
    family B the other way round.  Family B's list is the tuple's cell symbol,
    the blocks of ``e^{ip}``, 1 and ``e^{-ip}`` that the Fourier jump reads.
    """
    row = _family(family)
    a, b, c, d = params
    move, stay = (c, a) if family == "A" else (a, c)
    p, q = _split_coin([[d, move], [move, d]], row)
    return [p, [[b, stay], [stay, b]], q]


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
