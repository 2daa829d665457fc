"""The 2x2 block algebra of the walk families, and the certificates stated in it.

Pure Python over ``complex`` and ``math``, like ``params``: a 2x2 block is
a list of two rows of two numbers, and a step's symbol is the list of its
blocks, from the coefficient of the highest power of ``e^{ip}`` down (a
tuple's own, ``params._symbol``, has three).  The numpy modules wrap these
lists and keep no second copy: ``coined_walks`` builds its ``CoinBlocks``
from the coin split and the generalized blocks here and tests them with
``_unitarity_residual``, and ``correspondence`` builds the two-step half
steps and Patel's half steps from the sources here.  The two identities
that hold without evolving a state, the two-step factorization and
Patel's even/odd factorization, are certified here, so ``qcawalk verify``
and ``factorize`` of those kinds load no numpy.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

from .params import AngleTriple, QcaParams, _reduced_phase, _symbol, params_from_angles

__all__ = [
    "L_UPPER",
    "R_UPPER",
    "CorrespondenceReport",
    "PatelParams",
    "verify_two_step",
    "patel_coin",
    "patel_factorize",
]

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


def _unitarity_residual(p, t, q) -> float:
    """Largest entry of the three block-orthogonality defects of a P, T, Q step.

    The step is unitary when ``P^H P + T^H T + Q^H Q = 1``, ``P^H T + T^H Q = 0``
    and ``P^H Q = 0``.  inf where an entry overflows.
    """
    ph, th, qh = _adjoint(p), _adjoint(t), _adjoint(q)
    gram = _add(_add(_product(ph, p), _product(th, t)), _product(qh, q))
    return max(
        _distance(gram, _IDENTITY),
        _distance(_add(_product(ph, t), _product(th, q)), _ZERO),
        _distance(_product(ph, q), _ZERO),
    )


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


def _generalized_blocks(params: QcaParams, family: str) -> tuple[list, list, list]:
    """Move/stay blocks P, T, Q whose walk, in the family's frame, is the banded step.

    The move blocks split the coin ``[[d, m], [m, d]]`` and the stay block
    is ``[[b, s], [s, b]]``: family A moves with m = c and stays with s = a,
    family B the other way round.
    """
    row = _family(family)
    a, b, c, d = params.astuple()
    move, stay = (c, a) if family == "A" else (a, c)
    p, q = _split_coin([[d, move], [move, d]], row)
    return p, [[b, stay], [stay, b]], q


def _symbol_product(later: list, first: list) -> list:
    """The symbol of ``first``'s step followed by ``later``'s: the Laurent product."""
    out = [None] * (len(later) + len(first) - 1)
    for i, x in enumerate(later):
        for j, y in enumerate(first):
            term = _product(x, y)
            out[i + j] = term if out[i + j] is None else _add(out[i + j], term)
    return out


@dataclass(frozen=True)
class CorrespondenceReport:
    """Outcome of one identity check.

    ``steps_checked`` counts evolution steps for walk/lattice checks and is
    0 for purely algebraic (matrix) identities.
    """

    max_amplitude_error: float
    max_probability_error: float
    steps_checked: int
    identity_name: str

    def max_error(self) -> float:
        return max(self.max_amplitude_error, self.max_probability_error)


def _half_step_coins(angles: AngleTriple, theta1: float, theta2: float) -> tuple[list, list]:
    """The two coins whose composed move blocks rebuild a lattice step."""
    ct, st = math.cos(angles.theta), math.sin(angles.theta)
    cp, sp = math.cos(angles.phi), math.sin(angles.phi)
    e1 = complex(math.cos(theta1), math.sin(theta1))
    e2 = complex(math.cos(theta2), math.sin(theta2))
    ed = complex(math.cos(angles.delta), math.sin(angles.delta))
    u1 = [[1j * cp * e2, sp * e2], [sp * e1, 1j * cp * e1]]
    u2 = [
        [ed * (st * e2.conjugate()), ed * (-1j * ct * e1.conjugate())],
        [ed * (-1j * ct * e2.conjugate()), ed * (st * e1.conjugate())],
    ]
    return u1, u2


def _half_steps(
    angles: AngleTriple, theta1: float, theta2: float, family: str
) -> tuple[tuple[list, list], tuple[list, list]]:
    """The move blocks ``(P1, Q1), (P2, Q2)`` of the two half steps, ``first`` then ``second``.

    Each half step splits one coin the family's way, with no stay block, in
    the frame of the generalized step of the tuple that ``angles`` generate:
    P = P2 P1, T = P2 Q1 + Q2 P1 and Q = Q2 Q1, for every choice of the two
    free phase angles.
    """
    theta1 = _reduced_phase("theta1", theta1)
    theta2 = _reduced_phase("theta2", theta2)
    row = _family(family)
    u1, u2 = _half_step_coins(angles, theta1, theta2)
    return _split_coin(u1, row), _split_coin(u2, row)


def _two_step_residual(first, second, p, t, q) -> float:
    """Largest entry of P2 P1 - P, P2 Q1 + Q2 P1 - T and Q2 Q1 - Q."""
    (p1, q1), (p2, q2) = first, second
    r_p = _distance(_product(p2, p1), p)
    r_t = _distance(_add(_product(p2, q1), _product(q2, p1)), t)
    r_q = _distance(_product(q2, q1), q)
    return max(r_p, r_t, r_q)


def _two_step(
    angles: AngleTriple, theta1: float, theta2: float, family: str
) -> tuple[tuple, CorrespondenceReport]:
    """The half steps' move blocks and the residual of the three product identities."""
    halves = _half_steps(angles, theta1, theta2, family)
    targets = _generalized_blocks(params_from_angles(angles), family)
    err = _two_step_residual(*halves, *targets)
    return halves, CorrespondenceReport(err, 0.0, 0, f"two-step-{family}")


def verify_two_step(
    angles: AngleTriple, theta1: float, theta2: float, family: str
) -> CorrespondenceReport:
    """Entry-wise residual of the three half-step product identities."""
    return _two_step(angles, theta1, theta2, family)[1]


@dataclass(frozen=True)
class PatelParams:
    """Rotation angles of the even and odd half-step pair coins."""

    phi1: float
    phi2: float

    def __post_init__(self):
        for name in ("phi1", "phi2"):
            object.__setattr__(self, name, _reduced_phase(name, getattr(self, name)))


def patel_coin(phi: float) -> list:
    """Symmetric 2x2 pair coin with rotation angle ``phi``, as two rows."""
    c, s = math.cos(phi), math.sin(phi)
    return [[complex(c), 1j * s], [1j * s, complex(c)]]


def _even_tuple(phi1: float) -> QcaParams:
    """Patel's even half step, on pairs (2k, 2k+1): the Type I tuple (0, cos, i sin, 0)."""
    return QcaParams(0.0, math.cos(phi1), 1j * math.sin(phi1), 0.0)


def _odd_tuple(phi2: float) -> QcaParams:
    """Patel's odd half step, on pairs (2k-1, 2k): the Type II tuple (i sin, cos, 0, 0)."""
    return QcaParams(1j * math.sin(phi2), math.cos(phi2), 0.0, 0.0)


def patel_factorize(p: PatelParams) -> tuple[QcaParams, CorrespondenceReport]:
    """Certify the even/odd walk as the two-step factorization at theta1 = theta2 = 0.

    At the angles ``(phi1, pi/2 - phi2, pi/2)``, three links derive it:
    (1) the half-step coins are the odd and even pair coins with their
    columns swapped; (2) the two-step identity composes them into one
    generalized walk step (``verify --kind two-step``); (3) the A/B
    correspondence makes that step the banded step of those angles
    (``verify --kind A/B``).  The report is the worse of link 1 and a
    symbol check of the chain: the symbol of the odd-then-even composition,
    the product of the half steps' symbols, against the banded symbol of
    the angles, block by block, which compares every entry of the operator.
    The tuple is read off the first columns of the product's blocks of e^{ip}
    and 1, the image of site 0.
    """
    angles = AngleTriple(p.phi1, math.pi / 2 - p.phi2, math.pi / 2)
    u1, u2 = _half_step_coins(angles, 0.0, 0.0)
    err_coins = max(
        _distance(u1, [row[::-1] for row in patel_coin(p.phi2)]),
        _distance(u2, [row[::-1] for row in patel_coin(p.phi1)]),
    )

    chain = _symbol_product(_symbol(_even_tuple(p.phi1)), _symbol(_odd_tuple(p.phi2)))
    banded = [_ZERO, *_symbol(params_from_angles(angles)), _ZERO]
    err_symbol = max(map(_distance, chain, banded))
    (d, _), (a, _) = chain[1]
    (b, _), (c, _) = chain[2]
    err = max(err_coins, err_symbol)
    return QcaParams(a, b, c, d), CorrespondenceReport(err, 0.0, 0, "even-odd-factorization")
