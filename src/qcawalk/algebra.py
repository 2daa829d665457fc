"""The certificates stated in the 2x2 block algebra of ``params``.

The two identities that hold without evolving a state, the two-step
factorization and Patel's even/odd factorization, are certified here in pure
Python, so ``verify`` and ``factorize`` of those kinds load no numpy or ``dataclasses``.
``correspondence`` builds its half steps from the same sources.
"""

from __future__ import annotations

import math

from .params import (
    _ZERO,
    AngleTriple,
    QcaParams,
    _family,
    _generalized_blocks,
    _record,
    _reduced_phase,
    _split_coin,
    _symbol_gap,
    _symbol_product,
    params_from_angles,
)

__all__ = [
    "CorrespondenceReport",
    "PatelParams",
    "verify_two_step",
    "patel_coin",
    "patel_factorize",
]


_REPORT_FIELDS = "max_amplitude_error max_probability_error steps_checked identity_name"


class CorrespondenceReport(_record("CorrespondenceReport", _REPORT_FIELDS)):
    """Outcome of one identity check.

    ``steps_checked`` counts evolution steps for walk/lattice checks and is
    0 for purely algebraic (matrix) identities.
    """

    __slots__ = ()

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


def _two_step(
    angles: AngleTriple, theta1: float, theta2: float, family: str
) -> tuple[tuple, CorrespondenceReport]:
    """The half steps' move blocks and the gap of their composed symbol to the generalized one.

    A half step's symbol is ``[P, 0, Q]`` on its own sites, and the generalized
    step's, read on the sites 2k, is ``[P, 0, T, 0, Q]``.
    """
    halves = (p1, q1), (p2, q2) = _half_steps(angles, theta1, theta2, family)
    p, t, q = _generalized_blocks(params_from_angles(angles), family)
    composed = _symbol_product([p2, _ZERO, q2], [p1, _ZERO, q1])
    err = _symbol_gap(composed, [p, _ZERO, t, _ZERO, q])
    return halves, CorrespondenceReport(err, 0.0, 0, f"two-step-{family}")


def verify_two_step(
    angles: AngleTriple, theta1: float, theta2: float, family: str
) -> CorrespondenceReport:
    """Entry-wise residual of P2 P1 = P, P2 Q1 + Q2 P1 = T and Q2 Q1 = Q."""
    return _two_step(angles, theta1, theta2, family)[1]


class PatelParams(_record("PatelParams", "phi1 phi2")):
    """Rotation angles of the even and odd half-step pair coins; stored mod 2*pi."""

    __slots__ = ()

    def __new__(cls, phi1: float, phi2: float):
        return super().__new__(cls, *map(_reduced_phase, cls._fields, (phi1, phi2)))


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
    swapped = [[row[::-1] for row in patel_coin(phi)] for phi in (p.phi2, p.phi1)]
    err_coins = _symbol_gap(_half_step_coins(angles, 0.0, 0.0), swapped)

    chain = _symbol_product(
        _generalized_blocks(_even_tuple(p.phi1), "B"), _generalized_blocks(_odd_tuple(p.phi2), "B")
    )
    banded = [_ZERO, *_generalized_blocks(params_from_angles(angles), "B"), _ZERO]
    err_symbol = _symbol_gap(chain, banded)
    (d, _), (a, _) = chain[1]
    (b, _), (c, _) = chain[2]
    err = max(err_coins, err_symbol)
    return QcaParams(a, b, c, d), CorrespondenceReport(err, 0.0, 0, "even-odd-factorization")
