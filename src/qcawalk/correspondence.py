"""Machine checks of every lattice/walk equivalence the package claims.

Each walk family sits on the lattice through the offset of its row in
``coined_walks._FAMILIES``; its blocks' ``order`` says which chirality is
the upper component.  Even half-step: 2x2 blocks on pairs (2k, 2k+1).  Odd
half-step: blocks on pairs (2k-1, 2k).  The full step is even-after-odd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .amplitudes import AmplitudeField, _jump_refusal, _mismatch, _paired_field, _step_count
from .coined_walks import (
    CoinBlocks,
    WalkState,
    _family,
    _split_coin,
    generalized_blocks_from_qca,
    walk_step,
)
from .params import (
    AngleTriple,
    QcaParams,
    _reduced_phase,
    classify,
    normalized_qubit,
    params_from_angles,
)
from .qca_core import _evolve, _symbol, qca_step

__all__ = [
    "PatelParams",
    "CorrespondenceReport",
    "verify_A_correspondence",
    "verify_B_correspondence",
    "verify_spectral",
    "two_step_factorize",
    "verify_two_step",
    "patel_coin",
    "patel_even_step",
    "patel_odd_step",
    "patel_factorize",
]


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


def _verify_pairing(
    family: str, params: QcaParams, qubit, n_max: int
) -> CorrespondenceReport:
    """Advance the walk and the lattice field it occupies in lockstep and compare.

    Both start from the walker at the origin, the lattice side placed by
    the same map that each step's results are compared through, so the
    comparison runs after every step (the start agrees by construction).
    """
    n_max = _step_count(n_max)
    offset = _family(family).offset
    blocks = generalized_blocks_from_qca(params, family)
    walk = WalkState.origin(qubit, blocks.order)
    eta = _paired_field(walk, offset)

    amp_err = 0.0
    prob_err = 0.0
    for _ in range(n_max):
        eta = qca_step(eta, params)
        walk = walk_step(walk, blocks)
        step_amp, step_prob = _mismatch(_paired_field(walk, offset), eta)
        amp_err = max(amp_err, step_amp)
        prob_err = max(prob_err, step_prob)
    return CorrespondenceReport(amp_err, prob_err, n_max, f"{family}-type")


def verify_A_correspondence(
    params: QcaParams, qubit, n_max: int
) -> CorrespondenceReport:
    """Certify the A-family walk against the banded lattice evolution."""
    return _verify_pairing("A", params, qubit, n_max)


def verify_B_correspondence(
    params: QcaParams, qubit, n_max: int
) -> CorrespondenceReport:
    """Certify the B-family walk against the banded lattice evolution."""
    return _verify_pairing("B", params, qubit, n_max)


def verify_spectral(params: QcaParams, qubit, n: int) -> CorrespondenceReport:
    """Certify the Fourier jump of a Type V tuple against ``n`` banded steps.

    Both engines evolve ``{0: alpha, 1: beta}``: once in one jump, once
    by ``n`` calls of ``qca_step``.  Other classes never jump, so they are
    rejected.
    """
    n = _step_count(n)
    if _jump_refusal(_symbol(params)):
        raise ValueError(f"only Type V tuples jump; this tuple is {classify(params).value}")
    alpha, beta = normalized_qubit(qubit)
    start = AmplitudeField({0: alpha, 1: beta})
    stepped = start
    for _ in range(n):
        stepped = qca_step(stepped, params)
    amp_err, prob_err = _mismatch(_evolve(start, n, params), stepped)
    return CorrespondenceReport(amp_err, prob_err, n, "spectral")


def _half_step_coins(
    angles: AngleTriple, theta1: float, theta2: float
) -> tuple[np.ndarray, np.ndarray]:
    """The two coins whose composed move blocks rebuild a lattice step."""
    ct, st = math.cos(angles.theta), math.sin(angles.theta)
    cp, sp = math.cos(angles.phi), math.sin(angles.phi)
    e1 = complex(math.cos(theta1), math.sin(theta1))
    e2 = complex(math.cos(theta2), math.sin(theta2))
    ed = complex(math.cos(angles.delta), math.sin(angles.delta))
    u1 = np.array(
        [
            [1j * cp * e2, sp * e2],
            [sp * e1, 1j * cp * e1],
        ],
        dtype=np.complex128,
    )
    u2 = ed * np.array(
        [
            [st * e2.conjugate(), -1j * ct * e1.conjugate()],
            [-1j * ct * e2.conjugate(), st * e1.conjugate()],
        ],
        dtype=np.complex128,
    )
    return u1, u2


def two_step_factorize(
    angles: AngleTriple, theta1: float, theta2: float, family: str
) -> tuple[CoinBlocks, CoinBlocks]:
    """Factor the generalized move/stay blocks into two half steps, ``(first, second)``.

    Each half step splits one coin the family's way, with no stay block, in
    the frame of ``generalized_blocks_from_qca`` of the tuple that ``angles``
    generate.  So ``walk_step`` with ``first`` and then ``second`` is one
    generalized step, with walk site k read at site 2k: P = P2 P1,
    T = P2 Q1 + Q2 P1 and Q = Q2 Q1, for every choice of the two free phase
    angles.
    """
    theta1 = _reduced_phase("theta1", theta1)
    theta2 = _reduced_phase("theta2", theta2)
    row = _family(family)

    def half_step(u: np.ndarray) -> CoinBlocks:
        p, q = _split_coin(u, row)
        return CoinBlocks(p, np.zeros((2, 2)), q, row.p_side, row.order)

    u1, u2 = _half_step_coins(angles, theta1, theta2)
    return half_step(u1), half_step(u2)


def _two_step_residual(
    first: CoinBlocks, second: CoinBlocks, p: np.ndarray, t: np.ndarray, q: np.ndarray
) -> float:
    """Largest entry of P2 P1 - P, P2 Q1 + Q2 P1 - T and Q2 Q1 - Q."""
    r_p = np.abs(second.P @ first.P - p).max()
    r_t = np.abs(second.P @ first.Q + second.Q @ first.P - t).max()
    r_q = np.abs(second.Q @ first.Q - q).max()
    return float(max(r_p, r_t, r_q))


def verify_two_step(
    angles: AngleTriple, theta1: float, theta2: float, family: str
) -> CorrespondenceReport:
    """Entry-wise residual of the three half-step product identities."""
    first, second = two_step_factorize(angles, theta1, theta2, family)
    blocks = generalized_blocks_from_qca(params_from_angles(angles), family)
    err = _two_step_residual(first, second, blocks.P, blocks.T, blocks.Q)
    return CorrespondenceReport(err, 0.0, 0, f"two-step-{family}")


@dataclass(frozen=True)
class PatelParams:
    """Rotation angles of the even and odd half-step pair coins."""

    phi1: float
    phi2: float

    def __post_init__(self):
        for name in ("phi1", "phi2"):
            object.__setattr__(self, name, _reduced_phase(name, getattr(self, name)))


def patel_coin(phi: float) -> np.ndarray:
    """Symmetric 2x2 pair coin with rotation angle ``phi``."""
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, 1j * s], [1j * s, c]], dtype=np.complex128)


def patel_even_step(field: AmplitudeField, phi1: float) -> AmplitudeField:
    """Half step acting on pairs (2k, 2k+1): the Type I step (0, cos, i sin, 0)."""
    return qca_step(field, QcaParams(0.0, math.cos(phi1), 1j * math.sin(phi1), 0.0))


def patel_odd_step(field: AmplitudeField, phi2: float) -> AmplitudeField:
    """Half step acting on pairs (2k-1, 2k): the Type II step (i sin, cos, 0, 0)."""
    return qca_step(field, QcaParams(1j * math.sin(phi2), math.cos(phi2), 0.0, 0.0))


def patel_factorize(p: PatelParams) -> tuple[QcaParams, CorrespondenceReport]:
    """Certify the even/odd walk as the two-step factorization at theta1 = theta2 = 0.

    At the angles ``(phi1, pi/2 - phi2, pi/2)``, three links derive it:
    (1) the half-step coins are the odd and even pair coins with their
    columns swapped; (2) the two-step identity composes them into one
    generalized walk step (``verify --kind two-step``); (3) the A/B
    correspondence makes that step the banded step of those angles
    (``verify --kind A/B``).  The report is the worse of link 1 and a
    lattice check of the chain: the odd-then-even composition on one even
    and one odd site, whose images (sites -2..1 and 8..11) cannot overlap,
    against the banded step of the angles, which compares every entry of
    the operator.  The tuple is read off the image of site 0.
    """
    angles = AngleTriple(p.phi1, math.pi / 2 - p.phi2, math.pi / 2)
    u1, u2 = _half_step_coins(angles, 0.0, 0.0)
    err_coins = max(
        np.abs(u1 - patel_coin(p.phi2)[:, ::-1]).max(),
        np.abs(u2 - patel_coin(p.phi1)[:, ::-1]).max(),
    )

    probe = AmplitudeField({0: 1.0, 9: 1.0})
    image = patel_even_step(patel_odd_step(probe, p.phi2), p.phi1)
    err_lattice = _mismatch(image, qca_step(probe, params_from_angles(angles)))[0]
    params = QcaParams(image[-1], image[0], image[1], image[-2])
    err = float(max(err_coins, err_lattice))
    return params, CorrespondenceReport(err, 0.0, 0, "even-odd-factorization")

