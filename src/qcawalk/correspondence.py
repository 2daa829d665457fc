"""Machine checks of the lattice/walk equivalences that evolve a state.

Each walk family sits on the lattice through the offset of its row in
``params._FAMILIES``; its blocks' ``order`` says which chirality is
the upper component.  Even half-step: 2x2 blocks on pairs (2k, 2k+1).  Odd
half-step: blocks on pairs (2k-1, 2k).  The full step is even-after-odd.
The identities that need no state, the two-step and the even/odd
factorizations, are certified in ``algebra``; the half steps here are
built from the same sources there.
"""

from __future__ import annotations

from .algebra import CorrespondenceReport, _even_tuple, _half_steps, _odd_tuple
from .amplitudes import AmplitudeField, _jump_refusal, _mismatch, _paired_field, _step_count
from .coined_walks import CoinBlocks, WalkState, _block_kernel, generalized_blocks_from_qca
from .params import (
    _ZERO,
    AngleTriple,
    QcaParams,
    _family,
    _generalized_blocks,
    classify,
    normalized_qubit,
)
from .qca_core import _banded_kernel, _evolve, qca_step

__all__ = [
    "verify_A_correspondence",
    "verify_B_correspondence",
    "verify_spectral",
    "two_step_factorize",
    "patel_even_step",
    "patel_odd_step",
]


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
    lattice_kernel, walk_kernel = _banded_kernel(params), _block_kernel(walk, blocks)

    amp_err = prob_err = 0.0
    for _ in range(n_max):
        eta = eta._stepped(lattice_kernel)
        walk = walk._stepped(walk_kernel)
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
    by ``n`` banded steps through the one n-step driver.  Other classes
    never jump, so they are rejected.
    """
    n = _step_count(n)
    if _jump_refusal(_generalized_blocks(params, "B")):
        raise ValueError(f"only Type V tuples jump; this tuple is {classify(params).value}")
    alpha, beta = normalized_qubit(qubit)
    start = AmplitudeField({0: alpha, 1: beta})
    stepped = start._stepped(_banded_kernel(params), n)
    amp_err, prob_err = _mismatch(_evolve(start, n, params), stepped)
    return CorrespondenceReport(amp_err, prob_err, n, "spectral")


def two_step_factorize(
    angles: AngleTriple, theta1: float, theta2: float, family: str
) -> tuple[CoinBlocks, CoinBlocks]:
    """Factor the generalized move/stay blocks into two half steps, ``(first, second)``.

    Each half step splits one coin the family's way, with no stay block, in
    the frame of ``generalized_blocks_from_qca`` of the tuple that ``angles``
    generate.  So ``walk_step`` with ``first`` and then ``second`` is one
    generalized step, with walk site k read at site 2k: P = P2 P1,
    T = P2 Q1 + Q2 P1 and Q = Q2 Q1, for every choice of the two free phase
    angles (``algebra.verify_two_step`` certifies them as one equation of symbols).
    """
    row = _family(family)
    first, second = (
        CoinBlocks(p, _ZERO, q, row.p_side, row.order)
        for p, q in _half_steps(angles, theta1, theta2, family)
    )
    return first, second


def patel_even_step(field: AmplitudeField, phi1: float) -> AmplitudeField:
    """Half step acting on pairs (2k, 2k+1): the Type I step (0, cos, i sin, 0)."""
    return qca_step(field, _even_tuple(phi1))


def patel_odd_step(field: AmplitudeField, phi2: float) -> AmplitudeField:
    """Half step acting on pairs (2k-1, 2k): the Type II step (i sin, cos, 0, 0)."""
    return qca_step(field, _odd_tuple(phi2))
