"""Machine checks of every lattice/walk equivalence the package claims.

Site pairing conventions, pinned once:

  * A-family: walk site k holds lattice sites (2k-1, 2k); 2k-1 is the
    right chirality, 2k the left.  The matching branch combination starts
    the second basis field one site to the LEFT of the first.
  * B-family: walk site k holds lattice sites (2k, 2k+1); 2k is the left
    chirality, 2k+1 the right.  The second basis field starts one site to
    the RIGHT.
  * Even half-step: 2x2 blocks on pairs (2k, 2k+1).  Odd half-step:
    blocks on pairs (2k-1, 2k).  The full step is even-after-odd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .amplitudes import AmplitudeField, _on_union, _paired_field, _sq_modulus, max_difference
from .coined_walks import (
    L_UPPER,
    R_UPPER,
    WalkState,
    _as_block,
    _split_coin,
    generalized_blocks_from_qca,
    walk_step,
)
from .qca_core import (
    RESIDUAL_TOLERANCE,
    AngleTriple,
    QcaParams,
    _reduced_phase,
    normalized_qubit,
    params_from_angles,
    qca_step,
)

__all__ = [
    "TwoStepFactors",
    "PatelParams",
    "CorrespondenceReport",
    "verify_A_correspondence",
    "verify_B_correspondence",
    "two_step_factorize",
    "verify_two_step",
    "patel_coin",
    "patel_even_step",
    "patel_odd_step",
    "patel_factorize",
    "meyer_angles",
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


@dataclass(frozen=True)
class _Pairing:
    """How one walk family sits on the lattice.

    Walk site k holds lattice sites 2k + ``upper_offset`` (upper component)
    and the site after it (lower component).  The paired branch combination
    starts at sites 0 and ``second_start``.
    """

    name: str
    upper_offset: int
    second_start: int
    order: str


_PAIRINGS = {
    "A": _Pairing("A-type", upper_offset=-1, second_start=-1, order=R_UPPER),
    "B": _Pairing("B-type", upper_offset=0, second_start=1, order=L_UPPER),
}


def _check_pairing(
    walk: WalkState, eta: AmplitudeField, upper_offset: int
) -> tuple[float, float]:
    """Largest amplitude and mass mismatch between the walk and the paired field."""
    _, got, want = _on_union(_paired_field(walk, upper_offset), eta)
    amp_err = float(np.abs(got - want).max(initial=0.0))
    prob_err = float(np.abs(_sq_modulus(want) - _sq_modulus(got)).max(initial=0.0))
    return amp_err, prob_err


def _verify_pairing(
    family: str, params: QcaParams, qubit, n_max: int
) -> CorrespondenceReport:
    """Advance the walk and the paired lattice field in lockstep and compare.

    The walk starts from the state the pairing identities dictate at step
    zero, and the lattice side from the qubit-weighted combination of the
    two basis fields, which by linearity evolves as their combination.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    spec = _PAIRINGS[family]
    alpha, beta = normalized_qubit(qubit)
    blocks = generalized_blocks_from_qca(params, family)
    eta = AmplitudeField({0: alpha, spec.second_start: beta})
    walk = WalkState.origin((alpha, beta), spec.order)

    amp_err = 0.0
    prob_err = 0.0
    for n in range(n_max + 1):
        step_amp, step_prob = _check_pairing(walk, eta, spec.upper_offset)
        amp_err = max(amp_err, step_amp)
        prob_err = max(prob_err, step_prob)
        if n < n_max:
            eta = qca_step(eta, params)
            walk = walk_step(walk, blocks)
    return CorrespondenceReport(amp_err, prob_err, n_max, spec.name)


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


@dataclass(frozen=True)
class TwoStepFactors:
    """Half-step move blocks whose two-step composition is one lattice step.

    ``coin(n) = P(n) + Q(n)`` is unitary for n = 1, 2, and the same two
    coins underlie both families (A splits them by rows, B by columns).
    """

    P1: np.ndarray
    Q1: np.ndarray
    P2: np.ndarray
    Q2: np.ndarray

    def __post_init__(self):
        for name in ("P1", "Q1", "P2", "Q2"):
            object.__setattr__(self, name, _as_block(getattr(self, name)))
        for n in (1, 2):
            u = self.coin(n)
            defect = np.abs(u.conj().T @ u - np.eye(2)).max()
            if defect > RESIDUAL_TOLERANCE:
                raise ValueError(f"half-step coin {n} is not unitary ({defect:.3e})")

    def coin(self, n: int) -> np.ndarray:
        if n == 1:
            return self.P1 + self.Q1
        if n == 2:
            return self.P2 + self.Q2
        raise ValueError(f"half-step index must be 1 or 2, got {n}")


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
) -> TwoStepFactors:
    """Factor the generalized move/stay blocks into two plain half-steps.

    The returned factors satisfy P = P2 @ P1, Q = Q2 @ Q1 and
    T = P2 @ Q1 + Q2 @ P1 against ``generalized_blocks_from_qca`` of the
    tuple generated by ``angles``, for every choice of the two free phase
    angles.
    """
    theta1 = _reduced_phase("theta1", theta1)
    theta2 = _reduced_phase("theta2", theta2)
    u1, u2 = _half_step_coins(angles, theta1, theta2)
    p1, q1 = _split_coin(u1, family)
    p2, q2 = _split_coin(u2, family)
    return TwoStepFactors(p1, q1, p2, q2)


def verify_two_step(
    angles: AngleTriple, theta1: float, theta2: float, family: str
) -> CorrespondenceReport:
    """Entry-wise residual of the three half-step product identities."""
    factors = two_step_factorize(angles, theta1, theta2, family)
    blocks = generalized_blocks_from_qca(params_from_angles(angles), family)
    r_p = np.abs(factors.P2 @ factors.P1 - blocks.P).max()
    r_q = np.abs(factors.Q2 @ factors.Q1 - blocks.Q).max()
    r_t = np.abs(factors.P2 @ factors.Q1 + factors.Q2 @ factors.P1 - blocks.T).max()
    err = float(max(r_p, r_q, r_t))
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
    """Compose the even and odd half steps and extract the banded tuple.

    The odd-then-even composition is applied to one even and one odd site,
    whose images (sites -2..1 and 8..11) cannot overlap; the tuple is read
    off the image of site 0.  The report carries the worst deviation from
    (i) the closed-form tuple in the two rotation angles, (ii) the angle
    substitution that lands the tuple in the trigonometric parametrization,
    and (iii) the banded step of the extracted tuple on the same probe,
    which compares every entry of the operator.
    """
    probe = AmplitudeField({0: 1.0, 9: 1.0})
    image = patel_even_step(patel_odd_step(probe, p.phi2), p.phi1)
    a, b, c, d = image[-1], image[0], image[1], image[-2]

    c1, s1 = math.cos(p.phi1), math.sin(p.phi1)
    c2, s2 = math.cos(p.phi2), math.sin(p.phi2)
    closed_form = (1j * c1 * s2, c1 * c2, 1j * s1 * c2, -s1 * s2)
    err_tuple = max(
        abs(a - closed_form[0]),
        abs(b - closed_form[1]),
        abs(c - closed_form[2]),
        abs(d - closed_form[3]),
    )

    mapped = params_from_angles(
        AngleTriple(p.phi1, math.pi / 2 - p.phi2, math.pi / 2)
    )
    err_angles = max(
        abs(a - mapped.a), abs(b - mapped.b), abs(c - mapped.c), abs(d - mapped.d)
    )

    params = QcaParams(a, b, c, d)
    err_step = max_difference(image, qca_step(probe, params))
    report = CorrespondenceReport(
        max(err_tuple, err_angles, err_step), 0.0, 0, "even-odd-factorization"
    )
    return params, report


def meyer_angles(rho: float, theta: float) -> AngleTriple:
    """Angle substitution mapping a lattice-gas coin into the parametrization."""
    return AngleTriple(math.pi / 2 + theta, rho, 3 * math.pi / 2)
