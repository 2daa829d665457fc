"""Cross-model identity checks: pairings, reductions, and factorizations."""

import math

import numpy as np
import pytest

from qcawalk.amplitudes import AmplitudeField, max_difference, superpose
from qcawalk.coined_walks import (
    L_UPPER,
    R_UPPER,
    CoinBlocks,
    CoinMatrix,
    WalkState,
    generalized_blocks_from_qca,
    plain_blocks,
    walk_distribution,
    walk_step,
)
from qcawalk.correspondence import (
    PatelParams,
    TwoStepFactors,
    meyer_angles,
    patel_coin,
    patel_even_step,
    patel_factorize,
    patel_odd_step,
    two_step_factorize,
    verify_A_correspondence,
    verify_B_correspondence,
    verify_two_step,
)
from qcawalk.qca_core import (
    AngleTriple,
    QcaParams,
    params_from_angles,
    qca_step,
    unitarity_residuals,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)
PATEL_ANGLES = AngleTriple(math.pi / 4, math.pi / 4, math.pi / 2)
PATEL = params_from_angles(PATEL_ANGLES)
SYMMETRIC = (INV_SQRT2, INV_SQRT2)


def random_params(rng):
    return params_from_angles(AngleTriple(*rng.uniform(0.0, 2.0 * math.pi, 3)))


def random_qubit(rng):
    chi = rng.uniform(0, math.pi / 2)
    pa, pb = rng.uniform(0, 2 * math.pi, 2)
    return (
        math.cos(chi) * complex(math.cos(pa), math.sin(pa)),
        math.sin(chi) * complex(math.cos(pb), math.sin(pb)),
    )


# ---------------------------------------------------------------------------
# A / B pairing identities
# ---------------------------------------------------------------------------

def test_a_pairing_zero_steps_is_exact():
    report = verify_A_correspondence(PATEL, SYMMETRIC, 0)
    assert report.max_error() == 0.0


def test_a_pairing_patel_fifty_steps():
    report = verify_A_correspondence(PATEL, SYMMETRIC, 50)
    assert report.max_amplitude_error <= 1e-12
    assert report.max_probability_error <= 1e-12
    assert report.steps_checked == 50


def test_b_pairing_patel_fifty_steps():
    report = verify_B_correspondence(PATEL, SYMMETRIC, 50)
    assert report.max_amplitude_error <= 1e-12
    assert report.max_probability_error <= 1e-12


def test_b_pairing_zero_steps_delta_qubit():
    report = verify_B_correspondence(PATEL, (1.0, 0.0), 0)
    assert report.max_error() == 0.0


def test_pairings_hold_for_random_draws():
    rng = np.random.default_rng(101)
    for _ in range(20):
        params = random_params(rng)
        qubit = random_qubit(rng)
        assert verify_A_correspondence(params, qubit, 25).max_error() <= 1e-12
        assert verify_B_correspondence(params, qubit, 25).max_error() <= 1e-12


def test_pairings_hold_for_confined_tuples():
    type_i = QcaParams(0.0, -1j * INV_SQRT2, INV_SQRT2, 0.0)
    assert verify_A_correspondence(type_i, SYMMETRIC, 20).max_error() <= 1e-12
    assert verify_B_correspondence(type_i, SYMMETRIC, 20).max_error() <= 1e-12


@pytest.mark.parametrize("upper_offset,order", [(-1, R_UPPER), (0, L_UPPER)])
def test_pairing_check_measures_each_mismatch(upper_offset, order):
    from qcawalk.amplitudes import _RUN_GAP
    from qcawalk.correspondence import _check_pairing

    # walk site k holds lattice sites 2k + upper_offset and 2k + upper_offset + 1
    eta = AmplitudeField({upper_offset: 0.6, upper_offset + 1: 0.8j, 6 + upper_offset: 0.1})
    walk = WalkState({0: (0.6, 0.8j), 3: (0.1, 0.0)}, order)
    assert _check_pairing(walk, eta, upper_offset) == (0.0, 0.0)

    off = WalkState({0: (0.6, 0.8j + 0.25), 3: (0.1, 0.0)}, order)
    amp, prob = _check_pairing(off, eta, upper_offset)
    assert amp == pytest.approx(0.25)
    assert prob == pytest.approx(abs(0.8j + 0.25) ** 2 - 0.64)

    far = superpose(eta, AmplitudeField.delta(41 + upper_offset), 1.0, 0.3)
    assert _check_pairing(walk, far, upper_offset)[0] == pytest.approx(0.3)
    moved = WalkState({0: (0.6, 0.8j), 4: (0.1, 0.0)}, order)
    assert _check_pairing(moved, eta, upper_offset)[0] == pytest.approx(0.1)

    # the first pair's upper component is zero, so its lattice run starts one site later
    lower_only = WalkState({0: (0.0, 0.8j), 3: (0.1, 0.0)}, order)
    tail = AmplitudeField({upper_offset + 1: 0.8j, 6 + upper_offset: 0.1})
    assert _check_pairing(lower_only, tail, upper_offset) == (0.0, 0.0)
    amp, prob = _check_pairing(lower_only, eta, upper_offset)
    assert (amp, prob) == (pytest.approx(0.6), pytest.approx(0.36))

    # walk runs more than _RUN_GAP apart stay separate runs on the lattice too
    k = _RUN_GAP + 8
    split = WalkState({0: (0.6, 0.8j), k: (0.0, 0.1)}, order)
    paired = AmplitudeField(
        {upper_offset: 0.6, upper_offset + 1: 0.8j, 2 * k + upper_offset + 1: 0.1}
    )
    assert _check_pairing(split, paired, upper_offset) == (0.0, 0.0)
    shifted = paired.shifted(2)
    assert _check_pairing(split, shifted, upper_offset)[0] == pytest.approx(0.8)


# ---------------------------------------------------------------------------
# Plain-walk reductions for the two-coefficient classes
# ---------------------------------------------------------------------------

def reduction_walk_pair(params, qubit, family):
    """Generalized walk and its claimed plain-walk equivalent."""
    blocks = generalized_blocks_from_qca(params, family)
    if family == "A":
        # roles of the move blocks and of the chiralities interchange
        coin = CoinMatrix(params.d, params.c, params.c, params.d)
        gen = WalkState.origin(qubit, R_UPPER)
        plain = WalkState.origin(qubit, L_UPPER)
    else:
        coin = CoinMatrix(params.d, params.a, params.a, params.d)
        gen = WalkState.origin(qubit, L_UPPER)
        plain = WalkState.origin(qubit, L_UPPER)
    return gen, blocks, plain, plain_blocks(coin, family)


@pytest.mark.parametrize("gamma", [0.3, 0.7853981633974483, 1.1])
def test_type_iii_reduces_to_plain_a_walk(gamma):
    params = QcaParams(0.0, 0.0, math.sin(gamma), 1j * math.cos(gamma))
    rng = np.random.default_rng(53)
    qubit = random_qubit(rng)
    gen, gen_blocks, plain, plain_blks = reduction_walk_pair(params, qubit, "A")
    for _ in range(30):
        gen = walk_step(gen, gen_blocks)
        plain = walk_step(plain, plain_blks)
        d1, d2 = walk_distribution(gen), walk_distribution(plain)
        for k in d1.support() | d2.support():
            assert abs(d1[k] - d2[k]) <= 1e-12
        # amplitudes agree exactly after swapping the chirality components
        for k in gen.support() | plain.support():
            u, l = gen[k]
            pu, pl = plain[k]
            assert abs(u - pl) <= 1e-12
            assert abs(l - pu) <= 1e-12


@pytest.mark.parametrize("gamma", [0.4, 0.9, 1.3])
def test_type_iv_reduces_to_plain_b_walk(gamma):
    params = QcaParams(math.cos(gamma), 0.0, 0.0, 1j * math.sin(gamma))
    rng = np.random.default_rng(59)
    qubit = random_qubit(rng)
    gen, gen_blocks, plain, plain_blks = reduction_walk_pair(params, qubit, "B")
    for _ in range(30):
        gen = walk_step(gen, gen_blocks)
        plain = walk_step(plain, plain_blks)
        for k in gen.support() | plain.support():
            u, l = gen[k]
            pu, pl = plain[k]
            assert abs(u - pu) <= 1e-12
            assert abs(l - pl) <= 1e-12


# ---------------------------------------------------------------------------
# Two-step factorization
# ---------------------------------------------------------------------------

def test_two_step_products_random():
    rng = np.random.default_rng(61)
    for _ in range(40):
        angles = AngleTriple(*rng.uniform(0.0, 2.0 * math.pi, 3))
        t1, t2 = rng.uniform(0.0, 2.0 * math.pi, 2)
        for family in ("A", "B"):
            assert verify_two_step(angles, t1, t2, family).max_error() <= 1e-12


def test_two_step_patel_point_coins():
    factors = two_step_factorize(PATEL_ANGLES, 0.0, 0.0, "A")
    want = INV_SQRT2 * np.array([[1j, 1.0], [1.0, 1j]])
    assert np.abs(factors.coin(1) - want).max() <= 1e-15
    assert np.abs(factors.coin(2) - want).max() <= 1e-15


def test_two_step_equal_coins_on_special_line():
    rng = np.random.default_rng(67)
    for _ in range(25):
        theta = rng.uniform(0.05, math.pi / 2 - 0.05)
        t1 = rng.uniform(0.0, 2.0 * math.pi)
        angles = AngleTriple(theta, math.pi / 2 - theta, 2 * t1 + math.pi / 2)
        factors = two_step_factorize(angles, t1, t1, "A")
        assert np.abs(factors.coin(1) - factors.coin(2)).max() <= 1e-12


def test_two_step_factors_reject_blocks_that_are_not_2x2():
    # P1 + Q1 is a 3x2 isometry, so the unitarity defect U^H U - I is zero
    p1 = [[1, 0], [0, 0], [0, 0]]
    q1 = [[0, 0], [0, 1], [0, 0]]
    with pytest.raises(ValueError, match="2x2"):
        TwoStepFactors(p1, q1, p1, q1)


def test_families_share_half_step_coins():
    rng = np.random.default_rng(71)
    for _ in range(20):
        angles = AngleTriple(*rng.uniform(0.0, 2.0 * math.pi, 3))
        t1, t2 = rng.uniform(0.0, 2.0 * math.pi, 2)
        fa = two_step_factorize(angles, t1, t2, "A")
        fb = two_step_factorize(angles, t1, t2, "B")
        for n in (1, 2):
            assert np.abs(fa.coin(n) - fb.coin(n)).max() <= 1e-15


def two_half_steps(state, factors):
    """Plain walk steps with blocks (P1, Q1), then (P2, Q2), in the state's ordering."""
    zero = np.zeros((2, 2))
    for p, q in ((factors.P1, factors.Q1), (factors.P2, factors.Q2)):
        state = walk_step(state, CoinBlocks(p, zero, q, p_side=1, order=state.order))
    return state


def test_one_generalized_step_equals_two_half_steps():
    # family A embeds the walk on even sites with reflection, family B without
    rng = np.random.default_rng(73)
    for _ in range(10):
        angles = AngleTriple(*rng.uniform(0.0, 2.0 * math.pi, 3))
        t1, t2 = rng.uniform(0.0, 2.0 * math.pi, 2)
        params = params_from_angles(angles)
        qubit = random_qubit(rng)
        for family, embed in (("A", lambda k: -2 * k), ("B", lambda k: 2 * k)):
            factors = two_step_factorize(angles, t1, t2, family)
            blocks = generalized_blocks_from_qca(params, family)
            gen = WalkState.origin(qubit, blocks.order)
            fine = WalkState.origin(qubit, blocks.order)
            for _ in range(6):
                gen = walk_step(gen, blocks)
                fine = two_half_steps(fine, factors)
            for k in gen.support():
                u, l = gen[k]
                fu, fl = fine[embed(k)]
                assert abs(u - fu) <= 1e-12
                assert abs(l - fl) <= 1e-12
            assert abs(fine.norm_sq() - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# Even/odd pair factorization
# ---------------------------------------------------------------------------

def test_patel_factorize_reference_point():
    params, report = patel_factorize(PatelParams(math.pi / 4, math.pi / 4))
    assert report.max_amplitude_error <= 1e-12
    for got, want in zip(params.astuple(), (0.5j, 0.5, 0.5j, -0.5)):
        assert abs(got - want) <= 1e-15
    coin = patel_coin(math.pi / 4)
    want_coin = INV_SQRT2 * np.array([[1.0, 1j], [1j, 1.0]])
    assert np.abs(coin - want_coin).max() <= 1e-15


def test_patel_factorize_phi1_zero_degenerates():
    phi2 = 0.9
    params, report = patel_factorize(PatelParams(0.0, phi2))
    assert report.max_amplitude_error <= 1e-12
    a, b, c, d = params.astuple()
    assert abs(a - 1j * math.sin(phi2)) <= 1e-15
    assert abs(b - math.cos(phi2)) <= 1e-15
    assert abs(c) <= 1e-15 and abs(d) <= 1e-15


def test_patel_factorize_both_zero_is_trivial_shift():
    params, report = patel_factorize(PatelParams(0.0, 0.0))
    assert report.max_amplitude_error <= 1e-12
    assert params.astuple() == (0j, (1 + 0j), 0j, 0j)


def test_patel_grid_small():
    for phi1 in np.linspace(0.0, 2 * math.pi, 9, endpoint=False):
        for phi2 in np.linspace(0.0, 2 * math.pi, 9, endpoint=False):
            _, report = patel_factorize(PatelParams(float(phi1), float(phi2)))
            assert report.max_amplitude_error <= 1e-12


def test_half_steps_compose_to_full_step_on_fields():
    rng = np.random.default_rng(79)
    for _ in range(10):
        phi1, phi2 = rng.uniform(0.0, 2.0 * math.pi, 2)
        params, _ = patel_factorize(PatelParams(phi1, phi2))
        sites = rng.choice(np.arange(-15, 15), size=8, replace=False)
        entries = {int(k): complex(*rng.normal(size=2)) for k in sites}
        scale = math.sqrt(sum(abs(z) ** 2 for z in entries.values()))
        field = AmplitudeField({k: z / scale for k, z in entries.items()})
        # odd half step first, then even
        composed = patel_even_step(patel_odd_step(field, phi2), phi1)
        direct = qca_step(field, params)
        assert max_difference(composed, direct) <= 1e-12
        assert abs(composed.norm_sq() - 1.0) <= 1e-12


@pytest.mark.parametrize("half_step, first_top", [(patel_even_step, 0), (patel_odd_step, -1)])
def test_half_steps_match_block_diagonal_pair_coins(half_step, first_top):
    # even pairs are (2k, 2k+1), odd pairs (2k-1, 2k): a window starting at
    # the top of a pair is tiled exactly by the coin blocks
    rng = np.random.default_rng(97)
    npairs = 12
    window = np.arange(first_top - 10, first_top - 10 + 2 * npairs)
    for _ in range(20):
        phi = rng.uniform(0.0, 2.0 * math.pi)
        sites = rng.choice(window, size=int(rng.integers(1, 2 * npairs)), replace=False)
        field = AmplitudeField({int(k): complex(*rng.normal(size=2)) for k in sites})
        dense = np.kron(np.eye(npairs), patel_coin(phi))
        want = dense @ np.array([field[int(k)] for k in window])
        got = half_step(field, phi)
        assert got.support() <= set(window.tolist())
        assert np.abs(np.array([got[int(k)] for k in window]) - want).max() <= 1e-13


def test_half_step_order_matters():
    phi1, phi2 = 0.7, 0.3
    params, _ = patel_factorize(PatelParams(phi1, phi2))
    field = AmplitudeField.delta(0)
    wrong = patel_odd_step(patel_even_step(field, phi1), phi2)
    direct = qca_step(field, params)
    assert max_difference(wrong, direct) > 1e-3


# ---------------------------------------------------------------------------
# Lattice-gas angle substitution
# ---------------------------------------------------------------------------

def test_meyer_angles_at_origin():
    t = meyer_angles(0.0, 0.0)
    assert t.theta == pytest.approx(math.pi / 2)
    assert t.phi == 0.0
    assert t.delta == pytest.approx(3 * math.pi / 2)


def test_meyer_angles_rule_application():
    t = meyer_angles(math.pi / 4, 0.0)
    assert t.theta == pytest.approx(math.pi / 2)
    assert t.phi == pytest.approx(math.pi / 4)
    assert t.delta == pytest.approx(3 * math.pi / 2)


def test_meyer_angles_always_yield_unitary_tuples():
    rng = np.random.default_rng(83)
    for _ in range(50):
        rho, theta = rng.uniform(0.0, 2.0 * math.pi, 2)
        params = params_from_angles(meyer_angles(rho, theta))
        assert max(unitarity_residuals(*params.astuple())) <= 1e-12
