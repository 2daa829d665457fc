"""Cross-model identity checks: pairings, reductions, and factorizations."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qcawalk import algebra
from qcawalk.algebra import (
    L_UPPER,
    R_UPPER,
    PatelParams,
    _generalized_blocks,
    _half_steps,
    _two_step_residual,
    patel_coin,
    patel_factorize,
    verify_two_step,
)
from qcawalk.amplitudes import AmplitudeField, max_difference, superpose
from qcawalk.coined_walks import (
    CoinMatrix,
    WalkState,
    generalized_blocks_from_qca,
    plain_blocks,
    walk_distribution,
    walk_step,
)
from qcawalk.correspondence import (
    patel_even_step,
    patel_odd_step,
    two_step_factorize,
    verify_A_correspondence,
    verify_B_correspondence,
)
from qcawalk.params import AngleTriple, QcaParams, params_from_angles
from qcawalk.qca_core import qca_step
from test_properties import PROPERTY_SETTINGS, angle, fields, qubits

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
    from qcawalk.amplitudes import _RUN_GAP, _mismatch, _paired_field

    # walk site k holds lattice sites 2k + upper_offset and 2k + upper_offset + 1
    eta = AmplitudeField({upper_offset: 0.6, upper_offset + 1: 0.8j, 6 + upper_offset: 0.1})
    walk = WalkState({0: (0.6, 0.8j), 3: (0.1, 0.0)}, order)
    assert _mismatch(_paired_field(walk, upper_offset), eta) == (0.0, 0.0)

    off = WalkState({0: (0.6, 0.8j + 0.25), 3: (0.1, 0.0)}, order)
    amp, prob = _mismatch(_paired_field(off, upper_offset), eta)
    assert amp == pytest.approx(0.25)
    assert prob == pytest.approx(abs(0.8j + 0.25) ** 2 - 0.64)

    far = superpose(eta, AmplitudeField.delta(41 + upper_offset), 1.0, 0.3)
    assert _mismatch(_paired_field(walk, upper_offset), far)[0] == pytest.approx(0.3)
    moved = WalkState({0: (0.6, 0.8j), 4: (0.1, 0.0)}, order)
    assert _mismatch(_paired_field(moved, upper_offset), eta)[0] == pytest.approx(0.1)

    # the first pair's upper component is zero, so its lattice run starts one site later
    lower_only = WalkState({0: (0.0, 0.8j), 3: (0.1, 0.0)}, order)
    tail = AmplitudeField({upper_offset + 1: 0.8j, 6 + upper_offset: 0.1})
    assert _mismatch(_paired_field(lower_only, upper_offset), tail) == (0.0, 0.0)
    amp, prob = _mismatch(_paired_field(lower_only, upper_offset), eta)
    assert (amp, prob) == (pytest.approx(0.6), pytest.approx(0.36))

    # walk runs more than _RUN_GAP apart stay separate runs on the lattice too
    k = _RUN_GAP + 8
    split = WalkState({0: (0.6, 0.8j), k: (0.0, 0.1)}, order)
    paired = AmplitudeField(
        {upper_offset: 0.6, upper_offset + 1: 0.8j, 2 * k + upper_offset + 1: 0.1}
    )
    assert _mismatch(_paired_field(split, upper_offset), paired) == (0.0, 0.0)
    shifted = paired.shifted(2)
    assert _mismatch(_paired_field(split, upper_offset), shifted)[0] == pytest.approx(0.8)


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


@pytest.mark.parametrize("family", ["A", "B"])
@pytest.mark.parametrize("block", ["P", "T", "Q"])
def test_two_step_check_sees_a_fault_in_each_product(block, family):
    angles = AngleTriple(1.1, 0.4, 2.0)
    first, second = _half_steps(angles, 0.3, 0.7, family)
    targets = dict(zip("PTQ", _generalized_blocks(params_from_angles(angles), family)))
    assert _two_step_residual(first, second, *targets.values()) <= 1e-12
    # only the product identity whose target is planted can see it
    targets[block] = [[z + 1e-9 for z in row] for row in targets[block]]
    residual = _two_step_residual(first, second, *targets.values())
    assert residual == pytest.approx(1e-9, rel=1e-3)


def test_two_step_patel_point_coins():
    want = INV_SQRT2 * np.array([[1j, 1.0], [1.0, 1j]])
    for half_step in two_step_factorize(PATEL_ANGLES, 0.0, 0.0, "A"):
        assert np.abs(half_step.coin - want).max() <= 1e-15


def test_two_step_equal_coins_on_special_line():
    rng = np.random.default_rng(67)
    for _ in range(25):
        theta = rng.uniform(0.05, math.pi / 2 - 0.05)
        t1 = rng.uniform(0.0, 2.0 * math.pi)
        angles = AngleTriple(theta, math.pi / 2 - theta, 2 * t1 + math.pi / 2)
        first, second = two_step_factorize(angles, t1, t1, "A")
        assert np.abs(first.coin - second.coin).max() <= 1e-12


@pytest.mark.parametrize("verify", [verify_A_correspondence, verify_B_correspondence])
def test_pairing_checks_reject_negative_step_counts(verify):
    with pytest.raises(ValueError, match="nonnegative"):
        verify(PATEL, (1.0, 0.0), -1)


def test_families_share_half_step_coins():
    rng = np.random.default_rng(71)
    for _ in range(20):
        angles = AngleTriple(*rng.uniform(0.0, 2.0 * math.pi, 3))
        t1, t2 = rng.uniform(0.0, 2.0 * math.pi, 2)
        halves_a = two_step_factorize(angles, t1, t2, "A")
        halves_b = two_step_factorize(angles, t1, t2, "B")
        for a, b in zip(halves_a, halves_b):
            assert np.abs(a.coin - b.coin).max() <= 1e-15


@PROPERTY_SETTINGS
@given(st.tuples(angle, angle, angle), angle, angle, qubits, st.integers(0, 8),
       st.sampled_from(["A", "B"]))
def test_one_generalized_step_equals_two_half_steps(triple, t1, t2, qubit, n, family):
    # the half steps are walk steps in the family's frame: walk site k lands on 2k
    angles = AngleTriple(*triple)
    blocks = generalized_blocks_from_qca(params_from_angles(angles), family)
    first, second = two_step_factorize(angles, t1, t2, family)
    assert (first.p_side, first.order) == (second.p_side, second.order)
    assert (first.p_side, first.order) == (blocks.p_side, blocks.order)
    gen = fine = WalkState.origin(qubit, blocks.order)
    for _ in range(n):
        gen = walk_step(gen, blocks)
        fine = walk_step(walk_step(fine, first), second)
    assert all(k % 2 == 0 for k in fine.support())
    for k in gen.support() | {k // 2 for k in fine.support()}:
        assert max(abs(g - f) for g, f in zip(gen[k], fine[2 * k])) <= 1e-12


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


@pytest.mark.parametrize(
    "name, planted",
    [
        # link 1: the half-step coins
        ("_half_step_coins", lambda exact: lambda angles, t1, t2: exact(angles, t1 + 1e-9, t2)),
        # the symbol link: the lattice tuple at the mapped angles, and Patel's own half step
        ("params_from_angles",
         lambda exact: lambda a: exact(AngleTriple(a.theta + 1e-9, a.phi, a.delta))),
        ("_even_tuple", lambda exact: lambda phi1: exact(phi1 + 1e-9)),
    ],
    ids=["_half_step_coins", "params_from_angles", "_even_tuple"],
)
def test_patel_factorize_sees_a_fault_in_each_link(monkeypatch, name, planted):
    p = PatelParams(0.3, 1.2)
    assert patel_factorize(p)[1].max_error() <= 1e-12
    monkeypatch.setattr(algebra, name, planted(getattr(algebra, name)))
    assert 1e-10 < patel_factorize(p)[1].max_error() < 1e-8


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


@PROPERTY_SETTINGS
@given(angle, angle, fields)
def test_lattice_half_steps_compose_to_the_certified_step(phi1, phi2, field):
    # the symbol certificate holds the lattice engine's half steps over the whole square
    params, report = patel_factorize(PatelParams(phi1, phi2))
    assert report.max_error() <= 1e-12
    composed = patel_even_step(patel_odd_step(field, phi2), phi1)
    assert max_difference(composed, qca_step(field, params)) <= 1e-12


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


def test_array_holding_parameter_objects_compare_by_identity():
    one, other = (generalized_blocks_from_qca(PATEL, "B") for _ in range(2))
    assert one == one and one != other
    assert len({one, other}) == 2
