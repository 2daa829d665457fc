"""Coin splitting, block validation, and walk stepping against dense oracles."""

import math

import numpy as np
import pytest

from dense_reference import dense_walk_matrix, walk_to_vector
from qcawalk.algebra import L_UPPER, R_UPPER
from qcawalk.coined_walks import (
    CoinBlocks,
    CoinMatrix,
    WalkState,
    evolve_walk,
    generalized_blocks_from_qca,
    plain_blocks,
    walk_distribution,
    walk_step,
)
from qcawalk.params import AngleTriple, QcaParams, normalized_qubit, params_from_angles

INV_SQRT2 = 1.0 / math.sqrt(2.0)
PATEL = QcaParams(0.5j, 0.5, 0.5j, -0.5)
BALANCED_COIN = CoinMatrix(1j * INV_SQRT2, INV_SQRT2, INV_SQRT2, 1j * INV_SQRT2)


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
# CoinMatrix / qubit normalization
# ---------------------------------------------------------------------------

def test_coin_matrix_accepts_balanced_coin():
    u = BALANCED_COIN.matrix
    assert np.abs(u.conj().T @ u - np.eye(2)).max() <= 1e-15


def test_coin_matrix_rejects_non_unitary():
    with pytest.raises(ValueError):
        CoinMatrix(1.0, 1.0, 0.0, 1.0)


def test_coin_matrix_determinant_relations():
    rng = np.random.default_rng(2)
    for _ in range(25):
        chi = rng.uniform(0, math.pi / 2)
        pa, pb, pd = rng.uniform(0, 2 * math.pi, 3)
        a = math.cos(chi) * complex(math.cos(pa), math.sin(pa))
        b = math.sin(chi) * complex(math.cos(pb), math.sin(pb))
        det = complex(math.cos(pd), math.sin(pd))
        coin = CoinMatrix(a, b, -det * b.conjugate(), det * a.conjugate())
        got = np.linalg.det(coin.matrix)
        assert abs(abs(got) - 1.0) <= 1e-12
        assert abs(coin.c + got * coin.b.conjugate()) <= 1e-12
        assert abs(coin.d - got * coin.a.conjugate()) <= 1e-12


def test_qubit_state_normalization():
    alpha, beta = normalized_qubit((INV_SQRT2, 1j * INV_SQRT2))
    assert abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) <= 1e-15
    with pytest.raises(ValueError):
        normalized_qubit((1.0, 1.0))


# ---------------------------------------------------------------------------
# Block construction
# ---------------------------------------------------------------------------

def test_plain_blocks_family_a_rows():
    blocks = plain_blocks(BALANCED_COIN, "A")
    assert np.allclose(blocks.P, [[1j * INV_SQRT2, INV_SQRT2], [0, 0]])
    assert np.allclose(blocks.Q, [[0, 0], [INV_SQRT2, 1j * INV_SQRT2]])
    assert np.allclose(blocks.coin, BALANCED_COIN.matrix)
    assert blocks.p_side == 1 and blocks.order == L_UPPER


def test_plain_blocks_identity_coin():
    blocks = plain_blocks(CoinMatrix(1.0, 0.0, 0.0, 1.0), "A")
    assert np.allclose(blocks.P, [[1, 0], [0, 0]])
    assert np.allclose(blocks.Q, [[0, 0], [0, 1]])


def test_plain_blocks_family_b_columns():
    blocks = plain_blocks(BALANCED_COIN, "B")
    assert np.allclose(blocks.P, [[1j * INV_SQRT2, 0], [INV_SQRT2, 0]])
    assert np.allclose(blocks.Q, [[0, INV_SQRT2], [0, 1j * INV_SQRT2]])


def test_generalized_blocks_family_a_patel():
    blocks = generalized_blocks_from_qca(PATEL, "A")
    assert np.allclose(blocks.P, [[-0.5, 0.5j], [0, 0]])
    assert np.allclose(blocks.T, [[0.5, 0.5j], [0.5j, 0.5]])
    assert np.allclose(blocks.Q, [[0, 0], [0.5j, -0.5]])
    assert blocks.p_side == -1 and blocks.order == R_UPPER


def test_generalized_blocks_type_iii_has_zero_stay():
    params = QcaParams(0.0, 0.0, INV_SQRT2, 1j * INV_SQRT2)
    blocks = generalized_blocks_from_qca(params, "A")
    assert not blocks.T.any()


def test_generalized_blocks_type_iv_has_zero_stay():
    params = QcaParams(INV_SQRT2, 0.0, 0.0, 1j * INV_SQRT2)
    blocks = generalized_blocks_from_qca(params, "B")
    assert not blocks.T.any()


def test_generalized_blocks_unitary_for_random_angles():
    rng = np.random.default_rng(7)
    for _ in range(100):
        params = random_params(rng)
        for family in ("A", "B"):
            blocks = generalized_blocks_from_qca(params, family)
            assert blocks.unitarity_residual() <= 1e-12


def test_coin_blocks_reject_non_unitary_assembly():
    bad = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        CoinBlocks(bad, np.zeros((2, 2)), bad)


def test_coin_blocks_reject_blocks_that_are_not_2x2():
    # P + Q is a 3x2 isometry with T = 0, so every unitarity defect is zero
    p = [[1, 0], [0, 0], [0, 0]]
    q = [[0, 0], [0, 1], [0, 0]]
    with pytest.raises(ValueError, match="2x2"):
        CoinBlocks(p, np.zeros((3, 2)), q)


def test_coin_blocks_reject_a_nonzero_cross_move_term_alone():
    # P^H P + T^H T + Q^H Q = I and P^H T + T^H Q = 0, so only P^H Q = I/2 is off
    half = np.eye(2) * INV_SQRT2
    with pytest.raises(ValueError, match=r"\(residual 5\.000e-01\)"):
        CoinBlocks(half, np.zeros((2, 2)), half)


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: CoinBlocks([[math.nan, 0], [0, 1]], np.zeros((2, 2)), np.zeros((2, 2))),
         "non-finite"),
        (lambda: CoinBlocks(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)), p_side=0), "p_side"),
        (lambda: CoinBlocks(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)), order="up"),
         "order"),
        (lambda: WalkState({0: (1.0, 0.0)}, "up"), "order"),
        (lambda: plain_blocks(BALANCED_COIN, "C"), "family"),
        (lambda: generalized_blocks_from_qca(PATEL, "C"), "family"),
    ],
)
def test_constructors_reject_invalid_arguments(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_stay_block_weight_follows_angles():
    # Total stay weight depends only on the first angle; the direct
    # stay-in-place entry grows with the second.
    rng = np.random.default_rng(9)
    for _ in range(10):
        theta, delta = rng.uniform(0.1, 1.4), rng.uniform(0, 2 * math.pi)
        phis = np.linspace(0.1, math.pi / 2 - 0.1, 8)
        diag = []
        for phi in phis:
            blocks = generalized_blocks_from_qca(
                params_from_angles(AngleTriple(theta, phi, delta)), "A"
            )
            fro_sq = float((np.abs(blocks.T) ** 2).sum())
            assert abs(fro_sq - 2 * math.cos(theta) ** 2) <= 1e-12
            diag.append(abs(blocks.T[0, 0]))
        assert all(x < y for x, y in zip(diag, diag[1:]))


# ---------------------------------------------------------------------------
# walk_step
# ---------------------------------------------------------------------------

def test_plain_step_from_origin():
    rng = np.random.default_rng(13)
    alpha, beta = random_qubit(rng)
    blocks = plain_blocks(BALANCED_COIN, "A")
    state = walk_step(WalkState.origin((alpha, beta), L_UPPER), blocks)
    a, b, c, d = BALANCED_COIN.a, BALANCED_COIN.b, BALANCED_COIN.c, BALANCED_COIN.d
    assert state[-1][0] == pytest.approx(a * alpha + b * beta)
    assert state[-1][1] == 0j
    assert state[1][0] == 0j
    assert state[1][1] == pytest.approx(c * alpha + d * beta)


def test_identity_coin_splits_left_right():
    blocks = plain_blocks(CoinMatrix(1.0, 0.0, 0.0, 1.0), "A")
    state = walk_step(WalkState.origin((0.6, 0.8), L_UPPER), blocks)
    assert state[-1] == (0.6, 0j)
    assert state[1] == (0j, 0.8)


def test_empty_walk_steps_to_empty():
    state = walk_step(WalkState({}, L_UPPER), plain_blocks(BALANCED_COIN, "B"))
    assert len(state) == 0 and state.order == L_UPPER


def test_step_rejects_order_mismatch():
    blocks = generalized_blocks_from_qca(PATEL, "A")  # written R-upper
    state = WalkState.origin((1.0, 0.0), L_UPPER)
    with pytest.raises(ValueError):
        walk_step(state, blocks)


@pytest.mark.parametrize("n", [0, 1, 100])
def test_evolve_walk_rejects_an_order_mismatch_as_walk_step_does(n):
    # PATEL's symbol jumps, so n > 0 would take the jump if the check came after the decision
    blocks = generalized_blocks_from_qca(PATEL, "A")
    state = WalkState.origin((1.0, 0.0), L_UPPER)
    with pytest.raises(ValueError) as stepped:
        walk_step(state, blocks)
    with pytest.raises(ValueError) as evolved:
        evolve_walk(state, blocks, n)
    assert str(evolved.value) == str(stepped.value)


def _assert_step_matches_dense_oracle(blocks, rng):
    state = WalkState.origin(random_qubit(rng), blocks.order)
    for _ in range(4):
        state = walk_step(state, blocks)
    lo, hi = -8, 8
    dense = dense_walk_matrix(blocks.P, blocks.T, blocks.Q, blocks.p_side, lo, hi)
    expected = np.linalg.matrix_power(dense, 1) @ walk_to_vector(state, lo, hi)
    stepped = walk_step(state, blocks)
    assert np.abs(walk_to_vector(stepped, lo, hi) - expected).max() <= 1e-12


def test_walk_step_matches_dense_oracle():
    rng = np.random.default_rng(19)
    for _ in range(20):
        params = random_params(rng)
        family = "A" if rng.uniform() < 0.5 else "B"
        _assert_step_matches_dense_oracle(generalized_blocks_from_qca(params, family), rng)
    # T = 0, and hand-built blocks in the orientation and ordering the families do not use
    plain_a, plain_b = plain_blocks(BALANCED_COIN, "A"), plain_blocks(BALANCED_COIN, "B")
    for blocks in (
        plain_a,
        plain_b,
        CoinBlocks(plain_a.P, plain_a.T, plain_a.Q, p_side=-1, order=L_UPPER),
        CoinBlocks(plain_b.P, plain_b.T, plain_b.Q, p_side=1, order=R_UPPER),
    ):
        _assert_step_matches_dense_oracle(blocks, rng)


def test_walk_norm_conservation():
    rng = np.random.default_rng(43)
    for _ in range(10):
        params = random_params(rng)
        family = "A" if rng.uniform() < 0.5 else "B"
        blocks = generalized_blocks_from_qca(params, family)
        state = WalkState.origin(random_qubit(rng), blocks.order)
        for _ in range(30):
            state = walk_step(state, blocks)
        assert abs(state.norm_sq() - 1.0) <= 1e-12


def test_plain_walk_support_and_parity():
    rng = np.random.default_rng(47)
    blocks = plain_blocks(BALANCED_COIN, "A")
    state = WalkState.origin(random_qubit(rng), L_UPPER)
    for n in range(1, 12):
        state = walk_step(state, blocks)
        assert all(-n <= s <= n and (s - n) % 2 == 0 for s in state.support())


def test_generalized_walk_support_bound():
    blocks = generalized_blocks_from_qca(PATEL, "A")
    state = WalkState.origin((1.0, 0.0), R_UPPER)
    for n in range(1, 12):
        state = walk_step(state, blocks)
        assert all(-n <= s <= n for s in state.support())


# ---------------------------------------------------------------------------
# walk_distribution
# ---------------------------------------------------------------------------

def test_distribution_of_origin_state():
    dist = walk_distribution(WalkState.origin((INV_SQRT2, 1j * INV_SQRT2), L_UPPER))
    assert dist.support() == {0}
    assert dist[0] == pytest.approx(1.0)


def test_distribution_split_state():
    state = WalkState({-1: (0.6, 0.0), 1: (0.0, 0.8j)}, L_UPPER)
    dist = walk_distribution(state)
    assert dist[-1] == pytest.approx(0.36)
    assert dist[1] == pytest.approx(0.64)


def test_balanced_coin_symmetric_distribution():
    blocks = plain_blocks(BALANCED_COIN, "A")
    state = WalkState.origin((INV_SQRT2, INV_SQRT2), L_UPPER)
    for _ in range(2):
        state = walk_step(state, blocks)
    dist = walk_distribution(state)
    for k in dist.support():
        assert dist[k] == pytest.approx(dist[-k], abs=1e-12)


# ---------------------------------------------------------------------------
# Array-backed walk states keep the mapping API
# ---------------------------------------------------------------------------

def test_walk_state_prunes_each_component():
    state = WalkState({0: (0.6, 1e-16), 1: (1e-17, 0.0), 2: (0.0, 0.8j)}, L_UPPER)
    assert state.support() == {0, 2}
    assert len(state) == 2
    assert state[0] == (0.6, 0j)
    assert state[1] == (0j, 0j)


@pytest.mark.parametrize("pair", [(math.nan, 0.0), (0.6, complex(0.0, math.inf))])
def test_walk_state_rejects_non_finite_component(pair):
    with pytest.raises(ValueError):
        WalkState({3: pair}, L_UPPER)


def test_walk_state_iterates_in_ascending_order():
    state = WalkState({7: (0.6, 0.0), -3: (0.0, 0.8), 2_000_000: (0.0, 0.0)}, R_UPPER)
    assert list(state) == [-3, 7]
    assert state.items() == [(-3, (0j, 0.8 + 0j)), (7, (0.6 + 0j, 0j))]
    assert repr(state) == "WalkState({-3: (0j, (0.8+0j)), 7: ((0.6+0j), 0j)}, order='R-upper')"


def test_walk_states_compare_by_entries_and_order():
    state = WalkState({0: (1, 0), 3: (0.6, 0.8j)}, L_UPPER)
    assert state == WalkState({3: (0.6, 0.8j), 0: (1, 0)}, L_UPPER)
    assert state != WalkState({0: (1, 0), 3: (0.6, 0.8)}, L_UPPER)
    assert state != WalkState({0: (1, 0), 3: (0.6, 0.8j)}, R_UPPER)
    blocks = generalized_blocks_from_qca(PATEL, "B")
    assert walk_step(state, blocks) == walk_step(state, blocks)
    with pytest.raises(TypeError, match="unhashable"):
        hash(state)


def test_walk_step_prunes_dust_it_produces():
    blocks = generalized_blocks_from_qca(PATEL, "B")
    state = WalkState({0: (0.6, 0.0), 10: (1.5e-15, 0.0), 20: (0.8, 0.0)}, L_UPPER)
    assert walk_step(state, blocks).support() == {-1, 0, 19, 20}
    assert len(walk_step(state, blocks)) == 4
    assert len(walk_step(WalkState({5: (1.5e-15, 0.0)}, L_UPPER), blocks)) == 0


def test_walkers_packed_into_one_step_match_each_stepped_alone():
    # gaps of both parities around _RUN_GAP
    blocks = generalized_blocks_from_qca(PATEL, "B")
    starts = {0: (0.6, 0.0), 31: (0.0, 0.8j), 70: (0.5, 0.5j), 105: (0.3j, 0.1)}
    state = WalkState(starts, L_UPPER)
    alone = [WalkState({k: v}, L_UPPER) for k, v in starts.items()]
    for _ in range(12):
        state = walk_step(state, blocks)
        alone = [walk_step(s, blocks) for s in alone]
        for k in state.support() | set().union(*(s.support() for s in alone)):
            want = np.sum([s[k] for s in alone], axis=0)
            assert np.abs(np.array(state[k]) - want).max() <= 1e-15


def test_walk_step_keeps_far_apart_walkers_separate():
    blocks = generalized_blocks_from_qca(PATEL, "B")
    far = 3_000_000
    state = WalkState({0: (INV_SQRT2, 0.0), far: (INV_SQRT2, 0.0)}, L_UPPER)
    near = WalkState({0: (INV_SQRT2, 0.0)}, L_UPPER)
    for _ in range(3):
        state = walk_step(state, blocks)
        near = walk_step(near, blocks)
    assert len(state) == 2 * len(near)
    for k in near:
        assert state[k] == near[k]
        assert state[k + far] == near[k]
