"""Property tests of the lattice step over random tuples, qubits and step counts."""

import cmath
import math

import mpmath
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qcawalk.algebra import (
    PatelParams,
    _half_step_coins,
    patel_coin,
    patel_factorize,
    verify_two_step,
)
from qcawalk.amplitudes import (
    PRUNE_TOLERANCE,
    AmplitudeField,
    _jump_refusal,
    max_difference,
    superpose,
    to_distribution,
)
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
from qcawalk.correspondence import (
    two_step_factorize,
    verify_A_correspondence,
    verify_B_correspondence,
)
from qcawalk.params import (
    _IDENTITY,
    _ZERO,
    RESIDUAL_TOLERANCE,
    AngleTriple,
    QcaParams,
    QcaTypeClass,
    _add,
    _adjoint,
    _distance,
    _generalized_blocks,
    _product,
    _unitarity_residual,
    classify,
    params_from_angles,
)
from qcawalk.qca_core import _evolve, evolve_eta, qca_distribution, qca_step

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

angle = st.floats(0.0, 2.0 * math.pi, exclude_max=True)
params = st.builds(lambda t, p, d: params_from_angles(AngleTriple(t, p, d)), angle, angle, angle)
qubits = st.builds(
    lambda chi, pa, pb: (math.cos(chi) * cmath.exp(1j * pa), math.sin(chi) * cmath.exp(1j * pb)),
    st.floats(0.0, math.pi / 2),
    angle,
    angle,
)
steps = st.integers(0, 64)
sites = st.integers(-40, 40)
signs = st.sampled_from(["+", "-"])
amplitudes = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
fields = st.dictionaries(
    st.integers(-30, 30),
    amplitudes,
    min_size=1,
    max_size=12,
).map(AmplitudeField).filter(lambda f: f.norm_sq() > 1e-6)


def evolve(field, n, p):
    for _ in range(n):
        field = qca_step(field, p)
    return field


@PROPERTY_SETTINGS
@given(params, qubits, steps, sites, signs)
def test_superposed_evolution_is_the_superposition_of_basis_evolutions(p, qubit, n, m, sign):
    alpha, beta = qubit
    second = m + (1 if sign == "+" else -1)
    start = superpose(AmplitudeField.delta(m), AmplitudeField.delta(second), alpha, beta)
    combined = superpose(evolve_eta(m, n, p), evolve_eta(second, n, p), alpha, beta)
    assert max_difference(evolve(start, n, p), combined) <= 1e-13

    dist = qca_distribution(m, sign, qubit, n, p)
    want = to_distribution(combined)
    assert max(abs(dist[k] - want[k]) for k in dist.support() | want.support()) <= 1e-13


@PROPERTY_SETTINGS
@given(params, fields, steps)
def test_step_commutes_with_translation_by_two_sites(p, field, n):
    moved_then_evolved = evolve(field.shifted(2), n, p)
    evolved_then_moved = evolve(field, n, p).shifted(2)
    assert max_difference(moved_then_evolved, evolved_then_moved) <= 1e-13


@PROPERTY_SETTINGS
@given(params, fields, steps)
def test_step_conserves_norm(p, field, n):
    before = field.norm_sq()
    assert abs(evolve(field, n, p).norm_sq() - before) <= 1e-12 * before


@PROPERTY_SETTINGS
@given(params, qubits, st.integers(0, 24))
def test_walk_pairings_hold(p, qubit, n):
    assert verify_A_correspondence(p, qubit, n).max_error() <= 1e-12
    assert verify_B_correspondence(p, qubit, n).max_error() <= 1e-12


# The second branch sits where each family puts the lower component of site 0:
# A's walk site k holds lattice sites (2k - 1, 2k), B's (2k, 2k + 1).
PLACEMENTS = {"A": ("-", -1), "B": ("+", 0)}
families = st.sampled_from(sorted(PLACEMENTS))


@PROPERTY_SETTINGS
@given(params, st.one_of(st.sampled_from([(1, 0), (0, 1)]), qubits), st.integers(0, 24), families)
def test_walk_starts_where_its_lattice_branch_combination_starts(p, qubit, n, family):
    sign, offset = PLACEMENTS[family]
    blocks = generalized_blocks_from_qca(p, family)
    walk = WalkState.origin(qubit, blocks.order)
    for _ in range(n):
        walk = walk_step(walk, blocks)
    lattice = qca_distribution(0, sign, qubit, n, p)
    masses = walk_distribution(walk)
    for k in masses.support() | {(j - offset) // 2 for j in lattice.support()}:
        paired = lattice[2 * k + offset] + lattice[2 * k + offset + 1]
        assert abs(masses[k] - paired) <= 1e-12


def unitary_coin(t, a, b, g):
    """The coin e^{ig} [[e^{ia} cos t, e^{ib} sin t], [-e^{-ib} sin t, e^{-ia} cos t]]."""
    c, s = math.cos(t), math.sin(t)
    rows = (cmath.exp(1j * a) * c, cmath.exp(1j * b) * s,
            -cmath.exp(-1j * b) * s, cmath.exp(-1j * a) * c)
    return CoinMatrix(*(cmath.exp(1j * g) * z for z in rows))


def boosted(blocks, g):
    """``blocks`` with P and Q scaled by opposite phases: unitary, with S(p + g) for symbol."""
    phase = cmath.exp(1j * g)
    return CoinBlocks(blocks.P * phase, blocks.T, blocks.Q / phase, blocks.p_side, blocks.order)


generalized_walk_blocks = st.builds(generalized_blocks_from_qca, params, families)
plain_walk_blocks = st.builds(
    plain_blocks, st.builds(unitary_coin, angle, angle, angle, angle), families
)
walk_blocks = st.one_of(generalized_walk_blocks, plain_walk_blocks)
# a boost by 0 or pi keeps the symbol even, so it stays away from both
boosted_walk_blocks = st.builds(boosted, generalized_walk_blocks, st.floats(0.1, 3.0))
half_step_blocks = st.builds(
    lambda t, p, d, t1, t2, family, i: two_step_factorize(AngleTriple(t, p, d), t1, t2, family)[i],
    angle, angle, angle, angle, angle, families, st.integers(0, 1),
)
walk_sites = st.dictionaries(
    st.integers(-30, 30), st.tuples(amplitudes, amplitudes), min_size=1, max_size=12
)


def hand_expanded_residual(p, t, q):
    """The three conditions of a unitary step written out, ``_unitarity_residual``'s oracle.

    ``P^H P + T^H T + Q^H Q = 1``, ``P^H T + T^H Q = 0`` and ``P^H Q = 0``.
    """
    ph, th, qh = _adjoint(p), _adjoint(t), _adjoint(q)
    gram = _add(_add(_product(ph, p), _product(th, t)), _product(qh, q))
    return max(
        _distance(gram, _IDENTITY),
        _distance(_add(_product(ph, t), _product(th, q)), _ZERO),
        _distance(_product(ph, q), _ZERO),
    )


# The entries of a valid step's blocks, each kicked off unitarity or not, and each
# block scaled so that products underflow, or overflow to inf and nan, or not.
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(generalized_walk_blocks, plain_walk_blocks, half_step_blocks, boosted_walk_blocks),
    st.one_of(st.just([0j] * 12), st.lists(
        st.one_of(st.just(0j), amplitudes.map(lambda z: 1e-9 * z), amplitudes),
        min_size=12, max_size=12,
    )),
    st.one_of(st.just((1.0,) * 3), st.tuples(*[st.sampled_from([1.0, 1e-200, 1e200])] * 3)),
)
def test_unitarity_residual_is_the_hand_expanded_residual(blocks, kicks, scales):
    kicks = iter(kicks)
    p, t, q = (
        [[scale * (z + next(kicks)) for z in row] for row in block.tolist()]
        for block, scale in zip((blocks.P, blocks.T, blocks.Q), scales)
    )
    assert _unitarity_residual(p, t, q) == hand_expanded_residual(p, t, q)


def walk_gap(u, v):
    """Largest entry of ``u - v`` over both walk states' sites."""
    sites = u.support() | v.support()
    return max((abs(x - y) for k in sites for x, y in zip(u[k], v[k])), default=0.0)


def combined(z, s, t):
    """The walk state ``z*s + t``."""
    sites = s.support() | t.support()
    return WalkState({k: tuple(z * x + y for x, y in zip(s[k], t[k])) for k in sites}, s.order)


def shifted(s):
    return WalkState({k + 1: pair for k, pair in s.items()}, s.order)


@PROPERTY_SETTINGS
@given(walk_blocks, walk_sites, walk_sites, st.complex_numbers(max_magnitude=1.0))
def test_walk_step_is_linear(blocks, s, t, z):
    s, t = WalkState(s, blocks.order), WalkState(t, blocks.order)
    want = combined(z, walk_step(s, blocks), walk_step(t, blocks))
    assert walk_gap(walk_step(combined(z, s, t), blocks), want) <= 1e-12


@PROPERTY_SETTINGS
@given(walk_blocks, walk_sites)
def test_walk_step_commutes_with_a_one_site_shift(blocks, s):
    s = WalkState(s, blocks.order)
    assert walk_gap(walk_step(shifted(s), blocks), shifted(walk_step(s, blocks))) <= 1e-12


def unit_walk(sites, order):
    norm = math.sqrt(sum(abs(z) ** 2 for pair in sites.values() for z in pair))
    return WalkState({k: (u / norm, v / norm) for k, (u, v) in sites.items()}, order)


# The tuples that _evolve steps: one angle a multiple of pi/2 zeroes two coefficients
# (Types I-IV), and a phase on one coefficient is a trivial class.
stepped_params = st.one_of(
    st.builds(lambda k, t, d: params_from_angles(AngleTriple(k * math.pi / 2, t, d)),
              st.integers(0, 3), angle, angle),
    st.builds(lambda k, t, d: params_from_angles(AngleTriple(t, k * math.pi / 2, d)),
              st.integers(0, 3), angle, angle),
    st.builds(lambda i, g: QcaParams(*(cmath.exp(1j * g) if j == i else 0 for j in range(4))),
              st.integers(0, 3), angle),
)


unit_walk_sites = walk_sites.filter(
    lambda s: sum(abs(z) ** 2 for pair in s.values() for z in pair) >= 0.01
)


# Every block that does not jump steps through the same driver as walk_step, so it
# gives the same bits: plain walks, half steps, boosted blocks and the generalized
# blocks of every class but Type V.
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(plain_walk_blocks, half_step_blocks, boosted_walk_blocks,
              st.builds(generalized_blocks_from_qca, stepped_params, families)),
    unit_walk_sites,
    st.integers(0, 200),
)
def test_evolve_walk_is_n_walk_steps(blocks, s, n):
    assert _jump_refusal(blocks._symbol)
    start = stepped = unit_walk(s, blocks.order)
    for _ in range(n):
        stepped = walk_step(stepped, blocks)
    evolved = evolve_walk(start, blocks, n)
    assert evolved == stepped and repr(evolved) == repr(stepped)


# The generalized blocks of Type V tuples jump from starts at most 2n cells wide,
# within the lattice jump's budget of n * eps + PRUNE_TOLERANCE: on 300 drawn
# tuples per family, n <= 200, the worst was 0.33 of it for A and 0.35 for B.
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.builds(generalized_blocks_from_qca,
              params.filter(lambda p: classify(p) is QcaTypeClass.TYPE_V), families),
    st.dictionaries(st.integers(-3, 3), st.tuples(amplitudes, amplitudes), min_size=1).filter(
        lambda s: sum(abs(z) ** 2 for pair in s.values() for z in pair) >= 0.01
    ),
    st.integers(4, 200),
)
def test_evolve_walk_jumps_within_the_error_budget(blocks, s, n):
    assert not _jump_refusal(blocks._symbol)
    start = stepped = unit_walk(s, blocks.order)
    for _ in range(n):
        stepped = walk_step(stepped, blocks)
    evolved = evolve_walk(start, blocks, n)
    assert walk_gap(evolved, stepped) <= n * np.finfo(np.float64).eps + PRUNE_TOLERANCE


@PROPERTY_SETTINGS
@given(stepped_params, fields, st.integers(0, 40))
def test_stepped_evolution_is_n_lattice_steps(p, field, n):
    assert classify(p) is not QcaTypeClass.TYPE_V
    evolved, stepped = _evolve(field, n, p), evolve(field, n, p)
    assert evolved == stepped and repr(evolved) == repr(stepped)


@PROPERTY_SETTINGS
@given(angle, angle)
def test_patel_coins_are_the_two_step_coins_at_zero_phases(phi1, phi2):
    # the two-step coins with swapped columns, U1 X and U2 X, are the odd and even pair coins
    angles = AngleTriple(phi1, math.pi / 2 - phi2, math.pi / 2)
    u1, u2 = _half_step_coins(angles, 0.0, 0.0)
    assert np.abs(np.array(u1)[:, ::-1] - patel_coin(phi2)).max() <= 1e-12
    assert np.abs(np.array(u2)[:, ::-1] - patel_coin(phi1)).max() <= 1e-12
    for family in ("A", "B"):
        assert verify_two_step(angles, 0.0, 0.0, family).max_error() <= 1e-12
    assert patel_factorize(PatelParams(phi1, phi2))[1].max_error() <= 1e-12


# Angles within 10^-k of a multiple of pi/2, where coefficients fall under the
# zero test of classify one at a time.
near_quarter_turn = st.builds(
    lambda q, k, m: q * math.pi / 2 + m * 10.0**-k,
    st.integers(0, 3),
    st.integers(1, 14),
    st.floats(-1.0, 1.0),
)
boundary_params = st.one_of(
    st.builds(
        lambda t, p, d: params_from_angles(AngleTriple(t, p, d)),
        near_quarter_turn,
        near_quarter_turn,
        angle,
    ),
    st.builds(
        lambda phi1, phi2: patel_factorize(PatelParams(phi1, phi2))[0],
        near_quarter_turn,
        near_quarter_turn,
    ),
)


def nonzero_count(p):
    return sum(abs(z) >= RESIDUAL_TOLERANCE for z in p.astuple())


def oracle_evolve_eta(n, p):
    """``n`` steps of the delta at site 0 in 40-digit arithmetic, as {site: complex}."""
    with mpmath.workdps(40):
        a, b, c, d = map(mpmath.mpc, p.astuple())
        field = {0: mpmath.mpc(1)}
        for _ in range(n):
            out = {}
            for k in range((min(field) - 2) // 2, (max(field) + 1) // 2 + 1):
                x1, x2, x3, x4 = (field.get(2 * k + j, 0) for j in (-1, 0, 1, 2))
                out[2 * k] = a * x1 + b * x2 + c * x3 + d * x4
                out[2 * k + 1] = d * x1 + c * x2 + b * x3 + a * x4
            field = out
        return {k: complex(z) for k, z in field.items()}


@PROPERTY_SETTINGS
@given(boundary_params)
def test_classify_names_every_tuple_near_a_class_boundary(p):
    tag = classify(p)
    assert isinstance(tag, QcaTypeClass)
    if nonzero_count(p) >= 3:
        assert tag is QcaTypeClass.TYPE_V


@PROPERTY_SETTINGS
@given(boundary_params.filter(lambda p: nonzero_count(p) == 3), st.integers(1, 60))
def test_three_nonzero_tuples_jump_within_the_error_budget(p, n):
    # one coefficient is under the zero test, but the tuple is Type V and jumps;
    # stepping is no reference here, its pruning can exceed this budget
    exact = oracle_evolve_eta(n, p)
    jumped = evolve_eta(0, n, p)
    error = max(abs(jumped[k] - exact.get(k, 0.0)) for k in jumped.support() | set(exact))
    assert error <= n * np.finfo(np.float64).eps + PRUNE_TOLERANCE


# (blocks, the tuple they come from or None): generalized blocks of any class jump
# exactly when the tuple is Type V, as the lattice does; plain walks, half steps and
# boosted blocks step
jump_rule_table = st.one_of(
    st.builds(
        lambda p, family: (generalized_blocks_from_qca(p, family), p),
        st.one_of(params, stepped_params, boundary_params), families,
    ),
    st.builds(lambda blocks: (blocks, None),
              st.one_of(plain_walk_blocks, half_step_blocks, boosted_walk_blocks)),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(jump_rule_table)
def test_a_symbol_jumps_exactly_when_it_is_generic_and_even(row):
    blocks, p = row
    jumps = p is not None and classify(p) is QcaTypeClass.TYPE_V
    assert (not _jump_refusal(blocks._symbol)) == jumps
    if p is not None:
        assert (not _jump_refusal(_generalized_blocks(p, "B"))) == jumps


# The rule reads a symbol's values, not the containers that hold them.
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.one_of(
    st.builds(generalized_blocks_from_qca,
              params.filter(lambda p: classify(p) is QcaTypeClass.TYPE_V), families),
    boosted_walk_blocks,
))
def test_tuple_and_list_symbols_get_one_verdict(blocks):
    tuples = tuple(tuple(map(tuple, block)) for block in blocks._symbol)
    assert _jump_refusal(tuples) == _jump_refusal(blocks._symbol)
