"""Field and distribution containers: norms, supports, combination, pruning."""

import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qcawalk
from qcawalk import amplitudes
from qcawalk.amplitudes import (
    _PACK_GAP,
    _RUN_GAP,
    PRUNE_TOLERANCE,
    AmplitudeField,
    Distribution,
    _mismatch,
    _packed,
    _unpacked,
    max_difference,
    superpose,
    to_distribution,
)
from qcawalk.asymptotics import RescaledSample, rescaled_qca_sample
from qcawalk.coined_walks import (
    L_UPPER,
    WalkState,
    evolve_walk,
    generalized_blocks_from_qca,
    walk_step,
)
from qcawalk.correspondence import verify_A_correspondence, verify_spectral
from qcawalk.params import AngleTriple, params_from_angles
from qcawalk.qca_core import _evolve, evolve_eta, qca_step

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def test_norm_sq_empty_field_is_zero():
    assert AmplitudeField().norm_sq() == 0.0


def test_norm_sq_unit_delta():
    assert AmplitudeField.delta(0, 1.0).norm_sq() == 1.0


def test_norm_sq_four_half_amplitudes():
    field = AmplitudeField({-1: 0.5j, 0: 0.5, 1: 0.5j, 2: -0.5})
    assert field.norm_sq() == pytest.approx(1.0, abs=1e-15)


def test_support_empty():
    assert AmplitudeField().support() == set()


def test_support_delta():
    assert AmplitudeField.delta(5).support() == {5}


def test_support_four_entries():
    field = AmplitudeField({-2: -0.5, -1: 0.5j, 0: 0.5, 1: 0.5j})
    assert field.support() == {-2, -1, 0, 1}


def test_superpose_identity_combination():
    f = AmplitudeField({0: 0.6, 3: 0.8j})
    g = AmplitudeField({1: 1.0})
    assert superpose(f, g, 1.0, 0.0) == f


def test_superpose_cancellation_gives_empty_field():
    d0 = AmplitudeField.delta(0)
    out = superpose(d0, d0, INV_SQRT2, -INV_SQRT2)
    assert len(out) == 0
    assert out.support() == set()


def test_superpose_disjoint_supports():
    out = superpose(AmplitudeField.delta(0), AmplitudeField.delta(1), INV_SQRT2, INV_SQRT2)
    assert out[0] == pytest.approx(INV_SQRT2)
    assert out[1] == pytest.approx(INV_SQRT2)


def test_superpose_norm_identity_on_disjoint_supports():
    rng = np.random.default_rng(11)
    for _ in range(20):
        f = AmplitudeField({k: complex(*rng.normal(size=2)) for k in range(-5, 0)})
        g = AmplitudeField({k: complex(*rng.normal(size=2)) for k in range(1, 6)})
        alpha, beta = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
        combined = superpose(f, g, alpha, beta)
        expected = abs(alpha) ** 2 * f.norm_sq() + abs(beta) ** 2 * g.norm_sq()
        assert combined.norm_sq() == pytest.approx(expected, abs=1e-12)


def test_to_distribution_unit_phase():
    dist = to_distribution(AmplitudeField.delta(0, 1j))
    assert dist[0] == pytest.approx(1.0)
    assert dist.support() == {0}


def test_to_distribution_two_sites():
    field = AmplitudeField({0: INV_SQRT2, 1: 1j * INV_SQRT2})
    dist = to_distribution(field)
    assert dist[0] == pytest.approx(0.5)
    assert dist[1] == pytest.approx(0.5)


def test_to_distribution_uniform_quarter():
    field = AmplitudeField({-2: -0.5, -1: 0.5j, 0: 0.5, 1: 0.5j})
    dist = to_distribution(field)
    for k in (-2, -1, 0, 1):
        assert dist[k] == pytest.approx(0.25)
    assert dist.total() == pytest.approx(1.0, abs=1e-15)


def test_to_distribution_preserves_total_mass():
    rng = np.random.default_rng(3)
    for _ in range(25):
        sites = rng.choice(np.arange(-30, 30), size=12, replace=False)
        field = AmplitudeField({int(k): complex(*rng.normal(size=2)) for k in sites})
        dist = to_distribution(field)
        assert abs(dist.total() - field.norm_sq()) <= 1e-12
        assert dist.support() == field.support()


def test_pruning_drops_dust():
    field = AmplitudeField({0: 1.0, 1: 1e-16, 2: 0.0})
    assert field.support() == {0}


def test_non_finite_amplitude_rejected():
    with pytest.raises(ValueError):
        AmplitudeField({0: complex("inf")})
    with pytest.raises(ValueError):
        AmplitudeField({0: complex("nan")})


REFERENCE = params_from_angles(AngleTriple(math.pi / 4, math.pi / 4, math.pi / 2))


def phase_aligned(coefficients, size=1e308):
    """Entries of modulus ``size`` whose products with ``coefficients`` point along +1."""
    return tuple(size * z.conjugate() / abs(z) if z else 0j for z in coefficients)


def overflowing_step(kind):
    """A step of ``kind`` whose output entry at site 0 sums to 2e308.

    At the reference point |a| = |b| = |c| = |d| = 1/2, so the terms of one
    output entry, each 1e308 times its coefficient and all in phase, add up
    past the largest float64.
    """
    if kind == "qca_step":
        # out[0] = a*in[-1] + b*in[0] + c*in[1] + d*in[2]
        field = AmplitudeField(dict(zip(range(-1, 3), phase_aligned(REFERENCE.astuple()))))
        return lambda: qca_step(field, REFERENCE)
    blocks = generalized_blocks_from_qca(REFERENCE, "B")
    # B's new[0] = P old[1] + T old[0] + Q old[-1]; its upper entry reads the top rows
    rows = {1: blocks.P[0], 0: blocks.T[0], -1: blocks.Q[0]}
    state = WalkState({site: phase_aligned(row) for site, row in rows.items()}, blocks.order)
    return lambda: walk_step(state, blocks)


@pytest.mark.parametrize("kind", ["qca_step", "walk_step"])
def test_a_step_whose_output_overflows_raises(kind):
    step = overflowing_step(kind)
    # numpy's own overflow warning is silenced: the check under test is the step's
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="^non-finite amplitude$"):
            step()


GENERIC = params_from_angles(AngleTriple(1.1, 0.4, 2.0))
GENERIC_QUBIT = (0.6, 0.8j)


def walked(n):
    blocks = generalized_blocks_from_qca(GENERIC, "B")
    return evolve_walk(WalkState.origin(GENERIC_QUBIT, blocks.order), blocks, n)


# Every entry that takes a step count, each checking it by the one rule.
STEP_COUNT_ENTRIES = {
    "_evolve": lambda n: _evolve(AmplitudeField({0: 0.6, 1: 0.8j}), n, GENERIC),
    "evolve_walk": walked,
    "verify_A_correspondence": lambda n: verify_A_correspondence(GENERIC, GENERIC_QUBIT, n),
    "verify_spectral": lambda n: verify_spectral(GENERIC, GENERIC_QUBIT, n),
    "rescaled_qca_sample": lambda n: rescaled_qca_sample(GENERIC, GENERIC_QUBIT, n),
    "RescaledSample": lambda n: RescaledSample(((0.0, 1.0),), n),
}


@pytest.mark.parametrize("entry", STEP_COUNT_ENTRIES)
def test_every_step_count_goes_through_one_rule(entry):
    run = STEP_COUNT_ENTRIES[entry]
    with pytest.raises(ValueError, match="^step count must be"):
        run(-1)
    with pytest.raises(TypeError):
        run(2.5)
    # a numpy integer is read as the int it holds, also where the value keeps it
    assert repr(run(np.int64(3))) == repr(run(3))


def test_shifted_translates_support():
    field = AmplitudeField({-1: 1j, 2: 0.5})
    moved = field.shifted(3)
    assert moved[2] == 1j
    assert moved[5] == 0.5
    assert moved.support() == {2, 5}


def test_max_difference():
    f = AmplitudeField({0: 1.0})
    g = AmplitudeField({0: 1.0, 1: 0.25})
    assert max_difference(f, f) == 0.0
    assert max_difference(f, g) == pytest.approx(0.25)


# gaps of both parities around _PACK_GAP and _RUN_GAP, plus one far wider than any pack
ORACLE_GAPS = (
    1, 2, _PACK_GAP - 1, _PACK_GAP, _PACK_GAP + 1,
    _RUN_GAP - 1, _RUN_GAP, _RUN_GAP + 1, _RUN_GAP + 2, 1_000_000, 1_000_001,
)
# real and imaginary parts are 0 or powers of two, so every product is exact
ORACLE_COEFFICIENTS = (1.0, -1.0, 0.5j, -2.0, 0.25 - 0.5j)


def oracle_entries(rng, start: int) -> dict[int, complex]:
    """Up to 11 entries from ``start`` on, spaced by ``ORACLE_GAPS``; may be empty."""
    entries, site = {}, start
    for _ in range(rng.integers(0, 12)):
        entries[site] = complex(*rng.normal(size=2))
        site += int(rng.choice(ORACLE_GAPS))
    return entries


def oracle_pair(rng, layout: str) -> tuple[dict[int, complex], dict[int, complex]]:
    """Entries of f and g whose runs overlap, interleave, stay clear or share values."""
    f = oracle_entries(rng, int(rng.integers(-50, 50)))
    sites = sorted(f) or [0]
    if layout == "overlap":
        g = oracle_entries(rng, int(rng.choice(sites)) + int(rng.integers(-3, 4)))
    elif layout == "interleave":
        g = {site + 1: complex(*rng.normal(size=2)) for site in f}
    elif layout == "clear":
        g = oracle_entries(rng, sites[-1] + int(rng.choice(ORACLE_GAPS)) + _RUN_GAP)
    else:  # "shared": g repeats some of f's entries exactly, so they can cancel
        g = {site: z for site, z in f.items() if rng.random() < 0.5}
        g.update(oracle_entries(rng, int(rng.choice(sites)) + 1))
    return f, g


def check_pointwise(f: dict[int, complex], g: dict[int, complex], alpha, beta) -> None:
    """``superpose``, ``max_difference`` and ``_mismatch`` of f and g against dict arithmetic."""
    sites = f.keys() | g.keys()
    on_f = {site: f.get(site, 0j) for site in sites}
    on_g = {site: g.get(site, 0j) for site in sites}
    field_f, field_g = AmplitudeField(f), AmplitudeField(g)

    want = {site: alpha * on_f[site] + beta * on_g[site] for site in sites}
    assert superpose(field_f, field_g, alpha, beta) == AmplitudeField(want)

    diff = max((abs(on_f[site] - on_g[site]) for site in sites), default=0.0)
    assert max_difference(field_f, field_g) == pytest.approx(diff, rel=1e-15, abs=0)
    masses = max(
        (abs(abs(on_g[site]) ** 2 - abs(on_f[site]) ** 2) for site in sites), default=0.0
    )
    amp, prob = _mismatch(field_f, field_g)
    assert amp == pytest.approx(diff, rel=1e-15, abs=0)
    assert prob == pytest.approx(masses, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("layout", ["overlap", "interleave", "clear", "shared"])
def test_pointwise_operations_match_a_dict_oracle(layout):
    rng = np.random.default_rng(["overlap", "interleave", "clear", "shared"].index(layout))
    for _ in range(200):
        f, g = oracle_pair(rng, layout)
        # shared entries cancel exactly
        coefficients = (1, -1) if layout == "shared" else rng.choice(ORACLE_COEFFICIENTS, 2)
        check_pointwise(f, g, *map(complex, coefficients))


def test_pointwise_operations_on_empty_fields():
    check_pointwise({}, {}, 1.0, 1.0)
    check_pointwise({0: 0.6, 40: 0.8j}, {}, -2.0, 0.5j)
    check_pointwise({}, {-3: 1j}, 1.0, -1.0)


def test_pointwise_operations_allocate_nothing_across_the_gap():
    f = AmplitudeField({0: 0.6, 5_000_000: 0.8j})
    g = AmplitudeField({1: 0.5, 5_000_000: 1j})
    superpose(f, g, 1.0, -1.0)
    max_difference(f, g)
    tracemalloc.start()
    try:
        combined = superpose(f, g, 1.0, -1.0)
        difference = max_difference(f, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert combined.items() == [(0, 0.6 + 0j), (1, -0.5 + 0j), (5_000_000, 0.8j - 1j)]
    assert difference == pytest.approx(0.6)


def test_every_pack_has_a_zero_margin_at_each_end():
    # the step kernels read this margin instead of padding copies of their own
    rng = np.random.default_rng(17)
    pad = _PACK_GAP // 2
    for _ in range(200):
        f, g = oracle_pair(rng, "overlap")
        field = AmplitudeField(f or {0: 1.0})
        walk = WalkState({site: (z, -z) for site, z in (g or {0: 1.0}).items()}, L_UPPER)
        overlapping = sorted([*field._runs, *field.shifted(2)._runs], key=lambda run: run[0])
        for runs in (field._runs, walk._runs, overlapping):
            _, values, _ = _packed(runs)
            assert not values[..., :pad].any() and not values[..., -pad:].any()
        lo, values, stretches = _packed(field._runs)
        assert AmplitudeField._from_runs(_unpacked(lo, values, stretches)) == field


INT64_MAX = 2**63 - 1
EDGE = params_from_angles(AngleTriple(1.1, 0.4, 2.0))
EDGE_BLOCKS = {family: generalized_blocks_from_qca(EDGE, family) for family in "AB"}


def edge_walk(site, family):
    blocks = EDGE_BLOCKS[family]
    return walk_step(WalkState({site: (0.0, 1.0)}, blocks.order), blocks)


PAST_INT64 = {
    "construction": lambda: AmplitudeField({INT64_MAX + 1: 1.0}),
    "qca_step.top": lambda: qca_step(AmplitudeField({INT64_MAX: 1.0}), EDGE),
    "qca_step.bottom": lambda: qca_step(AmplitudeField({-INT64_MAX - 1: 1.0}), EDGE),
    "jump.top": lambda: evolve_eta(INT64_MAX, 3, EDGE),
    "jump.bottom": lambda: evolve_eta(-INT64_MAX - 1, 3, EDGE),
    "walk_step.A": lambda: edge_walk(INT64_MAX, "A"),
    "walk_step.B": lambda: edge_walk(INT64_MAX, "B"),
    "shifted.top": lambda: AmplitudeField({INT64_MAX: 1.0}).shifted(5),
    "shifted.bottom": lambda: AmplitudeField({-INT64_MAX - 1: 1.0}).shifted(-5),
}


@pytest.mark.parametrize("path", sorted(PAST_INT64))
def test_a_site_carried_past_int64_raises_instead_of_wrapping(path):
    with pytest.raises(OverflowError):
        PAST_INT64[path]()


def test_steps_up_to_the_int64_edge_keep_their_sites():
    assert list(qca_step(AmplitudeField({INT64_MAX - 2: 1.0}), EDGE)) == [
        INT64_MAX - 3, INT64_MAX - 2, INT64_MAX - 1, INT64_MAX
    ]
    assert list(qca_step(AmplitudeField({-INT64_MAX + 1: 1.0}), EDGE)) == [
        -INT64_MAX - 1, -INT64_MAX, -INT64_MAX + 1, -INT64_MAX + 2
    ]
    assert list(AmplitudeField({INT64_MAX - 5: 1.0}).shifted(5)) == [INT64_MAX]
    for family in "AB":
        assert max(site for site, _ in edge_walk(INT64_MAX - 1, family).items()) <= INT64_MAX


@pytest.mark.parametrize(
    "lattice",
    [
        AmplitudeField({2: 1.0, 3: 0.5}),
        WalkState({2: (1.0, 0.0), 3: (0.0, 0.5)}, L_UPPER),
        to_distribution(AmplitudeField({2: 1.0, 3: 0.5})),
    ],
    ids=["field", "walk", "distribution"],
)
def test_lattice_reads_take_integer_sites_only(lattice):
    for key in (2.0, 1.5, 2.5, "a", None):
        with pytest.raises(TypeError):
            lattice[key]
    assert lattice[np.int64(2)] == lattice[2] and lattice[np.int32(3)] == lattice[3]
    assert lattice[np.int64(4)] == lattice[4]
    for key in (2.0, 1.5, "a", None):
        with pytest.raises(TypeError):
            key in lattice
    assert 2 in lattice and 4 not in lattice and np.int64(2) in lattice


def test_distribution_rejects_negative_mass():
    with pytest.raises(ValueError):
        Distribution({0: -0.1})


def test_distribution_rejects_non_finite():
    with pytest.raises(ValueError):
        Distribution({0: float("nan")})


def test_distribution_drops_zero_mass():
    dist = Distribution({0: 0.0, 1: 0.5})
    assert dist.support() == {1}


def test_distribution_errors_name_the_site():
    with pytest.raises(ValueError, match=r"^non-finite mass nan at site 3$"):
        Distribution({0: 0.5, 3: float("nan"), -2: 0.5})
    with pytest.raises(ValueError, match=r"^non-finite mass inf at site -1$"):
        Distribution([(-1, math.inf)])
    with pytest.raises(ValueError, match=r"^negative mass -0\.1 at site -4$"):
        Distribution({7: 0.5, -4: -0.1})
    with pytest.raises(ValueError, match=r"^non-finite mass -inf at site 2$"):
        Distribution({2: -math.inf})


def test_distribution_iterates_an_unsorted_mapping_in_ascending_order():
    dist = Distribution({40: 0.25, -3: 0.25, 7: 0.5, 0: 0.0})
    assert list(dist) == [-3, 7, 40]
    assert dist.items() == [(-3, 0.25), (7, 0.5), (40, 0.25)]
    assert all(type(k) is int and type(m) is float for k, m in dist.items())
    assert repr(dist) == "Distribution({-3: 0.25, 7: 0.5, 40: 0.25})"
    assert len(dist) == 3 and dist.support() == {-3, 7, 40}
    assert type(dist[7]) is float and dist[7] == 0.5
    assert dist[8] == dist[-100] == dist[100] == dist[2**70] == 0.0
    assert Distribution(reversed(dist.items())) == dist


def test_distribution_repeated_site_keeps_its_last_mass():
    assert Distribution([(2, 0.5), (-1, 0.25), (2, 0.75)]).items() == [(-1, 0.25), (2, 0.75)]
    assert Distribution([(2, 0.5), (2, 0.0)]) == Distribution()
    with pytest.raises(ValueError, match="at site 2$"):
        Distribution([(2, math.nan), (2, 0.5)])  # every given mass is checked


def test_distribution_round_trips_through_its_items():
    params = qcawalk.params_from_angles(qcawalk.AngleTriple(0.3, 0.2, 0.0))
    qubit = (0.6, 0.8j)
    blocks = qcawalk.generalized_blocks_from_qca(params, "B")
    state = qcawalk.WalkState.origin(qubit, blocks.order)
    for _ in range(200):
        state = qcawalk.walk_step(state, blocks)
    for dist in (
        qcawalk.qca_distribution(0, "+", qubit, 200, params),
        qcawalk.walk_distribution(state),
    ):
        assert len(dist) > 150
        again = Distribution(dict(dist.items()))
        assert again == dist and again.items() == dist.items()
        assert list(dist) == sorted(dist.support())


def test_value_protocol_is_written_once():
    # a walk state's entries are pairs, so it reads its own items
    for name in ("__eq__", "__repr__", "__contains__", "__iter__", "support", "items"):
        classes = [AmplitudeField, Distribution] + ([WalkState] if name != "items" else [])
        assert len({getattr(cls, name) for cls in classes}) == 1, name


def test_distribution_arrays_are_read_only():
    field = AmplitudeField({0: 0.6, 5: 0.8j})
    for dist in (Distribution({1: 0.5, 0: 0.5}), to_distribution(field)):
        sites, masses = dist._flat()
        assert sites.dtype == np.int64 and masses.dtype == np.float64
        for arr in (sites, masses):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1


def test_prune_tolerance_well_below_mass_tolerance():
    assert PRUNE_TOLERANCE < 1e-12


# ---------------------------------------------------------------------------
# Array-backed storage keeps the mapping API
# ---------------------------------------------------------------------------

def test_construction_prunes_dust_inside_and_at_the_ends_of_runs():
    field = AmplitudeField({-3: 1e-16, 0: 0.6, 1: 5e-16, 2: 0.8j, 9: 1e-17})
    assert field.support() == {0, 2}
    assert len(field) == 2
    assert field[1] == 0j and 1 not in field
    assert field[-3] == 0j and field[9] == 0j


def test_iteration_and_items_are_ascending():
    entries = {50: 0.5, -7: 0.5j, 3: -0.5, 400: 0.5}
    field = AmplitudeField(entries)
    assert list(field) == [-7, 3, 50, 400]
    assert field.items() == sorted(entries.items())
    assert all(isinstance(k, int) and isinstance(v, complex) for k, v in field.items())


def test_len_counts_support_not_span():
    field = AmplitudeField({0: 1.0, 10: 1.0, 1_000_000: 1.0})
    assert len(field) == 3
    assert len(AmplitudeField()) == 0


def test_equality_ignores_construction_order_and_pruned_dust():
    f = AmplitudeField({0: 0.6, 1: 0.8j})
    g = AmplitudeField([(1, 0.8j), (5, 1e-17), (0, 0.6)])
    assert f == g
    assert f != AmplitudeField({0: 0.6, 1: 0.8})
    assert f != f.shifted(2)
    assert AmplitudeField() == AmplitudeField({3: 0.0})


def test_shifted_keeps_far_apart_entries():
    field = AmplitudeField({-1: 1j, 5_000_000: 0.5})
    moved = field.shifted(-4)
    assert moved.items() == [(-5, 1j), (4_999_996, 0.5)]
    assert field.items() == [(-1, 1j), (5_000_000, 0.5)]


def test_repr_lists_entries_in_site_order():
    field = AmplitudeField({2: 0.5, -1: 1j})
    assert repr(field) == "AmplitudeField({-1: 1j, 2: (0.5+0j)})"
    assert repr(AmplitudeField()) == "AmplitudeField({})"


def test_getitem_returns_python_complex():
    field = AmplitudeField.delta(3, 0.25j)
    assert type(field[3]) is complex and field[3] == 0.25j
    assert type(field[4]) is complex and field[4] == 0j


def test_only_amplitudes_reads_the_run_layout():
    helpers = {
        "_packed", "_unpacked", "_trimmed", "_run_bounds", "_zero_dust", "_occupied",
        "_aligned", "_sq_modulus",
    }
    # the list names helpers that exist, so it cannot go stale
    assert [name for name in sorted(helpers) if not hasattr(amplitudes, name)] == []
    offenders = []
    for path in sorted(Path(qcawalk.__file__).parent.glob("*.py")):
        if path.name == "amplitudes.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ("_runs", "_sites", "_masses"):
                offenders.append(f"{path.name}:{node.lineno} reads .{node.attr}")
            elif isinstance(node, ast.ImportFrom):
                offenders.extend(
                    f"{path.name}:{node.lineno} imports {alias.name}"
                    for alias in node.names
                    if alias.name in helpers
                )
    assert offenders == []
