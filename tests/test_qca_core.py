"""Coefficient validation, taxonomy, and the banded step against a dense oracle."""

import math
import time
import tracemalloc

import numpy as np
import pytest

from dense_reference import dense_qca_matrix, field_to_vector
from qcawalk.amplitudes import _RUN_GAP, AmplitudeField, max_difference
from qcawalk.coined_walks import CoinBlocks, CoinMatrix
from qcawalk.params import (
    AngleTriple,
    QcaParams,
    QcaTypeClass,
    classify,
    normalized_qubit,
    params_from_angles,
    unitarity_residuals,
)
from qcawalk.qca_core import evolve_eta, _evolve, qca_distribution, qca_step

INV_SQRT2 = 1.0 / math.sqrt(2.0)
PATEL = QcaParams(0.5j, 0.5, 0.5j, -0.5)


def random_unit_field(rng, max_sites=12, span=30):
    sites = rng.choice(np.arange(-span, span), size=max_sites, replace=False)
    entries = {int(k): complex(*rng.normal(size=2)) for k in sites}
    scale = math.sqrt(sum(abs(z) ** 2 for z in entries.values()))
    return AmplitudeField({k: z / scale for k, z in entries.items()})


# ---------------------------------------------------------------------------
# unitarity_residuals
# ---------------------------------------------------------------------------

def test_residuals_patel_tuple_all_zero():
    assert max(unitarity_residuals(0.5j, 0.5, 0.5j, -0.5)) <= 1e-15


def test_residuals_trivial_tuple_all_zero():
    assert unitarity_residuals(1.0, 0.0, 0.0, 0.0) == (0.0, 0.0, 0.0, 0.0, 0.0)


def test_residuals_all_half_tuple():
    # Direct evaluation: constraint 1 holds, the four cross terms do not.
    r = unitarity_residuals(0.5, 0.5, 0.5, 0.5)
    assert r[0] == pytest.approx(0.0, abs=1e-15)
    assert r[1] == pytest.approx(1.0, abs=1e-15)
    assert r[2] == pytest.approx(0.5, abs=1e-15)
    assert r[3] == pytest.approx(0.5, abs=1e-15)
    assert r[4] == pytest.approx(0.5, abs=1e-15)


def test_residuals_vanish_iff_dense_window_unitary():
    # rows away from the window edge must be orthonormal for a good tuple
    ok = dense_qca_matrix(0.5j, 0.5, 0.5j, -0.5, -9, 10)
    gram = ok @ ok.conj().T
    assert np.abs(gram[3:-3, 3:-3] - np.eye(14)).max() <= 1e-12
    bad = dense_qca_matrix(0.5, 0.5, 0.5, 0.5, -9, 10)
    gram_bad = bad @ bad.conj().T
    assert np.abs(gram_bad[3:-3, 3:-3] - np.eye(14)).max() > 0.1


# ---------------------------------------------------------------------------
# QcaParams / AngleTriple
# ---------------------------------------------------------------------------

def test_params_reject_non_unitary_tuple():
    with pytest.raises(ValueError):
        QcaParams(0.5, 0.5, 0.5, 0.5)


@pytest.mark.parametrize(
    "build",
    [
        lambda: QcaParams(1e200, 0.0, 0.0, 0.0),
        lambda: QcaParams(0.0, complex(1e308, 1e308), 0.0, 0.0),
        lambda: CoinMatrix(1e200, 0.0, 0.0, 1.0),
        lambda: CoinMatrix(1.0, 0.0, 0.0, complex(0.0, 1e160)),
        lambda: normalized_qubit((1e155, 0.0)),
        lambda: normalized_qubit((0.0, complex(1e308, 1e308))),
        # U^H U overflows: a NaN residual must fail the gate, not pass it
        lambda: CoinMatrix(1e160, 1e160, 1e160, -1e160),
        lambda: CoinBlocks([[1e200, 1e200], [0, 0]], np.zeros((2, 2)), [[0, 0], [1e200, -1e200]]),
    ],
)
def test_validators_reject_values_whose_square_overflows(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: QcaParams(math.nan, 0.0, 0.0, 0.0),
        lambda: QcaParams(1.0, 0.0, 0.0, complex(0.0, math.inf)),
        lambda: CoinMatrix(1.0, 0.0, 0.0, complex(math.nan, 0.0)),
        lambda: normalized_qubit((math.inf, 0.0)),
        lambda: normalized_qubit((0.6, complex(0.8, math.nan))),
    ],
)
def test_validators_reject_non_finite_values(build):
    with pytest.raises(ValueError, match="non-finite"):
        build()


def test_params_reject_three_nonzero_tuple():
    with pytest.raises(ValueError):
        QcaParams(0.5, 0.5, INV_SQRT2, 0.0)


def test_angle_triple_reduces_mod_two_pi():
    t = AngleTriple(-math.pi / 4, 5 * math.pi, 2 * math.pi)
    assert 0.0 <= t.theta < 2 * math.pi
    assert 0.0 <= t.phi < 2 * math.pi
    assert t.delta == 0.0


# ---------------------------------------------------------------------------
# params_from_angles
# ---------------------------------------------------------------------------

def test_angles_patel_point():
    p = params_from_angles(AngleTriple(math.pi / 4, math.pi / 4, math.pi / 2))
    for got, want in zip(p.astuple(), (0.5j, 0.5, 0.5j, -0.5)):
        assert abs(got - want) <= 1e-15


def test_angles_zero_triple():
    p = params_from_angles(AngleTriple(0.0, 0.0, 0.0))
    assert p.astuple() == (1 + 0j, 0j, 0j, 0j)


def test_angles_quarter_rotations():
    p = params_from_angles(AngleTriple(math.pi / 2, math.pi / 2, 0.0))
    for got, want in zip(p.astuple(), (0.0, 0.0, 1.0, 0.0)):
        assert abs(got - want) <= 1e-15


def test_angles_always_within_residual_tolerance():
    rng = np.random.default_rng(5)
    for _ in range(200):
        angles = AngleTriple(*rng.uniform(0.0, 2.0 * math.pi, 3))
        p = params_from_angles(angles)
        assert max(unitarity_residuals(*p.astuple())) <= 1e-12


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_patel_is_type_v():
    assert classify(PATEL) is QcaTypeClass.TYPE_V


def test_classify_trivial_b():
    assert classify(QcaParams(0.0, 1.0, 0.0, 0.0)) is QcaTypeClass.TRIVIAL_B


@pytest.mark.parametrize(
    "tup,tag",
    [
        ((1.0, 0, 0, 0), QcaTypeClass.TRIVIAL_A),
        ((0, 0, 1j, 0), QcaTypeClass.TRIVIAL_C),
        ((0, 0, 0, -1.0), QcaTypeClass.TRIVIAL_D),
        ((0, -1j * INV_SQRT2, INV_SQRT2, 0), QcaTypeClass.TYPE_I),
        ((INV_SQRT2, -1j * INV_SQRT2, 0, 0), QcaTypeClass.TYPE_II),
        ((0, 0, INV_SQRT2, 1j * INV_SQRT2), QcaTypeClass.TYPE_III),
        ((INV_SQRT2, 0, 0, 1j * INV_SQRT2), QcaTypeClass.TYPE_IV),
        # |a| = 1.0e-13 counts as zero and b, c, d do not: Type V, as the exact tuple
        (
            params_from_angles(AngleTriple(1.5697963271282298, 1.5707963266948965, 0)).astuple(),
            QcaTypeClass.TYPE_V,
        ),
        # no class holds {a, c} or {b, d}: the smaller of the pair counts as zero
        ((1.0, 0, 1e-12, 0), QcaTypeClass.TRIVIAL_A),
        ((0, 1.0, 0, 1e-12), QcaTypeClass.TRIVIAL_B),
        ((1e-12, 0, 1.0, 0), QcaTypeClass.TRIVIAL_C),
        ((0, 1e-12, 0, -1.0), QcaTypeClass.TRIVIAL_D),
    ],
)
def test_classify_examples(tup, tag):
    assert classify(QcaParams(*tup)) is tag


def test_classify_stable_under_global_phase():
    rng = np.random.default_rng(17)
    samples = [
        PATEL,
        QcaParams(0, -1j * INV_SQRT2, INV_SQRT2, 0),
        QcaParams(INV_SQRT2, 0, 0, 1j * INV_SQRT2),
        QcaParams(0.0, 1.0, 0.0, 0.0),
    ]
    for params in samples:
        base = classify(params)
        for _ in range(5):
            phase = complex(math.cos(g := rng.uniform(0, 2 * math.pi)), math.sin(g))
            rotated = QcaParams(*(phase * z for z in params.astuple()))
            assert classify(rotated) is base


# ---------------------------------------------------------------------------
# qca_step
# ---------------------------------------------------------------------------

def test_step_delta_patel_reads_central_column():
    out = qca_step(AmplitudeField.delta(0), PATEL)
    assert out.support() == {-2, -1, 0, 1}
    assert out[-2] == pytest.approx(-0.5)
    assert out[-1] == pytest.approx(0.5j)
    assert out[0] == pytest.approx(0.5)
    assert out[1] == pytest.approx(0.5j)


def test_step_pure_a_swaps_pairs():
    params = QcaParams(1.0, 0.0, 0.0, 0.0)
    field = AmplitudeField({-1: 0.5, 0: 0.5j, 1: 0.5, 2: -0.5j})
    out = qca_step(field, params)
    # out[2k] = in[2k-1], out[2k+1] = in[2k+2]
    assert out[0] == 0.5
    assert out[-1] == 0.5j
    assert out[1] == -0.5j
    assert out[2] == 0.5


def test_step_type_i_delta_stays_in_pair():
    params = QcaParams(0.0, -1j * INV_SQRT2, INV_SQRT2, 0.0)
    out = qca_step(AmplitudeField.delta(0), params)
    assert out.support() == {0, 1}
    assert out[0] == pytest.approx(-1j * INV_SQRT2)
    assert out[1] == pytest.approx(INV_SQRT2)


def test_step_matches_dense_oracle():
    rng = np.random.default_rng(23)
    for _ in range(25):
        angles = AngleTriple(*rng.uniform(0.0, 2.0 * math.pi, 3))
        params = params_from_angles(angles)
        field = random_unit_field(rng, max_sites=10, span=12)
        stepped = qca_step(field, params)
        lo, hi = -20, 20
        dense = dense_qca_matrix(*params.astuple(), lo, hi)
        expected = dense @ field_to_vector(field, lo, hi)
        got = field_to_vector(stepped, lo, hi)
        assert np.abs(got - expected).max() <= 1e-12


def test_separate_runs_merge_as_they_grow_into_each_other():
    rng = np.random.default_rng(29)
    params = params_from_angles(AngleTriple(*rng.uniform(0.0, 2.0 * math.pi, 3)))
    field = AmplitudeField({0: 0.6, 40: 0.8j})
    assert len(field._runs) == 2
    lo, hi = -60, 100
    dense = dense_qca_matrix(*params.astuple(), lo, hi)
    vec = field_to_vector(field, lo, hi)
    runs_seen = set()
    for _ in range(15):
        field = qca_step(field, params)
        vec = dense @ vec
        runs_seen.add(len(field._runs))
        assert np.abs(field_to_vector(field, lo, hi) - vec).max() <= 1e-12
        assert field.support() == {lo + i for i in np.flatnonzero(np.abs(vec) >= 1e-15)}
    assert runs_seen == {1, 2}
    assert len(field._runs) == 1


def test_runs_far_apart_are_stepped_in_one_packed_call():
    # gaps of both parities, some wider than _RUN_GAP and some not
    rng = np.random.default_rng(53)
    params = params_from_angles(AngleTriple(*rng.uniform(0.0, 2.0 * math.pi, 3)))
    field = AmplitudeField({0: 0.5, 1: 0.1j, 37: 0.5j, 66: -0.5, 141: 0.3, 262: 0.4j})
    lo, hi = -60, 320
    dense = dense_qca_matrix(*params.astuple(), lo, hi)
    vec = field_to_vector(field, lo, hi)
    for _ in range(20):
        field = qca_step(field, params)
        vec = dense @ vec
        assert np.abs(field_to_vector(field, lo, hi) - vec).max() <= 1e-12
        assert field.support() <= {lo + i for i in np.flatnonzero(np.abs(vec) >= 1e-15)}


def test_translating_sites_split_into_runs_and_keep_the_step_cost_flat(monkeypatch):
    # Trivial-D sends even sites left and odd sites right, two sites a step.
    # Unsplit, the run between them grows to 12,002 sites by 3000 steps.
    trivial_a, trivial_d = QcaParams(1.0, 0.0, 0.0, 0.0), QcaParams(0.0, 0.0, 0.0, 1.0)
    widths = []
    stepped = AmplitudeField._stepped

    def counted(field, kernel):
        def kernel_call(lo, values):
            widths.append(values.shape[-1])
            return kernel(lo, values)

        return stepped(field, kernel_call)

    def evolve(field, params, n):
        for _ in range(n):
            field = qca_step(field, params)
        return field

    start = AmplitudeField({0: 0.6, 1: 0.8j})
    # the cost is flat because each step is one kernel call on a narrow array
    with monkeypatch.context() as patched:
        patched.setattr(AmplitudeField, "_stepped", counted)
        field = evolve(start, trivial_d, 3000)
    assert field.items() == [(-6000, 0.6 + 0j), (6001, 0.8j)]
    assert sum(arr.size for _, arr in field._runs) <= 2 * (_RUN_GAP + 1)
    assert len(widths) == 3000
    assert max(widths) <= 2 * (_RUN_GAP + 1)
    # and so it times within 1.5x of Trivial-A: in each of 5 rounds both run
    # 3000 steps in alternating 300-step chunks, and each chunk keeps its best
    # round, so a slow spell of the machine costs one chunk one round
    best = {}
    for _ in range(5):
        fields = dict.fromkeys((trivial_a, trivial_d), start)
        for chunk in range(10):
            for params in fields:
                began = time.perf_counter()
                fields[params] = evolve(fields[params], params, 300)
                elapsed = time.perf_counter() - began
                best[params, chunk] = min(best.get((params, chunk), elapsed), elapsed)
    total = {params: sum(best[params, chunk] for chunk in range(10)) for params in fields}
    assert total[trivial_d] <= 1.5 * total[trivial_a]


def test_wide_support_step_allocates_nothing_across_the_gap():
    far = 5_000_000
    field = AmplitudeField({0: INV_SQRT2, far: INV_SQRT2})
    tracemalloc.start()
    try:
        qca_step(field, PATEL)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_step_handles_very_wide_supports():
    far = 5_000_000
    field = AmplitudeField({0: INV_SQRT2, far: INV_SQRT2})
    out = qca_step(field, PATEL)
    near = qca_step(AmplitudeField.delta(0, INV_SQRT2), PATEL)
    assert out.support() == near.support() | {s + far for s in near.support()}
    for s in near.support():
        assert out[s] == pytest.approx(near[s])
        assert out[s + far] == pytest.approx(near[s])


def test_step_prunes_dust_it_produces():
    # every coefficient of PATEL has modulus 1/2, so 1.5e-15 maps to 7.5e-16
    dust = AmplitudeField({0: 0.6, 9: 1.5e-15, 20: 0.8})
    out = qca_step(dust, PATEL)
    assert out == qca_step(AmplitudeField({0: 0.6, 20: 0.8}), PATEL)
    assert len(out) == 8
    assert len(qca_step(AmplitudeField.delta(9, 1.5e-15), PATEL)) == 0


def test_step_preserves_norm():
    rng = np.random.default_rng(31)
    for _ in range(10):
        params = params_from_angles(AngleTriple(*rng.uniform(0.0, 2.0 * math.pi, 3)))
        field = random_unit_field(rng)
        for _ in range(20):
            field = qca_step(field, params)
        assert abs(field.norm_sq() - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# evolve_eta
# ---------------------------------------------------------------------------

def test_evolve_zero_steps_is_delta():
    assert evolve_eta(0, 0, PATEL) == AmplitudeField.delta(0)


def test_evolve_one_step_from_origin():
    out = evolve_eta(0, 1, PATEL)
    assert out.support() == {-2, -1, 0, 1}
    assert out[-2] == pytest.approx(-0.5)


def test_evolve_one_step_from_odd_site():
    out = evolve_eta(3, 1, PATEL)
    assert out.support() == {2, 3, 4, 5}
    assert out[2] == pytest.approx(0.5j)
    assert out[3] == pytest.approx(0.5)
    assert out[4] == pytest.approx(0.5j)
    assert out[5] == pytest.approx(-0.5)


def test_evolve_translation_by_two_sites():
    rng = np.random.default_rng(37)
    params = params_from_angles(AngleTriple(*rng.uniform(0.0, 2.0 * math.pi, 3)))
    base = evolve_eta(0, 6, params)
    moved = evolve_eta(2, 6, params)
    assert max_difference(base.shifted(2), moved) <= 1e-13


def test_evolve_support_bound():
    for n in (0, 1, 3, 7, 15):
        field = evolve_eta(0, n, PATEL)
        assert all(-2 * n <= s <= 2 * n for s in field.support())


@pytest.mark.parametrize("params", [PATEL, QcaParams(0.0, 0.6, 0.8j, 0.0)], ids=["jump", "steps"])
def test_empty_field_evolves_to_empty(params):
    assert qca_step(AmplitudeField(), params) == AmplitudeField()
    assert _evolve(AmplitudeField(), 9, params) == AmplitudeField()


def test_evolve_rejects_negative_steps():
    with pytest.raises(ValueError):
        evolve_eta(0, -1, PATEL)


# ---------------------------------------------------------------------------
# qca_distribution
# ---------------------------------------------------------------------------

def test_distribution_one_step_minus_branch():
    dist = qca_distribution(0, "-", (1.0, 0.0), 1, PATEL)
    assert dist.support() == {-2, -1, 0, 1}
    for k in (-2, -1, 0, 1):
        assert dist[k] == pytest.approx(0.25)


def test_distribution_zero_steps_plus_branch():
    dist = qca_distribution(0, "+", (INV_SQRT2, INV_SQRT2), 0, PATEL)
    assert dist[0] == pytest.approx(0.5)
    assert dist[1] == pytest.approx(0.5)


def test_distribution_total_mass_one():
    rng = np.random.default_rng(41)
    for _ in range(5):
        params = params_from_angles(AngleTriple(*rng.uniform(0.0, 2.0 * math.pi, 3)))
        chi = rng.uniform(0, math.pi / 2)
        qubit = (
            math.cos(chi) * complex(math.cos(a := rng.uniform(0, 2 * math.pi)), math.sin(a)),
            math.sin(chi) * complex(math.cos(b := rng.uniform(0, 2 * math.pi)), math.sin(b)),
        )
        sign = "+" if rng.uniform() < 0.5 else "-"
        dist = qca_distribution(0, sign, qubit, 12, params)
        assert abs(dist.total() - 1.0) <= 1e-12


def test_distribution_type_i_confined():
    params = QcaParams(0.0, -1j * INV_SQRT2, INV_SQRT2, 0.0)
    for n in (1, 5, 20):
        for sign in ("+", "-"):
            dist = qca_distribution(0, sign, (0.6, 0.8j), n, params)
            assert dist.support() <= {-2, -1, 0, 1}


def test_distribution_rejects_bad_qubit():
    with pytest.raises(ValueError):
        qca_distribution(0, "-", (1.0, 1.0), 1, PATEL)


def test_distribution_rejects_bad_sign():
    with pytest.raises(ValueError):
        qca_distribution(0, "x", (1.0, 0.0), 1, PATEL)
