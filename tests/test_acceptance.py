"""Acceptance gate: every release criterion at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion with its measured margin and runtime.
"""

import math
import time

import numpy as np

from dense_reference import dense_qca_matrix, field_to_vector
from qcawalk.algebra import PatelParams, patel_factorize, verify_two_step
from qcawalk.amplitudes import (
    AmplitudeField,
    superpose,
    to_distribution,
)
from qcawalk.asymptotics import (
    kolmogorov_distance,
    limit_cdf,
    limit_density,
    rescaled_qca_sample,
    symmetry_defect,
)
from qcawalk.coined_walks import (
    CoinMatrix,
    WalkState,
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
from qcawalk.params import AngleTriple, QcaParams, params_from_angles, unitarity_residuals
from qcawalk.qca_core import qca_step

INV_SQRT2 = 1.0 / math.sqrt(2.0)
PATEL_ANGLES = AngleTriple(math.pi / 4, math.pi / 4, math.pi / 2)
SYMMETRIC = (INV_SQRT2, INV_SQRT2)


def report(num, name, elapsed, detail):
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({detail}) [{elapsed:.2f}s]")


def random_angles(rng):
    return AngleTriple(*rng.uniform(0.0, 2.0 * math.pi, 3))


def random_qubit(rng):
    chi = rng.uniform(0, math.pi / 2)
    pa, pb = rng.uniform(0, 2 * math.pi, 2)
    return (
        math.cos(chi) * complex(math.cos(pa), math.sin(pa)),
        math.sin(chi) * complex(math.cos(pb), math.sin(pb)),
    )


def test_criterion_01_unitarity_family():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        params = params_from_angles(random_angles(rng))
        worst = max(worst, max(unitarity_residuals(*params.astuple())))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 1.0
    report(1, "unitarity-family", elapsed, f"max residual {worst:.2e}")


def test_criterion_02_reference_point():
    start = time.perf_counter()
    params = params_from_angles(PATEL_ANGLES)
    targets = (0.5j, 0.5, 0.5j, -0.5)
    pairs = list(zip(params.astuple(), map(complex, targets)))
    worst = max(
        max(abs(got.real - want.real) for got, want in pairs),
        max(abs(got.imag - want.imag) for got, want in pairs),
    )
    elapsed = time.perf_counter() - start
    assert worst <= 1e-15
    report(2, "reference-point", elapsed, f"max component error {worst:.2e}")


def test_criterion_03_norm_conservation():
    rng = np.random.default_rng(1003)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        params = params_from_angles(random_angles(rng))
        sites = rng.choice(np.arange(-40, 40), size=20, replace=False)
        entries = {int(k): complex(*rng.normal(size=2)) for k in sites}
        scale = math.sqrt(sum(abs(z) ** 2 for z in entries.values()))
        field = AmplitudeField({k: z / scale for k, z in entries.items()})
        for _ in range(50):
            field = qca_step(field, params)
        worst = max(worst, abs(field.norm_sq() - 1.0))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 1.0
    report(3, "norm-conservation", elapsed, f"max drift {worst:.2e}")


def test_criterion_04_dense_oracle_equivalence():
    rng = np.random.default_rng(1004)
    start = time.perf_counter()
    lo, hi = -32, 31  # 64-site window
    worst = 0.0
    for _ in range(100):
        params = params_from_angles(random_angles(rng))
        sites = rng.choice(np.arange(-10, 11), size=8, replace=False)
        entries = {int(k): complex(*rng.normal(size=2)) for k in sites}
        scale = math.sqrt(sum(abs(z) ** 2 for z in entries.values()))
        field = AmplitudeField({k: z / scale for k, z in entries.items()})
        dense = dense_qca_matrix(*params.astuple(), lo, hi)
        # broadcast product, not `dense @ vec`: multithreaded BLAS mat-vecs
        # can stall for hundreds of milliseconds on a busy 2-vCPU machine,
        # which the wall-clock bound below would count against the kernel
        expected = (dense * field_to_vector(field, lo, hi)).sum(axis=1)
        got = field_to_vector(qca_step(field, params), lo, hi)
        worst = max(worst, float(np.abs(got - expected).max()))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 1.0
    report(4, "dense-oracle", elapsed, f"max entry error {worst:.2e}")


def test_criterion_05_pairing_identities():
    rng = np.random.default_rng(1005)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        params = params_from_angles(random_angles(rng))
        qubit = random_qubit(rng)
        ra = verify_A_correspondence(params, qubit, 50)
        rb = verify_B_correspondence(params, qubit, 50)
        worst = max(worst, ra.max_error(), rb.max_error())
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 10.0
    report(5, "pairing-identities", elapsed, f"max identity error {worst:.2e}")


def test_criterion_06_type_reductions():
    rng = np.random.default_rng(1006)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(5):
        qubit = random_qubit(rng)

        gamma = rng.uniform(0.1, math.pi / 2 - 0.1)
        phase = complex(math.cos(w := rng.uniform(0, 2 * math.pi)), math.sin(w))
        type3 = QcaParams(0.0, 0.0, phase * math.sin(gamma), 1j * phase * math.cos(gamma))
        blocks3 = generalized_blocks_from_qca(type3, "A")
        assert float(np.abs(blocks3.T).max()) <= 1e-12
        plain3 = plain_blocks(CoinMatrix(type3.d, type3.c, type3.c, type3.d), "A")
        gen = WalkState.origin(qubit, blocks3.order)
        ref = WalkState.origin(qubit, plain3.order)
        for _ in range(50):
            gen = walk_step(gen, blocks3)
            ref = walk_step(ref, plain3)
            d1, d2 = walk_distribution(gen), walk_distribution(ref)
            for k in d1.support() | d2.support():
                worst = max(worst, abs(d1[k] - d2[k]))

        gamma = rng.uniform(0.1, math.pi / 2 - 0.1)
        phase = complex(math.cos(w := rng.uniform(0, 2 * math.pi)), math.sin(w))
        type4 = QcaParams(phase * math.cos(gamma), 0.0, 0.0, 1j * phase * math.sin(gamma))
        blocks4 = generalized_blocks_from_qca(type4, "B")
        assert float(np.abs(blocks4.T).max()) <= 1e-12
        plain4 = plain_blocks(CoinMatrix(type4.d, type4.a, type4.a, type4.d), "B")
        gen = WalkState.origin(qubit, blocks4.order)
        ref = WalkState.origin(qubit, plain4.order)
        for _ in range(50):
            gen = walk_step(gen, blocks4)
            ref = walk_step(ref, plain4)
            d1, d2 = walk_distribution(gen), walk_distribution(ref)
            for k in d1.support() | d2.support():
                worst = max(worst, abs(d1[k] - d2[k]))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 5.0
    report(6, "type-reductions", elapsed, f"max mass error {worst:.2e}")


def test_criterion_07_two_step_factorization():
    rng = np.random.default_rng(1007)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        angles = random_angles(rng)
        t1, t2 = rng.uniform(0.0, 2.0 * math.pi, 2)
        for family in ("A", "B"):
            worst = max(worst, verify_two_step(angles, t1, t2, family).max_error())
    assert worst <= 1e-12

    line_worst = 0.0
    for _ in range(25):
        theta = rng.uniform(0.05, math.pi / 2 - 0.05)
        t1 = rng.uniform(0.0, 2.0 * math.pi)
        angles = AngleTriple(theta, math.pi / 2 - theta, 2 * t1 + math.pi / 2)
        first, second = two_step_factorize(angles, t1, t1, "A")
        line_worst = max(line_worst, float(np.abs(first.coin - second.coin).max()))
    assert line_worst <= 1e-12

    want = INV_SQRT2 * np.array([[1j, 1.0], [1.0, 1j]])
    point_worst = max(
        float(np.abs(half_step.coin - want).max())
        for half_step in two_step_factorize(PATEL_ANGLES, 0.0, 0.0, "A")
    )
    assert point_worst <= 1e-15
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(
        7, "two-step-factorization", elapsed,
        f"products {worst:.2e}, equal-coin line {line_worst:.2e}, point {point_worst:.2e}",
    )


def test_criterion_08_even_odd_factorization_grid():
    start = time.perf_counter()
    worst = 0.0
    grid = np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False)
    for phi1 in grid:
        for phi2 in grid:
            _, rep = patel_factorize(PatelParams(float(phi1), float(phi2)))
            worst = max(worst, rep.max_amplitude_error)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 2.0
    report(8, "even-odd-factorization", elapsed, f"max grid error {worst:.2e}")


def test_criterion_09_confinement():
    rng = np.random.default_rng(1009)
    start = time.perf_counter()
    worst_leak = 0.0
    for _ in range(4):
        delta = rng.uniform(0, 2 * math.pi)
        phase = complex(math.cos(delta), math.sin(delta))
        angle = rng.uniform(0.1, math.pi / 2 - 0.1)
        qubit = random_qubit(rng)

        type1 = QcaParams(0.0, -1j * phase * math.cos(angle), phase * math.sin(angle), 0.0)
        allowed1 = {-2, -1, 0, 1}
        type2 = QcaParams(phase * math.cos(angle), -1j * phase * math.sin(angle), 0.0, 0.0)
        allowed2 = {-1, 0, 1, 2}
        for params, allowed in ((type1, allowed1), (type2, allowed2)):
            for sign in ("+", "-"):
                field = superpose(
                    AmplitudeField.delta(0),
                    AmplitudeField.delta(1 if sign == "+" else -1),
                    qubit[0],
                    qubit[1],
                )
                for _ in range(50):
                    field = qca_step(field, params)
                    dist = to_distribution(field)
                    leak = math.fsum(
                        m for k, m in dist.items() if k not in allowed
                    )
                    worst_leak = max(worst_leak, leak)
    elapsed = time.perf_counter() - start
    assert worst_leak <= 1e-24
    assert elapsed < 1.0
    report(9, "confinement", elapsed, f"max leaked mass {worst_leak:.2e}")


def test_criterion_10_limit_law():
    start = time.perf_counter()
    params = params_from_angles(PATEL_ANGLES)
    field = superpose(
        AmplitudeField.delta(0), AmplitudeField.delta(1), INV_SQRT2, INV_SQRT2
    )
    worst_defect = 0.0
    for _ in range(500):
        field = qca_step(field, params)
        worst_defect = max(
            worst_defect, symmetry_defect(to_distribution(field), 0.5)
        )
    assert worst_defect <= 1e-12

    distances = {
        n: kolmogorov_distance(rescaled_qca_sample(params, SYMMETRIC, n))
        for n in (100, 200, 500)
    }
    assert distances[500] <= 0.08
    assert distances[200] <= distances[100] + 0.01
    assert distances[500] <= distances[200] + 0.01
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(
        10, "limit-law", elapsed,
        "defect {:.2e}, KS 100/200/500 = {:.4f}/{:.4f}/{:.4f}".format(
            worst_defect, distances[100], distances[200], distances[500]
        ),
    )


def test_criterion_11_density_self_consistency():
    start = time.perf_counter()
    total_err = abs(limit_cdf(math.sqrt(2.0)) - 1.0)
    assert total_err <= 1e-9
    for x in np.linspace(0.0, math.sqrt(2.0), 40):
        assert limit_density(float(x)) == limit_density(float(-x))
    center_err = abs(limit_density(0.0) - 1.0 / (2.0 * math.pi))
    assert center_err <= 1e-12
    elapsed = time.perf_counter() - start
    report(
        11, "density-self-consistency", elapsed,
        f"cdf end {total_err:.2e}, center {center_err:.2e}",
    )


def run_cli_inprocess(command):
    import contextlib
    import io

    from qcawalk.cli import main

    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(command)
    return code, out.getvalue()


def test_criterion_12_cli_determinism():
    start = time.perf_counter()
    commands = [
        ["classify", "--theta", "pi/4", "--phi", "pi/4", "--delta", "pi/2"],
        [
            "simulate-qca", "--theta", "pi/4", "--phi", "pi/4", "--delta", "pi/2",
            "--steps", "1", "--qubit", "1", "0", "--sign", "-",
        ],
        ["verify", "--kind", "patel", "--phi1", "pi/4", "--phi2", "pi/4"],
    ]
    for command in commands:
        first = run_cli_inprocess(command)
        second = run_cli_inprocess(command)
        assert first[0] == second[0] == 0
        assert first[1] == second[1]
        assert first[1]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(12, "cli-determinism", elapsed, "3 golden commands byte-stable")
