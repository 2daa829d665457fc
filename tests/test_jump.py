"""The Fourier jump of Type V evolutions against stepping and an exact oracle.

The error budget of the jump against ``n`` lattice steps is ``n * eps``
(c = 1) plus ``PRUNE_TOLERANCE``.  On 300 random Type V tuples, qubits and
6 <= n <= 200 the worst measured error was 0.82 * n * eps.  On 300
near-degenerate tuples (one angle within 1e-4 of a multiple of pi/2) it
reached 0.95 * n * eps at n = 13; on 30 of them at n = 1000 and 3000, 0.61.
Against a 40-digit oracle, on the 40 draws worst against stepping, the jump
reached 0.95 * n * eps at n = 50: near-degenerate fields stay concentrated,
so the rounding of the global phase ``n * arg s`` shows at full size.
Taking ``|arg t| <= pi/4`` with ``s = i**k * t`` shrank that term: on
another 300 near-degenerate draws the worst fell from 1.59 to 1.29 * n * eps,
against stepping and against the oracle alike.  That draw was a nearly
translating tuple at n = 104, (1.554273, 5.4e-5, 2.638033) to six digits.
Within that rounding, on 151 draws of the tuple and a random qubit,
``reference_fourier_power`` below (normalized, on the full ring) reached
1.43 * n * eps against the oracle, and ``amplitudes._fourier_power`` 0.67.
Where ``n * eps`` is small, the per-step pruning of the stepped engine at
``PRUNE_TOLERANCE`` can dominate; hence the floor.
"""

import cmath
import math
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcawalk import qca_core
from qcawalk.amplitudes import (
    PRUNE_TOLERANCE,
    AmplitudeField,
    _fourier_power,
    _sq_modulus,
    max_difference,
    to_distribution,
)
from qcawalk.asymptotics import rescaled_qca_sample
from qcawalk.coined_walks import (
    L_UPPER,
    WalkState,
    evolve_walk,
    generalized_blocks_from_qca,
    walk_step,
)
from qcawalk.params import RESIDUAL_TOLERANCE, AngleTriple, QcaParams, params_from_angles
from qcawalk.qca_core import evolve_eta, qca_distribution, qca_step

EPS = float(np.finfo(np.float64).eps)
PATEL = QcaParams(0.5j, 0.5, 0.5j, -0.5)
REFERENCE = params_from_angles(AngleTriple(math.pi / 4, math.pi / 4, math.pi / 2))
_rng = np.random.default_rng(808)
RANDOM_TYPE_V = [
    params_from_angles(AngleTriple(*_rng.uniform(0.0, 2.0 * math.pi, 3))) for _ in range(2)
]


def budget(n):
    return n * EPS + PRUNE_TOLERANCE


def stepped(field, n, params):
    for _ in range(n):
        field = qca_step(field, params)
    return field


def qubit_start(qubit):
    return AmplitudeField({0: qubit[0], 1: qubit[1]})


angle = st.floats(0.0, 2.0 * math.pi, exclude_max=True)
type_v = st.builds(lambda t, p, d: params_from_angles(AngleTriple(t, p, d)), angle, angle, angle)
amplitude = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
# The sites of a start: pairs {m, m +- 1} for even and odd m, starts over 3
# and 5 cells (Horner's rule beyond one cell), and a far start, which the
# jump lays out around ring cell 0 like any other.
START_SITES = [
    (0, 1), (0, -1), (1, 2), (1, 0), (-1, 0, 3), (1, 2, 5, 9),
    tuple(10**6 + k for k in range(-3, 3)),
]


def unit_start(sites, amplitudes):
    norm = math.sqrt(sum(abs(z) ** 2 for z in amplitudes))
    return AmplitudeField({k: z / norm for k, z in zip(sites, amplitudes)})


starts = st.sampled_from(START_SITES).flatmap(
    lambda sites: st.lists(amplitude, min_size=len(sites), max_size=len(sites))
    .filter(lambda zs: sum(abs(z) ** 2 for z in zs) >= 0.01)
    .map(lambda zs: unit_start(sites, zs))
)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(type_v, starts, st.integers(1, 200))
def test_jump_agrees_with_stepping_within_the_budget(params, start, n):
    assume(min(map(abs, params.astuple())) >= RESIDUAL_TOLERANCE)
    jumped = qca_core._evolve(start, n, params)
    assert max_difference(jumped, stepped(start, n, params)) <= budget(n)


def lattice_power(n, params):
    """The jump kernel of ``n`` lattice steps: the Fourier power of the tuple's symbol."""
    return _fourier_power(n, qca_core._symbol(params))


def reference_fourier_power(n, params):
    """The full-ring form of ``lattice_power``, kept as its reference.

    It normalizes (alpha, beta) onto SU(2) explicitly and evaluates every
    term on every point of the ring.
    """
    a, b, c, d = params.astuple()
    s_sq = b * b + d * d - a * a - c * c
    k = 1 if s_sq.real < 0 else 0
    half = cmath.phase(-s_sq if k else s_sq) / 2
    s = (1, 1j)[k] * cmath.exp(1j * half)
    phase = (1, 1j, -1, -1j)[n * k % 4] * cmath.exp(1j * n * half)

    def kernel(start, ring):
        e = np.exp(2j * math.pi / ring * np.arange(ring))
        alpha, beta = (b + d * e) / s, (c + a * e) / s
        norm = np.sqrt(_sq_modulus(alpha) + _sq_modulus(beta))
        alpha, beta = alpha / norm, beta / norm
        sin_w = np.sqrt(alpha.imag * alpha.imag + _sq_modulus(beta))
        w = np.arctan2(sin_w, alpha.real)
        ratio = np.divide(np.sin(n * w), sin_w, out=np.zeros(ring), where=sin_w > 0)
        mu, nu = np.cos(n * w) + 1j * ratio * alpha.imag, ratio * beta
        x, back = start[:, -1:], e.conj()
        for column in start[:, -2::-1].T:
            x = x * back + column[:, None]
        x0, x1 = x
        return np.fft.ifft(phase * np.stack((mu * x0 - nu.conj() * x1, nu * x0 + mu.conj() * x1)))

    return kernel


def unit_cells(amplitudes):
    cells = np.array(amplitudes, np.complex128).reshape(2, -1)
    return cells / math.sqrt(float(_sq_modulus(cells).sum()))


# (2, m) starts over 1 to 5 cells
cells = st.integers(1, 5).flatmap(
    lambda m: st.lists(amplitude, min_size=2 * m, max_size=2 * m)
    .filter(lambda zs: sum(abs(z) ** 2 for z in zs) >= 0.01)
    .map(unit_cells)
)


# An odd ring has no point at p = pi, so its mirror differs from an even ring's.
# Each kernel carries up to about n * eps of its own rounding, so they may
# differ by twice that: on 3000 random draws (n <= 200, rings 8, 9, 4096) the
# worst was 2.6 * eps at n = 1 and 1.02 * n * eps at n = 200.
@pytest.mark.parametrize("ring", [8, 9, 4096])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(type_v, cells, st.integers(1, 200))
def test_kernel_agrees_with_the_normalized_full_ring_reference(ring, params, start, n):
    got = lattice_power(n, params)(start, ring).copy()
    want = reference_fourier_power(n, params)(start, ring)
    assert got.shape == (2, ring)
    assert float(np.abs(got - want).max()) <= 2 * (n + 1) * EPS


# The symbol U(p) is the B walk's step: walk site k holds cell k, left chirality on
# top, and the lattice symbol is the B blocks' symbol entry for entry.  The walk
# zeroes entries below PRUNE_TOLERANCE, and each engine rounds a few eps; on 3000
# random draws the worst gap was 2.0 * eps.
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(type_v, cells.filter(lambda start: start.shape[1] <= 4), st.integers(0, 8))
def test_one_jump_step_is_one_b_walk_step(params, start, spare):
    assume(min(map(abs, params.astuple())) >= RESIDUAL_TOLERANCE)
    assume(((start == 0) | (np.abs(start) >= PRUNE_TOLERANCE)).all())
    blocks = generalized_blocks_from_qca(params, "B")
    assert np.array_equal(qca_core._symbol(params), blocks._symbol)
    ring = start.shape[1] + 2 + spare  # walk sites -1 .. m, wrapped onto the ring
    got = lattice_power(1, params)(start, ring).copy()
    walk = WalkState({k: tuple(pair) for k, pair in enumerate(start.T)}, L_UPPER)
    want = np.zeros((2, ring), np.complex128)
    for k, pair in walk_step(walk, blocks).items():
        want[:, k % ring] = pair
    assert float(np.abs(got - want).max()) <= PRUNE_TOLERANCE + 4 * EPS


def in_fresh_thread(run):
    """``run()`` on a new thread, which starts with an empty kernel workspace."""
    result = []
    thread = threading.Thread(target=lambda: result.append(run()))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    return result[0]


ONE_CELL = unit_cells([0.6, 0.8j])
THREE_CELLS = unit_cells([0.3, -0.2j, 0.5 + 0.1j, 0.4, 0.1j, -0.6])


@pytest.mark.parametrize(
    "calls",
    [
        [(4096, ONE_CELL), (9, ONE_CELL), (4096, ONE_CELL)],
        [(64, ONE_CELL), (64, THREE_CELLS)],
    ],
    ids=["rings 4096, 9, 4096", "one cell, then three"],
)
def test_a_jump_does_not_depend_on_the_earlier_jumps_of_its_thread(calls):
    kernel = lattice_power(100, RANDOM_TYPE_V[0])
    firsts = [in_fresh_thread(lambda: kernel(start, ring).tobytes()) for ring, start in calls]
    in_turn = in_fresh_thread(lambda: [kernel(start, ring).tobytes() for ring, start in calls])
    assert in_turn == firsts


def test_threads_jumping_at_once_on_different_rings_each_get_their_own_workspace():
    kernel = lattice_power(100, RANDOM_TYPE_V[1])
    rings = (4096, 512, 4096, 512)  # more threads than cores, on two ring sizes
    firsts = {
        ring: in_fresh_thread(lambda: kernel(THREE_CELLS, ring).tobytes()) for ring in set(rings)
    }
    barrier, mismatches = threading.Barrier(len(rings), timeout=60), []

    def jumps(ring):
        barrier.wait()
        for _ in range(30):
            if kernel(THREE_CELLS, ring).tobytes() != firsts[ring]:
                mismatches.append(ring)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=jumps, args=(ring,)) for ring in rings]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


def test_a_warm_jump_at_1000_steps_allocates_no_ring_sized_temporaries():
    # the start {0, 1} at n = 1000 jumps on a ring of 4096 cells
    params = params_from_angles(AngleTriple(1.1, 0.4, 2.0))
    qca_distribution(0, "+", (0.6, 0.8j), 1000, params)  # grows this thread's workspace
    tracemalloc.start()
    try:
        qca_distribution(0, "+", (0.6, 0.8j), 1000, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # what is left is the field read out of the ring and the distribution built from it:
    # about 270 KB, where one more ring-sized complex temporary per intermediate comes to 800 KB
    assert peak <= 6 * 16 * 4096


@pytest.mark.parametrize(
    "floor, cone, kept",
    [
        # an entry equal to the floor goes, the next float above it stays
        (1e-10, {0: 1e-10j, 1: math.nextafter(1e-10, 1.0), 2: 0.5}, [1, 2]),
        # an entry under PRUNE_TOLERANCE goes, however far above the floor
        (1e-16, {-1: 1e-16, 0: 0.9e-15j, 1: PRUNE_TOLERANCE}, [1]),
    ],
)
def test_the_jump_zeroes_its_cone_at_or_below_the_noise_floor(floor, cone, kept):
    def kernel(start, ring):
        # a one-step jump from site 0 reads sites -2 .. 2, cells -1 .. 1, off a ring of 8
        cells = np.zeros((2, ring), np.complex128)
        for site, z in cone.items():
            cells[site & 1, (site >> 1) % ring] = z
        cells[1, ring // 2] = -floor  # the largest entry in the guard band
        return cells

    jumped = AmplitudeField.delta(0)._jumped(1, kernel)
    assert jumped.items() == [(site, complex(cone[site])) for site in kept]


@pytest.mark.parametrize("n", [1000, 2000])
@pytest.mark.parametrize(
    "params", [REFERENCE, *RANDOM_TYPE_V], ids=["reference", "random1", "random2"]
)
def test_jump_and_stepping_differ_only_in_dust_at_long_runs(params, n):
    start = qubit_start((0.6, 0.8j))
    jumped, walked = qca_core._evolve(start, n, params), stepped(start, n, params)
    assert max_difference(jumped, walked) <= budget(n)
    for site in jumped.support() ^ walked.support():
        assert abs(jumped[site]) <= 1e-13 and abs(walked[site]) <= 1e-13
    assert jumped.support() <= set(range(-2 * n, 2 * n + 2))


def exact_patel_field(n):
    """2**n times the amplitudes after n steps of PATEL from a delta at 0.

    Every coefficient of (i/2, 1/2, i/2, -1/2) is a unit Gaussian integer
    over 2, so the scaled field is a Gaussian integer, kept as (re, im) ints.
    """
    re, im = {0: 1}, {0: 0}
    for _ in range(n):
        new_re, new_im = {}, {}
        for k in range((min(re) - 2) & ~1, max(re) + 3, 2):
            r1, r2, r3, r4 = (re.get(k + j, 0) for j in (-1, 0, 1, 2))
            i1, i2, i3, i4 = (im.get(k + j, 0) for j in (-1, 0, 1, 2))
            # out[2k] = i*x1 + x2 + i*x3 - x4, out[2k+1] = -x1 + i*x2 + x3 + i*x4
            new_re[k], new_im[k] = -i1 + r2 - i3 - r4, r1 + i2 + r3 - i4
            new_re[k + 1], new_im[k + 1] = -r1 - i2 + r3 - i4, -i1 + r2 + i3 + r4
        re, im = new_re, new_im
    return {k: (re[k], im[k]) for k in re if re[k] or im[k]}


@pytest.mark.parametrize("n", [1, 2, 6, 50, 100, 200])
def test_jump_against_the_exact_gaussian_integer_field(n):
    exact = {k: complex(r / 2**n, i / 2**n) for k, (r, i) in exact_patel_field(n).items()}
    jumped = evolve_eta(0, n, PATEL)
    sites = jumped.support() | set(exact)
    assert max(abs(jumped[k] - exact.get(k, 0.0)) for k in sites) <= budget(n)
    # every kept entry has at least one correct bit; noise that the floor let
    # through would have a relative error near 1 (0.28 is the worst measured)
    assert all(abs(jumped[k] - exact.get(k, 0.0)) < 0.5 * abs(jumped[k]) for k in jumped.support())


# |a| = 1.0e-13 falls under the zero test, and b, c, d do not
THREE_NONZERO = params_from_angles(AngleTriple(1.5697963271282298, 1.5707963266948965, 0.0))


def test_type_v_evolutions_take_the_jump(monkeypatch):
    def no_step(field, params):
        raise AssertionError("qca_step called")

    monkeypatch.setattr(qca_core, "qca_step", no_step)
    for params in (REFERENCE, THREE_NONZERO):
        assert abs(evolve_eta(0, 100, params).norm_sq() - 1.0) <= 1e-12
        assert abs(qca_distribution(0, "+", (0.6, 0.8j), 100, params).total() - 1.0) <= 1e-12


COS, SIN = math.cos(0.4), math.sin(0.4)


@pytest.mark.parametrize(
    "params,support",
    [
        (QcaParams(0.0, 0.0, 0.0, 1.0), {-400, 401}),  # Trivial-D translates
        (QcaParams(0.0, -1j * COS, SIN, 0.0), {0, 1}),  # Type I keeps cell (0, 1)
        (QcaParams(COS, -1j * SIN, 0.0, 0.0), {-1, 0, 1, 2}),  # Type II keeps (-1, 0) and (1, 2)
    ],
    ids=["TrivialD", "TypeI", "TypeII"],
)
def test_degenerate_tuples_keep_stepping_and_their_exact_supports(params, support):
    dist = qca_distribution(0, "+", (0.6, 0.8j), 200, params)
    assert dist.support() == support
    assert dist == to_distribution(stepped(qubit_start((0.6, 0.8j)), 200, params))


def test_evolution_at_5000_steps_takes_under_0_2_s():
    qca_distribution(0, "+", (0.6, 0.8j), 10, REFERENCE)  # loads numpy.fft
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        dist = qca_distribution(0, "+", (0.6, 0.8j), 5000, REFERENCE)
        elapsed.append(time.perf_counter() - start)
    assert abs(dist.total() - 1.0) <= 1e-12
    assert min(elapsed) <= 0.2


def test_a_start_wider_than_2n_cells_steps():
    # jumped, these starts would take a ring of 2**15 cells and a Horner pass per cell
    params = params_from_angles(AngleTriple(1.1, 0.4, 2.0))
    blocks = generalized_blocks_from_qca(params, "B")
    walk = WalkState({0: (0.6, 0.8j), 10_000: (0.8j, 0.6)}, blocks.order)
    field = AmplitudeField({0: 0.6, 20_000: 0.8j})
    for n in (1, 3):
        walked = walk
        for _ in range(n):
            walked = walk_step(walked, blocks)
        evolved = evolve_walk(walk, blocks, n)
        assert evolved == walked and repr(evolved) == repr(walked)
        evolved = qca_core._evolve(field, n, params)
        assert repr(evolved) == repr(stepped(field, n, params))


@pytest.mark.parametrize("family", ["A", "B"])
def test_walk_evolution_at_5000_steps_takes_under_0_1_s(family):
    blocks = generalized_blocks_from_qca(params_from_angles(AngleTriple(1.1, 0.4, 2.0)), family)
    start = WalkState.origin((0.6, 0.8j), blocks.order)
    evolve_walk(start, blocks, 10)  # loads numpy.fft
    elapsed = []
    for _ in range(3):
        begin = time.perf_counter()
        state = evolve_walk(start, blocks, 5000)
        elapsed.append(time.perf_counter() - begin)
    assert abs(state.norm_sq() - 1.0) <= 1e-12
    assert min(elapsed) <= 0.1


# 1 ulp off unitary: a power that compounds that defect drifts the mass by
# 1.1e-12 at n = 5000, past the 1e-12 check of a rescaled sample
DRIFTED = AngleTriple(0.8, 0.77, 1.3)
_mass_rng = np.random.default_rng(2026)
MASS_TUPLES = [DRIFTED, AngleTriple(math.pi / 4, math.pi / 4, math.pi / 2)] + [
    AngleTriple(*_mass_rng.uniform(0.0, 2.0 * math.pi, 3)) for _ in range(6)
]


@pytest.mark.parametrize(
    "angles", MASS_TUPLES, ids=["drifted", "reference"] + [f"random{i}" for i in range(6)]
)
def test_jumped_mass_does_not_drift_with_n(angles):
    # worst measured: 3 * eps on 177 tuples, for n up to 20000 (at n = 1)
    params = params_from_angles(angles)
    for n in (1, 7, 1000, 5000, 20000):
        dist = qca_distribution(0, "+", (0.6, 0.8j), n, params)
        assert abs(dist.total() - 1.0) <= 4 * EPS, n


def test_drifted_tuple_builds_its_sample_at_5000_steps():
    sample = rescaled_qca_sample(params_from_angles(DRIFTED), (0.6, 0.8j), 5000)
    assert sample.n == 5000
    done = subprocess.run(
        [sys.executable, "-m", "qcawalk", "limit-compare", "--theta", "0.8", "--phi", "0.77",
         "--delta", "1.3", "--qubit", "0.6", "0", "0", "0.8", "--steps", "5000"],
        capture_output=True, text=True, timeout=120,
    )
    # the law compared is the reference point's, so the KS gate may fail here (exit 1)
    assert done.returncode != 2, done.stderr
    assert "sample masses" not in done.stderr


def test_classify_verify_and_factorize_do_not_load_numpy_fft():
    # numpy 2 loads numpy.fft on first use; only an evolution that jumps needs it
    code = (
        "import sys\n"
        "import numpy\n"
        "with_numpy = 'numpy.fft' in sys.modules\n"
        "from qcawalk import cli\n"
        "for argv in (['classify', '--theta', 'pi/4', '--phi', 'pi/4', '--delta', 'pi/2'],\n"
        "             ['verify', '--kind', 'A', '--theta', '1', '--phi', '2', '--delta', '3'],\n"
        "             ['verify', '--kind', 'B', '--theta', '1', '--phi', '2', '--delta', '3'],\n"
        "             ['factorize', '--kind', 'patel']):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "assert ('numpy.fft' in sys.modules) == with_numpy\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
