"""Property tests of the lattice step over random tuples, qubits and step counts."""

import cmath
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from qcawalk.amplitudes import AmplitudeField, max_difference, superpose, to_distribution
from qcawalk.correspondence import verify_A_correspondence, verify_B_correspondence
from qcawalk.qca_core import AngleTriple, evolve_eta, params_from_angles, qca_distribution, qca_step

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
fields = st.dictionaries(
    st.integers(-30, 30),
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
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
