"""Limit density, its CDF, rescaled samples, and the sup-distance metric."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcawalk.amplitudes import Distribution
from qcawalk.asymptotics import (
    SQRT_2,
    RescaledSample,
    kolmogorov_distance,
    limit_cdf,
    limit_density,
    rescaled_qca_sample,
    symmetry_defect,
)
from qcawalk.params import RESIDUAL_TOLERANCE, AngleTriple, params_from_angles
from qcawalk.qca_core import qca_distribution

INV_SQRT2 = 1.0 / math.sqrt(2.0)
PATEL = params_from_angles(AngleTriple(math.pi / 4, math.pi / 4, math.pi / 2))
SYMMETRIC = (INV_SQRT2, INV_SQRT2)


def quadrature_cdf(xs):
    """CDF at ascending points by 30-digit mpmath quadrature of the density.

    Independent of the closed form in ``limit_cdf``: each step integrates the
    density formula from the previous point, starting at -sqrt(2).
    """
    values = []
    with mpmath.workdps(30):
        root2 = mpmath.sqrt(2)

        def density(u):
            # abs(): quadrature nodes within ~1e-30 of an endpoint can round
            # 4 - 2u^2 below zero; their weight is negligible
            return 4 / (mpmath.pi * (4 - u * u) * mpmath.sqrt(abs(4 - 2 * u * u)))

        left, total = -root2, mpmath.mpf(0)
        for x in xs:
            upper = min(max(mpmath.mpf(x), -root2), root2)
            if upper > left:
                total += mpmath.quad(density, [left, upper])
                left = upper
            values.append(float(total))
    return values


# ---------------------------------------------------------------------------
# limit_density / limit_cdf
# ---------------------------------------------------------------------------

def test_density_at_zero():
    assert abs(limit_density(0.0) - 1.0 / (2.0 * math.pi)) <= 1e-15


def test_density_outside_support():
    assert limit_density(2.0) == 0.0
    assert limit_density(-1.5) == 0.0
    assert limit_density(SQRT_2) == 0.0


def test_density_at_one():
    assert limit_density(1.0) == pytest.approx(4.0 / (3.0 * math.sqrt(2.0) * math.pi))


def test_density_is_even():
    for x in np.linspace(0.0, SQRT_2 - 1e-9, 50):
        assert limit_density(float(x)) == limit_density(float(-x))


def test_cdf_midpoint():
    assert limit_cdf(0.0) == pytest.approx(0.5, abs=1e-9)


def test_cdf_endpoints():
    assert limit_cdf(SQRT_2) == pytest.approx(1.0, abs=1e-9)
    assert limit_cdf(-SQRT_2) == pytest.approx(0.0, abs=1e-9)
    assert limit_cdf(5.0) == pytest.approx(1.0, abs=1e-9)
    assert limit_cdf(-5.0) == pytest.approx(0.0, abs=1e-9)


def test_cdf_matches_closed_form():
    # the closed form against high-precision quadrature of the density
    xs = [float(x) for x in np.linspace(-SQRT_2, SQRT_2, 101)]
    for x, expected in zip(xs, quadrature_cdf(xs)):
        assert abs(limit_cdf(x) - expected) <= 1e-13


def test_cdf_derivative_is_density():
    h = 1e-5
    for x in np.linspace(-1.3, 1.3, 53):
        x = float(x)
        slope = (limit_cdf(x + h) - limit_cdf(x - h)) / (2.0 * h)
        assert abs(slope - limit_density(x)) <= 1e-7 * limit_density(x)


def test_cdf_finite_next_to_support_edges():
    # 4 - 2x^2 is about 8.9e-16 one ulp inside either edge
    for edge in (SQRT_2, -SQRT_2):
        value = limit_cdf(math.nextafter(edge, 0.0))
        assert math.isfinite(value)
        assert 0.0 <= value <= 1.0


def test_cdf_reflection_identity():
    for x in np.linspace(0.0, SQRT_2, 25):
        assert abs(limit_cdf(float(x)) + limit_cdf(float(-x)) - 1.0) <= 1e-9


def test_cdf_monotone():
    xs = np.linspace(-1.5, 1.5, 61)
    vals = [limit_cdf(float(x)) for x in xs]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# RescaledSample / rescaled_qca_sample
# ---------------------------------------------------------------------------

def test_sample_one_step_uniform_quarters():
    sample = rescaled_qca_sample(PATEL, (1.0, 0.0), 1)
    assert sample.points.tolist() == [
        [-2.0, pytest.approx(0.25)],
        [-1.0, pytest.approx(0.25)],
        [0.0, pytest.approx(0.25)],
        [1.0, pytest.approx(0.25)],
    ]


def test_sample_masses_total_one():
    for n in (1, 7, 40):
        sample = rescaled_qca_sample(PATEL, SYMMETRIC, n)
        assert abs(math.fsum(m for _, m in sample.points) - 1.0) <= 1e-12


def test_sample_symmetric_qubit_mirror_pairs():
    # symmetric about the half-site offset 1/(2n) in rescaled coordinates
    n = 24
    sample = rescaled_qca_sample(PATEL, SYMMETRIC, n)
    masses = dict(sample.points)
    for x, m in sample.points:
        mirror = 1.0 / n - x
        partner = masses.get(round(mirror * n) / n, 0.0)
        assert abs(m - partner) <= 1e-12


def test_sample_mean_is_half_site():
    for n in (10, 50, 250):
        sample = rescaled_qca_sample(PATEL, SYMMETRIC, n)
        assert abs(sample.mean() - 1.0 / (2 * n)) <= 1e-10


def test_sample_rejects_zero_steps():
    with pytest.raises(ValueError):
        rescaled_qca_sample(PATEL, SYMMETRIC, 0)


def test_sample_rejects_unnormalized_masses():
    with pytest.raises(ValueError):
        RescaledSample(((0.0, 0.5),), 1)


@pytest.mark.parametrize(
    "points",
    [
        ((math.nan, 1.0),),
        # a NaN total would slip through the |total - 1| check
        ((0.0, math.nan), (1.0, 1.0)),
        ((math.inf, 1.0),),
        ((-math.inf, 0.5), (0.0, 0.5)),
        ((0.0, math.inf),),
    ],
)
def test_sample_rejects_non_finite_points(points):
    with pytest.raises(ValueError, match="finite"):
        RescaledSample(points, 1)


def test_sample_rejects_negative_masses():
    with pytest.raises(ValueError, match="nonnegative"):
        RescaledSample(((0.0, -0.5), (1.0, 1.5)), 1)


@pytest.mark.parametrize("n", [0, -3])
def test_sample_rejects_step_count_below_one(n):
    with pytest.raises(ValueError, match="at least 1"):
        RescaledSample(((0.0, 1.0),), n)


@pytest.mark.parametrize("n", [2.7, 2.0])
def test_sample_rejects_non_integral_step_count(n):
    with pytest.raises(TypeError):
        RescaledSample(((0.0, 1.0),), n)


def test_sample_accepts_numpy_integer_step_count():
    sample = RescaledSample(((0.0, 1.0),), np.int64(3))
    assert sample.n == 3 and type(sample.n) is int


def test_sample_points_are_sorted_so_order_does_not_change_distance():
    forward = ((0.0, 0.5), (1.0, 0.5))
    backward = forward[::-1]
    assert RescaledSample(backward, 1).points.tolist() == [[0.0, 0.5], [1.0, 0.5]]
    # the step CDF is 1/2 on [0, 1) against limit_cdf(0) = 1/2, and the
    # largest gap is at the jump at 0: |0 - limit_cdf(0)| = 1/2
    assert kolmogorov_distance(RescaledSample(backward, 1)) == 0.5
    assert kolmogorov_distance(RescaledSample(forward, 1)) == 0.5

    sample = rescaled_qca_sample(PATEL, SYMMETRIC, 40)
    shuffled = list(sample.points)
    np.random.default_rng(5).shuffle(shuffled)
    assert kolmogorov_distance(RescaledSample(tuple(shuffled), 40)) == kolmogorov_distance(sample)


def test_sample_points_are_a_read_only_array():
    sample = rescaled_qca_sample(PATEL, SYMMETRIC, 10)
    assert sample.points.dtype == np.float64 and sample.points.shape == (42, 2)
    with pytest.raises(ValueError, match="read-only"):
        sample.points[0, 1] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        sample.points.T[0] = 0.0


def test_sample_takes_any_iterable_of_pairs_and_leaves_a_given_array_writable():
    given = np.array([[1.0, 0.25], [-1.0, 0.75]])
    from_array = RescaledSample(given, 2)
    from_generator = RescaledSample(((x, m) for x, m in given.tolist()), 2)
    assert from_array.points.tolist() == from_generator.points.tolist() == [
        [-1.0, 0.75], [1.0, 0.25],
    ]
    given[0, 0] = 3.0  # the sample holds its own sorted copy
    assert from_array.points.tolist() == [[-1.0, 0.75], [1.0, 0.25]]
    # an array already in order is copied too, and neither frozen nor changed
    in_order = np.array([[-1.0, 0.25], [0.0, 0.25], [0.0, 0.5]])
    sample = RescaledSample(in_order, 2)
    assert in_order.flags.writeable and in_order.tolist() == sample.points.tolist()
    assert not sample.points.flags.writeable and not np.shares_memory(sample.points, in_order)
    with pytest.raises(ValueError):
        RescaledSample(((0.0, 0.5, 0.5),), 1)


def lexsorted(points):
    points = np.asarray(points, np.float64)
    return points[np.lexsort((points[:, 1], points[:, 0]))].tolist()


@pytest.mark.parametrize("seed", range(5))
def test_sample_orders_unsorted_and_tied_points_as_lexsort_does(seed):
    rng = np.random.default_rng(seed)
    masses = rng.dirichlet(np.ones(30))
    positions = rng.integers(-3, 4, 30) / 2.0  # few positions: many ties
    unsorted = np.column_stack((positions, masses))
    assert RescaledSample(unsorted, 2).points.tolist() == lexsorted(unsorted)
    # sorted by position but not by mass within ties; -0.0 ties 0.0
    by_position = unsorted[np.argsort(positions, kind="stable")]
    assert RescaledSample(by_position, 2).points.tolist() == lexsorted(by_position)
    tied = [(0.0, 0.5), (-0.0, 0.25), (1.0, 0.25)]
    assert RescaledSample(tied, 1).points.tolist() == lexsorted(tied)


def fsum_mass_gate(masses):
    """The sample's mass check as one exact sum, the reference for the certified one."""
    total = math.fsum(masses.tolist())
    if abs(total - 1.0) > RESIDUAL_TOLERANCE:
        raise ValueError(f"sample masses must total 1, got {total!r}")


def gate_message(check):
    try:
        check()
    except ValueError as err:
        return str(err)
    return None


def masses_near_the_edge(seed, k, ulps, side, tiny_share):
    """k masses whose exact total is within about an ulp of 1 + side * 1e-12 + ulps ulps."""
    target = 1.0 + side * RESIDUAL_TOLERANCE
    target += ulps * np.spacing(target)
    rng = np.random.default_rng(seed)
    rest = np.where(rng.random(k - 1) < tiny_share, 10.0 ** rng.uniform(-30, -3, k - 1),
                    rng.random(k - 1))
    if rest.size:
        rest *= 0.5 / rest.sum()
    masses = np.append(rest, target - math.fsum(rest.tolist()))
    return masses[rng.permutation(k)]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 20_000),
    # a few ulps either side of the edge, or anywhere within twice the tolerance
    # (about 4500 ulps), where the bound decides alone
    st.one_of(st.integers(-4, 4), st.integers(-9000, 9000)),
    st.sampled_from([-1, 1]),
    st.floats(0.0, 1.0),
)
def test_certified_mass_gate_decides_as_fsum_does(seed, k, ulps, side, tiny_share):
    masses = masses_near_the_edge(seed, k, ulps, side, tiny_share)
    points = np.column_stack((np.arange(k) / k, masses))
    want = gate_message(lambda: fsum_mass_gate(masses))
    assert gate_message(lambda: RescaledSample(points, 1)) == want


def test_reference_point_samples_certify_their_mass_without_fsum(monkeypatch):
    calls = []
    fsum = math.fsum
    monkeypatch.setattr(math, "fsum", lambda values: calls.append(1) or fsum(values))
    for n in (1000, 5000):
        assert rescaled_qca_sample(PATEL, SYMMETRIC, n).n == n
    assert calls == []
    # a total the bound cannot decide goes to fsum
    RescaledSample(((0.0, 0.5), (1.0, 0.5 + 0.9 * RESIDUAL_TOLERANCE)), 1)
    assert calls == [1]


# ---------------------------------------------------------------------------
# kolmogorov_distance
# ---------------------------------------------------------------------------

def test_distance_of_fine_discretization_is_small():
    cells = 20000
    xs = np.linspace(-SQRT_2, SQRT_2, cells + 1)
    points = []
    for left, right in zip(xs[:-1], xs[1:]):
        mass = limit_cdf(float(right)) - limit_cdf(float(left))
        points.append((float(right), mass))
    total = math.fsum(m for _, m in points)
    points = [(x, m / total) for x, m in points]
    sample = RescaledSample(tuple(points), 1000)
    assert kolmogorov_distance(sample) < 0.01


def loop_distance(sample):
    """The sup-distance by a loop over the points: the oracle of the array form."""
    worst = cum = 0.0
    for x, m in sample.points:
        ref = limit_cdf(x)
        worst = max(worst, abs(cum - ref))
        cum += m
        worst = max(worst, abs(cum - ref))
    return worst


@pytest.mark.parametrize("n", [1, 40, 100, 500])
def test_distance_equals_the_loop_over_points(n):
    sample = rescaled_qca_sample(PATEL, SYMMETRIC, n)
    assert abs(kolmogorov_distance(sample) - loop_distance(sample)) <= 1e-15


def test_distance_equals_the_loop_with_points_outside_the_support():
    points = ((-3.0, 0.25), (-SQRT_2, 0.25), (0.3, 0.25), (SQRT_2, 0.125), (2.0, 0.125))
    sample = RescaledSample(points, 1)
    assert abs(kolmogorov_distance(sample) - loop_distance(sample)) <= 1e-15


def test_distance_decreases_along_step_counts():
    d100 = kolmogorov_distance(rescaled_qca_sample(PATEL, SYMMETRIC, 100))
    d200 = kolmogorov_distance(rescaled_qca_sample(PATEL, SYMMETRIC, 200))
    assert d200 <= d100 + 0.01
    assert d100 < 0.08


def test_distance_is_bounded():
    sample = RescaledSample(((5.0, 1.0),), 1)
    d = kolmogorov_distance(sample)
    assert 0.0 <= d <= 1.0


# ---------------------------------------------------------------------------
# symmetry_defect
# ---------------------------------------------------------------------------

def test_defect_zero_for_delta_at_center():
    dist = Distribution({3: 1.0})
    assert symmetry_defect(dist, 3.0) == 0.0


def test_defect_zero_for_symmetric_patel_distribution():
    for n in (1, 10, 60):
        dist = qca_distribution(0, "+", SYMMETRIC, n, PATEL)
        assert symmetry_defect(dist, 0.5) <= 1e-12


def test_defect_positive_for_one_sided_qubit():
    dist = qca_distribution(0, "-", (1.0, 0.0), 1, PATEL)
    assert symmetry_defect(dist, 0.5) > 0.2


def test_defect_counts_unmatched_mirror_sites():
    dist = Distribution({0: 0.25, 1: 0.75})
    assert symmetry_defect(dist, 0.5) == pytest.approx(0.5)
    dist2 = Distribution({0: 0.5, 1: 0.5})
    assert symmetry_defect(dist2, 0.5) == 0.0
    # center without an integer mirror: every site is unmatched
    assert symmetry_defect(dist2, 0.25) == pytest.approx(0.5)


@pytest.mark.parametrize("center", [math.inf, -math.inf, math.nan, 1e308])
def test_defect_rejects_non_finite_center(center):
    dist = Distribution({0: 0.5, 1: 0.5})
    with pytest.raises(ValueError, match="not finite"):
        symmetry_defect(dist, center)


def test_defect_pairs_sites_exactly_past_two_to_the_53():
    # 0.5 - 2**53 is not a site, so neither site has a partner
    assert symmetry_defect(Distribution({2**53: 0.5, -(2**53): 0.5}), 0.25) == 0.5
    assert symmetry_defect(Distribution({2**60: 0.5, 1 - 2**60: 0.5}), 0.5) == 0.0
    assert symmetry_defect(Distribution({2**62 - 1: 0.5, 2**62 + 1: 0.5}), 2.0**62) == 0.0


def loop_defect(dist, center):
    """The mirror mismatch by a loop over the sites: the oracle of the array form.

    Site s pairs with k - s in Python integers, k the integer nearest 2 * center.
    """
    two_c = 2.0 * float(center)
    k = round(two_c)
    masses = dict(dist.items())
    worst = 0.0
    for s, m in masses.items():
        partner = masses.get(k - s, 0.0) if abs(two_c - k) < 1e-9 else 0.0
        worst = max(worst, abs(m - partner))
    return worst


def random_distributions(rng, count):
    """Distributions on a few sites near ``offset``, half of them mirror-symmetric about it."""
    for i in range(count):
        offset = int(rng.choice([0, 3, -8, 2**60, 2**62, -(2**62)]))
        mirror = 2 * offset + int(rng.integers(-3, 4))
        size = int(rng.integers(1, 10))
        sites = offset + rng.choice(np.arange(-12, 13), size=size, replace=False)
        masses = {int(k): float(m) for k, m in zip(sites, rng.random(size))}
        if i % 2:
            masses.update({mirror - k: m for k, m in list(masses.items())})
        yield Distribution(masses), offset, mirror


def test_defect_equals_the_loop_over_sites():
    rng = np.random.default_rng(11)
    checked = 0
    for dist, offset, mirror in random_distributions(rng, 1000):
        centers = [
            offset, offset + 0.5, mirror / 2, mirror / 2 + 4e-10, mirror / 2 - 3e-10,
            mirror / 2 + 3e-9, mirror / 2 + 0.3, offset + 1.25, 1e300, -1e300,
        ]
        for center in centers:
            assert symmetry_defect(dist, center) == loop_defect(dist, center)
            checked += 1
    assert checked == 10_000
    for center in (0.0, 0.5, 0.3, 1e300):
        empty = Distribution()
        assert symmetry_defect(empty, center) == loop_defect(empty, center) == 0.0

