"""Limit density, its CDF, rescaled samples, and the sup-distance metric."""

import math

import mpmath
import numpy as np
import pytest

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
from qcawalk.qca_core import AngleTriple, params_from_angles, qca_distribution

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
    assert sample.points == (
        (-2.0, pytest.approx(0.25)),
        (-1.0, pytest.approx(0.25)),
        (0.0, pytest.approx(0.25)),
        (1.0, pytest.approx(0.25)),
    )


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
    assert RescaledSample(backward, 1).points == forward
    # the step CDF is 1/2 on [0, 1) against limit_cdf(0) = 1/2, and the
    # largest gap is at the jump at 0: |0 - limit_cdf(0)| = 1/2
    assert kolmogorov_distance(RescaledSample(backward, 1)) == 0.5
    assert kolmogorov_distance(RescaledSample(forward, 1)) == 0.5

    sample = rescaled_qca_sample(PATEL, SYMMETRIC, 40)
    shuffled = list(sample.points)
    np.random.default_rng(5).shuffle(shuffled)
    assert kolmogorov_distance(RescaledSample(tuple(shuffled), 40)) == kolmogorov_distance(sample)


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
