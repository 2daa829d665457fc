"""Closed-form rescaled limit law and comparison against finite-step runs."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .amplitudes import Distribution
from .qca_core import RESIDUAL_TOLERANCE, QcaParams, qca_distribution

__all__ = [
    "SQRT_2",
    "limit_density",
    "limit_cdf",
    "RescaledSample",
    "rescaled_qca_sample",
    "kolmogorov_distance",
    "symmetry_defect",
]

SQRT_2 = math.sqrt(2.0)


def limit_density(x: float) -> float:
    """Density of the rescaled position limit; supported on (-sqrt(2), sqrt(2))."""
    if abs(x) >= SQRT_2:
        return 0.0
    return 4.0 / (math.pi * (4.0 - x * x) * math.sqrt(4.0 - 2.0 * x * x))


def limit_cdf(x: float) -> float:
    """Cumulative mass of the limit density up to ``x``.

    Closed form of the integral of :func:`limit_density`:
    ``1/2 + atan(x / sqrt(4 - 2x^2)) / pi`` on (-sqrt(2), sqrt(2)).
    """
    if x <= -SQRT_2:
        return 0.0
    if x >= SQRT_2:
        return 1.0
    return 0.5 + math.atan(x / math.sqrt(4.0 - 2.0 * x * x)) / math.pi


def _limit_cdf_array(x: np.ndarray) -> np.ndarray:
    """:func:`limit_cdf` at every entry of ``x``."""
    out = (x >= SQRT_2).astype(np.float64)
    inside = np.abs(x) < SQRT_2
    xi = x[inside]
    out[inside] = 0.5 + np.arctan(xi / np.sqrt(4.0 - 2.0 * xi * xi)) / math.pi
    return out


@dataclass(frozen=True)
class RescaledSample:
    """Positions divided by the step count, with their masses; total mass 1.

    Points are stored sorted by position (then mass), the order in which
    :func:`kolmogorov_distance` walks the step CDF.
    """

    points: Tuple[Tuple[float, float], ...]
    n: int

    def __post_init__(self):
        pts = sorted((float(x), float(m)) for x, m in self.points)
        if not all(math.isfinite(x) and math.isfinite(m) for x, m in pts):
            raise ValueError("sample positions and masses must be finite")
        if any(m < 0.0 for _, m in pts):
            raise ValueError("sample masses must be nonnegative")
        total = math.fsum(m for _, m in pts)
        if abs(total - 1.0) > RESIDUAL_TOLERANCE:
            raise ValueError(f"sample masses must total 1, got {total!r}")
        n = operator.index(self.n)
        if n < 1:
            raise ValueError(f"step count must be at least 1, got {n}")
        object.__setattr__(self, "points", tuple(pts))
        object.__setattr__(self, "n", n)

    def mean(self) -> float:
        return math.fsum(x * m for x, m in self.points)


def rescaled_qca_sample(params: QcaParams, qubit, n: int) -> RescaledSample:
    """Rescale the paired-branch distribution after ``n`` steps by ``n``."""
    if n < 1:
        raise ValueError(f"step count must be at least 1, got {n}")
    dist = qca_distribution(0, "+", qubit, n, params)
    points = tuple((k / n, dist[k]) for k in sorted(dist.support()))
    return RescaledSample(points, n)


def kolmogorov_distance(sample: RescaledSample) -> float:
    """Sup-distance between the sample's step CDF and the limit CDF.

    Both sides of every jump are checked, which attains the supremum over
    the whole line for a step function against a continuous CDF.
    """
    x, m = np.array(sample.points).T
    ref = _limit_cdf_array(x)
    after = np.cumsum(m)  # sequential, so each partial sum is the running total
    before = np.concatenate(([0.0], after[:-1]))
    return float(max(np.abs(before - ref).max(), np.abs(after - ref).max()))


def symmetry_defect(dist: Distribution, center: float) -> float:
    """Largest mass mismatch between sites mirrored through ``center``."""
    two_c = 2.0 * float(center)
    if not math.isfinite(two_c):
        raise ValueError(f"center {center!r} is not finite, or twice it overflows")
    worst = 0.0
    for k, m in dist.items():
        mirror = two_c - k
        nearest = round(mirror)
        partner = dist[int(nearest)] if abs(mirror - nearest) < 1e-9 else 0.0
        diff = abs(m - partner)
        if diff > worst:
            worst = diff
    return worst
