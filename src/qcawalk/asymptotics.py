"""Closed-form rescaled limit law and comparison against finite-step runs."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .amplitudes import Distribution, _step_count
from .params import RESIDUAL_TOLERANCE, QcaParams
from .qca_core import qca_distribution

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


def limit_cdf(x: float | np.ndarray) -> float | np.ndarray:
    """Cumulative mass of the limit density up to ``x``, a float or each entry of an array.

    Closed form of the integral of :func:`limit_density`:
    ``1/2 + atan(x / sqrt(4 - 2x^2)) / pi`` on (-sqrt(2), sqrt(2)).
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.array(x >= SQRT_2, np.float64)
    inside = ~(np.abs(x) >= SQRT_2)  # NaN stays NaN
    xi = x[inside]
    out[inside] = 0.5 + np.arctan(xi / np.sqrt(4.0 - 2.0 * xi * xi)) / math.pi
    return float(out) if out.ndim == 0 else out


_BLOCK = 256
_EPS = float(np.finfo(np.float64).eps)


def _certainly_unit(masses: np.ndarray) -> bool:
    """Whether the rounded exact total of nonnegative masses is certainly within 1e-12 of 1.

    The masses are summed in blocks of ``_BLOCK`` and then the block sums.
    In any summation order each mass then goes through at most h =
    ``_BLOCK`` + blocks roundings, so the float total T is off the exact
    total by at most about h * eps / 2 * T.  The bound 2 * h * eps * T also
    covers the rounding of the bound and of the exact total to a float.
    False means that the bound cannot decide, not that the total is off:
    ``math.fsum`` decides then, as it prints the total of a rejected sample.
    """
    with np.errstate(over="ignore"):  # an infinite total is left to fsum, which raises
        blocks = np.add.reduceat(masses, np.arange(0, masses.size, _BLOCK))
    total = float(blocks.sum())
    bound = 2.0 * (_BLOCK + blocks.size) * _EPS * total
    return abs(total - 1.0) <= RESIDUAL_TOLERANCE - bound


@dataclass(frozen=True, eq=False)
class RescaledSample:
    """Positions divided by the step count, with their masses; total mass 1.

    ``points``, given as any iterable of pairs, is stored as a read-only (k, 2)
    array sorted by position (then mass): the order of the step CDF.  Samples
    compare by identity, as an array has no single truth value.
    """

    points: np.ndarray
    n: int

    def __post_init__(self):
        pts = self.points
        if not (isinstance(pts, np.ndarray) and pts.shape[1:] == (2,)):
            pts = np.fromiter(pts, np.dtype((np.float64, 2)))  # rejects a non-pair
        pts = np.array(pts, np.float64)  # a copy: the caller's array is never frozen
        if not np.isfinite(pts).all():
            raise ValueError("sample positions and masses must be finite")
        if (pts[:, 1] < 0.0).any():
            raise ValueError("sample masses must be nonnegative")
        if not _certainly_unit(pts[:, 1]):
            total = math.fsum(pts[:, 1].tolist())
            if abs(total - 1.0) > RESIDUAL_TOLERANCE:
                raise ValueError(f"sample masses must total 1, got {total!r}")
        n = _step_count(self.n, 1)
        x, m = pts.T
        step = np.diff(x)
        if not ((step > 0.0) | ((step == 0.0) & (np.diff(m) >= 0.0))).all():
            pts = pts[np.lexsort((m, x))]
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "n", n)

    def mean(self) -> float:
        return math.fsum((self.points[:, 0] * self.points[:, 1]).tolist())


def rescaled_qca_sample(params: QcaParams, qubit, n: int) -> RescaledSample:
    """Rescale the paired-branch distribution after ``n`` steps by ``n``."""
    n = _step_count(n, 1)
    sites, masses = qca_distribution(0, "+", qubit, n, params)._flat()
    return RescaledSample(np.column_stack((sites / n, masses)), n)


def kolmogorov_distance(sample: RescaledSample) -> float:
    """Sup-distance between the sample's step CDF and the limit CDF.

    Both sides of every jump are checked, which attains the supremum over
    the whole line for a step function against a continuous CDF.
    """
    x, m = sample.points.T
    ref = limit_cdf(x)
    after = np.cumsum(m)  # sequential, so each partial sum is the running total
    before = np.concatenate(([0.0], after[:-1]))
    return float(max(np.abs(before - ref).max(), np.abs(after - ref).max()))


def symmetry_defect(dist: Distribution, center: float) -> float:
    """Largest mass mismatch between sites mirrored through ``center``.

    When twice ``center`` lies within 1e-9 of an integer k, site s pairs with
    the site k - s, taken exactly; a partner outside int64 is no partner.
    """
    two_c = 2.0 * float(center)
    if not math.isfinite(two_c):
        raise ValueError(f"center {center!r} is not finite, or twice it overflows")
    sites, masses = dist._flat()
    k = round(two_c)
    low, high = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    if abs(two_c - k) >= 1e-9 or not 2 * low <= k <= 2 * high:
        return float(masses.max(initial=0.0))  # no site has a partner
    # the sites whose partner k - s is an int64, and k - s modulo 2**64 (exact on them)
    paired = (sites >= max(k - high, low)) & (sites <= min(k - low, high))
    target = (np.uint64(k % 2**64) - sites.view(np.uint64)).view(np.int64)
    at = np.minimum(np.searchsorted(sites, target), sites.size - 1)
    partner = np.where(paired & (sites[at] == target), masses[at], 0.0)
    return float(np.abs(masses - partner).max(initial=0.0))
