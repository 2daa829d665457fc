"""Complex amplitudes and probability masses on the integer lattice.

Amplitude fields are float64 complex values stored as sorted runs: each run
is a first site and a contiguous array of the values from there on.  Nonzero
entries that lie within ``_RUN_GAP`` sites of each other share a run, so
memory follows the support, not the distance between its far ends.  The
same run layout, with a leading axis for the two chirality components,
backs ``coined_walks.WalkState``.
"""

from __future__ import annotations

import cmath
import math
import operator
from bisect import bisect_right
from typing import Iterable, Iterator, Mapping, Tuple

import numpy as np

__all__ = [
    "PRUNE_TOLERANCE",
    "MASS_TOLERANCE",
    "AmplitudeField",
    "Distribution",
    "norm_sq",
    "support",
    "superpose",
    "to_distribution",
    "max_difference",
]

# Entries whose modulus falls below this are treated as exact zeros; keeps
# floating-point dust from growing supports without ever touching the
# 1e-12 working tolerances.
PRUNE_TOLERANCE = 1e-15
MASS_TOLERANCE = 1e-12

# Nonzero sites at most this far apart share a run.  A lattice step reaches
# two sites each side, so runs farther apart than 4 can be stepped
# separately without their outputs overlapping.
_RUN_GAP = 32

_Entries = Mapping[int, complex] | Iterable[Tuple[int, complex]]
# (first site, values); the last axis of ``values`` runs over sites.
_Run = Tuple[int, np.ndarray]


def _zero_dust(values: np.ndarray) -> np.ndarray:
    """Zero entries below ``PRUNE_TOLERANCE`` in place; mask of sites left nonzero."""
    mag = np.abs(values)
    if mag.size and not np.isfinite(mag.max()):
        raise ValueError("non-finite amplitude")
    small = mag < PRUNE_TOLERANCE
    values[small] = 0
    return ~small if values.ndim == 1 else ~small.all(axis=0)


def _runs_from_sorted(sites: np.ndarray, values: np.ndarray) -> tuple[_Run, ...]:
    """Runs holding ascending distinct ``sites`` and their ``values``.

    Dust is zeroed (``values`` is modified in place), sites left with no
    nonzero entry are dropped, and a new run starts wherever two
    neighbouring sites lie more than ``_RUN_GAP`` apart.
    """
    keep = _zero_dust(values)
    sites, values = sites[keep], values[..., keep]
    if not sites.size:
        return ()
    bounds = [0, *(np.flatnonzero(np.diff(sites) > _RUN_GAP) + 1).tolist(), sites.size]
    runs = []
    for start, stop in zip(bounds, bounds[1:]):
        lo = int(sites[start])
        arr = np.zeros(values.shape[:-1] + (int(sites[stop - 1]) - lo + 1,), np.complex128)
        arr[..., sites[start:stop] - lo] = values[..., start:stop]
        runs.append((lo, arr))
    return tuple(runs)


def _coalesced(runs: Iterable[_Run]) -> list[_Run]:
    """The runs, with any two at most ``_RUN_GAP`` sites apart joined by zeros."""
    out: list[_Run] = []
    for lo, arr in runs:
        if out and lo - (out[-1][0] + out[-1][1].shape[-1] - 1) <= _RUN_GAP:
            prev_lo, prev = out.pop()
            joined = np.zeros(arr.shape[:-1] + (lo + arr.shape[-1] - prev_lo,), np.complex128)
            joined[..., : prev.shape[-1]] = prev
            joined[..., lo - prev_lo :] = arr
            out.append((prev_lo, joined))
        else:
            out.append((lo, arr))
    return out


def _pruned(lo: int, values: np.ndarray) -> _Run | None:
    """One step's output run with dust zeroed and zero ends trimmed.

    ``values`` is modified in place.  Returns None when nothing is left.
    """
    keep = _zero_dust(values)
    first = int(keep.argmax())
    if not keep[first]:
        return None
    stop = keep.size - int(keep[::-1].argmax())
    return lo + first, values[..., first:stop]


def _flatten(runs: tuple[_Run, ...], lead: tuple[int, ...] = ()) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nonzero sites of the runs and their values."""
    if not runs:
        return np.empty(0, np.int64), np.empty(lead + (0,), np.complex128)
    sites, values = [], []
    for lo, arr in runs:
        nz = np.flatnonzero(arr if arr.ndim == 1 else arr.any(axis=0))
        sites.append(nz + lo)
        values.append(arr[..., nz])
    return np.concatenate(sites), np.concatenate(values, axis=-1)


def _run_at(runs: tuple[_Run, ...], site: int) -> tuple[np.ndarray, int] | None:
    """The run array holding ``site`` and the site's index in it, if any."""
    i = bisect_right(runs, site, key=operator.itemgetter(0)) - 1
    if i >= 0:
        lo, arr = runs[i]
        if site - lo < arr.shape[-1]:
            return arr, site - lo
    return None


def _sq_modulus(values: np.ndarray) -> np.ndarray:
    return values.real * values.real + values.imag * values.imag


def _runs_norm_sq(runs: tuple[_Run, ...]) -> float:
    """Sum of squared moduli over all runs, summed exactly."""
    return math.fsum(x for _, arr in runs for x in _sq_modulus(arr).ravel().tolist())


class AmplitudeField:
    """Finitely supported map from lattice sites to complex amplitudes.

    Values with modulus below ``PRUNE_TOLERANCE`` are dropped at
    construction, so the nonzero entries are exactly the support.  Iteration
    is in ascending site order.  Instances are immutable values; every
    operation returns a new field.
    """

    __slots__ = ("_runs",)

    def __init__(self, entries: _Entries = ()):
        items = entries.items() if isinstance(entries, Mapping) else entries
        pruned: dict[int, complex] = {}
        for site, value in items:
            z = complex(value)
            if not cmath.isfinite(z):
                raise ValueError(f"non-finite amplitude {z!r} at site {site}")
            if abs(z) >= PRUNE_TOLERANCE:
                pruned[operator.index(site)] = z
        keys = sorted(pruned)
        self._runs = _runs_from_sorted(
            np.array(keys, dtype=np.int64),
            np.array([pruned[k] for k in keys], dtype=np.complex128),
        )

    @classmethod
    def delta(cls, site: int, amplitude: complex = 1.0) -> "AmplitudeField":
        """Field concentrated on a single site."""
        return cls({site: amplitude})

    def _flat(self) -> tuple[np.ndarray, np.ndarray]:
        return _flatten(self._runs)

    def __getitem__(self, site: int) -> complex:
        hit = _run_at(self._runs, site)
        return complex(hit[0][hit[1]]) if hit else 0j

    def __len__(self) -> int:
        return sum(int(np.count_nonzero(arr)) for _, arr in self._runs)

    def __iter__(self) -> Iterator[int]:
        return iter(self._flat()[0].tolist())

    def __contains__(self, site: int) -> bool:
        return self[site] != 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AmplitudeField):
            return NotImplemented
        (s1, v1), (s2, v2) = self._flat(), other._flat()
        return np.array_equal(s1, s2) and np.array_equal(v1, v2)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {v!r}" for k, v in self.items())
        return f"AmplitudeField({{{inner}}})"

    def items(self) -> list[tuple[int, complex]]:
        """(site, amplitude) pairs in ascending site order."""
        sites, values = self._flat()
        return list(zip(sites.tolist(), values.tolist()))

    def support(self) -> set[int]:
        return set(self._flat()[0].tolist())

    def shifted(self, offset: int) -> "AmplitudeField":
        """Same amplitudes translated by ``offset`` sites."""
        offset = operator.index(offset)
        return _field_from_runs((lo + offset, arr) for lo, arr in self._runs)


def _field_from_runs(runs: Iterable[_Run]) -> AmplitudeField:
    """Internal fast path: wrap runs that are already pruned and sorted."""
    field = AmplitudeField.__new__(AmplitudeField)
    field._runs = tuple(runs)
    return field


class Distribution:
    """Finitely supported nonnegative masses on the integer lattice."""

    __slots__ = ("_masses",)

    def __init__(self, masses: Mapping[int, float] | Iterable[Tuple[int, float]] = ()):
        items = masses.items() if isinstance(masses, Mapping) else masses
        stored: dict[int, float] = {}
        for site, value in items:
            m = float(value)
            if not math.isfinite(m):
                raise ValueError(f"non-finite mass {m!r} at site {site}")
            if m < 0.0:
                raise ValueError(f"negative mass {m!r} at site {site}")
            if m > 0.0:
                stored[operator.index(site)] = m
        self._masses = stored

    def __getitem__(self, site: int) -> float:
        return self._masses.get(site, 0.0)

    def __len__(self) -> int:
        return len(self._masses)

    def __iter__(self) -> Iterator[int]:
        return iter(self._masses)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Distribution):
            return NotImplemented
        return self._masses == other._masses

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {v!r}" for k, v in sorted(self._masses.items()))
        return f"Distribution({{{inner}}})"

    def items(self):
        return self._masses.items()

    def support(self) -> set[int]:
        return set(self._masses)

    def total(self) -> float:
        """Total mass, summed exactly."""
        return math.fsum(self._masses.values())


def _distribution_from_arrays(sites: np.ndarray, masses: np.ndarray) -> Distribution:
    """Internal fast path: masses of ascending distinct sites, checked in bulk."""
    if masses.size and not np.isfinite(masses.max()):
        raise ValueError("non-finite mass")
    keep = masses > 0.0
    dist = Distribution.__new__(Distribution)
    dist._masses = dict(zip(sites[keep].tolist(), masses[keep].tolist()))
    return dist


def norm_sq(field: AmplitudeField) -> float:
    """Sum of squared moduli over the whole lattice."""
    return _runs_norm_sq(field._runs)


def support(field: AmplitudeField) -> set[int]:
    """Sites carrying a nonzero entry."""
    return field.support()


def _on_union(f: AmplitudeField, g: AmplitudeField):
    """Union of both supports, and each field's values on it (zeros elsewhere)."""
    (fs, fv), (gs, gv) = f._flat(), g._flat()
    # sorted union without np.union1d, whose first call imports numpy.ma (~15 ms)
    both = np.sort(np.concatenate((fs, gs)))
    sites = both[np.diff(both, prepend=both[:1] - 1) != 0]
    on_f = np.zeros(sites.size, np.complex128)
    on_g = np.zeros(sites.size, np.complex128)
    on_f[np.searchsorted(sites, fs)] = fv
    on_g[np.searchsorted(sites, gs)] = gv
    return sites, on_f, on_g


def superpose(
    f: AmplitudeField,
    g: AmplitudeField,
    alpha: complex,
    beta: complex,
) -> AmplitudeField:
    """Pointwise combination ``alpha*f + beta*g`` with zeros pruned."""
    sites, on_f, on_g = _on_union(f, g)
    return _field_from_runs(_runs_from_sorted(sites, complex(alpha) * on_f + complex(beta) * on_g))


def to_distribution(field: AmplitudeField) -> Distribution:
    """Squared-modulus masses of a field; total equals ``norm_sq(field)``."""
    sites, values = field._flat()
    return _distribution_from_arrays(sites, _sq_modulus(values))


def max_difference(f: AmplitudeField, g: AmplitudeField) -> float:
    """Largest pointwise amplitude difference between two fields."""
    _, on_f, on_g = _on_union(f, g)
    return float(np.abs(on_f - on_g).max(initial=0.0))
