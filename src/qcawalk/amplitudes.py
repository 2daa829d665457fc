"""Complex amplitudes and probability masses on the integer lattice.

Amplitude fields are float64 complex values stored as sorted runs: each run
is a first site and a contiguous array of the values from there on.  Nonzero
entries that lie within ``_RUN_GAP`` sites of each other share a run, so
memory follows the support, not the distance between its far ends.  The
same run layout, with a leading axis for the two chirality components,
backs ``coined_walks.WalkState``: both subclass ``_Runs``, which owns the
layout and the one step driver, and no other module reads the runs.
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
    "AmplitudeField",
    "Distribution",
    "superpose",
    "to_distribution",
    "max_difference",
]

# Entries whose modulus falls below this are treated as exact zeros; keeps
# floating-point dust from growing supports without ever touching the
# working tolerance ``qca_core.RESIDUAL_TOLERANCE``.
PRUNE_TOLERANCE = 1e-15

# Nonzero sites at most this far apart share a run.  A lattice step reaches
# two sites each side, so runs farther apart than 4 can be stepped
# separately without their outputs overlapping.
_RUN_GAP = 32

_Entries = Mapping[int, complex] | Iterable[Tuple[int, complex]]
# (first site, values); the last axis of ``values`` runs over sites.
_Run = Tuple[int, np.ndarray]


def _occupied(values: np.ndarray) -> np.ndarray:
    """Mask of sites holding a nonzero entry (either component, for pairs)."""
    return values != 0 if values.ndim == 1 else values.any(axis=0)


def _zero_dust(values: np.ndarray) -> np.ndarray:
    """Zero entries below ``PRUNE_TOLERANCE`` in place; mask of sites left nonzero."""
    mag = np.abs(values)
    if mag.size and not np.isfinite(mag.max()):
        raise ValueError("non-finite amplitude")
    values[mag < PRUNE_TOLERANCE] = 0
    return _occupied(values)


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


def _sq_modulus(values: np.ndarray) -> np.ndarray:
    return values.real * values.real + values.imag * values.imag


class _Runs:
    """Immutable sorted runs of complex entries on lattice sites.

    ``_lead`` is the shape of the entry at one site: ``()`` for an
    amplitude, ``(2,)`` for a chirality pair.  Entries below
    ``PRUNE_TOLERANCE`` are zeroed at construction, and iteration is in
    ascending site order.
    """

    __slots__ = ("_runs",)
    _lead: tuple[int, ...] = ()

    def _store(self, entries) -> None:
        """Validate finiteness, prune, sort and build the runs."""
        items = entries.items() if isinstance(entries, Mapping) else entries
        stored: dict[int, tuple[complex, ...]] = {}
        for site, value in items:
            zs = (complex(value[0]), complex(value[1])) if self._lead else (complex(value),)
            if not all(map(cmath.isfinite, zs)):
                raise ValueError(f"non-finite amplitude {value!r} at site {site}")
            stored[operator.index(site)] = zs
        keys = sorted(stored)
        values = np.array([stored[k] for k in keys], np.complex128).reshape(-1, *self._lead)
        self._runs = _runs_from_sorted(np.array(keys, dtype=np.int64), values.T)

    @classmethod
    def _from_runs(cls, runs: Iterable[_Run], **attrs):
        """Internal fast path: wrap runs that are already pruned and sorted."""
        new = cls.__new__(cls)
        new._runs = tuple(runs)
        for name, value in attrs.items():
            setattr(new, name, value)
        return new

    def _stepped(self, kernel, **attrs):
        """Apply ``kernel(lo, values) -> (out_lo, out_values)`` to every run.

        Runs that have come within ``_RUN_GAP`` sites of each other are
        joined first, so the outputs of separately stepped runs never
        overlap.  Each output has its dust zeroed and its zero ends trimmed,
        and the result is wrapped with ``attrs``.
        """
        runs = []
        for lo, values in _coalesced(self._runs):
            lo, out = kernel(lo, values)
            keep = _zero_dust(out)
            first = int(keep.argmax())
            if keep[first]:
                runs.append((lo + first, out[..., first : keep.size - int(keep[::-1].argmax())]))
        return self._from_runs(runs, **attrs)

    def _flat(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending nonzero sites and their entries (last axis over sites)."""
        sites, values = [np.empty(0, np.int64)], [np.empty(self._lead + (0,), np.complex128)]
        for lo, arr in self._runs:
            nz = np.flatnonzero(_occupied(arr))
            sites.append(nz + lo)
            values.append(arr[..., nz])
        return np.concatenate(sites), np.concatenate(values, axis=-1)

    def _at(self, site: int) -> np.ndarray:
        """The entry at ``site``, zero off the support."""
        i = bisect_right(self._runs, site, key=operator.itemgetter(0)) - 1
        if i >= 0:
            lo, arr = self._runs[i]
            if site - lo < arr.shape[-1]:
                return arr[..., site - lo]
        return np.zeros(self._lead, np.complex128)

    def __len__(self) -> int:
        return sum(int(np.count_nonzero(_occupied(arr))) for _, arr in self._runs)

    def __iter__(self) -> Iterator[int]:
        return iter(self._flat()[0].tolist())

    def support(self) -> set[int]:
        return set(self._flat()[0].tolist())

    def norm_sq(self) -> float:
        """Sum of squared moduli over all sites, summed exactly."""
        return math.fsum(x for _, arr in self._runs for x in _sq_modulus(arr).ravel().tolist())

    def _distribution(self) -> "Distribution":
        """Site masses: the squared moduli at each site, summed over components."""
        sites, values = self._flat()
        masses = _sq_modulus(values)
        return _distribution_from_arrays(sites, masses if masses.ndim == 1 else masses.sum(axis=0))


class AmplitudeField(_Runs):
    """Finitely supported map from lattice sites to complex amplitudes.

    Values with modulus below ``PRUNE_TOLERANCE`` are dropped at
    construction, so the nonzero entries are exactly the support.  Iteration
    is in ascending site order.  Instances are immutable values; every
    operation returns a new field.
    """

    __slots__ = ()

    def __init__(self, entries: _Entries = ()):
        self._store(entries)

    @classmethod
    def delta(cls, site: int, amplitude: complex = 1.0) -> "AmplitudeField":
        """Field concentrated on a single site."""
        return cls({site: amplitude})

    def __getitem__(self, site: int) -> complex:
        return complex(self._at(site))

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

    def shifted(self, offset: int) -> "AmplitudeField":
        """Same amplitudes translated by ``offset`` sites."""
        offset = operator.index(offset)
        return self._from_runs((lo + offset, arr) for lo, arr in self._runs)


def _paired_field(pairs: _Runs, upper_offset: int) -> AmplitudeField:
    """The lattice field a walk state occupies, upper components at 2k + ``upper_offset``.

    A walk run at ``lo`` is the lattice run at ``2*lo + upper_offset`` with
    its two rows interleaved; it may start or end on a zero.
    """
    runs = ((2 * lo + upper_offset, arr.T.ravel()) for lo, arr in pairs._runs)
    return AmplitudeField._from_runs(runs)


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
    return AmplitudeField._from_runs(
        _runs_from_sorted(sites, complex(alpha) * on_f + complex(beta) * on_g)
    )


def to_distribution(field: AmplitudeField) -> Distribution:
    """Squared-modulus masses of a field; total equals ``field.norm_sq()``."""
    return field._distribution()


def max_difference(f: AmplitudeField, g: AmplitudeField) -> float:
    """Largest pointwise amplitude difference between two fields."""
    _, on_f, on_g = _on_union(f, g)
    return float(np.abs(on_f - on_g).max(initial=0.0))
