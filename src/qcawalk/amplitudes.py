"""Complex amplitudes and probability masses on the integer lattice.

Amplitude fields are float64 complex values stored as sorted runs: each run
is a first site and a contiguous array of the values from there on.  Nonzero
entries that lie within ``_RUN_GAP`` sites of each other share a run, so
memory follows the support, not the distance between its far ends.  The
same run layout, with a leading axis for the two chirality components,
backs ``coined_walks.WalkState``: both subclass ``_Runs``, which owns the
layout, the one step driver and the one jump; no other module reads the runs.
``_Sited`` writes the value protocol (``==``, ``repr``, ``in``, iteration,
``support`` and ``items``) once for them and for ``Distribution``.

One routine lines runs up: ``_packed`` lays them out on one axis, for a
step, for construction (one run per entry) and, one row per field, for
superposition and comparison (``_aligned``).  One routine cuts them back,
``_unpacked``, and its ``_zero_dust`` alone drops mass: dust, and a jump's noise.
A step is one pass through the three: ``_Runs._stepped`` packs, calls the
kernel once and cuts.  Its loop is the only one that runs ``n`` steps, and
it wraps the runs once at the end.  Most steps see a single run, and there
the pack is one copy into zeros and the cut one trim, with no loop over runs.
"""

from __future__ import annotations

import cmath
import math
import operator
import threading
from bisect import bisect_right
from typing import Iterable, Iterator, Mapping, Sequence, Tuple

import numpy as np

from .params import RESIDUAL_TOLERANCE

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
# working tolerance ``params.RESIDUAL_TOLERANCE``.
PRUNE_TOLERANCE = 1e-15

# Nonzero sites at most this far apart share a run.
_RUN_GAP = 32

# A step moves an entry at most two sites, so runs packed ``_PACK_GAP`` or
# more sites apart, or ``_PACK_GAP // 2`` from a pack's zero-padded end, keep
# their outputs apart and in the pack.  Packing shifts are even, because the
# lattice stencil only commutes with translations by two sites.
_PACK_GAP = 8

_Entries = Mapping[int, complex] | Iterable[Tuple[int, complex]]
# (first site, values); the last axis of ``values`` runs over sites.
_Run = Tuple[int, np.ndarray]


def _step_count(n, least: int = 0) -> int:
    """``n`` as an int: TypeError unless it is an integer, ValueError if below ``least``."""
    n = operator.index(n)
    if n < least:
        bound = f"at least {least}" if least else "nonnegative"
        raise ValueError(f"step count must be {bound}, got {n}")
    return n


def _occupied(values: np.ndarray) -> np.ndarray:
    """Mask of sites holding a nonzero entry (either component, for pairs)."""
    return values != 0 if values.ndim == 1 else values.any(axis=0)


def _zero_dust(values: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Zero entries below ``PRUNE_TOLERANCE`` or at most ``floor``; mask of sites left zero."""
    mag = np.abs(values)
    # the ufunc's reduce is ``mag.max()`` without the method's Python wrapper
    if mag.size and not math.isfinite(np.maximum.reduce(mag, None)):
        raise ValueError("non-finite amplitude")
    # only a jump passes a floor
    below = max(PRUNE_TOLERANCE, math.nextafter(floor, math.inf)) if floor else PRUNE_TOLERANCE
    dust = mag < below
    np.putmask(values, dust, 0)
    # a pair site is zero when both of its components are
    return dust if dust.ndim == 1 else dust[0] & dust[1]


def _run_bounds(apart: np.ndarray) -> list[tuple[int, int]]:
    """(start, stop) index pairs of the runs, where ``apart[i]`` cuts entries i and i + 1."""
    cuts = (np.flatnonzero(apart) + 1).tolist()
    return list(zip([0, *cuts], [*cuts, apart.size + 1]))


def _packed(runs: Sequence[_Run]) -> tuple[int, np.ndarray, list[tuple[int, int]]]:
    """Runs sorted by first site laid out in one array: (first site, values, stretches).

    Runs may overlap, and overlapping runs add; a run clear of every run
    before it is copied, which keeps the sign of its zeros.  Gaps of at most
    ``_RUN_GAP`` sites keep their width, filled with zeros; each wider gap
    is shortened by an even shift to ``_PACK_GAP`` or one more sites.  A
    stretch is (packed first site, shift) of the runs between two
    shortened gaps; ``_PACK_GAP // 2`` zero sites pad both ends.
    """
    lo, pad = runs[0][0], _PACK_GAP // 2
    # one run, as at most steps: nothing to place, add or shorten
    if len(runs) == 1:
        arr = runs[0][1]
        values = np.zeros(arr.shape[:-1] + (arr.shape[-1] + 2 * pad,), np.complex128)
        values[..., pad:-pad] = arr
        return lo - pad, values, [(lo, 0)]
    last = lo - 1
    stretches, placed = [(lo, 0)], []
    for run_lo, arr in runs:
        shift = stretches[-1][1]
        if run_lo - last > _RUN_GAP:
            shift += (run_lo - last - _PACK_GAP) & ~1
            stretches.append((run_lo - shift, shift))
        placed.append((run_lo - shift - lo + pad, arr, run_lo <= last))
        last = max(last, run_lo + arr.shape[-1] - 1)
    values = np.zeros(arr.shape[:-1] + (last - shift - lo + 1 + 2 * pad,), np.complex128)
    for at, arr, overlaps in placed:
        if overlaps:
            values[..., at : at + arr.shape[-1]] += arr
        else:
            values[..., at : at + arr.shape[-1]] = arr
    return lo - pad, values, stretches


def _unpacked(
    lo: int, values: np.ndarray, stretches: list[tuple[int, int]], floor: float = 0.0
) -> list[_Run]:
    """The runs of packed ``values`` (first packed site ``lo``) back at their own sites.

    ``_zero_dust`` zeroes dust and entries at most ``floor`` in place, each
    shortened gap is cut in its middle, out of reach of a step from either
    side, and each stretch is shifted back and trimmed by ``_trimmed``.
    """
    zero = _zero_dust(values, floor)
    # one stretch (the first, unshifted): no gap to cut
    if len(stretches) == 1:
        return _trimmed(lo, values, zero)
    cuts = [0, *(first - _PACK_GAP // 2 - lo for first, _ in stretches[1:]), zero.size]
    runs = []
    for start, stop, (_, shift) in zip(cuts, cuts[1:], stretches):
        runs += _trimmed(lo + shift + start, values[..., start:stop], zero[start:stop])
    return runs


def _trimmed(lo: int, values: np.ndarray, zero: np.ndarray) -> list[_Run]:
    """Runs of ``values`` (first site ``lo``, ``zero`` its zero sites).

    Zero ends are trimmed, and a run is cut wherever two neighbouring
    nonzero sites lie more than ``_RUN_GAP`` apart, as at construction.
    """
    # the mask's bytes are 0 (nonzero site) and 1 (zero site), which bytes
    # methods scan at a fraction of the cost of a numpy call
    flags = zero.tobytes()
    first = flags.find(0)
    if first < 0:
        return []
    stop = flags.rfind(0) + 1
    # fewer zeros inside than _RUN_GAP: no gap can be wider, so one run
    if flags.count(1, first, stop) < _RUN_GAP:
        return [(lo + first, values[..., first:stop])]
    at = np.flatnonzero(~zero)
    return [
        (lo + int(at[i]), values[..., at[i] : at[j - 1] + 1])
        for i, j in _run_bounds(np.diff(at) > _RUN_GAP)
    ]


def _sq_modulus(values: np.ndarray) -> np.ndarray:
    return values.real * values.real + values.imag * values.imag


_I_POWERS = (1, 1j, -1, -1j)
# The jump kernel's rows, each one ring long: the twiddles, alpha, beta, mu,
# the real terms (cos nw and sin nw / sin w, side by side) and the start's
# two-row transform.
_ROWS = 7


class _Workspace(threading.local):
    """One thread's buffers for the jump kernel, kept between jumps.

    numpy ufuncs release the GIL, so each thread has its own.  The buffers
    only grow: a ring smaller than the largest seen so far takes a
    contiguous view of them, so alternating ring sizes allocate nothing.
    """

    index = np.arange(0)
    rows = np.empty(0, np.complex128)

    def views(self, ring: int) -> tuple[np.ndarray, np.ndarray]:
        """The twiddle indices 0 .. ring // 2 and the (_ROWS, ring) complex rows."""
        half, size = ring // 2 + 1, _ROWS * ring
        if self.rows.size < size:
            self.index, self.rows = np.arange(half), np.empty(size, np.complex128)
        return self.index[:half], self.rows[:size].reshape(_ROWS, ring)


_WORKSPACE = _Workspace()


def _fourier_power(n: int, symbol: list):
    """Kernel applying ``n`` steps of ``symbol`` to a start on a ring of cells in Fourier space.

    ``symbol[m + 1]`` is the 2x2 block, as nested lists, that moves an entry
    by m cells, so ``n`` steps multiply the cell transform by ``S(p)**n``,
    with ``S(p) = symbol[0] e^{ip} + symbol[1] + symbol[2] e^{-ip}``.  Where
    ``_jump_refusal`` passes it, ``det S(p) = s**2``, its p**0 coefficient,
    for every p, and ``S(p) / s`` is the SU(2) matrix ``M = [[alpha,
    -conj(beta)], [beta, conj(alpha)]]``, read off the first column.  With
    ``cos w = Re alpha``, ``M**n = cos(nw) I + sin(nw) / sin(w) (M - cos(w) I)``
    is unitary to rounding, so mass holds at any n.  It reads (alpha, beta)
    only through w, ``Im alpha / sin w`` and ``beta / sin w``, which no scaling
    of (alpha, beta) changes: taking ``sin w`` from the same components
    projects onto SU(2) without a normalization.  ``cos w`` is even in p, as
    the symbol is, so the terms in w are taken on p in [0, pi] and mirrored.

    ``kernel(start, ring)`` takes the start's (2, m) cells, the first at
    cell 0 of a ring of any size, and returns the (2, ring) evolved ring.
    The start's transform ``x(p) = sum_j start[:, j] e^{-ipj}`` is formed by
    Horner's rule, so the inverse FFT is the only one.  Every ring-long
    intermediate, and the returned ring, lives in this thread's
    ``_Workspace``: the result is valid until the thread's next jump.
    """
    p, t, q = symbol
    # det's p**0 coefficient (b*b + d*d - a*a - c*c for a lattice tuple): one arg s for
    # every p, free of a sqrt's rounding and s**n's drift, both n-fold; s = i**k * r with
    # |arg r| <= pi/4 keeps the rounding of n * arg r small, and i**(n * k) is exact
    s_sq = (t[0][0] * t[1][1] + p[0][0] * q[1][1] + q[0][0] * p[1][1]
            - p[1][0] * q[0][1] - q[1][0] * p[0][1] - t[0][1] * t[1][0])
    k = 1 if s_sq.real < 0 else 0
    half_arg = cmath.phase(-s_sq if k else s_sq) / 2
    s = _I_POWERS[k] * cmath.exp(1j * half_arg)
    phase = _I_POWERS[n * k % 4] * cmath.exp(1j * n * half_arg)
    # (alpha, beta)'s coefficients of e^{ip}, 1 and e^{-ip}, over s
    up, const, down = ([row[0] / s for row in block] for block in (p, t, q))

    def kernel(start: np.ndarray, ring: int) -> np.ndarray:
        from numpy import fft  # loaded on the first jump only

        half = ring // 2 + 1  # p = 2 pi j / ring for j <= ring / 2
        mirror = slice((ring - 1) // 2, 0, -1)  # entry ring - j of the ring is entry j
        index, rows = _WORKSPACE.views(ring)
        e, alpha, beta, mu = rows[:4]
        cos_nw, ratio = rows[4].view(np.float64).reshape(2, ring)
        # the half-ring terms in w sit in mu's row until mu is formed
        sin_w, nw = mu.view(np.float64)[: 2 * half].reshape(2, half)
        transform = rows[5:]
        np.exp(np.multiply(2j * math.pi / ring, index, out=e[:half]), out=e[:half])
        np.conjugate(e[mirror], out=e[half:])
        # a zero coefficient costs no ring-long work; mu's row is free until mu is formed
        for row, z, z_up, z_down in zip((alpha, beta), const, up, down):
            np.add(z, np.multiply(z_up, e, out=row) if z_up else 0, out=row)
            if z_down:
                row += np.multiply(z_down, np.conjugate(e, out=mu), out=mu)
        # sin w = sqrt(Im(alpha)**2 + |beta|**2), cos_nw and ratio still free;
        # arctan2, not arccos(Re alpha), keeps w accurate where M is near +-I
        beta_sq = np.multiply(beta.real[:half], beta.real[:half], out=cos_nw[:half])
        beta_sq += np.multiply(beta.imag[:half], beta.imag[:half], out=ratio[:half])
        np.add(np.square(alpha.imag[:half], out=sin_w), beta_sq, out=sin_w)
        np.sqrt(sin_w, out=sin_w)
        np.multiply(n, np.arctan2(sin_w, alpha.real[:half], out=nw), out=nw)
        ratio[:half] = 0.0
        np.divide(np.sin(nw, out=cos_nw[:half]), sin_w, out=ratio[:half], where=sin_w > 0)
        np.cos(nw, out=cos_nw[:half])
        cos_nw[half:], ratio[half:] = cos_nw[mirror], ratio[mirror]
        # mu = cos_nw + 1j * ratio * Im(alpha), nu = ratio * beta
        np.multiply(np.multiply(1j, ratio, out=mu), alpha.imag, out=mu)
        np.add(cos_nw, mu, out=mu)
        nu = np.multiply(ratio, beta, out=beta)
        back = np.conjugate(e, out=e)
        x = start[:, -1:]  # x(p) by Horner's rule in e^{-ip}
        for column in start[:, -2::-1].T:
            x = np.multiply(x, back, out=transform)
            x += column[:, None]
        # a one-cell start is its own transform: (2, 1), scaled into a new pair
        x0, x1 = np.multiply(phase, x, out=transform if x is transform else None)
        # the output takes alpha's row, spent, and nu's, each entry read before it
        # is overwritten; e's row, spent too, takes the conjugate products
        out = rows[1:3]
        nu_x1 = np.multiply(np.conjugate(nu, out=e), x1, out=e)
        np.subtract(np.multiply(mu, x0, out=out[0]), nu_x1, out=out[0])
        np.multiply(nu, x0, out=out[1])
        np.add(out[1], np.multiply(np.conjugate(mu, out=e), x1, out=e), out=out[1])
        return fft.ifft(out, out=out)

    return kernel


def _jump_refusal(symbol: list) -> str:
    """Why a step of ``symbol`` is stepped, not jumped; empty for a symbol that jumps.

    Genericity: three first-column coefficients at least ``RESIDUAL_TOLERANCE``,
    on a lattice tuple Type V.  Forced to jump at n = 100 to 3000, trivial A/D
    and Type II tuples and plain walks kept spurious sites, and Type I went
    past ``n*eps + PRUNE_TOLERANCE``.  Evenness, for the half-ring mirror:
    ``S(-p) = J S(p) J``, J swapping the components.  Generalized blocks with
    P and Q scaled by opposite phases are not even, and jumped 1.7e13 budgets off.
    """
    generic = sum(abs(z) >= RESIDUAL_TOLERANCE for block in symbol for z, _ in block)
    if generic < 3:
        return f"only {generic} generic coefficients in the symbol's first column"
    if symbol != [[row[::-1] for row in block[::-1]] for block in symbol[::-1]]:
        return "the symbol is not even"
    return ""


class _Sited:
    """The value protocol of a finitely supported map on lattice sites.

    A subclass supplies ``_flat()``, its ascending nonzero sites and their
    entries (last axis over sites), and ``_at(site)``, the entry at one
    site.  Two values are equal when their types, their ``_fields`` (extra
    attributes that belong to the value) and their entries are.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        (s1, v1), (s2, v2) = self._flat(), other._flat()
        same = all(getattr(self, name) == getattr(other, name) for name in self._fields)
        return same and np.array_equal(s1, s2) and np.array_equal(v1, v2)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {v!r}" for k, v in self.items())
        extra = "".join(f", {name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({{{inner}}}{extra})"

    def __getitem__(self, site: int):
        return self._at(site).item()

    def __contains__(self, site: int) -> bool:
        return bool(self._at(site).any())

    def __iter__(self) -> Iterator[int]:
        return iter(self._flat()[0].tolist())

    def support(self) -> set[int]:
        return set(self._flat()[0].tolist())

    def items(self) -> list:
        """(site, entry) pairs in ascending site order."""
        sites, values = self._flat()
        return list(zip(sites.tolist(), values.tolist()))


class _Runs(_Sited):
    """Immutable sorted runs of complex entries on lattice sites.

    ``_lead`` is the shape of the entry at one site: ``()`` for an
    amplitude, ``(2,)`` for a chirality pair.  Entries below
    ``PRUNE_TOLERANCE`` are zeroed at construction, and iteration is in
    ascending site order.
    """

    __slots__ = ("_runs",)
    _lead: tuple[int, ...] = ()

    def _store(self, entries) -> None:
        """Pack each entry as a one-site run and cut the runs back out.

        A repeated site keeps its last entry, and ``_zero_dust`` rejects a
        non-finite one.
        """
        items = entries.items() if isinstance(entries, Mapping) else entries
        stored: dict[int, complex | tuple[complex, complex]] = {}
        for site, value in items:
            zs = (complex(value[0]), complex(value[1])) if self._lead else complex(value)
            stored[operator.index(site)] = zs
        # a site past int64 raises OverflowError here, not later in ``_flat``
        sites = np.array(sorted(stored), np.int64).tolist()
        values = np.array([stored[site] for site in sites], np.complex128).T
        runs = [(site, values[..., i : i + 1]) for i, site in enumerate(sites)]
        self._runs = tuple(_unpacked(*_packed(runs))) if runs else ()

    @classmethod
    def _from_runs(cls, runs: Iterable[_Run], like: _Runs | None = None):
        """Internal fast path: wrap pruned, sorted runs, with ``like``'s ``_fields`` if given.

        A site past int64 raises OverflowError.
        """
        new = cls.__new__(cls)
        runs = new._runs = tuple(runs)
        if runs and not -(2**63) <= runs[0][0] <= runs[-1][0] + runs[-1][1].shape[-1] - 1 < 2**63:
            raise OverflowError("lattice site out of int64 range")
        for name in like._fields if like is not None else ():
            setattr(new, name, getattr(like, name))
        return new

    def _stepped(self, kernel, n: int = 1):
        """Apply ``kernel(lo, values) -> (out_lo, out_values)`` to all runs, ``n`` times.

        Each step, the kernel sees the runs zero-padded in one pack
        (``_packed``) in one call, and its output is cut back into runs
        (``_unpacked``).  The last step's runs are wrapped once, and the
        result keeps this value's ``_fields``.
        """
        runs = self._runs
        for _ in range(n):
            if runs:
                lo, values, stretches = _packed(runs)
                runs = _unpacked(*kernel(lo, values), stretches)
        return self._from_runs(runs, self)

    def _evolved(self, n: int, symbol: list, make_step):
        """``n`` steps: one jump if ``_jump_refusal`` passes ``symbol``, else ``n`` steps.

        ``make_step()`` builds the step kernel; only the stepping branch calls it.
        """
        n = _step_count(n)
        # a start over 2n cells wide steps: its ring and Horner's passes grow with it, not with n
        runs = self._runs
        width = runs[-1][0] + runs[-1][1].shape[-1] - runs[0][0] if runs else 0
        if 0 < width <= (2 if self._lead else 4) * n and not _jump_refusal(symbol):
            return self._jumped(n, _fourier_power(n, symbol))
        return self._stepped(make_step(), n)

    def _jumped(self, n: int, kernel):
        """This value after ``n`` steps that commute with a shift by one cell, in one call.

        A walk site is a cell; a lattice field's cell k holds sites (2k, 2k+1).
        ``kernel(start, N)`` maps the (2, m) cells of the start, the first at
        cell 0 of a ring of N cells, to the evolved (2, N) ring.  The ring
        holds the cone, n cells on each side, with its cells left of the start
        wrapped to the ring's end, and a guard band at least as wide in the
        middle, where the exact answer is zero.  The largest entry the kernel
        leaves there is its noise floor on this run: ``_zero_dust`` zeroes
        cone entries no larger than it, with dust.
        """
        sites, values = self._flat()
        if not sites.size:
            return self
        cell, row = (sites, slice(None)) if self._lead else (sites >> 1, sites & 1)
        origin = int(cell[0])
        start = np.zeros((2, int(cell[-1]) - origin + 1), np.complex128)
        start[row, cell - origin] = values
        width = start.shape[1] + 2 * n
        ring = 1 << (2 * width - 1).bit_length()
        cells = kernel(start, ring)
        floor = float(np.abs(cells[:, width - n : ring - n]).max())
        # one copy off the ring; a field's column-major cone is its sites in order
        cone = np.empty((2, width), np.complex128, "C" if self._lead else "F")
        cone[:, :n], cone[:, n:] = cells[:, ring - n :], cells[:, : width - n]
        lo = origin - n if self._lead else int(sites[0]) - 2 * n
        if not self._lead:  # the sites of a field's cone
            cone = cone.ravel("F")[lo & 1 :][: int(sites[-1]) + 2 * n - lo + 1]
        return self._from_runs(_unpacked(lo, cone, [(lo, 0)], floor), self)

    def _flat(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending nonzero sites and their entries (last axis over sites)."""
        sites, values = [np.empty(0, np.int64)], [np.empty(self._lead + (0,), np.complex128)]
        for lo, arr in self._runs:
            nz = np.flatnonzero(_occupied(arr))
            sites.append(nz + lo)
            values.append(arr[..., nz])
        return np.concatenate(sites), np.concatenate(values, axis=-1)

    def _at(self, site: int) -> np.ndarray:
        """The entry at ``site``, zero off the support; a non-integer site raises TypeError."""
        site = operator.index(site)
        i = bisect_right(self._runs, site, key=operator.itemgetter(0)) - 1
        if i >= 0:
            lo, arr = self._runs[i]
            if site - lo < arr.shape[-1]:
                return arr[..., site - lo]
        return np.zeros(self._lead, np.complex128)

    def __len__(self) -> int:
        return sum(int(np.count_nonzero(_occupied(arr))) for _, arr in self._runs)

    def norm_sq(self) -> float:
        """Sum of squared moduli over all sites, summed exactly."""
        return math.fsum(x for _, arr in self._runs for x in _sq_modulus(arr).ravel().tolist())

    def _distribution(self) -> "Distribution":
        """Site masses: whole runs squared, summed over components; ``_store`` drops zeros."""
        sites, masses = [np.empty(0, np.int64)], [np.empty(0)]
        for lo, arr in self._runs:
            sites.append(np.arange(lo, lo + arr.shape[-1], dtype=np.int64))
            masses.append(_sq_modulus(arr).sum(axis=0) if self._lead else _sq_modulus(arr))
        dist = Distribution.__new__(Distribution)
        dist._store(np.concatenate(sites), np.concatenate(masses))
        return dist


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


class Distribution(_Sited):
    """Finitely supported positive masses on the integer lattice, iterated in site order.

    Stored as read-only arrays: ascending int64 sites and their float64 masses.
    """

    __slots__ = ("_sites", "_masses")

    def __init__(self, masses: Mapping[int, float] | Iterable[Tuple[int, float]] = ()):
        items = list(masses.items() if isinstance(masses, Mapping) else masses)
        sites, values = zip(*items) if items else ((), ())
        sites = np.fromiter(map(operator.index, sites), np.int64, len(items))
        # stable, so that a repeated site's last mass sorts last
        order = np.argsort(sites, kind="stable")
        self._store(sites[order], np.fromiter(values, np.float64, len(items))[order])

    def _store(self, sites: np.ndarray, masses: np.ndarray) -> None:
        """Check the masses of ascending ``sites`` in bulk; keep each site's last, if positive."""
        bad = ~np.isfinite(masses) | (masses < 0.0)
        if bad.any():
            i = int(bad.argmax())
            kind = "negative" if -math.inf < masses[i] < 0.0 else "non-finite"
            raise ValueError(f"{kind} mass {float(masses[i])!r} at site {int(sites[i])}")
        keep = (masses > 0.0) & np.append(sites[1:] != sites[:-1], True)
        self._sites, self._masses = sites[keep], masses[keep]
        self._sites.flags.writeable = self._masses.flags.writeable = False

    def _flat(self) -> tuple[np.ndarray, np.ndarray]:
        """The read-only ascending sites and their masses."""
        return self._sites, self._masses

    def _at(self, site: int) -> np.float64:
        """The mass at ``site``, zero off the support; a non-integer site raises TypeError."""
        site = operator.index(site)
        i = np.searchsorted(self._sites, site)
        return self._masses[i] if self._sites[i : i + 1].tolist() == [site] else np.float64(0)

    def __len__(self) -> int:
        return self._sites.size

    def total(self) -> float:
        """Total mass, summed exactly."""
        return math.fsum(self._masses.tolist())


def _aligned(f: AmplitudeField, g: AmplitudeField):
    """Both fields packed on one site axis by ``_packed``, ``f`` in row 0 and ``g`` in row 1."""
    runs = []
    for row, field in enumerate((f, g)):
        for lo, arr in field._runs:
            rows = np.zeros((2, arr.size), np.complex128)
            rows[row] = arr
            runs.append((lo, rows))
    runs.sort(key=operator.itemgetter(0))
    # two empty fields pack as one zero site
    return _packed(runs or [(0, np.zeros((2, 1), np.complex128))])


def superpose(
    f: AmplitudeField,
    g: AmplitudeField,
    alpha: complex,
    beta: complex,
) -> AmplitudeField:
    """Pointwise combination ``alpha*f + beta*g`` with zeros pruned."""
    lo, (on_f, on_g), stretches = _aligned(f, g)
    combined = complex(alpha) * on_f + complex(beta) * on_g
    return AmplitudeField._from_runs(_unpacked(lo, combined, stretches))


def to_distribution(field: AmplitudeField) -> Distribution:
    """Squared-modulus masses of a field; total equals ``field.norm_sq()``."""
    return field._distribution()


def max_difference(f: AmplitudeField, g: AmplitudeField) -> float:
    """Largest pointwise amplitude difference between two fields."""
    return _mismatch(f, g)[0]


def _mismatch(got: AmplitudeField, want: AmplitudeField) -> tuple[float, float]:
    """Largest amplitude and mass mismatch between two fields."""
    _, (got, want), _ = _aligned(got, want)
    amp_err = float(np.abs(got - want).max(initial=0.0))
    prob_err = float(np.abs(_sq_modulus(want) - _sq_modulus(got)).max(initial=0.0))
    return amp_err, prob_err
