"""One-dimensional QCA: the banded step and the Fourier jump.

The coefficient tuples, their unitarity check and their taxonomy live in
``params``.  The single step operator is a band-4 unitary acting on the
whole integer lattice.  Its row pattern, pinned once here and used
everywhere:

    out[2k]   = a*in[2k-1] + b*in[2k] + c*in[2k+1] + d*in[2k+2]
    out[2k+1] = d*in[2k-1] + c*in[2k] + b*in[2k+1] + a*in[2k+2]
"""

from __future__ import annotations

import cmath
import math
import threading

import numpy as np

from .amplitudes import AmplitudeField, Distribution, _step_count, to_distribution
from .params import QcaParams, QcaTypeClass, classify, normalized_qubit

__all__ = [
    "qca_step",
    "evolve_eta",
    "qca_distribution",
]


def qca_step(field: AmplitudeField, params: QcaParams) -> AmplitudeField:
    """One application of the banded step operator, run by run."""
    return field._stepped(_banded_kernel(params))


def _banded_kernel(params: QcaParams):
    """Kernel ``(lo, x) -> (out_lo, out)`` applying one banded step to a zero-padded pack."""
    a, b, c, d = params.astuple()
    # row k of the window view is in[2k-1 .. 2k+2]; its columns give out[2k], out[2k+1]
    stencil = np.array([[a, d], [b, c], [c, b], [d, a]], dtype=np.complex128)

    def kernel(lo: int, x: np.ndarray) -> tuple[int, np.ndarray]:
        # every window that fits in the pack, whose zero ends hold each site a step reaches
        base = (lo + 2) & ~1            # even-aligned left edge of the output range
        npairs = (lo + x.size - 1 - base) // 2
        at, step = base - 1 - lo, x.strides[0]
        windows = np.ndarray((npairs, 4), np.complex128, x, at * step, (2 * step, step))
        return base, (windows @ stencil).ravel()

    return kernel


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


def _fourier_power(n: int, params: QcaParams):
    """Kernel applying ``n`` steps to a start on a ring of 2-site cells in Fourier space.

    On cells (2k, 2k+1) the step is translation-invariant, so ``n`` steps
    multiply the cell transform by ``U(p)**n`` with the symbol
    ``U(p) = [[b + d e^{ip}, c + a e^{-ip}], [c + a e^{ip}, b + d e^{-ip}]]``.
    A validated tuple has ``bd = ac``, so ``det U(p) = s**2 = b**2 + d**2 -
    a**2 - c**2`` for every p, and ``U(p) / s`` is the SU(2) matrix
    ``M = [[alpha, -conj(beta)], [beta, conj(alpha)]]``.  With ``cos w = Re
    alpha``, ``M**n = cos(nw) I + sin(nw) / sin(w) (M - cos(w) I)`` is unitary
    to rounding, so mass holds at any n.  It reads (alpha, beta) only through
    w, ``Im alpha / sin w`` and ``beta / sin w``, which no scaling of (alpha,
    beta) changes: taking ``sin w`` from the same components projects onto
    SU(2) without a normalization.  ``cos w = b/s + (d/s) cos p`` is even in
    p, so the terms in w are taken on p in [0, pi] and mirrored.

    ``kernel(start, ring)`` takes the start's (2, m) cells, the first at
    cell 0 of a ring of any size, and returns the (2, ring) evolved ring.
    The start's transform ``x(p) = sum_j start[:, j] e^{-ipj}`` is formed by
    Horner's rule, so the inverse FFT is the only one.  Every ring-long
    intermediate, and the returned ring, lives in this thread's
    ``_Workspace``: the result is valid until the thread's next jump.
    """
    a, b, c, d = params.astuple()
    # one arg s for every p, free of a sqrt's rounding and s**n's drift, both n-fold;
    # s = i**k * t with |arg t| <= pi/4 keeps the rounding of n * arg t small,
    # and i**(n * k) is exact
    s_sq = b * b + d * d - a * a - c * c
    k = 1 if s_sq.real < 0 else 0
    half_arg = cmath.phase(-s_sq if k else s_sq) / 2
    s = _I_POWERS[k] * cmath.exp(1j * half_arg)
    phase = _I_POWERS[n * k % 4] * cmath.exp(1j * n * half_arg)
    a, b, c, d = a / s, b / s, c / s, d / s

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
        np.add(b, np.multiply(d, e, out=alpha), out=alpha)
        np.add(c, np.multiply(a, e, out=beta), out=beta)
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


def _jump_refusal(params: QcaParams) -> str:
    """Why ``_evolve`` steps ``params`` instead of jumping; empty for a tuple it jumps.

    Only Type V tuples jump.  Forced to jump at n = 100 to 3000 from a one-cell
    start, trivial A/D and Type II tuples kept up to 54 spurious sites (masses
    up to 7e-26), where their zeros are structural, and Type I reached 7.7e-13
    at n = 3000, past ``n*eps + PRUNE_TOLERANCE`` (6.7e-13).  Types III and IV
    stayed within 3e-14.
    """
    kind = classify(params)
    if kind is QcaTypeClass.TYPE_V:
        return ""
    return f"only Type V tuples jump; this tuple is {kind.value}"


def _evolve(field: AmplitudeField, n: int, params: QcaParams) -> AmplitudeField:
    """``n`` steps of a start field that spans a few sites.

    One Fourier jump where ``_jump_refusal`` allows it, else ``n`` banded steps.
    """
    n = _step_count(n)
    if n > 0 and not _jump_refusal(params):
        return field._jumped(2 * n, _fourier_power(n, params))
    return field._stepped(_banded_kernel(params), n)


def evolve_eta(m: int, n: int, params: QcaParams) -> AmplitudeField:
    """State after ``n`` steps from the basis field concentrated at ``m``."""
    return _evolve(AmplitudeField.delta(m), n, params)


def qca_distribution(
    m: int, sign: str, qubit, n: int, params: QcaParams
) -> Distribution:
    """Site masses of the combination of two neighbouring basis evolutions.

    ``sign`` selects whether the second branch starts at ``m + 1`` or
    ``m - 1``; the combination weights are the qubit amplitudes.  The
    combined start field is evolved once.
    """
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    alpha, beta = normalized_qubit(qubit)
    second = m + (1 if sign == "+" else -1)
    # By linearity this is the combination of the two basis evolutions.
    start = AmplitudeField({m: alpha, second: beta})
    return to_distribution(_evolve(start, n, params))
