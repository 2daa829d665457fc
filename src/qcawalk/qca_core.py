"""One-dimensional QCA: the banded step, and its evolution by steps or one Fourier jump.

The coefficient tuples, their unitarity check and their taxonomy live in
``params``, and so does the tuple's cell symbol, which the jump reads.
The single step operator is a band-4 unitary acting on the whole integer
lattice.  Its row pattern, pinned once here and used everywhere:

    out[2k]   = a*in[2k-1] + b*in[2k] + c*in[2k+1] + d*in[2k+2]
    out[2k+1] = d*in[2k-1] + c*in[2k] + b*in[2k+1] + a*in[2k+2]
"""

from __future__ import annotations

import numpy as np

from .amplitudes import AmplitudeField, Distribution, to_distribution
from .params import QcaParams, _symbol, normalized_qubit

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


def _evolve(field: AmplitudeField, n: int, params: QcaParams) -> AmplitudeField:
    """``n`` steps of a start field: one Fourier jump where it can, else ``n`` banded steps."""
    return field._evolved(n, _symbol(params), lambda: _banded_kernel(params))


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
