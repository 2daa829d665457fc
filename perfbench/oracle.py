"""Independent dense oracle for the banded step and the B-family walk.

The step matrix is filled from the row rule of the paper with numpy fancy
indexing, and the coefficients come straight from the angles, so nothing
here goes through the package's own stepping or parametrization code.
The B walk is checked through its defining identity: walk site k holds the
lattice pair (2k, 2k+1) of the dense evolution of alpha*e_0 + beta*e_1.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from checks import IDENTITY_TOL

ORACLE_STEPS = 12


def coefficients(theta: float, phi: float, delta: float) -> tuple[complex, ...]:
    ph = cmath.exp(1j * delta)
    ct, st, cp, sp = math.cos(theta), math.sin(theta), math.cos(phi), math.sin(phi)
    return (ph * ct * cp, -1j * ph * ct * sp, ph * st * sp, 1j * ph * st * cp)


def step_matrix(coeffs, lo: int, hi: int) -> np.ndarray:
    """Rows 2k take (a, b, c, d) and rows 2k+1 take (d, c, b, a) from 2k-1..2k+2."""
    a, b, c, d = coeffs
    rows = np.arange(lo, hi + 1)
    even = rows % 2 == 0
    first = np.where(even, rows - 1, rows - 2)
    mat = np.zeros((rows.size, rows.size), dtype=np.complex128)
    for offset, (z_even, z_odd) in enumerate(zip((a, b, c, d), (d, c, b, a))):
        cols = first + offset
        inside = (cols >= lo) & (cols <= hi)
        mat[(rows - lo)[inside], (cols - lo)[inside]] = np.where(even, z_even, z_odd)[inside]
    return mat


def evolve(coeffs, start: dict[int, complex], n: int) -> tuple[int, np.ndarray]:
    """Dense evolution on a window wide enough that no amplitude reaches its edge."""
    reach = max(abs(s) for s in start) + 2 * n + 4
    lo, hi = -reach, reach
    vec = np.zeros(hi - lo + 1, dtype=np.complex128)
    for site, amp in start.items():
        vec[site - lo] = amp
    mat = step_matrix(coeffs, lo, hi)
    for _ in range(n):
        vec = mat @ vec
    return lo, vec


def dense_distribution(angles, qubit, sign: str, n: int) -> dict[int, float]:
    """Masses of alpha*eta_0 + beta*eta_{+-1} after n steps."""
    alpha, beta = complex(qubit[0], qubit[1]), complex(qubit[2], qubit[3])
    second = 1 if sign == "+" else -1
    lo, vec = evolve(coefficients(*angles), {0: alpha, second: beta}, n)
    return {lo + i: float(abs(z) ** 2) for i, z in enumerate(vec) if z != 0}


def _field_error(field, lo: int, vec: np.ndarray) -> float:
    window = set(range(lo, lo + vec.size))
    if not field.support() <= window:
        return math.inf
    return float(max(abs(field[lo + i] - z) for i, z in enumerate(vec)))


def problems(q, angles, qubit, sign: str, n: int = ORACLE_STEPS) -> list[str]:
    """Compare package amplitudes with the dense oracle at a small step count."""
    coeffs = coefficients(*angles)
    params = q.params_from_angles(q.AngleTriple(*angles))
    alpha, beta = complex(qubit[0], qubit[1]), complex(qubit[2], qubit[3])
    found = []

    for m in (0, 1 if sign == "+" else -1):
        lo, vec = evolve(coeffs, {m: 1.0}, n)
        err = _field_error(q.evolve_eta(m, n, params), lo, vec)
        if not err <= IDENTITY_TOL:
            found.append(f"evolve_eta({m}, {n}) differs from the dense oracle by {err:.3e}")

    want = dense_distribution(angles, qubit, sign, n)
    got = q.qca_distribution(0, sign, (alpha, beta), n, params)
    err = max(abs(got[k] - want.get(k, 0.0)) for k in set(want) | got.support())
    if not err <= IDENTITY_TOL:
        found.append(f"qca_distribution differs from the dense oracle by {err:.3e}")

    lo, vec = evolve(coeffs, {0: alpha, 1: beta}, n)
    blocks = q.generalized_blocks_from_qca(params, "B")
    state = q.WalkState.origin((alpha, beta), blocks.order)
    for _ in range(n):
        state = q.walk_step(state, blocks)
    err = 0.0
    for i in range(0, vec.size - 1):
        site = lo + i
        if site % 2 == 0:
            u, l = state[site // 2]
            err = max(err, abs(u - vec[i]), abs(l - vec[i + 1]))
    if not state.support() <= {s // 2 for s in range(lo, lo + vec.size)}:
        err = math.inf
    if not err <= IDENTITY_TOL:
        found.append(f"B walk differs from the dense oracle by {err:.3e}")
    return found


def cli_problems(pairs, angles, qubit, sign: str, steps: int) -> list[str]:
    """Compare the CLI's simulate-qca masses with the dense oracle."""
    got = dict(pairs)
    if not got:
        return ["no simulate-qca distribution to compare"]
    want = dense_distribution(angles, qubit, sign, steps)
    err = max(abs(got.get(k, 0.0) - want.get(k, 0.0)) for k in set(want) | set(got))
    if not err <= IDENTITY_TOL:
        return [f"CLI simulate-qca differs from the dense oracle by {err:.3e}"]
    return []
