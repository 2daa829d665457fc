"""Coined quantum walks on the line, plain and with a stay-put block.

Chirality ordering is explicit state metadata, never an implicit
convention: A-family generalized walks keep the right-moving component on
top, everything else keeps the left-moving component on top.  The block
recurrences likewise differ per family:

    A generalized:  new[k] = Q*old[k+1] + T*old[k] + P*old[k-1]
    B generalized:  new[k] = P*old[k+1] + T*old[k] + Q*old[k-1]
    plain (A or B): new[k] = P*old[k+1] + Q*old[k-1]
    A half step:    new[k] = Q*old[k+1] + P*old[k-1]
    B half step:    new[k] = P*old[k+1] + Q*old[k-1]

Two half steps, (P1, Q1) then (P2, Q2), are one generalized step on the
sites 2k: P = P2 P1, T = P2 Q1 + Q2 P1 and Q = Q2 Q1.  Each family's frame
is its ``algebra._FAMILIES`` row.  The blocks' entries, their unitarity
test and the family rows are the 2x2 algebra of ``algebra``; the arrays
here wrap its lists.

``walk_step`` and ``evolve_walk`` refuse to mix states and blocks written
in different orderings instead of silently reordering.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .algebra import (
    _ORDERS,
    _ZERO,
    L_UPPER,
    _family,
    _generalized_blocks,
    _split_coin,
    _unitarity_residual,
)
from .amplitudes import _PACK_GAP, Distribution, _Runs
from .params import RESIDUAL_TOLERANCE, QcaParams, normalized_qubit

__all__ = [
    "CoinMatrix",
    "WalkState",
    "CoinBlocks",
    "plain_blocks",
    "generalized_blocks_from_qca",
    "walk_step",
    "evolve_walk",
    "walk_distribution",
]

@dataclass(frozen=True)
class CoinMatrix:
    """Validated 2x2 coin unitary with rows (a, b) and (c, d)."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            z = complex(getattr(self, name))
            if not cmath.isfinite(z):
                raise ValueError(f"non-finite coin entry {name}={z!r}")
            object.__setattr__(self, name, z)
        # the plain walk's blocks, rows of the coin and no stay block, have
        # P^H P + Q^H Q = U^H U and P^H Q = 0: the step is unitary when the coin is
        plain_blocks(self, "A")

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=np.complex128)


class WalkState(_Runs):
    """Finitely supported chirality 2-vectors on walk sites.

    ``order`` records which chirality sits in the upper component, and is
    part of the value: it takes part in ``==`` and ``repr``.  The
    (upper, lower) pairs share the run layout of ``AmplitudeField``.
    """

    __slots__ = ("order",)
    _lead = (2,)
    _fields = ("order",)

    def __init__(self, sites: Mapping[int, tuple[complex, complex]], order: str):
        if order not in _ORDERS:
            raise ValueError(f"unknown chirality order {order!r}")
        self._store(sites)
        self.order = order

    @classmethod
    def origin(cls, qubit, order: str = L_UPPER) -> "WalkState":
        """Walker at site 0 with internal state (left, right) = qubit."""
        alpha, beta = normalized_qubit(qubit)
        pair = (alpha, beta) if order == L_UPPER else (beta, alpha)
        return cls({0: pair}, order)

    def __getitem__(self, site: int) -> tuple[complex, complex]:
        upper, lower = self._at(site)
        return (complex(upper), complex(lower))

    def items(self) -> list[tuple[int, tuple[complex, complex]]]:
        """(site, (upper, lower)) pairs in ascending site order."""
        sites, (upper, lower) = self._flat()
        return list(zip(sites.tolist(), zip(upper.tolist(), lower.tolist())))


def _as_block(m) -> np.ndarray:
    arr = np.asarray(m, dtype=np.complex128)
    if arr.shape != (2, 2):
        raise ValueError(f"block must be 2x2, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite block entry")
    return arr


@dataclass(frozen=True, eq=False)
class CoinBlocks:
    """One walk step split into move blocks P, Q and stay block T.

    ``p_side`` fixes the recurrence orientation: the new vector at site k
    collects ``P @ old[k + p_side]`` (and ``Q`` from the opposite
    neighbour).  ``order`` is the chirality ordering the block entries are
    written in.  The assembled step operator must be unitary.  Blocks
    compare by identity, as an array has no single truth value.
    """

    P: np.ndarray
    T: np.ndarray
    Q: np.ndarray
    p_side: int = 1
    order: str = L_UPPER
    # symbol: at m + 1 the block moving an entry m sites, as nested lists; stencil: side by side
    _symbol: list = field(init=False, repr=False)
    _stencil: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.p_side not in (1, -1):
            raise ValueError(f"p_side must be +1 or -1, got {self.p_side!r}")
        if self.order not in _ORDERS:
            raise ValueError(f"unknown chirality order {self.order!r}")
        p = _as_block(self.P)
        t = _as_block(self.T)
        q = _as_block(self.Q)
        object.__setattr__(self, "P", p)
        object.__setattr__(self, "T", t)
        object.__setattr__(self, "Q", q)
        residual = self.unitarity_residual()
        if residual > RESIDUAL_TOLERANCE:
            raise ValueError(
                f"blocks do not assemble into a unitary step (residual {residual:.3e})"
            )
        # P moves an entry by -p_side sites, T by 0 and Q by +p_side
        by_move = {-self.p_side: p, 0: t, self.p_side: q}
        object.__setattr__(self, "_symbol", [by_move[m - 1].tolist() for m in range(3)])
        object.__setattr__(self, "_stencil", np.hstack([by_move[m - 1] for m in range(3)]))

    def unitarity_residual(self) -> float:
        """Largest entry of the three block-orthogonality defects; inf where one overflows."""
        return _unitarity_residual(self.P.tolist(), self.T.tolist(), self.Q.tolist())

    @property
    def coin(self) -> np.ndarray:
        """P + Q; equals the coin matrix for plain walks."""
        return self.P + self.Q


def plain_blocks(coin: CoinMatrix, family: str) -> CoinBlocks:
    """Split a coin into move blocks with no stay amplitude.

    Family A keeps rows of the coin; family B keeps columns.  Either way
    P + Q reassembles the coin exactly.
    """
    p, q = _split_coin([[coin.a, coin.b], [coin.c, coin.d]], _family(family))
    return CoinBlocks(p, _ZERO, q, p_side=1, order=L_UPPER)


def generalized_blocks_from_qca(params: QcaParams, family: str) -> CoinBlocks:
    """Move/stay blocks whose walk reproduces the banded lattice step.

    The move blocks split the coin ``[[d, m], [m, d]]`` and the stay block
    is ``[[b, s], [s, b]]``: family A moves with m = c and stays with s = a,
    family B the other way round.  The family's row frames the step.
    """
    row = _family(family)
    return CoinBlocks(*_generalized_blocks(params, family), row.p_side, row.order)


def walk_step(state: WalkState, blocks: CoinBlocks) -> WalkState:
    """Advance the walk by one step of the block recurrence."""
    return state._stepped(_block_kernel(state, blocks))


def evolve_walk(state: WalkState, blocks: CoinBlocks, n: int) -> WalkState:
    """Advance the walk by ``n`` steps of the block recurrence, in one jump where it can."""
    # built before the rule, as it is also the order check, which holds at any n
    kernel = _block_kernel(state, blocks)
    return state._evolved(n, blocks._symbol, lambda: kernel)


def _block_kernel(state: WalkState, blocks: CoinBlocks):
    """Kernel ``(lo, x) -> (out_lo, out)`` of one ``blocks`` step, for a state in their order."""
    if state.order != blocks.order:
        raise ValueError(
            f"state is {state.order} but blocks are written {blocks.order}; "
            "reorder explicitly before stepping"
        )
    # Output index i is site lo + pad - 1 + i: the stack takes one of the pack's
    # ``pad`` zero sites at each end, no more, as the product's last bits depend
    # on its width.  Row m holds the input shifted m sites right, which the
    # stencil's columns 2m, 2m + 1 meet with the block moving an entry m - 1 sites.
    # The stack is a strided view of the pack (a step of -1 site from row m to
    # m + 1), and the reshape copies it once into the (6, width) operand.
    stencil, pad = blocks._stencil, _PACK_GAP // 2

    def kernel(lo: int, x: np.ndarray) -> tuple[int, np.ndarray]:
        width, site = x.shape[1] - 2 * pad + 2, x.itemsize
        stack = np.ndarray((3, 2, width), x.dtype, x, pad * site, (-site, x.strides[0], site))
        return lo + pad - 1, stencil @ stack.reshape(6, width)

    return kernel


def walk_distribution(state: WalkState) -> Distribution:
    """Site masses: squared modulus of the 2-vector at each site."""
    return state._distribution()
