"""Finite posets and the componentwise order on their antichains.

Antichains are compared by: a <= b iff every element of a lies below some
element of b.  This extension is itself a partial order, and its longest
chain has exactly size+1 antichains; `max_chain_of_antichains` constructs
one such chain.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable

from .digraph import _pairs, _transpose, bits_of
from .errors import ContractError

__all__ = [
    "Poset",
    "Comparison",
    "antichain_leq",
    "compare_antichains",
    "max_chain_of_antichains",
]


class Comparison(Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


class Poset:
    """Partial order on {0, ..., size-1}; `relation` pairs (a, b) mean
    a <= b and are closed reflexively and transitively.  Bit b of
    `_up[a]`, and bit a of `_down[b]`, is set iff a <= b, so each query
    tests one mask per element."""

    __slots__ = ("size", "_up", "_down")

    def __init__(self, size: int, relation: Iterable[tuple[int, int]] = ()):
        if size < 0:
            raise ValueError("size must be nonnegative")
        up = [1 << i for i in range(size)]
        for a, b in relation:
            if not 0 <= a < size or not 0 <= b < size:
                raise ContractError(f"pair ({a}, {b}) outside [0, {size})")
            up[a] |= 1 << b
        # Warshall: after pivot k, up[a] holds every b reachable through
        # intermediates <= k
        for k in range(size):
            for a in range(size):
                if up[a] >> k & 1:
                    up[a] |= up[k]
        down = _transpose(up)
        for a in range(size):
            both = up[a] & down[a] & ~(1 << a)
            if both:
                b = (both & -both).bit_length() - 1
                raise ContractError(
                    f"elements {a} and {b} lie below each other: not a partial order"
                )
        self.size = size
        self._up = up
        self._down = down

    def leq(self, a: int, b: int) -> bool:
        if not 0 <= a < self.size or not 0 <= b < self.size:
            raise ContractError(f"element pair ({a}, {b}) outside [0, {self.size})")
        return (self._up[a] >> b) & 1 == 1

    def is_antichain(self, members: Iterable[int]) -> bool:
        elems = sorted(set(members))
        mask = 0
        for a in elems:
            if not 0 <= a < self.size:
                raise ContractError(f"element {a} outside [0, {self.size})")
            mask |= 1 << a
        return all(self._up[a] & mask == 1 << a for a in elems)

    def linear_extension(self) -> list[int]:
        """Least-index-first topological order of the elements."""
        order = []
        left = (1 << self.size) - 1
        while left:
            x = next(x for x in bits_of(left) if self._down[x] & left == 1 << x)
            order.append(x)
            left ^= 1 << x
        return order

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poset)
            and self.size == other.size
            and self._up == other._up
        )

    def __hash__(self) -> int:
        return hash((self.size, tuple(self._up)))

    def __repr__(self) -> str:
        strict = _pairs([up & ~(1 << a) for a, up in enumerate(self._up)])
        return f"Poset({self.size}, {strict})"


def _antichain_mask(poset: Poset, antichain) -> int:
    members = frozenset(antichain)
    if not poset.is_antichain(members):
        raise ContractError(f"{sorted(members)} is not an antichain of the poset")
    mask = 0
    for x in members:
        mask |= 1 << x
    return mask


def _leq_masks(up: list[int], a: int, b: int) -> bool:
    return all(up[x] & b for x in bits_of(a))


def antichain_leq(poset: Poset, a, b) -> bool:
    """True iff every element of `a` lies below some element of `b`."""
    return _leq_masks(poset._up, _antichain_mask(poset, a), _antichain_mask(poset, b))


def compare_antichains(poset: Poset, a, b) -> Comparison:
    """Four-way comparison of two antichains under the extended order."""
    a = _antichain_mask(poset, a)
    b = _antichain_mask(poset, b)
    if a == b:
        return Comparison.EQUAL
    forward = _leq_masks(poset._up, a, b)
    backward = _leq_masks(poset._up, b, a)
    if forward and backward:
        # antisymmetry of the extended order forbids this for distinct inputs
        raise ContractError(
            f"antichains {list(bits_of(a))} and {list(bits_of(b))} violate antisymmetry"
        )
    if forward:
        return Comparison.LESS
    if backward:
        return Comparison.GREATER
    return Comparison.INCOMPARABLE


def max_chain_of_antichains(poset: Poset) -> list[frozenset[int]]:
    """A strictly increasing chain of antichains of length size+1.

    Built by walking a linear extension: each new element is added to the
    previous antichain after evicting everything below it.
    """
    chain = [frozenset()]
    current = 0
    for x in poset.linear_extension():
        current = current & ~poset._down[x] | 1 << x
        chain.append(frozenset(bits_of(current)))
    return chain
