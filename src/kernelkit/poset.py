"""Finite posets and the componentwise order on their antichains.

Antichains are compared by: a <= b iff every element of a lies below some
element of b.  This extension is itself a partial order, and its longest
chain has exactly size+1 antichains; `max_chain_of_antichains` constructs
one such chain.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Iterator

from .digraph import bits_of
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
    a <= b and are closed reflexively and transitively."""

    __slots__ = ("size", "_up", "_down")

    def __init__(self, size: int, relation: Iterable[tuple[int, int]] = ()):
        if size < 0:
            raise ValueError("size must be nonnegative")
        up = [1 << i for i in range(size)]
        for a, b in relation:
            if not 0 <= a < size or not 0 <= b < size:
                raise ContractError(f"pair ({a}, {b}) outside [0, {size})")
            up[a] |= 1 << b
        changed = True
        while changed:
            changed = False
            for a in range(size):
                acc = up[a]
                for b in bits_of(up[a]):
                    acc |= up[b]
                if acc != up[a]:
                    up[a] = acc
                    changed = True
        for a in range(size):
            for b in bits_of(up[a]):
                if b != a and (up[b] >> a) & 1:
                    raise ContractError(
                        f"elements {a} and {b} lie below each other: not a partial order"
                    )
        down = [0] * size
        for a in range(size):
            for b in bits_of(up[a]):
                down[b] |= 1 << a
        self.size = size
        self._up = up
        self._down = down

    def leq(self, a: int, b: int) -> bool:
        if not 0 <= a < self.size or not 0 <= b < self.size:
            raise ContractError(f"element pair ({a}, {b}) outside [0, {self.size})")
        return (self._up[a] >> b) & 1 == 1

    def up_mask(self, a: int) -> int:
        return self._up[a]

    def is_antichain(self, members: Iterable[int]) -> bool:
        elems = sorted(set(members))
        for a in elems:
            if not 0 <= a < self.size:
                raise ContractError(f"element {a} outside [0, {self.size})")
        for i, a in enumerate(elems):
            for b in elems[i + 1 :]:
                if (self._up[a] >> b) & 1 or (self._up[b] >> a) & 1:
                    return False
        return True

    def antichain_masks(self) -> Iterator[int]:
        """All antichains as bitmasks, increasing as integers."""
        incomparable = [
            ~(self._up[a] | self._down[a]) & ((1 << self.size) - 1)
            for a in range(self.size)
        ]

        for mask in range(1 << self.size):
            ok = True
            rest = mask
            while rest:
                low = rest & -rest
                a = low.bit_length() - 1
                rest ^= low
                if rest & ~incomparable[a]:
                    ok = False
                    break
            if ok:
                yield mask

    def linear_extension(self) -> list[int]:
        """Least-index-first topological order of the elements."""
        placed = 0
        order = []
        remaining = set(range(self.size))
        while remaining:
            for a in sorted(remaining):
                below = self._down[a] & ~(1 << a)
                if below & ~placed == 0:
                    order.append(a)
                    placed |= 1 << a
                    remaining.discard(a)
                    break
            else:
                raise ContractError("relation has a cycle: not a partial order")
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
        strict = [
            (a, b) for a in range(self.size) for b in bits_of(self._up[a]) if a != b
        ]
        return f"Poset({self.size}, {strict})"


def _antichain_frozen(poset: Poset, antichain) -> frozenset[int]:
    members = frozenset(antichain)
    if not poset.is_antichain(members):
        raise ContractError(f"{sorted(members)} is not an antichain of the poset")
    return members


def antichain_leq(poset: Poset, a, b) -> bool:
    """True iff every element of `a` lies below some element of `b`."""
    a = _antichain_frozen(poset, a)
    b = _antichain_frozen(poset, b)
    b_mask = 0
    for x in b:
        b_mask |= 1 << x
    return all(poset.up_mask(x) & b_mask for x in a)


def compare_antichains(poset: Poset, a, b) -> Comparison:
    """Four-way comparison of two antichains under the extended order."""
    a = _antichain_frozen(poset, a)
    b = _antichain_frozen(poset, b)
    if a == b:
        return Comparison.EQUAL
    forward = antichain_leq(poset, a, b)
    backward = antichain_leq(poset, b, a)
    if forward and backward:
        # antisymmetry of the extended order forbids this for distinct inputs
        raise ContractError(f"antichains {sorted(a)} and {sorted(b)} violate antisymmetry")
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
    current: frozenset[int] = frozenset()
    for x in poset.linear_extension():
        current = frozenset(y for y in current if not poset.leq(y, x)) | {x}
        chain.append(current)
    return chain
