"""Exact brute-force ground truth for kernels and clique-acyclicity.

Kernel search walks maximal independent sets rather than all subsets:
absorption forces every kernel to be a maximal independent set, which
raises the practical size cap far above 2^n scanning.  All witnesses are
selected lexicographically (least sorted member tuple first) so golden
tests stay reproducible.  One enumerator on an explicit stack, `_lex_sets`,
yields the maximal independent sets and the cliques in that order, so
no input depth meets Python's recursion limit.

The orientation sweeps use `kernel_exists_masks`.  Every orientation of a
base graph, simple or with reversible edges, has that graph as its
underlying graph, so the kernel candidates are the base graph's maximal
independent sets: a sweep computes that fixed list once, each candidate
as its mask and its members, and tests it against the in-neighbour masks
of each leaf its walk yields, ORing them over a candidate's members
inline, so a leaf costs no mask rebuild and no call per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .digraph import Digraph, Orientation, VertexSet, bits_of, union_of
from .errors import SizeCapError

__all__ = [
    "DEFAULT_VERTEX_CAP",
    "DEFAULT_CLIQUE_BUDGET",
    "KernelReport",
    "PredicateReport",
    "find_kernel_bruteforce",
    "enumerate_kernels",
    "kernel_exists_masks",
    "is_clique_acyclic",
    "is_M_clique_acyclic",
    "maximal_independent_set_masks",
    "all_clique_masks",
]

DEFAULT_VERTEX_CAP = 25
DEFAULT_CLIQUE_BUDGET = 10**7


@dataclass(frozen=True)
class KernelReport:
    """Outcome of a brute-force kernel search."""

    exists: bool
    witness: Optional[VertexSet]
    count: Optional[int] = None


@dataclass(frozen=True)
class PredicateReport:
    """Boolean verdict plus the first violating witness, if any."""

    holds: bool
    witness: Optional[tuple[int, ...]] = None

    def __bool__(self) -> bool:
        return self.holds


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise SizeCapError(
            f"{n} vertices exceed the exhaustive-search cap of {cap}; "
            f"use the constructive solvers instead"
        )


def _lex_sets(n: int, compatible: list[int], maximal: bool = False) -> Iterator[int]:
    """Yield, as masks, every non-empty set of pairwise compatible
    vertices, lexicographically by sorted member tuple; with `maximal`,
    only the sets no further vertex can join.

    `compatible[v]` masks the vertices that may share a set with v, v
    itself excluded; the relation must be symmetric.  The stack holds one
    frame per depth: (members, vertices compatible with every member,
    candidates above the last member still untried).  Under `maximal` a
    branch dies once a skipped, still-joinable vertex has nothing left
    among the candidates that could block it.
    """
    full = (1 << n) - 1
    stack = [(0, full, full)]
    while stack:
        members, common, candidates = stack[-1]
        if not candidates:
            stack.pop()
            continue
        low = candidates & -candidates
        v = low.bit_length() - 1
        rest = candidates ^ low
        # under `maximal`, a v that no later candidate blocks stays
        # joinable in every sibling still to come
        if maximal and not rest & ~compatible[v]:
            rest = 0
        stack[-1] = (members, common, rest)
        chosen = members | low
        joinable = common & compatible[v]
        later = joinable >> (v + 1) << (v + 1)
        if maximal:
            if not joinable:
                yield chosen
                continue
            if any(not later & ~compatible[w] for w in bits_of(joinable ^ later)):
                continue
        else:
            yield chosen
        if later:
            stack.append((chosen, joinable, later))


def _independence(n: int, adjacency: list[int]) -> list[int]:
    full = (1 << n) - 1
    return [full & ~(adjacency[v] | 1 << v) for v in range(n)]


def maximal_independent_set_masks(n: int, adjacency: list[int]) -> Iterator[int]:
    """Yield bitmasks of all maximal independent sets, lexicographically by
    sorted member tuple."""
    if n == 0:
        yield 0
    yield from _lex_sets(n, _independence(n, adjacency), maximal=True)


def _adjacency(digraph: Digraph) -> list[int]:
    return [digraph._out[v] | digraph._in[v] for v in range(digraph.vertex_count)]


def _kernel_masks(digraph: Digraph, cap: int) -> Iterator[int]:
    """Kernel masks in lexicographic order: the maximal independent sets
    that absorb every other vertex."""
    n = digraph.vertex_count
    _check_cap(n, cap)
    full = (1 << n) - 1
    for mask in maximal_independent_set_masks(n, _adjacency(digraph)):
        if mask | union_of(digraph._in, mask) == full:
            yield mask


def find_kernel_bruteforce(
    digraph: Digraph,
    cap: int = DEFAULT_VERTEX_CAP,
    count_all: bool = False,
) -> KernelReport:
    """Search maximal independent sets for a kernel.

    Returns the lexicographically least kernel as witness.  With
    `count_all` the full enumeration runs and the report carries the exact
    number of kernels.
    """
    kernels = _kernel_masks(digraph, cap)
    first = next(kernels, None)
    witness = None if first is None else VertexSet.from_mask(digraph.vertex_count, first)
    count = (first is not None) + sum(1 for _ in kernels) if count_all else None
    return KernelReport(exists=first is not None, witness=witness, count=count)


def kernel_exists_masks(full: int, in_masks: list[int], candidates) -> bool:
    """Existence-only kernel oracle on raw masks; the hot path for the
    orientation sweeps.

    Whether some candidate absorbs every vertex outside it.  Each
    candidate is a (mask, members) pair, `members` the vertices of `mask`
    in any order.  With every maximal independent set of the digraph's
    underlying graph as `candidates` that is whether a kernel exists; with
    some of them, a yes still names a kernel.
    """
    # plain loops: a generator under any(), or a call per candidate, costs
    # more than the test itself
    for s, members in candidates:
        for x in members:
            s |= in_masks[x]
        if s == full:
            return True
    return False


def enumerate_kernels(digraph: Digraph, cap: int = DEFAULT_VERTEX_CAP) -> list[VertexSet]:
    """All kernels, in lexicographic order of their sorted member tuples."""
    n = digraph.vertex_count
    return [VertexSet.from_mask(n, mask) for mask in _kernel_masks(digraph, cap)]


# -- clique-acyclicity ----------------------------------------------------


def all_clique_masks(
    n: int, adjacency: list[int], budget: int = DEFAULT_CLIQUE_BUDGET
) -> Iterator[int]:
    """Yield the mask of every clique of three or more vertices,
    lexicographically by sorted member tuple.

    Every clique enumerated, of any size, counts against `budget`; going
    past it raises SizeCapError.
    """
    for count, mask in enumerate(_lex_sets(n, adjacency), 1):
        if count > budget:
            raise SizeCapError(f"clique enumeration exceeded its budget of {budget}")
        if mask.bit_count() >= 3:
            yield mask


def is_clique_acyclic(obj, budget: int = DEFAULT_CLIQUE_BUDGET) -> PredicateReport:
    """Every clique must contain a vertex receiving an arc from all other
    clique members.

    Accepts a Digraph or an Orientation.  Adjacency means at least one arc
    in either direction.  All cliques are examined, not only maximal ones:
    the dominated vertex of a clique need not dominate any sub-clique.
    Cliques of size one or two always qualify, so only size three and up
    are tested, but every clique enumerated, of any size, counts against
    `budget`.
    """
    digraph = obj.to_digraph() if isinstance(obj, Orientation) else obj
    inn = digraph._in
    for mask in all_clique_masks(digraph.vertex_count, _adjacency(digraph), budget):
        if not any(mask & ~inn[x] == 1 << x for x in bits_of(mask)):
            return PredicateReport(holds=False, witness=tuple(bits_of(mask)))
    return PredicateReport(holds=True)


def is_M_clique_acyclic(digraph: Digraph) -> PredicateReport:
    """Every directed cycle of length three must have at least two
    reversible arcs; the witness is the first offending cycle (a, b, c)."""
    witness = _first_weak_triangle(digraph._out, digraph._in)
    return PredicateReport(holds=witness is None, witness=witness)


def _first_weak_triangle(
    out: list[int], inn: list[int], start: int = 0, second: int = 0
) -> Optional[tuple[int, int, int]]:
    """Least directed triangle (a, b, c), a its least vertex, with fewer
    than two reversible arcs, among those with (a, b) >= (`start`,
    `second`); the order is lexicographic on (a, b, c)."""
    below = (1 << second) - 1
    for a in range(start, len(out)):
        higher = ~((1 << (a + 1)) - 1)
        for b in bits_of(out[a] & higher & ~below):
            closing = out[b] & inn[a] & higher
            if (inn[a] >> b) & 1:
                # a <-> b is reversible: c needs a second one
                weak = closing & ~inn[b] & ~out[a]
            else:
                weak = closing & ~(inn[b] & out[a])
            if weak:
                return (a, b, (weak & -weak).bit_length() - 1)
        below = 0
    return None
