"""Exact brute-force ground truth for kernels, semi-kernels and
clique-acyclicity, plus the semi-kernel-recursion kernel constructor.

Kernel search walks maximal independent sets rather than all subsets:
absorption forces every kernel to be a maximal independent set, which
raises the practical size cap far above 2^n scanning.  All witnesses are
selected lexicographically (least sorted member tuple first) so golden
tests stay reproducible.

The orientation sweeps use `kernel_exists_masks`.  Every orientation of a
base graph, simple or with reversible edges, has that graph as its
underlying graph, so the kernel candidates are the base graph's maximal
independent sets: the sweep computes that fixed list once per run and
tests against it the in-neighbour masks its search keeps along the path,
so a leaf costs no mask rebuild.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .digraph import (
    Digraph,
    Orientation,
    VertexSet,
    bits_of,
    is_kernel,
    is_semi_kernel,
    union_of,
)
from .errors import ContractError, SemiKernelRecursionError, SizeCapError

__all__ = [
    "DEFAULT_VERTEX_CAP",
    "DEFAULT_CLIQUE_BUDGET",
    "KernelReport",
    "PredicateReport",
    "find_kernel_bruteforce",
    "enumerate_kernels",
    "kernel_exists_masks",
    "find_nonempty_semi_kernel",
    "kernel_via_semikernel_recursion",
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


def maximal_independent_set_masks(n: int, adjacency: list[int]) -> Iterator[int]:
    """Yield bitmasks of all maximal independent sets, lexicographically by
    sorted member tuple (include-first backtracking order)."""
    if n == 0:
        yield 0
        return
    full = (1 << n) - 1

    def rec(v: int, chosen: int, pending: int) -> Iterator[int]:
        # pending holds excluded-but-free vertices not yet dominated by a
        # chosen neighbor; any that can never be dominated kills the branch.
        rest = full & ~((1 << v) - 1)
        for u in bits_of(pending):
            if not adjacency[u] & (chosen | rest):
                return
        if v == n:
            if pending == 0:
                yield chosen
            return
        if adjacency[v] & chosen:
            yield from rec(v + 1, chosen, pending)
            return
        yield from rec(v + 1, chosen | (1 << v), pending & ~adjacency[v])
        yield from rec(v + 1, chosen, pending | (1 << v))

    yield from rec(0, 0, 0)


def _adjacency(digraph: Digraph) -> list[int]:
    return [digraph._out[v] | digraph._in[v] for v in range(digraph.vertex_count)]


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
    n = digraph.vertex_count
    _check_cap(n, cap)
    full = (1 << n) - 1
    witness = None
    count = 0
    for mask in maximal_independent_set_masks(n, _adjacency(digraph)):
        if mask | union_of(digraph._in, mask) == full:
            count += 1
            if witness is None:
                witness = VertexSet.from_mask(n, mask)
                if not count_all:
                    return KernelReport(exists=True, witness=witness)
    return KernelReport(
        exists=witness is not None,
        witness=witness,
        count=count if count_all else None,
    )


def kernel_exists_masks(full: int, in_masks: list[int], candidates) -> bool:
    """Existence-only kernel oracle on raw masks; the hot path for the
    orientation sweeps.

    `candidates` must hold every maximal independent set of the digraph's
    underlying graph; a candidate is a kernel iff it absorbs the rest.
    """
    return any(s | union_of(in_masks, s) == full for s in candidates)


def enumerate_kernels(digraph: Digraph, cap: int = DEFAULT_VERTEX_CAP) -> list[VertexSet]:
    """All kernels, in lexicographic order of their sorted member tuples."""
    n = digraph.vertex_count
    _check_cap(n, cap)
    full = (1 << n) - 1
    return [
        VertexSet.from_mask(n, mask)
        for mask in maximal_independent_set_masks(n, _adjacency(digraph))
        if mask | union_of(digraph._in, mask) == full
    ]


def _independent_set_masks_lex(n: int, adjacency: list[int]) -> Iterator[int]:
    """All non-empty independent sets, lexicographically by sorted tuple."""

    def rec(start: int, chosen: int) -> Iterator[int]:
        for v in range(start, n):
            if adjacency[v] & chosen:
                continue
            m = chosen | (1 << v)
            yield m
            yield from rec(v + 1, m)

    yield from rec(0, 0)


def find_nonempty_semi_kernel(
    digraph: Digraph, cap: int = DEFAULT_VERTEX_CAP
) -> Optional[VertexSet]:
    """Lexicographically least non-empty semi-kernel, or None if none exists."""
    n = digraph.vertex_count
    _check_cap(n, cap)
    for mask in _independent_set_masks_lex(n, _adjacency(digraph)):
        # an independent set reaches only outside vertices
        if not union_of(digraph._out, mask) & ~union_of(digraph._in, mask):
            return VertexSet.from_mask(n, mask)
    return None


def kernel_via_semikernel_recursion(
    digraph: Digraph,
    strategy: Optional[Callable[[Digraph], Optional[VertexSet]]] = None,
    cap: int = DEFAULT_VERTEX_CAP,
) -> VertexSet:
    """Assemble a kernel from non-empty semi-kernels of shrinking subdigraphs.

    Each round asks `strategy` for a non-empty semi-kernel S of the current
    induced subdigraph, adds S to the kernel under construction, and
    removes S together with every vertex sending an arc into S.  If some
    round yields nothing, SemiKernelRecursionError carries the subdigraph
    that defeated the strategy.  The default strategy is the brute-force
    semi-kernel finder.
    """
    n = digraph.vertex_count
    if strategy is None:
        _check_cap(n, cap)
        strategy = find_nonempty_semi_kernel
    alive = (1 << n) - 1
    kernel_mask = 0
    while alive:
        sub, labels = digraph.induced(bits_of(alive))
        found = strategy(sub)
        if found is None or not found:
            raise SemiKernelRecursionError(sub, labels)
        if not is_semi_kernel(sub, found):
            raise ContractError(
                f"strategy returned {sorted(found)} which is not a semi-kernel "
                f"of the induced subdigraph on {labels}"
            )
        s_mask = sum(1 << labels[i] for i in found)
        kernel_mask |= s_mask
        alive &= ~(s_mask | union_of(digraph._in, s_mask))
    result = VertexSet.from_mask(n, kernel_mask)
    assert is_kernel(digraph, result)
    return result


# -- clique-acyclicity ----------------------------------------------------


def all_clique_masks(
    n: int,
    adjacency: list[int],
    min_size: int = 1,
    budget: int = DEFAULT_CLIQUE_BUDGET,
) -> Iterator[tuple[int, ...]]:
    """Yield every clique (as a sorted vertex tuple) of `min_size` or more.

    Cliques are extended in increasing vertex order, so the output is
    deterministic.  Exceeding `budget` enumerated cliques raises
    SizeCapError.
    """
    count = 0

    def extend(members: list[int], candidates: int) -> Iterator[tuple[int, ...]]:
        nonlocal count
        for v in bits_of(candidates):
            count += 1
            if count > budget:
                raise SizeCapError(
                    f"clique enumeration exceeded its budget of {budget}"
                )
            members.append(v)
            if len(members) >= min_size:
                yield tuple(members)
            yield from extend(members, candidates & adjacency[v] & ~((1 << (v + 1)) - 1))
            members.pop()

    yield from extend([], (1 << n) - 1)


def is_clique_acyclic(obj, budget: int = DEFAULT_CLIQUE_BUDGET) -> PredicateReport:
    """Every clique must contain a vertex receiving an arc from all other
    clique members.

    Accepts a Digraph or an Orientation.  Adjacency means at least one arc
    in either direction.  All cliques are examined, not only maximal ones:
    the dominated vertex of a clique need not dominate any sub-clique.
    Cliques of size one or two always qualify, so only size three and up
    are enumerated (and counted against `budget`).
    """
    digraph = obj.to_digraph() if isinstance(obj, Orientation) else obj
    n = digraph.vertex_count
    adjacency = _adjacency(digraph)
    inn = digraph._in
    for clique in all_clique_masks(n, adjacency, min_size=3, budget=budget):
        mask = 0
        for v in clique:
            mask |= 1 << v
        if not any(mask & ~inn[x] == (1 << x) for x in clique):
            return PredicateReport(holds=False, witness=clique)
    return PredicateReport(holds=True)


def is_M_clique_acyclic(digraph: Digraph) -> PredicateReport:
    """Every directed cycle of length three must have at least two
    reversible arcs; the witness is the first offending cycle (a, b, c)."""
    witness = _first_weak_triangle(digraph._out, digraph._in)
    return PredicateReport(holds=witness is None, witness=witness)


def _first_weak_triangle(
    out: list[int], inn: list[int], start: int = 0
) -> Optional[tuple[int, int, int]]:
    """Least directed triangle (a, b, c), a its least vertex, with fewer
    than two reversible arcs, among those with a >= `start`; the order is
    lexicographic on (a, b, c)."""
    for a in range(start, len(out)):
        higher = ~((1 << (a + 1)) - 1)
        for b in bits_of(out[a] & higher):
            closing = out[b] & inn[a] & higher
            if (inn[a] >> b) & 1:
                # a <-> b is reversible: c needs a second one
                weak = closing & ~inn[b] & ~out[a]
            else:
                weak = closing & ~(inn[b] & out[a])
            if weak:
                return (a, b, (weak & -weak).bit_length() - 1)
    return None
