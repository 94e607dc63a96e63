"""Anti-hole generators, the seven-vertex counterexample orientation,
exhaustive enumeration of clique-acyclic orientations, and the solvability
verification machinery built on top of it.

One search core, `_leaves`, enumerates edge-direction assignments in
lexicographic digit order over the edges in (min, max) order.  It runs on
an explicit stack with one mask of digits still to try per edge, and
keeps the in- and out-neighbour masks of the partial orientation up to
date along the path.  Each clique is tested at its last edge, where every
other edge of it is decided, by a few mask operations on those masks: a
digit that would leave the clique without a vertex receiving arcs from
all the others is never tried.  The triangles closing at an edge are
tested together on the mask of their third vertices; in general mode a
larger clique is tested on its members' in-masks.  In simple mode the
triangles suffice: a tournament with no directed triangle is transitive,
so larger cliques then have such a vertex too.  No table is built, so
the cost of a clique does not grow with the patterns of its edges.  Each
leaf goes to the kernel oracle with the in-masks as they stand.

The kernel candidates are the base graph's maximal independent sets, the
same for every leaf, and once the last edge incident to a candidate is
decided, whether it absorbs the other vertices is fixed below.  So a
sweep without symmetry tests each candidate once, at the node that
decides its closing edge; where it absorbs, every leaf below has a
kernel, and the sweep adds the subtree's leaf count, a dynamic program
over the same clique tests memoised on the digits later tests still
read, instead of walking it.  Only the leaves no candidate certifies, or
a budget stop keeps from skipping, reach the kernel oracle.

Anti-hole runs can reduce by symmetry: the dihedral group of the n-cycle
acts on the edge-direction assignments of the n-vertex anti-hole, and only
the lexicographically least assignment of each orbit is emitted.  Each
comparison with a group image waits on a wake-up list for the edge whose
digit unblocks it, so a node resumes only the comparisons waiting on its
own edge instead of walking every image still tied.
Long runs split the search into tasks (the parallelism unit) at the live
prefixes of the pruned tree, 8 edges deep in simple mode and 4 in general
mode; in task order they give exactly the leaves of the whole run, so
counts and verdicts do not depend on the worker count.  The core can
start from any assignment by seeding its stack along it, so a checkpoint
records the first unexamined assignment and a resumed run continues from
exactly there.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Iterator, NamedTuple, Optional

from .digraph import (
    Digraph,
    EdgeDirection,
    Orientation,
    UndirectedGraph,
    bits_of,
)
from .errors import ContractError, InternalInvariantError, SizeCapError
from .oracle import (
    all_clique_masks,
    find_kernel_bruteforce,
    is_clique_acyclic,
    kernel_exists_masks,
    maximal_independent_set_masks,
)

__all__ = [
    "AntiholeLabeling",
    "SolvabilityVerdict",
    "SearchOutcome",
    "gen_antihole",
    "c7_counterexample",
    "enumerate_simple_clique_acyclic_orientations",
    "verify_kernel_solvable",
    "find_near_sink",
    "search_clique_acyclic_no_kernel",
    "dihedral_edge_actions",
    "orientation_digits",
    "digits_to_orientation",
    "canonical_digits",
    "orbit_digits",
    "canonical_orientation_key",
]

MAX_EDGES = 32
_DIGITS = (EdgeDirection.FORWARD, EdgeDirection.BACKWARD, EdgeDirection.BOTH)


@dataclass(frozen=True)
class AntiholeLabeling:
    """Canonical labeling of the complement of an n-cycle: vertex i is
    non-adjacent exactly to i-1 and i+1 (mod n)."""

    n: int

    def __post_init__(self):
        if self.n < 4:
            raise ContractError(f"anti-holes need at least 4 vertices, got {self.n}")

    def edges(self) -> list[tuple[int, int]]:
        n = self.n
        return sorted(
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if (j - i) % n not in (1, n - 1)
        )

    def graph(self) -> UndirectedGraph:
        return UndirectedGraph(self.n, self.edges())

    def vertex_maps(self) -> list[list[int]]:
        """The 2n dihedral symmetries of the labeling, identity first."""
        n = self.n
        maps = []
        for shift in range(n):
            maps.append([(i + shift) % n for i in range(n)])
        for shift in range(n):
            maps.append([(shift - i) % n for i in range(n)])
        return maps


def gen_antihole(n: int) -> tuple[UndirectedGraph, AntiholeLabeling]:
    """Complement of the n-cycle with its canonical labeling."""
    labeling = AntiholeLabeling(n)
    return labeling.graph(), labeling


def c7_counterexample() -> Digraph:
    """The simple clique-acyclic orientation of the 7-vertex anti-hole with
    no kernel: every vertex points at the vertices two and four ahead."""
    arcs = [(i, (i + 2) % 7) for i in range(7)] + [(i, (i + 4) % 7) for i in range(7)]
    digraph = Digraph(7, arcs)
    orientation = Orientation.from_digraph(AntiholeLabeling(7).graph(), digraph)
    assert orientation.is_simple
    assert is_clique_acyclic(digraph).holds
    assert not find_kernel_bruteforce(digraph).exists
    return digraph


# -- edge-direction assignments and the dihedral action ---------------------


def orientation_digits(orientation: Orientation, edges: list[tuple[int, int]]) -> tuple[int, ...]:
    return tuple(_DIGITS.index(orientation.assignment[e]) for e in edges)


def digits_to_orientation(
    digits: tuple[int, ...], base: UndirectedGraph, edges: list[tuple[int, int]]
) -> Orientation:
    return Orientation(base, {e: _DIGITS[d] for e, d in zip(edges, digits)})


def dihedral_edge_actions(labeling: AntiholeLabeling):
    """Per group element: (inverse edge permutation, direction flip) arrays.

    The image assignment y of x under an element is
    y[j] = x[inv[j]] ^ flip[j] for directed digits, with the reversible
    digit fixed.  The identity element is omitted.
    """
    edges = labeling.edges()
    eindex = {e: i for i, e in enumerate(edges)}
    actions = []
    for perm in labeling.vertex_maps():
        if perm == list(range(labeling.n)):
            continue
        inv = [0] * len(edges)
        flip = [0] * len(edges)
        for i, (u, v) in enumerate(edges):
            a, b = perm[u], perm[v]
            j = eindex[(min(a, b), max(a, b))]
            inv[j] = i
            flip[j] = 1 if a > b else 0
        actions.append((tuple(inv), tuple(flip)))
    return actions


def _apply_action(digits: tuple[int, ...], action) -> tuple[int, ...]:
    inv, flip = action
    return tuple(
        digits[inv[j]] if digits[inv[j]] == 2 else digits[inv[j]] ^ flip[j]
        for j in range(len(digits))
    )


def canonical_digits(digits: tuple[int, ...], actions) -> tuple[int, ...]:
    best = digits
    for action in actions:
        image = _apply_action(digits, action)
        if image < best:
            best = image
    return best


def orbit_digits(digits: tuple[int, ...], actions) -> set[tuple[int, ...]]:
    orbit = {digits}
    for action in actions:
        orbit.add(_apply_action(digits, action))
    return orbit


def canonical_orientation_key(orientation: Orientation) -> tuple[int, ...]:
    """Orbit representative of an anti-hole orientation under the dihedral
    group, as the lexicographically least edge-direction string."""
    labeling = AntiholeLabeling(orientation.base.vertex_count)
    edges = labeling.edges()
    if orientation.base != labeling.graph():
        raise ContractError("orientation does not live on the labeled anti-hole")
    return canonical_digits(orientation_digits(orientation, edges), dihedral_edge_actions(labeling))


# -- clique tests and the sweep core -----------------------------------------


def _clique_completions(graph: UndirectedGraph, num_values: int):
    """Per edge index e = (u, v): the cliques whose last edge it is, as
    (thirds, larger, others).  `thirds` masks the third vertices of the
    triangles closing at e; `larger` holds each clique of four or more
    vertices closing there as its mask and its members other than u and v;
    `others` holds the ids of those cliques' other edges, whose digits
    decide which digits e may take.

    In simple mode `larger` stays empty: a simple orientation of a clique
    is a tournament, and a tournament with no directed triangle is
    transitive, so it has a sink and the triangles decide every clique.
    """
    edges = graph.sorted_edges()
    eindex = {e: i for i, e in enumerate(edges)}
    n = graph.vertex_count
    adjacency = [graph.adjacency_mask(v) for v in range(n)]
    thirds = [0] * len(edges)
    larger: list[list] = [[] for _ in edges]
    others: list[set[int]] = [set() for _ in edges]
    for members in all_clique_masks(n, adjacency):
        clique = tuple(bits_of(members))
        if num_values == 2 and len(clique) > 3:
            continue
        *read, last = sorted(eindex[(a, b)] for a, b in combinations(clique, 2))
        u, v = edges[last]
        if len(clique) == 3:
            thirds[last] |= members & ~(1 << u | 1 << v)
        else:
            larger[last].append((members, tuple(x for x in clique if x not in (u, v))))
        others[last].update(read)
    completions = [
        (thirds[e], tuple(larger[e]), tuple(sorted(others[e]))) for e in range(len(edges))
    ]
    return edges, completions


def _live_digits(completion, u: int, v: int, inn, out, every_digit: int) -> int:
    """The digits edge (u, v) may take, its own arcs not yet in `inn` and
    `out`: those that leave each clique closing at it a vertex receiving
    arcs from all the others.

    Every other edge of such a clique is decided, so a member x other than
    u and v either receives from all the others already, which settles
    the clique, or never will.  Else u must become that vertex, which
    takes an arc v -> u (digit 1 or 2), or v must, which takes u -> v
    (digit 0 or 2).  For a triangle with third vertex w that reads: w in
    both out-masks settles it, and otherwise digit 0 needs w in inn[v],
    digit 1 needs w in inn[u] and digit 2 either; `thirds` tests all the
    triangles at once.
    """
    thirds, larger, _ = completion
    digits = every_digit
    bad = thirds & ~(out[u] & out[v])
    if bad & ~inn[v]:
        digits &= ~1
    if bad & ~inn[u]:
        digits &= ~2
    if bad & ~inn[u] & ~inn[v]:
        digits &= ~4
    uv = 1 << u | 1 << v
    for members, rest in larger:
        for x in rest:
            if members & ~inn[x] == 1 << x:
                break
        else:
            live = 0
            if members & ~inn[u] == uv:
                live |= 6
            if members & ~inn[v] == uv:
                live |= 5
            digits &= live
    return digits


def _leaves(
    n: int, edges, completions, num_values: int, start=(), fixed: int = 0, actions=None,
    prune=None,
) -> Iterator[tuple[list[int], list[int]]]:
    """Yield the accepted assignments in lexicographic digit order as the
    live (digits, in-neighbour masks) lists of the search, which a consumer
    copies to keep.  `pending[e]` holds the digits still to try at edge e;
    `inn` and `out` hold the arcs of the edges assigned so far.

    It yields the whole run's leaves from `start` on that share its first
    `fixed` digits, the stack seeded along `start` with the digits above
    start[e] pending past `fixed`; a `start` the clique tests or the
    symmetry prune reject raises ContractError at the call.

    With `actions`, the assignment is compared with each group image and
    pruned once an image is provably smaller; at the last edge the
    comparison covers the whole assignment, so exactly one representative
    per orbit, the lexicographically least, survives.  A comparison that
    ties up to position j is blocked until edge w = max(j, inv[j]) is
    assigned, and waits in `wait[w]`; a node at edge e resumes only
    `wait[e]`, and each entry prunes the node, drops out (its image is
    larger) or moves to a later list.  A comparison blocked at or past the
    last edge never resumes, so it is not queued: `edges` may be a prefix
    of the edges the actions permute.  The moves go on the `moved` trail,
    and the next node at edge e first takes back, last first, every move
    made since `marks[e]`, the trail's length when its parent was done;
    a sibling digit re-reads the untouched `wait[e]`.

    `prune` holds one subtree-prune hook or None per edge: `prune[e](e,
    assign, inn, out)` is called once a walk node has assigned edge e,
    never along the seeded `start` path, whose subtrees hold leaves before
    `start`; a positive return skips the node's subtree.
    """
    m = len(edges)
    assign = [0] * m
    inn = [0] * n
    out = [0] * n
    every_digit = (1 << num_values) - 1
    pending = [0] * m
    wait: list[list] = [[] for _ in range(m)]
    for inv, flip in actions or ():
        if inv[0] < m:
            wait[inv[0]].append((inv, flip, 0))
    moved: list[int] = []
    marks = [0] * (m + 1)
    ends = [(u, v, 1 << u, 1 << v) for u, v in edges]
    thirds = [completion[0] for completion in completions]
    larger = [completion[1] for completion in completions]

    def symmetric_prune(e: int) -> bool:
        # the moves of the previous node at e and of its subtree
        mark = marks[e]
        while len(moved) > mark:
            wait[moved.pop()].pop()
        for inv, flip, j in wait[e]:
            # positions below j tie; compare on while both sides are known
            while True:
                y = assign[inv[j]]
                if y != 2:
                    y ^= flip[j]
                x = assign[j]
                if x != y:
                    if x > y:
                        return True
                    break
                j += 1
                if j == m:
                    break
                i = inv[j]
                w = i if i > j else j
                if w > e:
                    if w < m:
                        wait[w].append((inv, flip, j))
                        moved.append(w)
                    break
        marks[e + 1] = len(moved)
        return False

    for e, digit in enumerate(start):
        if e < m:
            u, v, bu, bv = ends[e]
            digits = _live_digits(completions[e], u, v, inn, out, every_digit)
        else:
            digits = 0
        if digit not in range(num_values) or not digits >> digit & 1:
            raise ContractError(f"start {list(start)} is not a live path at edge {e}")
        pending[e] = digits & -(2 << digit) if e >= fixed else 0
        assign[e] = digit
        if digit != 1:
            inn[v] |= bu
            out[u] |= bv
        if digit != 0:
            inn[u] |= bv
            out[v] |= bu
        if actions is not None and symmetric_prune(e):
            raise ContractError(f"start {list(start)} is not a live path at edge {e}")

    def walk():
        e = len(start)
        if e < m:
            u, v = edges[e]
            pending[e] = _live_digits(completions[e], u, v, inn, out, every_digit)
        else:
            yield assign, inn
            e -= 1
        while e >= 0:
            # the previous digit at e, if any, leaves the masks
            u, v, bu, bv = ends[e]
            inn[v] &= ~bu
            inn[u] &= ~bv
            out[u] &= ~bv
            out[v] &= ~bu
            digits = pending[e]
            if not digits:
                e -= 1
                continue
            digit = (digits & -digits).bit_length() - 1
            pending[e] = digits & (digits - 1)
            assign[e] = digit
            if digit != 1:
                inn[v] |= bu
                out[u] |= bv
            if digit != 0:
                inn[u] |= bv
                out[v] |= bu
            if actions is not None and symmetric_prune(e):
                continue
            if prune is not None:
                hook = prune[e]
                if hook is not None and hook(e, assign, inn, out):
                    continue
            if e + 1 == m:
                yield assign, inn
                continue
            e += 1
            # `_live_digits` inlined for the triangles: the hottest lines
            # of a sweep
            digits = every_digit
            bad = thirds[e]
            if larger[e]:
                u, v = edges[e]
                digits = _live_digits(completions[e], u, v, inn, out, every_digit)
            elif bad:
                u, v = edges[e]
                bad &= ~(out[u] & out[v])
                if bad:
                    dead_0 = bad & ~inn[v]
                    dead_1 = bad & ~inn[u]
                    if dead_0 & dead_1:
                        digits = 0
                    else:
                        if dead_0:
                            digits &= 6
                        if dead_1:
                            digits &= 5
            pending[e] = digits

    return walk()


def _check_sweep_input(graph: UndirectedGraph, symmetry_reduction: bool) -> None:
    if len(graph.edges) > MAX_EDGES:
        raise SizeCapError(
            f"{len(graph.edges)} edges exceed the enumeration cap of {MAX_EDGES}"
        )
    n = graph.vertex_count
    if symmetry_reduction and AntiholeLabeling(n).graph() != graph:
        raise ContractError(f"symmetry reduction needs the {n}-vertex anti-hole")


def enumerate_simple_clique_acyclic_orientations(
    graph: UndirectedGraph,
    symmetry_reduction: bool = False,
    prefix: tuple[int, ...] = (),
) -> Iterator[Orientation]:
    """Stream every simple clique-acyclic orientation of `graph`.

    `prefix` restricts the run to one subtree of the search tree; a prefix
    the clique tests or the symmetry prune reject raises ContractError.
    Symmetry reduction needs `graph` to be the n-vertex anti-hole and
    emits one orientation per dihedral orbit.
    """
    _check_sweep_input(graph, symmetry_reduction)
    n = graph.vertex_count
    actions = dihedral_edge_actions(AntiholeLabeling(n)) if symmetry_reduction else None
    edges, completions = _clique_completions(graph, 2)
    for digits, _ in _leaves(n, edges, completions, 2, prefix, len(prefix), actions):
        yield digits_to_orientation(digits, graph, edges)


# -- solvability verification ------------------------------------------------


@dataclass(frozen=True)
class SolvabilityVerdict:
    graph_id: str
    mode: str
    verdict: str  # "solvable" | "counterexample" | "exhausted_budget"
    counterexample: Optional[Orientation]
    orientations_examined: int
    elapsed_seconds: float

    def to_json_obj(self) -> dict:
        from .io import to_json_obj

        obj = {
            "graph": self.graph_id,
            "mode": self.mode,
            "verdict": self.verdict,
            "orientations_examined": self.orientations_examined,
            "elapsed_ms": int(self.elapsed_seconds * 1000),
        }
        if self.counterexample is not None:
            obj["counterexample"] = to_json_obj(self.counterexample)
        return obj


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # "witness" | "exhausted" | "unknown"
    orientation: Optional[Orientation]
    orientations_examined: int


def _graph_key(n: int, edges, mode: str, symmetry: bool) -> str:
    payload = repr((n, tuple(edges), mode, symmetry)).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


class _SweepTables(NamedTuple):
    """What every prefix task of a sweep shares.

    `candidates` are the kernel candidates as (mask, members) pairs,
    `actions` the symmetry actions (None without symmetry).  `closing[e]`
    holds the candidates whose last incident edge is e: once e is decided,
    whether one absorbs is fixed for every leaf below.  `frontier[e]`
    holds the edges below e whose digits a clique test at or past e reads,
    with packing weights: their digits decide how many leaves lie below a
    node at edge e.
    """

    completions: list
    candidates: tuple[tuple[int, tuple[int, ...]], ...]
    actions: Optional[list]
    closing: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]
    frontier: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


def _sweep_tables(graph: UndirectedGraph, num_values: int, symmetry: bool) -> _SweepTables:
    """Build the tables once per sweep, for every task to share."""
    n = graph.vertex_count
    edges, completions = _clique_completions(graph, num_values)
    # every leaf orients `graph`, so its maximal independent sets are the
    # kernel candidates of every leaf
    candidates = tuple(
        (s, tuple(bits_of(s)))
        for s in maximal_independent_set_masks(n, [graph.adjacency_mask(v) for v in range(n)])
    )
    actions = dihedral_edge_actions(AntiholeLabeling(n)) if symmetry else None
    closing: list[list] = [[] for _ in edges]
    for candidate in candidates:
        s = candidate[0]
        incident = [e for e, (u, v) in enumerate(edges) if (s >> u | s >> v) & 1]
        if incident:
            closing[incident[-1]].append(candidate)
    last_read = [-1] * len(edges)
    for e, (_, _, others) in enumerate(completions):
        for eid in others:
            last_read[eid] = e
    frontier = []
    for e in range(len(edges) + 1):
        eids = tuple(eid for eid in range(e) if last_read[eid] >= e)
        frontier.append((eids, tuple(num_values**eid for eid in eids)))
    return _SweepTables(
        completions, candidates, actions, tuple(map(tuple, closing)), tuple(frontier)
    )


def _subtree_counter(edges, completions, frontier, num_values: int):
    """`count(assign, inn, out, e)`: the number of leaves that share the
    first e digits of `assign`, whose arcs `inn` and `out` hold, by a
    dynamic program over the clique tests memoised on (edge, frontier
    digits); the memo and the work lists live with the counter."""
    m = len(completions)
    every_digit = (1 << num_values) - 1
    memo: list[dict[int, int]] = [{} for _ in range(m)] + [{0: 1}]
    # the key of a child of a node at edge f is the node's key less the
    # frontier edges no test past f reads, plus f's own digit if one does
    step = []
    drops = []
    for f in range(m):
        kept = frontier[f + 1][0]
        step.append(num_values**f if f in kept else 0)
        drops.append(tuple((eid, w) for eid, w in zip(*frontier[f]) if eid not in kept))
    ends = [(u, v, 1 << u, 1 << v) for u, v in edges]
    thirds = [completion[0] for completion in completions]
    larger = [completion[1] for completion in completions]
    work: list[int] = []
    inn: list[int] = []
    out: list[int] = []
    keys = [0] * m
    bases = [0] * m
    totals = [0] * m
    pending: list = [None] * m

    def count(assign, in_masks, out_masks, e: int) -> int:
        eids, weights = frontier[e]
        top = 0
        for eid, weight in zip(eids, weights):
            top += assign[eid] * weight
        known = memo[e].get(top)
        if known is not None:
            return known
        work[:] = assign
        inn[:] = in_masks
        out[:] = out_masks
        keys[e] = top
        pending[e] = None
        f = e
        while True:
            u, v, bu, bv = ends[f]
            digits = pending[f]
            if digits is None:
                # `_live_digits` inlined for the triangles, as in `_leaves`
                digits = every_digit
                bad = thirds[f]
                if larger[f]:
                    digits = _live_digits(completions[f], u, v, inn, out, every_digit)
                elif bad:
                    bad &= ~(out[u] & out[v])
                    if bad:
                        dead_0 = bad & ~inn[v]
                        dead_1 = bad & ~inn[u]
                        if dead_0 & dead_1:
                            digits = 0
                        else:
                            if dead_0:
                                digits &= 6
                            if dead_1:
                                digits &= 5
                base = keys[f]
                for eid, weight in drops[f]:
                    base -= work[eid] * weight
                bases[f] = base
                totals[f] = 0
            else:
                # the previous digit at f, if it was descended into,
                # leaves the masks
                inn[v] &= ~bu
                inn[u] &= ~bv
                out[u] &= ~bv
                out[v] &= ~bu
            if not digits:
                memo[f][keys[f]] = totals[f]
                if f == e:
                    return totals[e]
                f -= 1
                totals[f] += totals[f + 1]
                continue
            low = digits & -digits
            pending[f] = digits ^ low
            digit = low.bit_length() - 1
            work[f] = digit
            child = bases[f] + digit * step[f]
            known = memo[f + 1].get(child)
            if known is not None:
                totals[f] += known
                continue
            if digit != 1:
                inn[v] |= bu
                out[u] |= bv
            if digit != 0:
                inn[u] |= bv
                out[v] |= bu
            f += 1
            keys[f] = child
            pending[f] = None

    return count


def _live_prefixes(n: int, edges, num_values: int, tables, depth: int) -> list[tuple[int, ...]]:
    """The accepted assignments of the first `depth` edges, in order: a
    prefix the clique tests or the symmetry prune kill never becomes a
    task."""
    completions, actions = tables.completions, tables.actions
    return [
        tuple(digits)
        for digits, _ in _leaves(
            n, edges[:depth], completions[:depth], num_values, actions=actions
        )
    ]


def _verify_task(args) -> tuple[int, Optional[tuple[int, ...]], bool]:
    """Enumerate one prefix subtree from `start`, whose first `depth` digits
    pin it; returns (examined, stop, kernel_free), where `stop` is None once
    the subtree is done, else the kernel-free assignment or, at a budget
    stop, the first unexamined one.  Without symmetry, `certify` counts
    the subtree below a node where a candidate closing there absorbs,
    unless that would overrun the budget, and the core skips it."""
    n, edges, num_values, tables, start, depth, leaf_budget = args
    completions, candidates, actions, closing, frontier = tables
    full = (1 << n) - 1
    examined = 0
    hooks = None
    if actions is None:
        count = _subtree_counter(edges, completions, frontier, num_values)
        last = len(edges) - 1

        def certify(e: int, assign, inn, out) -> int:
            nonlocal examined
            if kernel_exists_masks(full, inn, closing[e]):
                leaves = 1 if e == last else count(assign, inn, out, e + 1)
                if leaf_budget is None or examined + leaves <= leaf_budget:
                    examined += leaves
                    return leaves
            return 0

        hooks = [certify if closed else None for closed in closing]

    for digits, inn in _leaves(
        n, edges, completions, num_values, start, depth, actions, hooks
    ):
        if leaf_budget is not None and examined >= leaf_budget:
            return examined, tuple(digits), False
        examined += 1
        if not kernel_exists_masks(full, inn, candidates):
            return examined, tuple(digits), True
    return examined, None, False


def _load_checkpoint(
    path: Optional[Path], signature: str, edge_count: int, depth: int, num_values: int
) -> Optional[dict]:
    """The checkpoint's state with its digit lists as tuples: `next` is a
    task prefix or a whole assignment, the counterexample a whole one."""
    if path is None or not path.exists():
        return None
    try:
        state = json.loads(path.read_text())
    except ValueError as exc:
        raise ContractError(f"checkpoint {path} is not valid JSON ({exc})") from None
    if not isinstance(state, dict):
        raise ContractError(f"checkpoint {path} does not hold a JSON object")
    if state.get("signature") != signature:
        raise ContractError(
            f"checkpoint {path} belongs to a different run "
            f"(signature {state.get('signature')!r}, expected {signature!r})"
        )

    def check(key: str, fits, wanted: str):
        value = state.get(key, "missing")
        if not fits(value):
            raise ContractError(
                f"checkpoint {path} is corrupt: {key} is {value!r}, expected {wanted}"
            )
        return value

    check("examined", lambda v: type(v) is int and v >= 0, "a non-negative integer")
    check("elapsed_seconds", lambda v: type(v) in (int, float) and 0 <= v < math.inf,
          "a non-negative number")
    for key, lengths in (("next", {depth, edge_count}), ("counterexample", {edge_count})):
        digits = check(key, lambda v: v is None or (
            isinstance(v, list)
            and len(v) in lengths
            and all(type(d) is int and 0 <= d < num_values for d in v)
        ), f"null or {' or '.join(map(str, sorted(lengths)))} digits below {num_values}")
        state[key] = None if digits is None else tuple(digits)
    return state


# the edges a task's prefix pins: a deeper split balances the workers
# better but pays a prefix walk and a fresh search core per task
TASK_DEPTH = {"simple": 8, "general": 4}


def verify_kernel_solvable(
    graph: UndirectedGraph,
    mode: str = "simple",
    symmetry_reduction: bool = False,
    jobs: int = 1,
    budget: Optional[int] = None,
    checkpoint: Optional[str] = None,
    graph_id: str = "graph",
) -> SolvabilityVerdict:
    """Run the kernel oracle over every (simple) clique-acyclic orientation.

    Returns the first kernel-free orientation in enumeration order as a
    counterexample, or `solvable` after exhaustion.  The run is split into
    tasks at the live prefixes of the first `TASK_DEPTH[mode]` edges, which
    share clique tests and kernel candidates built once per call; `jobs`
    workers, never more than the tasks left, process them, results are
    consumed in task order, so counts
    and the verdict are identical for any worker count.  Without symmetry
    each kernel candidate is tested at the node that decides its closing
    edge, and a subtree in which it absorbs is counted, not walked; every
    leaf still reached goes to the full oracle.  `budget` caps the
    number of orientations examined and is tested before each one; a
    counted subtree that would overrun it is walked instead (budgeted runs
    execute sequentially).  `checkpoint` names a JSON file
    updated after each task and at a budget stop, whose `next` holds the
    first unexamined orientation (or the next task's prefix), where a
    resumed run continues.  `symmetry_reduction` needs `graph` to be the
    n-vertex anti-hole and examines one orientation per dihedral orbit.
    """
    if mode not in ("simple", "general"):
        raise ContractError(f"unknown mode {mode!r}")
    _check_sweep_input(graph, symmetry_reduction)
    num_values = 2 if mode == "simple" else 3
    edges = tuple(graph.sorted_edges())
    n = graph.vertex_count
    depth = min(TASK_DEPTH[mode], len(edges))
    tables = _sweep_tables(graph, num_values, symmetry_reduction)
    tasks = _live_prefixes(n, edges, num_values, tables, depth)
    signature = _graph_key(n, edges, mode, symmetry_reduction)

    checkpoint_path = Path(checkpoint) if checkpoint else None
    state = _load_checkpoint(checkpoint_path, signature, len(edges), depth, num_values) or {
        "next": tasks[0], "examined": 0, "elapsed_seconds": 0.0, "counterexample": None
    }
    total, elapsed_before, cursor = state["examined"], state["elapsed_seconds"], state["next"]
    if state["counterexample"] is not None:
        return _verdict_from_digits(
            graph, edges, mode, state["counterexample"], total, elapsed_before, graph_id
        )
    if cursor is None:
        return SolvabilityVerdict(graph_id, mode, "solvable", None, total, elapsed_before)
    completions, actions = tables.completions, tables.actions
    try:
        _leaves(n, edges, completions, num_values, cursor, depth, actions)
    except ContractError as exc:
        raise ContractError(f"checkpoint {checkpoint_path} is corrupt: next ({exc})") from None
    # the core accepted the cursor, so its first `depth` digits are a live
    # prefix: one of the tasks
    first_task = bisect_left(tasks, cursor[:depth])

    started = time.monotonic()

    def save_checkpoint(resume_at, count: int, counterexample=None) -> None:
        if checkpoint_path is None:
            return
        # a crash mid-write must leave the previous checkpoint intact
        partial = checkpoint_path.with_name(checkpoint_path.name + ".tmp")
        partial.write_text(json.dumps({
            "signature": signature,
            "next": None if resume_at is None else list(resume_at),
            "examined": count,
            "elapsed_seconds": elapsed_before + time.monotonic() - started,
            "counterexample": list(counterexample) if counterexample else None,
        }))
        os.replace(partial, checkpoint_path)

    workers = 1 if budget is not None else min(jobs, len(tasks) - first_task)

    def task_args(index: int):
        # read when the task starts, so it sees the budget earlier tasks left
        remaining = None if budget is None else budget - total
        start = cursor if index == first_task else tasks[index]
        return (n, edges, num_values, tables, start, depth, remaining)

    args = (task_args(index) for index in range(first_task, len(tasks)))
    # after task i the next unexamined orientation is in task i + 1
    following = tasks[1:] + [None]
    pool = None
    if workers > 1:
        import multiprocessing

        pool = multiprocessing.Pool(processes=workers)
    stop = None
    try:
        results = map(_verify_task, args) if pool is None else pool.imap(_verify_task, args)
        for index, (task_examined, digits, kernel_free) in enumerate(results, first_task):
            total += task_examined
            if digits is not None:
                stop = digits, kernel_free
                break
            save_checkpoint(following[index], total)
    finally:
        if pool is not None:
            pool.terminate()

    elapsed = elapsed_before + time.monotonic() - started
    if stop is None:
        return SolvabilityVerdict(graph_id, mode, "solvable", None, total, elapsed)
    digits, kernel_free = stop
    if kernel_free:
        save_checkpoint(None, total, digits)
        return _verdict_from_digits(graph, edges, mode, digits, total, elapsed, graph_id)
    save_checkpoint(digits, total)
    return SolvabilityVerdict(graph_id, mode, "exhausted_budget", None, total, elapsed)


def _verdict_from_digits(
    graph, edges, mode, digits, examined, elapsed, graph_id
) -> SolvabilityVerdict:
    orientation = digits_to_orientation(digits, graph, list(edges))
    digraph = orientation.to_digraph()
    if mode == "simple" and not orientation.is_simple:
        raise InternalInvariantError("counterexample is not simple")
    if not is_clique_acyclic(digraph).holds:
        raise InternalInvariantError("counterexample is not clique-acyclic")
    if find_kernel_bruteforce(digraph).exists:
        raise InternalInvariantError("counterexample has a kernel")
    return SolvabilityVerdict(
        graph_id, mode, "counterexample", orientation, examined, elapsed
    )


def search_clique_acyclic_no_kernel(
    graph: UndirectedGraph, budget: Optional[int] = None
) -> SearchOutcome:
    """Hunt for a clique-acyclic orientation (reversible edges allowed)
    without a kernel: the general-mode sweep of `verify_kernel_solvable`.

    Edge values are tried reversible-last, so simple witnesses surface
    first where they exist.  Exhaustion without a witness certifies that
    the graph is kernel-solvable; running out of budget is reported as an
    explicitly unknown outcome.
    """
    verdict = verify_kernel_solvable(graph, mode="general", budget=budget)
    status = {
        "counterexample": "witness",
        "solvable": "exhausted",
        "exhausted_budget": "unknown",
    }[verdict.verdict]
    return SearchOutcome(status, verdict.counterexample, verdict.orientations_examined)


def find_near_sink(orientation: Orientation) -> int:
    """Least vertex of an anti-hole orientation whose two distance-two
    edges both point at it.

    Requires a simple clique-acyclic orientation of an odd anti-hole on at
    least nine vertices; such a vertex always exists there, so not finding
    one is an internal invariant violation, not an input error.
    """
    n = orientation.base.vertex_count
    if AntiholeLabeling(n).graph() != orientation.base:
        raise ContractError("orientation does not live on the labeled anti-hole")
    if n < 9 or n % 2 == 0:
        raise ContractError(
            f"the two-steps-inward argument needs an odd anti-hole with at "
            f"least 9 vertices, got {n}"
        )
    if not orientation.is_simple:
        raise ContractError("orientation is not simple")
    digraph = orientation.to_digraph()
    verdict = is_clique_acyclic(digraph)
    if not verdict.holds:
        raise ContractError(
            f"orientation is not clique-acyclic (clique {verdict.witness})"
        )
    for i in range(n):
        if digraph.has_arc((i - 2) % n, i) and digraph.has_arc((i + 2) % n, i):
            return i
    raise InternalInvariantError(
        "no vertex receives both distance-two edges: clique-acyclicity "
        "should force one"
    )
