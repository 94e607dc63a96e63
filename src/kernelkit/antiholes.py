"""Anti-hole generators, the seven-vertex counterexample orientation,
exhaustive enumeration of clique-acyclic orientations, and the solvability
verification machinery built on top of it.

One walk, `_walk`, serves enumeration, the task list and every sweep.
It visits edge-direction assignments in lexicographic digit order over
the edges in (min, max) order, on an explicit stack with one mask of
digits still to try per edge, and keeps the in- and out-neighbour masks
of the partial orientation up to date along the path.  A node's state is
one int that holds only what its subtree depends on: the digits of the
decided edges of each clique not yet down to its last open edge, the
digits each edge to come may no longer take, and, when the sweep carries
kernel candidates, per candidate the vertices outside it that nothing
absorbs yet.  Each clique is tested once, as soon as its second-to-last
edge is decided, by a few mask operations that pick its last edge's
dead digits from one table: a triangle's on the in- and out-masks, a
larger clique's (general mode) on its members' in-masks.  So a digit
that would leave a clique without a vertex receiving arcs from all the
others is never tried, and a node that leaves a later edge no digit is
dropped at once (a forward check).  In simple mode the triangles
suffice: a tournament with no directed triangle is transitive, so larger
cliques then have such a vertex too.

The kernel candidates are the base graph's maximal independent sets, the
same for every leaf.  Without symmetry the state carries them: a
candidate is dead once one of its unabsorbed outside vertices has every
edge to it decided, and once one candidate absorbs everything, every leaf
below has a kernel.  The walk then counts a finished node once per state
in one memo per process, which its prefix tasks share.  Between tasks
it drops the depths whose states still hold a digit the task's prefix
pins, which the next tasks almost never meet, and keeps the deeper ones
up to a fixed number of entries.  It yields only a leaf
where every candidate is dead, which the kernel oracle confirms, and
descends into a counted node only where the budget ends inside it, so
every count, witness and budget stop is leaf-exact.  Under symmetry the
state carries no candidates and the oracle decides each representative:
the candidate fields would cost the walk more than the oracle costs.

Anti-hole runs can reduce by symmetry: the dihedral group of the n-cycle
acts on the edge-direction assignments of the n-vertex anti-hole, and only
the lexicographically least assignment of each orbit is emitted.  Each
comparison with a group image reads an edge's digit once the edge is
assigned or once the forward check leaves it one, and waits on a wake-up
list for the first edge that can settle it, so a node resumes only the
comparisons waiting on its own edge instead of walking every image still
tied.
Long runs split the search into tasks (the parallelism unit) at the live
prefixes of the pruned tree, 8 edges deep in simple mode and 4 in general
mode, and one task loop, `_Sweep.run`, runs them for every sweep pass; in
task order they give exactly the leaves of the whole run, so counts and
verdicts do not depend on the worker count.  The walk can start from any
assignment by following its digits down from the root, so a checkpoint
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
from typing import Generator, Iterator, NamedTuple, Optional

from .digraph import (
    Digraph,
    EdgeDirection,
    Orientation,
    UndirectedGraph,
    bits_of,
)
from .errors import ContractError, InternalInvariantError, SizeCapError
from .oracle import (
    DEFAULT_VERTEX_CAP,
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


def _is_antihole(graph: UndirectedGraph) -> bool:
    """Whether `graph` is the labeled anti-hole.  The edge count
    n(n - 3)/2 is compared first, so most other graphs are told apart
    before an anti-hole is built."""
    n = graph.vertex_count
    return n >= 4 and len(graph.edges) == n * (n - 3) // 2 and AntiholeLabeling(n).graph() == graph


def _labeling_of(graph: UndirectedGraph, message: str) -> AntiholeLabeling:
    """The labeling of `graph` if it is the labeled anti-hole, else
    ContractError(message)."""
    if not _is_antihole(graph):
        raise ContractError(message)
    return AntiholeLabeling(graph.vertex_count)


def c7_counterexample() -> Digraph:
    """The simple clique-acyclic orientation of the 7-vertex anti-hole with
    no kernel: every vertex points at the vertices two and four ahead."""
    arcs = [(i, (i + 2) % 7) for i in range(7)] + [(i, (i + 4) % 7) for i in range(7)]
    digraph = Digraph(7, arcs)
    orientation = Orientation.from_digraph(AntiholeLabeling(7).graph(), digraph)
    return _checked_counterexample(orientation, True)


def _checked_counterexample(orientation: Orientation, simple: bool) -> Digraph:
    """The digraph of `orientation` once it is re-verified as a
    counterexample: simple if `simple`, clique-acyclic and without a
    kernel.  Anything else is an InternalInvariantError."""
    digraph = orientation.to_digraph()
    if simple and not orientation.is_simple:
        raise InternalInvariantError("counterexample is not simple")
    if not is_clique_acyclic(digraph).holds:
        raise InternalInvariantError("counterexample is not clique-acyclic")
    if find_kernel_bruteforce(digraph).exists:
        raise InternalInvariantError("counterexample has a kernel")
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


def canonical_orientation_key(orientation: Orientation) -> tuple[int, ...]:
    """Orbit representative of an anti-hole orientation under the dihedral
    group, as the lexicographically least edge-direction string."""
    labeling = _labeling_of(orientation.base, "orientation does not live on the labeled anti-hole")
    digits = orientation_digits(orientation, labeling.edges())
    return canonical_digits(digits, dihedral_edge_actions(labeling))


# -- clique tests and the sweep walk -----------------------------------------


def _clique_completions(graph: UndirectedGraph, num_values: int) -> list[tuple[int, list[int]]]:
    """The cliques the sweep walk tests, as (mask, its edges' indices in
    `graph.sorted_edges()`, ascending).  In simple mode only the
    triangles are tested: a simple orientation of a clique is a
    tournament, and a tournament with no directed triangle is transitive,
    so it has a sink and the triangles decide every clique."""
    eindex = {e: i for i, e in enumerate(graph.sorted_edges())}
    n = graph.vertex_count
    return [
        (members, sorted(eindex[pair] for pair in combinations(bits_of(members), 2)))
        for members in all_clique_masks(n, [graph.adjacency_mask(v) for v in range(n)])
        if num_values == 3 or members.bit_count() == 3
    ]


class _DPTables(NamedTuple):
    """The sweep walk `_walk` over one graph: the graph, the group, the
    state layout and its updates per edge e = (u, v) and digit d.

    `n` is the vertex count, `edges` the edges in (min, max) order,
    `num_values` the digits per edge (2 simple, 3 general) and `actions`
    the group whose orbits the walk reduces, as `dihedral_edge_actions`
    gives it, or None.

    A node's state is one int, and it is the node's memo key.  From bit 0
    up it holds:
    - a slot for the digit of each decided edge that lies in a clique
      whose second-to-last edge is still open;
    - a field for each edge yet to come that closes a clique, with the
      digits it may no longer take.  A clique is tested as soon as its
      second-to-last edge is decided, for the digits its last edge may
      take, so its other digits need not stay;
    - a field per kernel candidate, if the tables carry any: a live flag
      over its outside vertices that no arc into it absorbs yet.  The
      field is cleared, the candidate dead, once one of those has every
      edge to it decided;
    - the certified bit, which replaces every candidate field once one
      candidate absorbs all the vertices outside it.

    Placing d at e ANDs in `clear[e][d]`, which drops the slots no open
    clique reads any more, e's own field and the vertices d's arcs
    absorb, and ORs in `put[e][d]`, d in e's slot if it stays.  Then it
    certifies on the first (field, flag) of `certify[e][d]` left at its
    flag alone, keeping only `edge_part`, the slots and digit fields;
    ANDs in the kill mask of each (bit, kill) of `settle[e]` whose outside
    vertex is still unabsorbed; and folds in the cliques whose
    second-to-last edge e is.  Once e is decided every edge of such a
    clique but its last, (u', v'), is, so the test reads the in- and
    out-masks of the partial orientation.  A member other than u' and v'
    receives arcs from all the others already, which settles the clique,
    or never will; else u' must become that vertex, which takes an arc
    v' -> u' (digit 1 or 2), or v' must, which takes u' -> v' (digit 0
    or 2).  The test ORs in the entry of `dead` indexed by (digit 0 dies)
    | (digit 1 dies) << 1, and the node is empty once `full`, the last
    edge's whole field, is set.  `triangles[e]` holds the triangles'
    tests as (third vertex bit w, u', v', dead, full): w in both
    out-masks settles the triangle, digit 0 needs w in inn[v'] and digit
    1 w in inn[u'].  `larger[e]` holds those of the cliques of four or
    more vertices as (members, rest, u', v', dead, full), with `rest` the
    members other than u' and v': x in `rest` settles the clique if
    `members & ~inn[x]` is x alone, digit 0 needs `members & ~inn[v']` to
    be u' and v' alone and digit 1 the same of inn[u'].  `at[e]` is the
    offset of e's field, or of bits that stay clear, and `root` the state
    of the empty assignment.
    `wake[i][e]` is the first edge after e whose placing may change what
    is known of edge i: the next second-to-last edge before i of a clique
    whose last edge i is, which narrows i's field, else i itself.
    `keep_until[e]` is the latest second-to-last edge of a clique that
    reads e's slot, or -1: placing it drops the slot, so the states at
    depths e + 1 to `keep_until[e]` hold e's digit.
    """

    n: int
    edges: tuple
    num_values: int
    actions: Optional[tuple]
    clear: tuple
    put: tuple
    certify: tuple
    settle: tuple
    triangles: tuple
    larger: tuple
    at: tuple
    root: int
    certified: int
    edge_part: int
    wake: tuple
    keep_until: tuple


def _dp_tables(graph: UndirectedGraph, num_values: int, candidates=(), actions=None) -> _DPTables:
    """Lay out the states of the sweep walk (`_DPTables`) over `graph`
    from the cliques `_clique_completions` lists, with a field per kernel
    candidate of `candidates`, as (mask, members) pairs, and with the
    symmetry group `actions` (None without symmetry)."""
    n = graph.vertex_count
    edges = tuple(graph.sorted_edges())
    cliques = _clique_completions(graph, num_values)
    m = len(edges)
    eindex = {e: i for i, e in enumerate(edges)}
    every_digit = (1 << num_values) - 1
    keep_until = [-1] * m
    for _, (*read, second, _) in cliques:
        for eid in read:
            keep_until[eid] = max(keep_until[eid], second)
    width = (num_values - 1).bit_length()
    kept = [eid for eid in range(m) if keep_until[eid] > eid]
    slot = {eid: i * width for i, eid in enumerate(kept)}
    closing = sorted({eids[-1] for _, eids in cliques})
    at = {eid: len(kept) * width + i * num_values for i, eid in enumerate(closing)}
    base = len(kept) * width + len(closing) * num_values
    certified = 1 << base + len(candidates) * (n + 1)
    clear_bits = [
        sum(((1 << width) - 1) << slot[eid] for eid in kept if keep_until[eid] == e)
        | (every_digit << at[e] if e in at else 0)
        for e in range(m)
    ]
    triangles: list[list] = [[] for _ in edges]
    larger: list[list] = [[] for _ in edges]
    narrowed_at: list[set] = [set() for _ in edges]
    for members, (*read, second, last) in cliques:
        u, v = edges[last]
        narrowed_at[last].add(second)
        # both directed digits dead kill the reversible one too
        dead = tuple((d | 4 * (d == 3) & every_digit) << at[last] for d in range(4))
        full = every_digit << at[last]
        if len(read) == 1:
            w = members & ~(1 << u | 1 << v)
            triangles[second].append((w, u, v, dead, full))
        else:
            rest = tuple(x for x in bits_of(members) if x not in (u, v))
            larger[second].append((members, rest, u, v, dead, full))

    wake = []
    for i in range(m):
        # walking e down from i, k is the first narrowing edge after e
        row, k = [i] * m, i
        for e in range(i - 1, -1, -1):
            row[e] = k
            if e in narrowed_at[i]:
                k = e
        wake.append(tuple(row))

    root = 0
    # per edge and digit: the candidate bits its arcs absorb, and the
    # (field, flag) of each candidate they absorb into
    absorb = [[0, 0, 0] for _ in edges]
    certify: list = [([], [], []) for _ in edges]
    settle: list[list] = [[] for _ in edges]
    for i, (s, _) in enumerate(candidates):
        low = base + i * (n + 1)
        field = (1 << n + 1) - 1 << low
        flag = 1 << low + n
        outside = (1 << n) - 1 & ~s
        root |= flag | outside << low
        for x in bits_of(outside):
            last = max(eindex[min(x, y), max(x, y)] for y in bits_of(graph.adjacency_mask(x) & s))
            settle[last].append((1 << low + x, ~field))
        for e, (u, v) in enumerate(edges):
            # u -> v (digits 0 and 2) absorbs u, v -> u (1 and 2) absorbs v
            for tail, head, digits in ((u, v, (0, 2)), (v, u, (1, 2))):
                if s >> head & 1:
                    for d in digits:
                        absorb[e][d] |= 1 << low + tail
                        certify[e][d].append((field, flag))
    return _DPTables(
        n, edges, num_values, None if actions is None else tuple(actions),
        tuple(tuple(~(clear_bits[e] | bits) for bits in absorb[e]) for e in range(m)),
        tuple(tuple(d << slot[e] if e in slot else 0 for d in range(3)) for e in range(m)),
        tuple(tuple(map(tuple, per_digit)) for per_digit in certify),
        tuple(map(tuple, settle)),
        tuple(map(tuple, triangles)),
        tuple(map(tuple, larger)),
        tuple(at.get(e, certified.bit_length()) for e in range(m)),
        root,
        certified,
        (1 << base) - 1,
        tuple(wake),
        tuple(keep_until),
    )


def _walk(
    dp: _DPTables, start=(), fixed: int = 0,
    limit: Optional[int] = None, memo: Optional[list[dict[int, int]]] = None,
) -> Generator[tuple[int, list[int], list[int]], None, int]:
    """Walk the accepted assignments of the tables' `edges` from `start`
    on that share its first `fixed` digits, in lexicographic digit order
    on an explicit stack, and return their number.  It yields (rank,
    digits, in-neighbour masks) for each leaf whose state (`_DPTables`) is
    not certified, every leaf when the tables carry no kernel candidates,
    and for the leaf at which the count reaches `limit`, not counted,
    after which it stops.  `rank` counts the leaves before it; the lists
    are the walk's own, which a consumer copies to keep.

    `pending[e]` holds the digits still to try at edge e, and `inn` and
    `out` the arcs of the edges assigned so far.  A node whose state
    leaves a later edge no digit is dropped (a forward check), and the
    next edge's digits are what its field leaves.  A node at a depth
    below `seeded` lies on the path along `start` and misses the leaves
    before it.  Its digits are clipped to the one of `start` and, from
    `fixed` on, those above it; the walk takes the first for the path
    and leaves the path with the others, so each digit of `start` from
    `fixed` on must be live where it stands, as `_check_start` ensures.
    `seeded` drops to a depth once the walk leaves the path there.

    With `memo`, one dict per depth, a finished node's leaf count is
    memoised on its state, which is all its subtree depends on, and the
    memo may hold the finished nodes of earlier walks on the same tables.
    A node on the path is neither memoised nor read from it.  A node met
    again is added at once, unless it would pass `limit`: then the walk
    descends into it, and meets mostly memoised children there.  Every
    leaf below a certified node has a kernel, and a leaf that is not
    certified has none: there every candidate is dead.  So a memoised
    node holds no leaf the walk yields, provided its consumer stops at
    the first one that has no kernel.

    With the tables' `actions`, the assignment is compared with each group
    image and pruned once an image is provably smaller; at the last edge
    the comparison covers the whole assignment, so exactly one
    representative per orbit, the lexicographically least, survives.  A
    comparison that ties up to position j reads at j the digits of edges j
    and inv[j]: an assigned edge's own, or the one digit a later edge's
    field leaves it, which every leaf below takes.  So the prune stays
    exact.  A side with more than one live digit blocks the comparison,
    which waits in `wait[w]`, w the latest `wake` entry of a blocking
    side: no node before w can unblock it.  A node at edge e resumes only
    `wait[e]`, and each entry prunes the node, drops out (its image is
    larger) or moves to a later list.  A comparison blocked past the last
    edge never resumes, so it is not queued: the tables may be those of a
    prefix graph, the first edges of the graph whose edges the actions
    permute, as `_live_prefixes` builds them.  The moves go on the `moved`
    trail, and the next node at edge e first takes back, last first, every
    move made since `marks[e]`, the trail's length when its parent was
    done; a sibling digit re-reads the untouched `wait[e]`.
    """
    (n, edges, num_values, actions, clear, put, certify, settle, triangles, larger, at, root,
     certified, edge_part, wake, _) = dp
    m = len(edges)
    assign = [0] * m
    inn = [0] * n
    if not m:
        # the empty assignment is the one leaf
        yield 0, assign, inn
        return 1 if limit is None or limit > 0 else 0
    # the slots, an edge's own field and the candidate fields serve only
    # the memo and the kernel certificate: without these the state keeps
    # the digit fields alone
    keyed = root > edge_part or memo is not None
    every_digit = (1 << num_values) - 1
    ends = [(u, v, 1 << u, 1 << v) for u, v in edges]
    out = [0] * n
    state = [root] + [0] * m
    seeded = len(start)
    follow = [1 << d if e < fixed else -(1 << d) for e, d in enumerate(start)]
    pending = [every_digit & follow[0] if start else every_digit] + [0] * (m - 1)
    # with `memo`, `counted` as each node off the path was entered
    first = [0] * m
    wait: list[list] = [[] for _ in range(m)]
    for inv, flip in actions or ():
        # no field forces a digit at the root, and edge 0 narrows none
        if inv[0] < m:
            wait[wake[inv[0]][0]].append((inv, flip, 0))
    moved: list[int] = []
    marks = [0] * (m + 1)

    def symmetric_prune(e: int, s: int) -> bool:
        # the moves of the previous node at e and of its subtree
        mark = marks[e]
        while len(moved) > mark:
            wait[moved.pop()].pop()
        for inv, flip, j in wait[e]:
            # positions below j tie; compare on while both sides are known
            while True:
                i = inv[j]
                if i <= e and j <= e:
                    y = assign[i]
                    x = assign[j]
                elif i >= m:
                    break
                else:
                    # a later edge's side: its forced digit, else the
                    # latest wake-up of a blocking side
                    w = -1
                    if i <= e:
                        y = assign[i]
                    else:
                        y = every_digit & ~(s >> at[i])
                        if y & y - 1:
                            w = wake[i][e]
                        y >>= 1
                    if j <= e:
                        x = assign[j]
                    else:
                        x = every_digit & ~(s >> at[j])
                        if x & x - 1 and wake[j][e] > w:
                            w = wake[j][e]
                        x >>= 1
                    if w >= 0:
                        wait[w].append((inv, flip, j))
                        moved.append(w)
                        break
                if y != 2:
                    y ^= flip[j]
                if x != y:
                    if x > y:
                        return True
                    break
                j += 1
                if j == m:
                    break
        marks[e + 1] = len(moved)
        return False

    counted = 0
    e = 0
    while True:
        # the previous digit at e, if any, leaves the masks
        u, v, bu, bv = ends[e]
        inn[v] &= ~bu
        inn[u] &= ~bv
        out[u] &= ~bv
        out[v] &= ~bu
        digits = pending[e]
        if not digits:
            if e < seeded:
                seeded = e
            elif memo is not None:
                memo[e][state[e]] = counted - first[e]
            if not e:
                return counted
            e -= 1
            continue
        low = digits & -digits
        pending[e] = digits ^ low
        digit = low >> 1
        assign[e] = digit
        if digit != 1:
            inn[v] |= bu
            out[u] |= bv
        if digit != 0:
            inn[u] |= bv
            out[v] |= bu
        s = state[e]
        if keyed:
            s = s & clear[e][digit] | put[e][digit]
            for field, flag in certify[e][digit]:
                if s & field == flag:
                    s = s & edge_part | certified
                    break
            for bit, kill in settle[e]:
                if s & bit:
                    s &= kill
        # a later edge left with no digit empties the node: the hottest
        # lines of a sweep
        empty = False
        for w, a, b, dead, full in triangles[e]:
            # w receiving from a and b settles the triangle
            if not out[a] & out[b] & w:
                s |= dead[(not inn[b] & w) | (not inn[a] & w) << 1]
                if s & full == full:
                    empty = True
                    break
        for members, rest, a, b, dead, full in larger[e]:
            # a member but a and b receiving from all the others settles it
            for x in rest:
                if members & ~inn[x] == 1 << x:
                    break
            else:
                ab = 1 << a | 1 << b
                s |= dead[(members & ~inn[b] != ab) | (members & ~inn[a] != ab) << 1]
                if s & full == full:
                    empty = True
                    break
        if empty or actions is not None and symmetric_prune(e, s):
            if e < seeded:
                # the next digit at e leaves the path
                seeded = e + 1
            continue
        f = e + 1
        if f == m:
            if limit is not None and counted >= limit:
                yield counted, assign, inn
                return counted
            if not s & certified:
                yield counted, assign, inn
            counted += 1
            continue
        if f < seeded:
            digits = every_digit & ~(s >> at[f]) & follow[f]
        else:
            if memo is not None:
                value = memo[f].get(s)
                if value is not None and (limit is None or counted + value <= limit):
                    counted += value
                    continue
                first[f] = counted
            digits = every_digit & ~(s >> at[f])
        e = f
        state[e] = s
        pending[e] = digits


def _live_prefixes(dp: _DPTables, depth: int, start=()) -> list[tuple[int, ...]]:
    """The accepted assignments of the first `depth` edges of `dp` from
    `start` on that share its digits, in order.  Only the cliques within
    those edges are tested, so every prefix of a leaf of the whole run is
    one, and a prefix the clique tests or the symmetry prune kill never
    becomes a task."""
    prefix = UndirectedGraph(dp.n, dp.edges[:depth])
    walk = _walk(_dp_tables(prefix, dp.num_values, actions=dp.actions), start, len(start))
    return [tuple(digits) for _, digits, _ in walk]


def _check_start(dp: _DPTables, start) -> None:
    """Refuse a `start` that is no live path of `dp`: one longer than its
    edges, with a digit out of range, or one that a clique test along it
    or the symmetry prune rejects.  A `start` whose subtree only the
    forward check empties is live."""
    if not (
        len(start) <= len(dp.edges)
        and all(d in range(dp.num_values) for d in start)
        and _live_prefixes(dp, len(start), start) == [tuple(start)]
    ):
        raise ContractError(f"start {list(start)} is not a live path")


def _check_sweep_caps(vertex_count: int, edge_count: int) -> None:
    """Refuse a sweep past the edge or the vertex cap.  The vertex cap is
    the kernel oracle's, which every counterexample goes through; it comes
    before anything is built, since the kernel candidates hold one n-bit
    mask per vertex."""
    if edge_count > MAX_EDGES:
        raise SizeCapError(f"{edge_count} edges exceed the enumeration cap of {MAX_EDGES}")
    if vertex_count > DEFAULT_VERTEX_CAP:
        raise SizeCapError(
            f"{vertex_count} vertices exceed the sweep cap of {DEFAULT_VERTEX_CAP}"
        )


def _check_sweep_input(graph: UndirectedGraph, symmetry_reduction: bool):
    """Refuse a graph past the sweep's caps, and symmetry reduction off
    the anti-hole; return the sweep's group actions, None without
    symmetry."""
    n = graph.vertex_count
    _check_sweep_caps(n, len(graph.edges))
    if not symmetry_reduction:
        return None
    labeling = _labeling_of(graph, f"symmetry reduction needs the {n}-vertex anti-hole")
    return dihedral_edge_actions(labeling)


def enumerate_simple_clique_acyclic_orientations(
    graph: UndirectedGraph, symmetry_reduction: bool = False
) -> Iterator[Orientation]:
    """Stream every simple clique-acyclic orientation of `graph`.

    Symmetry reduction needs `graph` to be the n-vertex anti-hole and
    emits one orientation per dihedral orbit.
    """
    dp = _dp_tables(graph, 2, actions=_check_sweep_input(graph, symmetry_reduction))
    for _, digits, _ in _walk(dp):
        yield digits_to_orientation(digits, graph, dp.edges)


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


class _Sweep:
    """The prefix tasks of one sweep pass, which `run` runs: the kernel
    candidates they share, as (mask, members) pairs, the walk's tables
    over `graph` with the group `actions` (None without symmetry) and,
    without symmetry, the walk's memo in each process, one dict per depth.
    A state's count holds in every task, so the memo outlives each task;
    it never outlives the pass.  After a task it keeps only the depths
    past the last `keep_until` of the edges the task pins, whose states
    the next tasks, with other prefixes, may meet again."""

    def __init__(self, graph: UndirectedGraph, num_values: int, actions):
        n = graph.vertex_count
        # every leaf orients `graph`, so its maximal independent sets are
        # the kernel candidates of every leaf
        self.candidates = tuple(
            (s, tuple(bits_of(s)))
            for s in maximal_independent_set_masks(n, [graph.adjacency_mask(v) for v in range(n)])
        )
        # under symmetry the oracle decides each representative: candidate
        # fields in the state would cost the walk more than the oracle costs
        candidates = self.candidates if actions is None else ()
        self.dp = _dp_tables(graph, num_values, candidates, actions)
        self.memo = [{} for _ in self.dp.edges] if actions is None else None

    def run_task(self, task) -> tuple[int, Optional[tuple[int, ...]], bool]:
        """Examine one prefix subtree from `start`, whose first `depth`
        digits pin it; returns (examined, stop, kernel_free), where `stop`
        is None once the subtree is done, else the kernel-free assignment
        or, at a budget stop, the first unexamined one.  The kernel oracle
        decides each leaf the walk yields: with symmetry every
        representative, without only the leaf the state finds
        kernel-free."""
        start, depth, leaf_budget = task
        memo = self.memo
        full = (1 << self.dp.n) - 1
        leaves = _walk(self.dp, start, depth, leaf_budget, memo)
        try:
            while True:
                rank, digits, inn = next(leaves)
                if leaf_budget is not None and rank >= leaf_budget:
                    return rank, tuple(digits), False
                if not kernel_exists_masks(full, inn, self.candidates):
                    return rank + 1, tuple(digits), True
        except StopIteration as done:
            return done.value, None, False
        finally:
            if memo is not None:
                # a state at a depth up to the last `keep_until` of the
                # pinned edges holds a pinned digit, so the tasks to come,
                # whose prefixes differ, almost never meet it; the deeper
                # states stay, and past the bound whole depths go,
                # shallowest first
                for states in memo[:max(self.dp.keep_until[:depth], default=-1) + 1]:
                    states.clear()
                size = sum(map(len, memo))
                for states in memo:
                    if size <= MEMO_ENTRIES:
                        break
                    size -= len(states)
                    states.clear()

    def run(self, depth: int, jobs: int, budget: Optional[int] = None, cursor=None,
            after_task=None) -> tuple[int, Optional[tuple[tuple[int, ...], bool]]]:
        """Run the prefix tasks `depth` edges deep in task order from the
        live path `cursor` on (the first task by default); return (examined,
        stop), `stop` None once all are done, else `run_task`'s (digits,
        kernel_free).  Each task gets what is left of `budget` as it starts,
        and after each one done `after_task`, if given, is called with the
        next task's prefix (None after the last) and the count so far.  The
        tasks run in this process or on a pool of `jobs` workers, never more
        than the tasks, each given the sweep with its own empty memo once; a
        budget always runs in this process.  Without symmetry a worker takes
        runs of about a quarter of its share of the tasks, so that it reads
        back the deep states it memoised on their neighbours; under symmetry
        it takes one task at a time, which spreads the few heavy tasks best.
        The memo is freed and the pool ended on return."""
        tasks = _live_prefixes(self.dp, depth)
        # a live cursor's first `depth` digits are a live prefix: a task
        first = 0 if cursor is None else bisect_left(tasks, cursor[:depth])
        starts = [tasks[first] if cursor is None else cursor, *tasks[first + 1:]]
        examined = 0
        # the budget left is read as each task starts
        args = ((start, depth, None if budget is None else budget - examined) for start in starts)
        workers = min(1 if budget is not None else jobs, len(starts))
        pool = None
        try:
            if workers > 1:
                import multiprocessing

                pool = multiprocessing.Pool(workers, _start_worker, (self,))
                chunk = 1 if self.dp.actions is not None else max(1, len(starts) // (4 * workers))
                results = pool.imap(_run_in_worker, args, chunk)
            else:
                results = map(self.run_task, args)
            for index, (count, digits, kernel_free) in enumerate(results, first + 1):
                examined += count
                if digits is not None:
                    return examined, (digits, kernel_free)
                if after_task is not None:
                    after_task(tasks[index] if index < len(tasks) else None, examined)
            return examined, None
        finally:
            self.memo = None
            if pool is not None:
                pool.terminate()


# the sweep of a pool worker process, set once by the pool's initializer
_worker: Optional[_Sweep] = None


def _start_worker(sweep: _Sweep) -> None:
    global _worker
    _worker = sweep


def _run_in_worker(task):
    return _worker.run_task(task)


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
# better but pays a prefix walk and a fresh search per task
TASK_DEPTH = {"simple": 8, "general": 4}
# the memo entries a sweep without symmetry keeps from one task to the
# next in each process, at depths no pinned digit reaches; a task alone
# may grow the memo past it
MEMO_ENTRIES = 1 << 18


def _interleaved(graph: UndirectedGraph) -> UndirectedGraph:
    """The labeled anti-hole `graph` relabeled evens then odds.  For odd n
    the new labels run around the cycle two steps at a time, and the
    walk's states stay narrower than in the (min, max) order: C9-bar simple
    memoises 33,539 states instead of 55,534.  The count, and whether some
    orientation has no kernel, do not depend on the labeling; which
    orientation comes first, and its rank, do."""
    n = graph.vertex_count
    label = [0] * n
    for position, v in enumerate([*range(0, n, 2), *range(1, n, 2)]):
        label[v] = position
    return UndirectedGraph(n, [(label[u], label[v]) for u, v in graph.edges])


def verify_kernel_solvable(
    graph: UndirectedGraph,
    mode: str = "simple",
    symmetry_reduction: bool = False,
    jobs: int = 1,
    budget: Optional[int] = None,
    checkpoint: Optional[str] = None,
    graph_id: str = "graph",
) -> SolvabilityVerdict:
    """Decide whether every (simple) clique-acyclic orientation has a kernel.

    Returns the first kernel-free orientation in enumeration order as a
    counterexample, or `solvable` after exhaustion.  The run is split into
    tasks at the live prefixes of the first `TASK_DEPTH[mode]` edges, which
    share clique tests and kernel candidates built once per call, and
    `_Sweep.run` runs them on `jobs` workers; results are consumed in task
    order, so counts and the verdict are identical for any worker count.
    With symmetry each representative goes to the kernel oracle; without,
    `_walk` counts a task's orientations on a memo of subtree states and
    stops at the first without a kernel.
    `budget` caps the number of orientations examined and is tested before
    each one; the walk descends into a counted subtree that would
    overrun it, so the stop is exact.
    `checkpoint` names a JSON file updated after each task and at a budget
    stop, whose `next` holds the first unexamined orientation (or the next
    task's prefix), where a resumed run continues; a path that cannot be
    written is refused before any task runs.  `symmetry_reduction` needs
    `graph` to be the n-vertex anti-hole and examines one orientation per
    dihedral orbit.

    On the labeled anti-hole, a run with no symmetry reduction, budget or
    checkpoint first decides in the interleaved labeling (`_interleaved`),
    whose walk is narrower.  If no orientation there lacks a kernel, that
    pass's count is the verdict; else the run above names the witness and
    its rank.  The elapsed time counts both passes, and a resumed run's
    adds the checkpoint's.
    """
    if mode not in ("simple", "general"):
        raise ContractError(f"unknown mode {mode!r}")
    began = time.monotonic()
    num_values = 2 if mode == "simple" else 3
    actions = _check_sweep_input(graph, symmetry_reduction)
    depth = min(TASK_DEPTH[mode], len(graph.edges))
    if actions is None and budget is None and not checkpoint and _is_antihole(graph):
        examined, stop = _Sweep(_interleaved(graph), num_values, None).run(depth, jobs)
        if stop is None:
            return SolvabilityVerdict(
                graph_id, mode, "solvable", None, examined, time.monotonic() - began
            )
    edges = tuple(graph.sorted_edges())
    signature = _graph_key(graph.vertex_count, edges, mode, symmetry_reduction)
    checkpoint_path = Path(checkpoint) if checkpoint else None
    # a crash mid-write must leave the previous checkpoint intact, so each
    # is written to a file beside it and then moved over it
    partial = checkpoint_path and checkpoint_path.with_name(checkpoint_path.name + ".tmp")
    loaded = _load_checkpoint(checkpoint_path, signature, len(edges), depth, num_values)
    done = loaded["examined"] if loaded else 0
    if loaded:
        began -= loaded["elapsed_seconds"]
        if loaded["counterexample"] is not None:
            return _verdict_from_digits(
                graph, edges, mode, loaded["counterexample"], done,
                time.monotonic() - began, graph_id,
            )
        if loaded["next"] is None:
            return SolvabilityVerdict(
                graph_id, mode, "solvable", None, done, time.monotonic() - began
            )
    if checkpoint_path is not None:
        # a path that cannot be written is refused before any task runs
        try:
            partial.write_text("")
            partial.unlink()
        except OSError as exc:
            raise ContractError(
                f"cannot write checkpoint {checkpoint_path} ({exc.strerror or exc})"
            ) from None
    sweep = _Sweep(graph, num_values, actions)
    cursor = loaded["next"] if loaded else None
    if cursor is not None:
        try:
            _check_start(sweep.dp, cursor)
        except ContractError as exc:
            raise ContractError(f"checkpoint {checkpoint_path} is corrupt: next ({exc})") from None

    def save_checkpoint(resume_at, examined: int, counterexample=None) -> None:
        if checkpoint_path is None:
            return
        partial.write_text(json.dumps({
            "signature": signature,
            "next": None if resume_at is None else list(resume_at),
            "examined": done + examined,
            "elapsed_seconds": time.monotonic() - began,
            "counterexample": list(counterexample) if counterexample else None,
        }))
        os.replace(partial, checkpoint_path)

    examined, stop = sweep.run(
        depth, jobs, None if budget is None else budget - done, cursor, save_checkpoint
    )
    total = done + examined
    elapsed = time.monotonic() - began
    if stop is None:
        return SolvabilityVerdict(graph_id, mode, "solvable", None, total, elapsed)
    digits, kernel_free = stop
    if kernel_free:
        save_checkpoint(None, examined, digits)
        return _verdict_from_digits(graph, edges, mode, digits, total, elapsed, graph_id)
    save_checkpoint(digits, examined)
    return SolvabilityVerdict(graph_id, mode, "exhausted_budget", None, total, elapsed)


def _verdict_from_digits(
    graph, edges, mode, digits, examined, elapsed, graph_id
) -> SolvabilityVerdict:
    orientation = digits_to_orientation(digits, graph, list(edges))
    _checked_counterexample(orientation, mode == "simple")
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
    _labeling_of(orientation.base, "orientation does not live on the labeled anti-hole")
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
