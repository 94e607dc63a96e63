"""Core graph types: digraphs, vertex bit sets, two-colored arcs,
undirected graphs with edge orientations, plus the basic predicates
(independence, kernel, semi-kernel), strongly connected components and
directed-cycle enumeration.

Vertices are dense 0-based integers everywhere; files and reports use the
same indices.  Vertex subsets are fixed-width bit sets so subset algebra,
equality tests and the exhaustive searches stay cheap.  Every type here is
immutable after construction and safe to share between workers.

A `Digraph` stores only its per-vertex out- and in-masks, and a
`ColoredDigraph` only its digraph and four colour masks.  `Digraph.arcs`
and `ColoredDigraph.color` are views built from the masks on each access,
for callers at the API edge; code inside the package reads the masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Optional

from .errors import BoundsError, BudgetExceededError

__all__ = [
    "VertexSet",
    "Digraph",
    "UndirectedGraph",
    "EdgeDirection",
    "Orientation",
    "ArcColor",
    "ColoredDigraph",
    "SccResult",
    "is_independent",
    "is_kernel",
    "is_semi_kernel",
    "strongly_connected_components",
    "enumerate_directed_cycles",
    "bits_of",
    "union_of",
]


def bits_of(mask: int) -> Iterator[int]:
    """Yield the set bit positions of `mask` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _pairs(masks) -> list[tuple[int, int]]:
    """(u, v) for every set bit v of masks[u], in (u, v) order."""
    return [(u, v) for u, m in enumerate(masks) for v in bits_of(m)]


def _transposes_whole(n: int) -> bool:
    """Whether `_transpose` moves a matrix of n rows whole (see there)."""
    return 16 < n <= 4096


def _transpose(masks: list[int]) -> list[int]:
    """The in-masks of the valid out-masks `masks`: bit u of the result's
    v-th mask is bit v of masks[u].

    A matrix of 17 to 4,096 rows is transposed whole, by Warren's block
    swaps ("Hacker's Delight", 7-3), its side padded to a multiple of 8.
    Byte slices move every 8x8 bit block to its mirror place: row 8c + i
    of the moved matrix is byte c of rows i, i + 8, ...  Packed into one
    integer, each block is then transposed in place by three swap rounds,
    j = 4, 2, 1, each trading bit j of the row index for bit j of the
    column index.  A smaller matrix is transposed bit by bit, and so is a
    larger one, since its square would take memory quadratic in n at any
    arc count.
    """
    n = len(masks)
    if not _transposes_whole(n):
        inn = [0] * n
        for u, mask in enumerate(masks):
            tail = 1 << u
            while mask:
                low = mask & -mask
                inn[low.bit_length() - 1] |= tail
                mask ^= low
        return inn
    row = (n + 7) // 8
    width = 8 * row
    data = b"".join(mask.to_bytes(row, "little") for mask in masks).ljust(width * row, b"\0")
    data = b"".join(data[i * row + c::width] for c in range(row) for i in range(8))
    x = int.from_bytes(data, "little")
    for j, pattern in (4, b"\xf0"), (2, b"\xcc"), (1, b"\xaa"):
        # the bits r*width + c with bit j set in c and clear in r
        upper = int.from_bytes((pattern * (j * row) + bytes(j * row)) * (4 * row // j), "little")
        shift = j * (width - 1)
        t = (x ^ (x >> shift)) & upper
        x ^= t ^ (t << shift)
    data = x.to_bytes(width * row, "little")
    return [int.from_bytes(data[v * row:(v + 1) * row], "little") for v in range(n)]


def union_of(masks, subset: int) -> int:
    """OR of `masks[v]` over the set bits v of `subset`."""
    acc = 0
    while subset:
        low = subset & -subset
        acc |= masks[low.bit_length() - 1]
        subset ^= low
    return acc


class VertexSet:
    """Immutable subset of {0, ..., universe-1} backed by an int bitmask."""

    __slots__ = ("universe", "mask")

    def __init__(self, universe: int, members: Iterable[int] = ()):
        mask = 0
        for v in members:
            if not 0 <= v < universe:
                raise BoundsError(f"vertex {v} outside [0, {universe})")
            mask |= 1 << v
        self.universe = universe
        self.mask = mask

    @classmethod
    def from_mask(cls, universe: int, mask: int) -> "VertexSet":
        if mask < 0 or mask >> universe:
            raise BoundsError(f"mask {mask:#x} does not fit universe {universe}")
        s = cls.__new__(cls)
        s.universe = universe
        s.mask = mask
        return s

    def members(self) -> tuple[int, ...]:
        return tuple(bits_of(self.mask))

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.universe and (self.mask >> v) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return bits_of(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VertexSet)
            and self.universe == other.universe
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.universe, self.mask))

    def __repr__(self) -> str:
        return f"VertexSet({self.universe}, {{{', '.join(map(str, self.members()))}}})"


def _subset_mask(vertex_count: int, subset) -> int:
    """Coerce a VertexSet or an iterable of vertices to a bounds-checked mask."""
    if isinstance(subset, VertexSet):
        if subset.universe != vertex_count:
            raise BoundsError(
                f"vertex set over universe {subset.universe} used with a "
                f"{vertex_count}-vertex graph"
            )
        return subset.mask
    return VertexSet(vertex_count, subset).mask


class Digraph:
    """Directed graph with no loops and no parallel arcs.

    Opposite arcs (u, v) and (v, u) may coexist; an arc whose opposite is
    present is called reversible.
    """

    __slots__ = ("vertex_count", "_out", "_in")

    def __init__(self, vertex_count: int, arcs: Iterable[tuple[int, int]] = ()):
        if vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        out = [0] * vertex_count
        inn = [0] * vertex_count
        for u, v in arcs:
            if type(u) is not int or type(v) is not int:
                raise TypeError(f"arc ({u!r}, {v!r}) holds a vertex that is not an integer")
            if not 0 <= u < vertex_count or not 0 <= v < vertex_count:
                raise BoundsError(f"arc ({u}, {v}) outside [0, {vertex_count})")
            if u == v:
                raise ValueError(f"loop ({u}, {v}) not allowed")
            head = 1 << v
            if out[u] & head:
                raise ValueError(f"duplicate arc ({u}, {v})")
            out[u] |= head
            inn[v] |= 1 << u
        self.vertex_count = vertex_count
        self._out = out
        self._in = inn

    @classmethod
    def _from_masks(cls, vertex_count: int, out: list, inn: list) -> "Digraph":
        """A digraph from masks its caller has already validated."""
        d = cls.__new__(cls)
        d.vertex_count = vertex_count
        d._out = out
        d._in = inn
        return d

    @property
    def arcs(self) -> frozenset[tuple[int, int]]:
        """The arc set, built from the out-masks on each access."""
        return frozenset(_pairs(self._out))

    # -- neighborhoods -------------------------------------------------

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.vertex_count:
            raise BoundsError(f"vertex {v} outside [0, {self.vertex_count})")

    def has_arc(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return (self._out[u] >> v) & 1 == 1

    def adjacency_mask(self, v: int) -> int:
        """Vertices joined to v by an arc in either direction."""
        self._check_vertex(v)
        return self._out[v] | self._in[v]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Digraph)
            and self.vertex_count == other.vertex_count
            and self._out == other._out
        )

    def __hash__(self) -> int:
        return hash((self.vertex_count, tuple(self._out)))

    def __repr__(self) -> str:
        return f"Digraph({self.vertex_count}, {_pairs(self._out)})"


# -- predicates --------------------------------------------------------


def is_independent(digraph: Digraph, subset) -> bool:
    """True iff no arc in either direction joins two members of the subset."""
    m = _subset_mask(digraph.vertex_count, subset)
    return union_of(digraph._out, m) & m == 0


def is_kernel(digraph: Digraph, subset) -> bool:
    """True iff the subset is independent and every outside vertex has an
    arc into it."""
    m = _subset_mask(digraph.vertex_count, subset)
    full = (1 << digraph.vertex_count) - 1
    return union_of(digraph._out, m) & m == 0 and m | union_of(digraph._in, m) == full


def is_semi_kernel(digraph: Digraph, subset) -> bool:
    """True iff the subset is independent and every vertex receiving an arc
    from it sends an arc back into it."""
    m = _subset_mask(digraph.vertex_count, subset)
    reached = union_of(digraph._out, m)
    return reached & m == 0 and reached & ~union_of(digraph._in, m) == 0


# -- strongly connected components --------------------------------------


@dataclass(frozen=True)
class SccResult:
    """SCC partition in topological order plus the condensation DAG.

    `masks[i]` is the vertex mask of `components[i]`, and bit j of
    `condensation[i]` is set whenever some arc joins component i to
    component j; the topological order guarantees i < j for every such
    arc.  `condensation_arcs` holds the same relation as (i, j) pairs,
    built on each access.
    """

    components: tuple[tuple[int, ...], ...]
    component_of: tuple[int, ...]
    condensation: tuple[int, ...]
    masks: tuple[int, ...]

    @property
    def condensation_arcs(self) -> frozenset[tuple[int, int]]:
        return frozenset(_pairs(self.condensation))


def _component_masks(out: list[int]) -> list[int]:
    """The strongly connected components of the relation `out` (bit w of
    out[v] for v -> w, loops allowed) as vertex masks, in topological
    order.  The package takes every component and topological order
    from here.

    Tarjan's algorithm (1972) on masks, iterative so deep graphs cannot
    blow the stack: roots ascending, and each vertex descends into its
    least unvisited successor, `out[v] & ~visited`, until it has none.
    Its lowlink then reads only `out[v] & on_stack`.  A successor that
    was on the stack when a scan of v's arcs in ascending order would
    have met it is still there, and one that was not is either a child
    (whose lowlink v takes anyway) or already in a closed component, so
    the components and their order are those of that scan.  A DAG costs
    O(n) steps, not one per arc.
    """
    n = len(out)
    index = [0] * n
    low = [0] * n
    visited = on_stack = 0
    stack: list[int] = []
    found: list[int] = []
    counter = 0
    for root in range(n):
        path: list[int] = []
        fresh = (1 << root) & ~visited
        while fresh or path:
            if fresh:
                bit = fresh & -fresh
                w = bit.bit_length() - 1
                visited |= bit
                on_stack |= bit
                index[w] = low[w] = counter
                counter += 1
                stack.append(w)
                path.append(w)
            else:
                v = path.pop()
                lowest = low[v]
                back = out[v] & on_stack
                while back:
                    bit = back & -back
                    lowest = min(lowest, index[bit.bit_length() - 1])
                    back ^= bit
                low[v] = lowest
                if path and lowest < low[path[-1]]:
                    low[path[-1]] = lowest
                if lowest == index[v]:
                    comp = 0
                    while True:
                        w = stack.pop()
                        comp |= 1 << w
                        if w == v:
                            break
                    on_stack &= ~comp
                    found.append(comp)
            fresh = out[path[-1]] & ~visited if path else 0
    # Tarjan finishes components in reverse topological order.
    found.reverse()
    return found


def strongly_connected_components(digraph: Digraph) -> SccResult:
    """Tarjan's algorithm on the out-masks (see `_component_masks`)."""
    n = digraph.vertex_count
    out = digraph._out
    masks = _component_masks(out)
    component_of = [0] * n
    components = []
    leaving = []
    for i, mask in enumerate(masks):
        comp = tuple(bits_of(mask))
        components.append(comp)
        reach = 0
        for v in comp:
            component_of[v] = i
            reach |= out[v]
        leaving.append(reach & ~mask)
    if _transposes_whole(n):
        # two whole-matrix transposes, zero rows keeping them square: row w
        # of the first holds the components with an arc into vertex w
        pad = [0] * (n - len(masks))
        into = _transpose(leaving + pad)
        condensation = _transpose([union_of(into, mask) for mask in masks] + pad)
    else:
        # two bit-by-bit transposes would take one step per arc each;
        # mapping each head to its component takes at most one
        condensation = []
        for rest in leaving:
            heads = 0
            while rest:
                j = component_of[(rest & -rest).bit_length() - 1]
                heads |= 1 << j
                rest &= ~masks[j]
            condensation.append(heads)
    return SccResult(
        components=tuple(components),
        component_of=tuple(component_of),
        condensation=tuple(condensation[: len(masks)]),
        masks=tuple(masks),
    )


# -- directed cycles -----------------------------------------------------


def _cycles(
    digraph: Digraph, max_len: int, budget: Optional[int], what: str, prune: bool = False
) -> Iterator[tuple[int, ...]]:
    """Yield each directed cycle of at most `max_len` vertices once, from
    its least vertex: roots ascending, then successors ascending.

    A depth-first search over simple paths through vertices above the
    root.  `budget` caps its path-extension steps; exceeding it raises
    BudgetExceededError "<what> exceeded budget of B steps".  `prune`
    drops only cycles with consecutive heads.  With it a root's paths stay
    inside its strongly connected component, which holds every cycle
    through it.  And `heads`, the path positions i >= 1 that receive an
    arc from a path vertex other than their predecessor, only gains bits
    as the path grows, so once two adjacent positions are marked every
    cycle closing the path has consecutive heads.  Position 0 is left
    out: its predecessor is known only when the cycle closes.
    """
    n = digraph.vertex_count
    out, inn = digraph._out, digraph._in
    component = [-1] * n
    if prune:
        for mask in _component_masks(out):
            for v in bits_of(mask):
                component[v] = mask
    position = [0] * n
    steps = 0
    for root in range(n):
        allowed = component[root] & -(1 << root)
        # untried[i] holds the successors of path[i] not yet tried, and
        # heads[i] the marked positions of path[: i + 1]
        path = [root]
        on_path = 1 << root
        heads = [0]
        untried = [out[root] & allowed]
        while untried:
            rest = untried[-1]
            if not rest:
                untried.pop()
                heads.pop()
                on_path &= ~(1 << path.pop())
                continue
            low = rest & -rest
            untried[-1] = rest ^ low
            w = low.bit_length() - 1
            steps += 1
            if budget is not None and steps > budget:
                raise BudgetExceededError(f"{what} exceeded budget of {budget} steps")
            if w == root:
                yield tuple(path)
                continue
            if on_path & low or len(path) >= max_len:
                continue
            marked = 0
            if prune:
                marked = heads[-1]
                for v in bits_of(out[w] & on_path & ~(1 << root)):
                    marked |= 1 << position[v]
                if inn[w] & on_path & ~(1 << path[-1]):
                    marked |= 1 << len(path)
                if marked & (marked >> 1):
                    continue
                position[w] = len(path)
            path.append(w)
            on_path |= low
            heads.append(marked)
            untried.append(out[w] & allowed)


def enumerate_directed_cycles(
    digraph: Digraph,
    parity: str = "all",
    max_len: Optional[int] = None,
    budget: Optional[int] = None,
) -> list[tuple[int, ...]]:
    """All directed cycles up to `max_len`, one tuple per rotation class,
    in `_cycles` order.

    Cycles are rotated so their smallest vertex comes first; two-cycles from
    opposite arcs count as directed cycles of length two.  `parity` selects
    "odd", "even" or "all" cycle lengths.  `budget` caps the number of path
    extension steps; exceeding it raises BudgetExceededError whose
    `partial` holds the cycles listed so far.
    """
    if parity not in ("odd", "even", "all"):
        raise ValueError(f"unknown parity {parity!r}")
    n = digraph.vertex_count
    max_len = n if max_len is None else min(max_len, n)
    cycles: list[tuple[int, ...]] = []
    if max_len < 2:
        return cycles
    try:
        for cycle in _cycles(digraph, max_len, budget, "cycle enumeration"):
            if parity == "all" or (len(cycle) % 2 == 1) == (parity == "odd"):
                cycles.append(cycle)
    except BudgetExceededError as exc:
        exc.partial = cycles
        raise
    return cycles


# -- undirected graphs and orientations ----------------------------------


class UndirectedGraph:
    """Simple undirected graph; edges stored as (min, max) pairs."""

    __slots__ = ("vertex_count", "edges", "_adj")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]] = ()):
        if vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        adj = [0] * vertex_count
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if type(u) is not int or type(v) is not int:
                raise TypeError(f"edge ({u!r}, {v!r}) holds a vertex that is not an integer")
            if not 0 <= u < vertex_count or not 0 <= v < vertex_count:
                raise BoundsError(f"edge ({u}, {v}) outside [0, {vertex_count})")
            if u == v:
                raise ValueError(f"self-edge ({u}, {v}) not allowed")
            e = (min(u, v), max(u, v))
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.vertex_count = vertex_count
        self.edges = frozenset(seen)
        self._adj = adj

    def adjacency_mask(self, v: int) -> int:
        if not 0 <= v < self.vertex_count:
            raise BoundsError(f"vertex {v} outside [0, {self.vertex_count})")
        return self._adj[v]

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UndirectedGraph)
            and self.vertex_count == other.vertex_count
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.edges))

    def __repr__(self) -> str:
        return f"UndirectedGraph({self.vertex_count}, {self.sorted_edges()})"


class EdgeDirection(Enum):
    """Direction of an oriented edge relative to its (min, max) endpoints."""

    FORWARD = "fwd"
    BACKWARD = "bwd"
    BOTH = "both"


class Orientation:
    """An undirected graph plus a direction for every edge.

    FORWARD points min -> max, BACKWARD the reverse, BOTH keeps the edge
    reversible.  An orientation is simple when no edge maps to BOTH.
    """

    __slots__ = ("base", "assignment")

    def __init__(self, base: UndirectedGraph, assignment):
        normalized: dict[tuple[int, int], EdgeDirection] = {}
        for edge, direction in dict(assignment).items():
            u, v = edge
            e = (min(u, v), max(u, v))
            if e not in base.edges:
                raise ValueError(f"assignment mentions non-edge {e}")
            if not isinstance(direction, EdgeDirection):
                direction = EdgeDirection(direction)
            normalized[e] = direction
        missing = base.edges - normalized.keys()
        if missing:
            raise ValueError(f"edges without direction: {sorted(missing)}")
        self.base = base
        self.assignment = normalized

    @property
    def is_simple(self) -> bool:
        return all(d is not EdgeDirection.BOTH for d in self.assignment.values())

    def arcs(self) -> Iterator[tuple[int, int]]:
        for (u, v) in self.base.sorted_edges():
            d = self.assignment[(u, v)]
            if d is not EdgeDirection.BACKWARD:
                yield (u, v)
            if d is not EdgeDirection.FORWARD:
                yield (v, u)

    def to_digraph(self) -> Digraph:
        return Digraph(self.base.vertex_count, self.arcs())

    @classmethod
    def from_digraph(cls, base: UndirectedGraph, digraph: Digraph) -> "Orientation":
        """Recover the per-edge assignment of a digraph that orients `base`."""
        if digraph.vertex_count != base.vertex_count:
            raise ValueError("vertex counts differ")
        assignment = {}
        for (u, v) in base.edges:
            fwd = digraph.has_arc(u, v)
            bwd = digraph.has_arc(v, u)
            if fwd and bwd:
                assignment[(u, v)] = EdgeDirection.BOTH
            elif fwd:
                assignment[(u, v)] = EdgeDirection.FORWARD
            elif bwd:
                assignment[(u, v)] = EdgeDirection.BACKWARD
            else:
                raise ValueError(f"edge ({u}, {v}) is not oriented by the digraph")
        extra = _pairs([m & ~a for m, a in zip(digraph._out, base._adj)])
        if extra:
            raise ValueError(f"digraph has arcs outside the base graph: {extra}")
        return cls(base, assignment)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Orientation)
            and self.base == other.base
            and self.assignment == other.assignment
        )

    def __hash__(self) -> int:
        return hash((self.base, tuple(sorted((e, d.value) for e, d in self.assignment.items()))))

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{u}-{v}:{self.assignment[(u, v)].value}" for u, v in self.base.sorted_edges()
        )
        return f"Orientation({self.base.vertex_count}, {parts})"


# -- colored digraphs ----------------------------------------------------


class ArcColor(Enum):
    BLUE = "b"
    RED = "r"


# the letter of each color to its member; a member stands for itself
_COLOR_OF = {c.value: c for c in ArcColor}


class ColoredDigraph:
    """A digraph whose every arc carries exactly one of two colors.

    Opposite arcs may have different colors; a single arc has one color.
    """

    __slots__ = ("digraph", "_blue_out", "_red_out", "_blue_in", "_red_in")

    def __init__(self, digraph: Digraph, color):
        self._build(
            digraph.vertex_count, [(u, v, c) for (u, v), c in dict(color).items()]
        )
        colored, given = self.digraph._out, digraph._out
        extra = _pairs([c & ~g for c, g in zip(colored, given)])
        if extra:
            raise ValueError(f"color given for non-arc {extra[0]}")
        missing = _pairs([g & ~c for c, g in zip(colored, given)])
        if missing:
            raise ValueError(f"arcs without a color: {missing}")
        self.digraph = digraph

    @classmethod
    def from_colored_arcs(
        cls, vertex_count: int, arcs: Iterable[tuple[int, int, object]]
    ) -> "ColoredDigraph":
        cd = cls.__new__(cls)
        cd._build(vertex_count, arcs)
        return cd

    @classmethod
    def from_color_masks(cls, blue_out: list[int], red_out: list[int]) -> "ColoredDigraph":
        """The colored digraph whose vertex u has the blue out-mask
        blue_out[u] and the red out-mask red_out[u].

        It refuses, with the error `from_colored_arcs` gives for the same
        arcs, and in O(n) big-integer operations, a bit at or above n, a
        loop bit and an arc in both colors.
        """
        n = len(blue_out)
        if len(red_out) != n:
            raise ValueError(f"{n} blue out-masks but {len(red_out)} red ones")
        for u, (blue, red) in enumerate(zip(blue_out, red_out)):
            row = blue | red
            if row >> n:
                # the least bit at or above n, also of a negative mask
                raise BoundsError(f"arc ({u}, {next(bits_of(row >> n << n))}) outside [0, {n})")
            if row >> u & 1:
                raise ValueError(f"loop ({u}, {u}) not allowed")
            if blue & red:
                raise ValueError(f"duplicate arc ({u}, {next(bits_of(blue & red))})")
        cd = cls.__new__(cls)
        cd._fill(list(blue_out), list(red_out))
        return cd

    def _build(self, n: int, rows) -> None:
        """The one validating pass over (u, v, color) rows: integer
        vertices in [0, n), no loops, no duplicate arcs, a legal color.
        It fills the color masks."""
        if n < 0:
            raise ValueError("vertex_count must be nonnegative")
        blue_out = [0] * n
        red_out = [0] * n
        color_of = _COLOR_OF.get
        blue = ArcColor.BLUE
        for u, v, c in rows:
            if type(u) is not int or type(v) is not int:
                raise TypeError(f"arc ({u!r}, {v!r}) holds a vertex that is not an integer")
            if not 0 <= u < n or not 0 <= v < n:
                raise BoundsError(f"arc ({u}, {v}) outside [0, {n})")
            if u == v:
                raise ValueError(f"loop ({u}, {v}) not allowed")
            head = 1 << v
            if (blue_out[u] | red_out[u]) & head:
                raise ValueError(f"duplicate arc ({u}, {v})")
            # members skip the lookup: an Enum hashes in Python code
            k = c if type(c) is ArcColor else color_of(c)
            if k is None:
                raise ValueError(f"{c!r} is not a valid ArcColor")
            if k is blue:
                blue_out[u] |= head
            else:
                red_out[u] |= head
        self._fill(blue_out, red_out)

    def _fill(self, blue_out: list, red_out: list) -> None:
        """Set the valid color out-masks, their transposes and the
        digraph's masks from them."""
        blue_in = _transpose(blue_out)
        red_in = _transpose(red_out)
        self.digraph = Digraph._from_masks(
            len(blue_out),
            [b | r for b, r in zip(blue_out, red_out)],
            [b | r for b, r in zip(blue_in, red_in)],
        )
        self._blue_out = blue_out
        self._red_out = red_out
        self._blue_in = blue_in
        self._red_in = red_in

    @property
    def vertex_count(self) -> int:
        return self.digraph.vertex_count

    @property
    def color(self) -> dict[tuple[int, int], ArcColor]:
        """The color of every arc, built from the masks on each access."""
        blue, red = self._blue_out, ArcColor.RED
        return {
            (u, v): ArcColor.BLUE if blue[u] >> v & 1 else red
            for u, v in _pairs(self.digraph._out)
        }

    def restriction(self, color: ArcColor) -> Digraph:
        """The digraph keeping only the arcs of one color."""
        color = ArcColor(color)
        if color is ArcColor.BLUE:
            out, inn = self._blue_out, self._blue_in
        else:
            out, inn = self._red_out, self._red_in
        return Digraph._from_masks(self.vertex_count, list(out), list(inn))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ColoredDigraph)
            and self.digraph == other.digraph
            and self._blue_out == other._blue_out
        )

    def __hash__(self) -> int:
        return hash((self.digraph, tuple(self._blue_out)))

    def __repr__(self) -> str:
        arcs = ", ".join(
            f"{u}->{v}:{c.value}" for (u, v), c in self.color.items()
        )
        return f"ColoredDigraph({self.vertex_count}, {arcs})"
