"""Shared hypothesis strategies and seeded or exhaustive poset instances."""

import random
from typing import Iterator

from hypothesis import strategies as st

from kernelkit import ArcColor, ColoredDigraph, Digraph, Poset, UndirectedGraph
from kernelkit.digraph import EdgeDirection, Orientation


@st.composite
def digraphs(draw, min_n=0, max_n=6):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    if not pairs:
        return Digraph(n, [])
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return Digraph(n, arcs)


@st.composite
def colored_digraphs(draw, min_n=0, max_n=6):
    digraph = draw(digraphs(min_n=min_n, max_n=max_n))
    colors = {}
    for arc in sorted(digraph.arcs):
        colors[arc] = ArcColor.BLUE if draw(st.booleans()) else ArcColor.RED
    return ColoredDigraph(digraph, colors)


@st.composite
def undirected_graphs(draw, min_n=0, max_n=6):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not pairs:
        return UndirectedGraph(n, [])
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return UndirectedGraph(n, edges)


@st.composite
def orientations(draw, min_n=0, max_n=6):
    base = draw(undirected_graphs(min_n=min_n, max_n=max_n))
    directions = st.sampled_from(list(EdgeDirection))
    return Orientation(base, {e: draw(directions) for e in base.sorted_edges()})


@st.composite
def vertex_subsets(draw, n):
    if n == 0:
        return []
    return draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))


def random_poset(seed: int, size: int, density: float = 0.4) -> Poset:
    """Reflexive-transitive closure of a random DAG, deterministic by seed."""
    rng = random.Random(seed)
    order = list(range(size))
    rng.shuffle(order)
    pairs = []
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < density:
                pairs.append((order[i], order[j]))
    return Poset(size, pairs)


def all_posets(size: int) -> Iterator[Poset]:
    """Every partial order on {0, ..., size-1}, exhaustively.

    Runs through all antisymmetric transitive strict relations; practical
    only for very small sizes (219 posets on 4 labeled elements).
    """
    cells = [(a, b) for a in range(size) for b in range(size) if a != b]
    for bitsel in range(1 << len(cells)):
        rel = [[False] * size for _ in range(size)]
        for i, (a, b) in enumerate(cells):
            if (bitsel >> i) & 1:
                rel[a][b] = True
        ok = True
        for a in range(size):
            if not ok:
                break
            for b in range(size):
                if rel[a][b] and rel[b][a]:
                    ok = False
                    break
                if rel[a][b]:
                    for c in range(size):
                        if rel[b][c] and not rel[a][c]:
                            ok = False
                            break
        if ok:
            yield Poset(size, [(a, b) for a in range(size) for b in range(size) if rel[a][b]])
