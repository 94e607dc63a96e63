import random

import pytest
from hypothesis import given, settings

import naive
from kernelkit import (
    ArcColor,
    BoundsError,
    BudgetExceededError,
    ColoredDigraph,
    Digraph,
    EdgeDirection,
    Orientation,
    UndirectedGraph,
    VertexSet,
    c7_counterexample,
    enumerate_directed_cycles,
    is_independent,
    is_kernel,
    is_semi_kernel,
    strongly_connected_components,
)
from kernelkit.digraph import _transpose
from kernelkit.redblue import generate_ssw_instance
from strategies import digraphs

THREE_CYCLE = Digraph(3, [(0, 1), (1, 2), (2, 0)])
FOUR_CYCLE = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


class TestVertexSet:
    def test_members_and_ops(self):
        s = VertexSet(5, [2, 0])
        assert s.members() == (0, 2)
        assert len(s) == 2 and 2 in s and 3 not in s

    def test_bounds(self):
        with pytest.raises(BoundsError):
            VertexSet(3, [3])

    def test_equality_is_exact(self):
        assert VertexSet(4, [1, 3]) == VertexSet(4, [3, 1])
        assert VertexSet(4, [1]) != VertexSet(5, [1])


class TestDigraphConstruction:
    def test_rejects_loop(self):
        with pytest.raises(ValueError, match="loop"):
            Digraph(2, [(1, 1)])

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            Digraph(2, [(0, 1), (0, 1)])

    def test_rejects_out_of_bounds(self):
        with pytest.raises(BoundsError):
            Digraph(2, [(0, 2)])

    def test_opposite_arcs_allowed(self):
        d = Digraph(2, [(0, 1), (1, 0)])
        assert d.has_arc(0, 1) and d.has_arc(1, 0)

    def test_rejects_non_integer_vertices(self):
        # booleans are ints to Python, but not vertices
        with pytest.raises(TypeError, match="not an integer"):
            Digraph(2, [(False, True)])
        with pytest.raises(TypeError, match="not an integer"):
            UndirectedGraph(2, [(True, 0)])


class TestNeighborhoods:
    def test_seven_antihole_counterexample_out_neighbors(self):
        # every vertex points two and four ahead around the hole
        d = c7_counterexample()
        assert sorted(v for u, v in d.arcs if u == 0) == [2, 4]

    def test_bounds_error(self):
        with pytest.raises(BoundsError):
            THREE_CYCLE.has_arc(3, 0)


class TestPredicates:
    def test_empty_set_independent(self):
        assert is_independent(THREE_CYCLE, [])

    def test_arc_breaks_independence(self):
        assert not is_independent(Digraph(2, [(0, 1)]), [0, 1])

    def test_four_cycle_alternating_independent(self):
        assert is_independent(FOUR_CYCLE, [1, 3])

    def test_three_cycle_has_no_kernel_singletons(self):
        for v in range(3):
            assert not is_kernel(THREE_CYCLE, [v])

    def test_arcless_full_set_is_kernel(self):
        d = Digraph(5, [])
        assert is_kernel(d, range(5))

    def test_four_cycle_kernels(self):
        # frozen from the exhaustive scan over all 16 subsets
        assert naive.naive_kernels(4, sorted(FOUR_CYCLE.arcs)) == [
            frozenset({0, 2}),
            frozenset({1, 3}),
        ]
        assert is_kernel(FOUR_CYCLE, [1, 3])
        assert not is_kernel(FOUR_CYCLE, [0, 1])

    def test_empty_set_semi_kernel(self):
        assert is_semi_kernel(THREE_CYCLE, [])

    def test_sink_singleton_semi_kernel(self):
        d = Digraph(3, [(0, 1), (2, 1)])
        assert is_semi_kernel(d, [1])

    def test_three_cycle_singleton_not_semi_kernel(self):
        # N+({0}) = {1} but N-({0}) = {2}
        assert not is_semi_kernel(THREE_CYCLE, [0])

    @settings(max_examples=120, deadline=None)
    @given(digraphs())
    def test_predicates_match_naive(self, d):
        arcs = sorted(d.arcs)
        n = d.vertex_count
        for mask in range(1 << n):
            s = [v for v in range(n) if (mask >> v) & 1]
            assert is_independent(d, s) == naive.naive_is_independent(n, arcs, s)
            assert is_kernel(d, s) == naive.naive_is_kernel(n, arcs, s)
            assert is_semi_kernel(d, s) == naive.naive_is_semi_kernel(n, arcs, s)

    @settings(max_examples=120, deadline=None)
    @given(digraphs())
    def test_kernel_implies_semi_kernel(self, d):
        n = d.vertex_count
        for mask in range(1 << n):
            s = VertexSet.from_mask(n, mask)
            if is_kernel(d, s):
                assert is_semi_kernel(d, s)


class TestStronglyConnectedComponents:
    def test_three_cycle_single_component(self):
        assert strongly_connected_components(THREE_CYCLE).components == ((0, 1, 2),)

    def test_path_chain(self):
        res = strongly_connected_components(Digraph(3, [(0, 1), (1, 2)]))
        assert res.components == ((0,), (1,), (2,))
        assert res.condensation_arcs == frozenset({(0, 1), (1, 2)})

    def test_two_cycle_plus_tail(self):
        res = strongly_connected_components(Digraph(3, [(0, 1), (1, 0), (1, 2)]))
        assert set(map(frozenset, res.components)) == {frozenset({0, 1}), frozenset({2})}

    @settings(max_examples=120, deadline=None)
    @given(digraphs())
    def test_matches_reachability_classes(self, d):
        res = strongly_connected_components(d)
        assert set(map(frozenset, res.components)) == naive.naive_sccs(
            d.vertex_count, sorted(d.arcs)
        )
        assert res.masks == tuple(sum(1 << v for v in comp) for comp in res.components)

    @settings(max_examples=120, deadline=None)
    @given(digraphs())
    def test_condensation_is_topologically_ordered(self, d):
        res = strongly_connected_components(d)
        assert all(i < j for (i, j) in res.condensation_arcs)

    @staticmethod
    def assert_matches_tarjan(d):
        res = strongly_connected_components(d)
        components, component_of, condensation = naive.naive_tarjan(d.vertex_count, d.arcs)
        assert res.components == components
        assert res.component_of == component_of
        assert res.masks == tuple(sum(1 << v for v in comp) for comp in components)
        assert res.condensation_arcs == condensation
        assert res.condensation == tuple(
            sum(1 << j for i2, j in condensation if i2 == i) for i in range(len(components))
        )

    @settings(max_examples=300, deadline=None)
    @given(digraphs(max_n=12))
    def test_matches_pair_set_tarjan(self, d):
        self.assert_matches_tarjan(d)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_pair_set_tarjan_on_large_digraphs(self, seed):
        # a cycle through each block of 1 to 8 shuffled vertices, then
        # random arcs: from none (the blocks are the components) to dense
        # (one large component)
        rng = random.Random(seed)
        n = rng.randint(50, 300)
        order = list(range(n))
        rng.shuffle(order)
        arcs = set()
        while order:
            size = rng.randint(1, 8)
            block, order = order[:size], order[size:]
            arcs |= {(a, b) for a, b in zip(block, block[1:] + block[:1]) if a != b}
        density = [0, 0.1, 0.2, 0.3, 0.4, 0.6, 1, 20][seed] / n
        arcs |= {(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < density}
        self.assert_matches_tarjan(Digraph(n, arcs))

    def test_matches_pair_set_tarjan_on_the_ssw_blue_class(self):
        blue = generate_ssw_instance(0, 200).restriction(ArcColor.BLUE)
        self.assert_matches_tarjan(blue)


class TestCycleEnumeration:
    def test_three_cycle(self):
        assert enumerate_directed_cycles(THREE_CYCLE, parity="odd") == [(0, 1, 2)]

    def test_four_cycle_has_no_odd(self):
        assert enumerate_directed_cycles(FOUR_CYCLE, parity="odd") == []

    def test_seven_antihole_counterexample_matches_naive(self):
        d = c7_counterexample()
        got = set(enumerate_directed_cycles(d, parity="odd", max_len=7))
        assert got == naive.naive_cycles(7, sorted(d.arcs), parity="odd", max_len=7)

    def test_two_cycles_counted(self):
        d = Digraph(2, [(0, 1), (1, 0)])
        assert enumerate_directed_cycles(d, parity="even") == [(0, 1)]

    @settings(max_examples=100, deadline=None)
    @given(digraphs())
    def test_matches_naive_enumeration(self, d):
        for parity in ("odd", "even", "all"):
            got = set(enumerate_directed_cycles(d, parity=parity))
            want = naive.naive_cycles(d.vertex_count, sorted(d.arcs), parity=parity)
            assert got == want

    def test_max_len_truncates(self):
        d = Digraph(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 1)])
        assert enumerate_directed_cycles(d, max_len=2) == [(0, 1)]

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_recursive_version_in_order(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(1, 11)
        density = rng.choice((0.15, 0.3, 0.5))
        arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < density]
        d = Digraph(n, arcs)
        max_len = rng.choice((None, 2, 3, 5))
        budget = rng.choice((None, 50, 2000))
        for parity in ("odd", "even", "all"):
            try:
                want = naive.recursive_directed_cycles(n, arcs, parity, max_len, budget)
            except naive.CycleBudgetHit as hit:
                with pytest.raises(BudgetExceededError) as info:
                    enumerate_directed_cycles(d, parity, max_len, budget)
                assert info.value.partial == hit.partial
            else:
                assert enumerate_directed_cycles(d, parity, max_len, budget) == want


class TestOrientation:
    def test_from_digraph_roundtrip(self):
        base = UndirectedGraph(3, [(0, 1), (1, 2)])
        o = Orientation(base, {(0, 1): "fwd", (1, 2): "both"})
        assert not o.is_simple
        assert Orientation.from_digraph(base, o.to_digraph()) == o

    def test_missing_direction_rejected(self):
        base = UndirectedGraph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="without direction"):
            Orientation(base, {(0, 1): EdgeDirection.FORWARD})

    def test_from_digraph_rejects_unoriented_edge(self):
        base = UndirectedGraph(2, [(0, 1)])
        with pytest.raises(ValueError, match="not oriented"):
            Orientation.from_digraph(base, Digraph(2, []))

    def test_from_digraph_rejects_stray_arcs(self):
        base = UndirectedGraph(3, [(0, 1)])
        with pytest.raises(ValueError, match="outside"):
            Orientation.from_digraph(base, Digraph(3, [(0, 1), (1, 2)]))


class TestColoredDigraph:
    def test_requires_total_coloring(self):
        with pytest.raises(ValueError, match="without a color"):
            ColoredDigraph(Digraph(2, [(0, 1)]), {})

    def test_rejects_color_on_non_arc(self):
        with pytest.raises(ValueError, match="non-arc"):
            ColoredDigraph(Digraph(2, [(0, 1)]), {(0, 1): "b", (1, 0): "r"})

    def test_views_are_built_from_the_masks(self):
        rows = [(2, 0, "r"), (0, 1, ArcColor.BLUE), (1, 0, "r")]
        cd = ColoredDigraph.from_colored_arcs(3, rows)
        assert cd.color == {(0, 1): ArcColor.BLUE, (1, 0): ArcColor.RED, (2, 0): ArcColor.RED}
        assert cd.digraph.arcs == frozenset(cd.color)
        same = ColoredDigraph(Digraph(3, [(1, 0), (2, 0), (0, 1)]), cd.color)
        assert same == cd and hash(same) == hash(cd)
        recolored = ColoredDigraph(cd.digraph, {**cd.color, (2, 0): ArcColor.BLUE})
        assert recolored != cd and recolored.digraph == cd.digraph

    def test_opposite_arcs_can_differ(self):
        cd = ColoredDigraph.from_colored_arcs(2, [(0, 1, "b"), (1, 0, "r")])
        assert cd.restriction(ArcColor.BLUE).arcs == frozenset({(0, 1)})
        assert cd.restriction(ArcColor.RED).arcs == frozenset({(1, 0)})


def _mask_rows(blue_out, red_out):
    """The (u, v, color) rows of color out-masks, blue first."""
    return [
        (u, v, color)
        for color, masks in (("b", blue_out), ("r", red_out))
        for u, mask in enumerate(masks)
        for v in range(mask.bit_length())
        if mask >> v & 1
    ]


class TestFromColorMasks:
    """`ColoredDigraph.from_color_masks` against `from_colored_arcs` on the
    same arcs as rows."""

    @pytest.mark.parametrize(
        "blue_out, red_out, error",
        [
            ([0b001, 0, 0], [0, 0, 0], ValueError),
            ([0, 0, 0], [0, 0, 0b100], ValueError),
            ([0b010, 0, 0], [0b010, 0, 0], ValueError),
            ([0, 0b1000, 0], [0, 0, 0], BoundsError),
            ([0, 0, 0], [0b10, 0, 1 << 70], BoundsError),
        ],
        ids=["blue-loop", "red-loop", "both-colors", "blue-past-n", "red-past-n"],
    )
    def test_refuses_what_rows_refuse(self, blue_out, red_out, error):
        with pytest.raises(error) as by_masks:
            ColoredDigraph.from_color_masks(blue_out, red_out)
        with pytest.raises(error) as by_rows:
            ColoredDigraph.from_colored_arcs(len(blue_out), _mask_rows(blue_out, red_out))
        assert str(by_masks.value) == str(by_rows.value)

    def test_refuses_a_negative_mask_and_unequal_lengths(self):
        with pytest.raises(BoundsError, match=r"arc \(1, 3\) outside \[0, 3\)"):
            ColoredDigraph.from_color_masks([0, 0, 0], [0, -8, 0])
        with pytest.raises(ValueError, match="2 blue out-masks but 3 red ones"):
            ColoredDigraph.from_color_masks([0, 0], [0, 0, 0])

    def test_matches_the_rows_on_seeded_instances(self):
        # sparse and dense instances, so both ways of transposing are taken
        rng = random.Random(28)
        for _ in range(200):
            n = rng.randint(0, 40)
            density = rng.random()
            blue_out, red_out = [0] * n, [0] * n
            for u in range(n):
                for v in range(n):
                    if u != v and rng.random() < density:
                        (blue_out if rng.random() < 0.5 else red_out)[u] |= 1 << v
            got = ColoredDigraph.from_color_masks(blue_out, red_out)
            want = ColoredDigraph.from_colored_arcs(n, _mask_rows(blue_out, red_out))
            assert got == want
            for name in ("_blue_out", "_red_out", "_blue_in", "_red_in"):
                assert getattr(got, name) == getattr(want, name), name
            assert (got.digraph._out, got.digraph._in) == (want.digraph._out, want.digraph._in)

    def test_keeps_no_reference_to_the_caller_lists(self):
        blue_out, red_out = [0b10, 0], [0, 0b01]
        cd = ColoredDigraph.from_color_masks(blue_out, red_out)
        blue_out[0] = red_out[1] = 0
        assert cd.color == {(0, 1): ArcColor.BLUE, (1, 0): ArcColor.RED}


@pytest.mark.parametrize("density", [0.0, 0.05, 0.5, 1.0])
def test_transpose_of_sparse_and_dense_masks(density):
    rng = random.Random(int(density * 100))
    for n in [*range(0, 70), 127, 128, 129, 255, 256, 257]:
        masks = [
            sum(1 << v for v in range(n) if v != u and rng.random() < density) for u in range(n)
        ]
        want = [sum((masks[u] >> v & 1) << u for u in range(n)) for v in range(n)]
        assert _transpose(masks) == want


@pytest.mark.parametrize("n", [1000, 1025, 1500, 4095, 4096, 4097])
def test_transpose_at_both_edges_of_the_whole_matrix_window(n):
    rng = random.Random(n)
    arcs = [(u, v) for u in range(n) for v in rng.sample(range(n), 8) if v != u]
    masks, want = [0] * n, [0] * n
    for u, v in arcs:
        masks[u] |= 1 << v
        want[v] |= 1 << u
    assert _transpose(masks) == want
