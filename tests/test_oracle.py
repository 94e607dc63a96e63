import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive
from kernelkit import (
    Digraph,
    SizeCapError,
    c7_counterexample,
    is_kernel,
)
from kernelkit.oracle import (
    _independence,
    _lex_sets,
    all_clique_masks,
    enumerate_kernels,
    find_kernel_bruteforce,
    is_M_clique_acyclic,
    is_clique_acyclic,
    kernel_exists_masks,
    maximal_independent_set_masks,
)
from strategies import digraphs, undirected_graphs

THREE_CYCLE = Digraph(3, [(0, 1), (1, 2), (2, 0)])
FOUR_CYCLE = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])

# strict 4-cycle on K4 with both diagonals reversible: every triangle has a
# dominated vertex but the full 4-clique has none
K4_DIAGONALS = Digraph(
    4,
    [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (2, 0), (1, 3), (3, 1)],
)


def transitive_tournament(n):
    return Digraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


class TestFindKernel:
    def test_three_cycle_has_none(self):
        report = find_kernel_bruteforce(THREE_CYCLE)
        assert not report.exists and report.witness is None

    def test_transitive_tournament_unique_sink_kernel(self):
        # frozen from the exhaustive scan over all 16 subsets
        assert naive.naive_kernels(4, sorted(transitive_tournament(4).arcs)) == [
            frozenset({3})
        ]
        report = find_kernel_bruteforce(transitive_tournament(4), count_all=True)
        assert report.exists and report.witness.members() == (3,)
        assert report.count == 1

    def test_four_cycle_two_kernels(self):
        assert [k.members() for k in enumerate_kernels(FOUR_CYCLE)] == [
            (0, 2),
            (1, 3),
        ]

    def test_witness_is_lexicographically_least(self):
        report = find_kernel_bruteforce(FOUR_CYCLE)
        assert report.witness.members() == (0, 2)

    def test_cap(self):
        with pytest.raises(SizeCapError, match="constructive"):
            find_kernel_bruteforce(Digraph(30, []), cap=25)

    @settings(max_examples=120, deadline=None)
    @given(digraphs(max_n=7))
    def test_enumeration_matches_subset_scan(self, d):
        got = {frozenset(k.members()) for k in enumerate_kernels(d)}
        assert got == set(naive.naive_kernels(d.vertex_count, sorted(d.arcs)))


class TestMaximalIndependentSets:
    @settings(max_examples=100, deadline=None)
    @given(digraphs())
    def test_exactly_the_maximal_independent_sets(self, d):
        n = d.vertex_count
        arcs = sorted(d.arcs)
        independents = [
            frozenset(s)
            for s in naive.subsets(n)
            if naive.naive_is_independent(n, arcs, s)
        ]
        maximal = {
            s
            for s in independents
            if not any(s < t for t in independents)
        }
        adjacency = [d.adjacency_mask(v) for v in range(n)]
        got = []
        for mask in maximal_independent_set_masks(n, adjacency):
            got.append(frozenset(v for v in range(n) if (mask >> v) & 1))
        assert set(got) == maximal
        assert len(got) == len(maximal)
        assert got == sorted(got, key=lambda s: tuple(sorted(s)))


def _seeded_adjacency(seed, n):
    rng = random.Random(seed)
    density = rng.random()
    adjacency = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                adjacency[u] |= 1 << v
                adjacency[v] |= 1 << u
    return adjacency


class TestEnumeratorOrder:
    """The one explicit-stack enumerator against the recursive generators
    it replaced, order-exactly."""

    @staticmethod
    def assert_same_sequences(n, adjacency):
        assert list(maximal_independent_set_masks(n, adjacency)) == list(
            naive.recursive_maximal_independent_sets(n, adjacency)
        )
        assert list(_lex_sets(n, _independence(n, adjacency))) == list(
            naive.recursive_independent_sets(n, adjacency)
        )
        cliques = list(naive.recursive_cliques(n, adjacency))
        assert list(_lex_sets(n, adjacency)) == cliques
        assert list(all_clique_masks(n, adjacency)) == [
            m for m in cliques if bin(m).count("1") >= 3
        ]

    @settings(max_examples=150, deadline=None)
    @given(undirected_graphs(max_n=10))
    def test_small_graphs(self, g):
        n = g.vertex_count
        self.assert_same_sequences(n, [g.adjacency_mask(v) for v in range(n)])

    @pytest.mark.parametrize("n", range(11, 17))
    def test_seeded_graphs_up_to_sixteen(self, n):
        for seed in range(8):
            self.assert_same_sequences(n, _seeded_adjacency(1000 * n + seed, n))

    def test_empty_graph_has_the_empty_set_as_its_one_mis(self):
        assert list(maximal_independent_set_masks(0, [])) == [0]

    def test_clique_budget_counts_every_clique(self):
        # K3 has seven non-empty cliques: three singletons, three edges
        # and the triangle
        k3 = [0b110, 0b101, 0b011]
        with pytest.raises(SizeCapError):
            list(all_clique_masks(3, k3, budget=6))
        assert list(all_clique_masks(3, k3, budget=7)) == [0b111]
        with pytest.raises(SizeCapError):
            is_clique_acyclic(transitive_tournament(3), budget=6)
        assert is_clique_acyclic(transitive_tournament(3), budget=7).holds


class TestKernelExistsMasks:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_base_graph_candidates_match_naive(self, data):
        # digit 0 orients an edge min -> max, 1 max -> min, 2 both ways
        g = data.draw(undirected_graphs(max_n=6))
        n = g.vertex_count
        arcs = []
        in_masks = [0] * n
        for u, v in g.sorted_edges():
            digit = data.draw(st.integers(0, 2))
            if digit != 1:
                arcs.append((u, v))
                in_masks[v] |= 1 << u
            if digit != 0:
                arcs.append((v, u))
                in_masks[u] |= 1 << v
        candidates = tuple(
            (s, tuple(naive._bits(s)))
            for s in maximal_independent_set_masks(n, [g.adjacency_mask(v) for v in range(n)])
        )
        assert kernel_exists_masks((1 << n) - 1, in_masks, candidates) == bool(
            naive.naive_kernels(n, arcs)
        )


class TestSemiKernelRecursion:
    """The subset-scan recursion in naive.py, an independent kernel
    construction to hold the oracle against."""

    def test_single_vertex(self):
        assert naive.naive_semikernel_recursion(1, []) == {0}

    def test_four_cycle(self):
        result = naive.naive_semikernel_recursion(4, sorted(FOUR_CYCLE.arcs))
        assert is_kernel(FOUR_CYCLE, result)

    def test_three_cycle_reports_failing_subdigraph(self):
        # the first round fails on the whole cycle: none of its 7
        # non-empty subsets is a semi-kernel
        assert naive.naive_semikernel_recursion(3, sorted(THREE_CYCLE.arcs)) is None
        assert naive.naive_nonempty_semi_kernels(3, sorted(THREE_CYCLE.arcs)) == []

    @settings(max_examples=80, deadline=None)
    @given(digraphs())
    def test_result_is_always_a_kernel(self, d):
        result = naive.naive_semikernel_recursion(d.vertex_count, sorted(d.arcs))
        if result is None:
            return
        assert is_kernel(d, result)
        assert find_kernel_bruteforce(d).exists


class TestCliqueAcyclic:
    def test_strict_triangle_violates(self):
        verdict = is_clique_acyclic(THREE_CYCLE)
        assert not verdict.holds and verdict.witness == (0, 1, 2)

    def test_seven_antihole_counterexample_is_clique_acyclic(self):
        assert is_clique_acyclic(c7_counterexample()).holds

    def test_k4_with_reversible_diagonals(self):
        verdict = is_clique_acyclic(K4_DIAGONALS)
        assert not verdict.holds
        assert verdict.witness == (0, 1, 2, 3)
        # ... even though every triangle of it has a dominated vertex
        arcs = K4_DIAGONALS.arcs
        from itertools import combinations

        for triple in combinations(range(4), 3):
            assert any(
                all((y, x) in arcs for y in triple if y != x) for x in triple
            )

    def test_clique_budget(self):
        with pytest.raises(SizeCapError):
            is_clique_acyclic(transitive_tournament(12), budget=10)

    @settings(max_examples=100, deadline=None)
    @given(digraphs())
    def test_matches_naive(self, d):
        assert is_clique_acyclic(d).holds == naive.naive_clique_acyclic(
            d.vertex_count, sorted(d.arcs)
        )


class TestMCliqueAcyclic:
    def test_strict_triangle(self):
        verdict = is_M_clique_acyclic(THREE_CYCLE)
        assert not verdict.holds and verdict.witness == (0, 1, 2)

    def test_fully_reversible_triangle(self):
        d = Digraph(3, [(u, v) for u in range(3) for v in range(3) if u != v])
        assert is_M_clique_acyclic(d).holds

    def test_two_reversible_arcs_suffice(self):
        d = Digraph(3, [(0, 1), (1, 2), (2, 0), (1, 0), (2, 1)])
        assert is_M_clique_acyclic(d).holds

    def test_k4_with_reversible_diagonals_fails(self):
        # each directed triangle of it has exactly one reversible arc
        verdict = is_M_clique_acyclic(K4_DIAGONALS)
        assert not verdict.holds and verdict.witness == (0, 1, 2)

    @settings(max_examples=120, deadline=None)
    @given(digraphs())
    def test_matches_naive(self, d):
        verdict = is_M_clique_acyclic(d)
        assert verdict.holds == naive.naive_m_clique_acyclic(
            d.vertex_count, sorted(d.arcs)
        )
        assert verdict.witness == naive._first_weak_triangle(d.vertex_count, d.arcs)

    @settings(max_examples=120, deadline=None)
    @given(digraphs())
    def test_implies_triangles_dominated(self, d):
        if not is_M_clique_acyclic(d).holds:
            return
        from itertools import combinations

        arcs = d.arcs
        for triple in combinations(range(d.vertex_count), 3):
            a, b, c = triple
            pairs = [(a, b), (a, c), (b, c)]
            if all((x, y) in arcs or (y, x) in arcs for x, y in pairs):
                assert any(
                    all((y, x) in arcs for y in triple if y != x) for x in triple
                )
