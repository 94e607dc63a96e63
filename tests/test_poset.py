import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive
from kernelkit.errors import ContractError
from kernelkit.poset import (
    Comparison,
    Poset,
    antichain_leq,
    compare_antichains,
    max_chain_of_antichains,
)
from strategies import all_posets, random_poset


class TestPoset:
    def test_closure_is_taken(self):
        p = Poset(3, [(0, 1), (1, 2)])
        assert p.leq(0, 2)
        assert p.leq(1, 1)

    def test_cycle_rejected(self):
        with pytest.raises(ContractError, match="not a partial order"):
            Poset(2, [(0, 1), (1, 0)])

    def test_antichain_detection(self):
        p = Poset(3, [(0, 1)])
        assert p.is_antichain({1, 2})
        assert not p.is_antichain({0, 1})

    @pytest.mark.parametrize("members", [{0, 3}, {2, 5}, {-1, 0}], ids=str)
    def test_antichain_with_an_outside_element_rejected(self, members):
        with pytest.raises(ContractError, match="outside"):
            Poset(3, [(0, 1)]).is_antichain(members)

    @pytest.mark.parametrize(
        "successors, pair",
        [([0b1000, 0, 0], (0, 3)), ([0, 0, 1 << 7 | 1], (2, 7)), ([0, -1, 0], (1, 3))],
        ids=str,
    )
    def test_mask_bit_outside_refused_like_a_pair(self, successors, pair):
        with pytest.raises(ContractError) as by_mask:
            Poset(3, successors=successors)
        with pytest.raises(ContractError) as by_pair:
            Poset(3, [pair])
        assert str(by_mask.value) == str(by_pair.value) == f"pair {pair} outside [0, 3)"

    def test_one_successor_mask_per_element(self):
        with pytest.raises(ContractError, match="2 successor masks for 3 elements"):
            Poset(3, successors=[0, 0])

    def test_pairs_and_masks_state_one_relation(self):
        assert Poset(3, [(0, 1)], successors=[0, 0b100, 0]) == Poset(3, [(0, 1), (1, 2)])

    @pytest.mark.parametrize("reverse", [False, True], ids=["ascending", "descending"])
    def test_long_chain_closes(self, reverse):
        # the closure walk goes 3,000 elements deep
        n = 3000
        links = [(i + 1, i) if reverse else (i, i + 1) for i in range(n - 1)]
        successors = [0] * n
        for x, y in links:
            successors[x] = 1 << y
        full = (1 << n) - 1
        p = Poset(n, links)
        if reverse:
            assert p._up == [full >> (n - 1 - a) for a in range(n)]
        else:
            assert p._up == [full >> a << a for a in range(n)]
        assert Poset(n, successors=successors) == p
        with pytest.raises(ContractError, match="elements 0 and 1 lie below each other"):
            Poset(n, links + [(0, n - 1) if reverse else (n - 1, 0)])

    def test_linear_extension_respects_order(self):
        p = Poset(4, [(2, 0), (0, 3)])
        order = p.linear_extension()
        assert order.index(2) < order.index(0) < order.index(3)


class TestCompare:
    def test_reflexive_equal(self):
        p = Poset(2, [(0, 1)])
        assert compare_antichains(p, {0}, {0}) is Comparison.EQUAL

    def test_chain_less(self):
        p = Poset(2, [(0, 1)])
        assert compare_antichains(p, {0}, {1}) is Comparison.LESS
        assert compare_antichains(p, {1}, {0}) is Comparison.GREATER

    def test_incomparable_elements(self):
        p = Poset(2)
        assert compare_antichains(p, {0}, {1}) is Comparison.INCOMPARABLE

    def test_empty_antichain_below_everything(self):
        p = Poset(2)
        assert compare_antichains(p, set(), {1}) is Comparison.LESS

    def test_non_antichain_rejected(self):
        p = Poset(2, [(0, 1)])
        with pytest.raises(ContractError, match="not an antichain"):
            compare_antichains(p, {0, 1}, {1})


class TestMaxChain:
    def test_empty_poset(self):
        assert max_chain_of_antichains(Poset(0)) == [frozenset()]

    def test_three_incomparable(self):
        chain = max_chain_of_antichains(Poset(3))
        assert chain == [
            frozenset(),
            frozenset({0}),
            frozenset({0, 1}),
            frozenset({0, 1, 2}),
        ]

    def test_three_chain(self):
        p = Poset(3, [(0, 1), (1, 2)])
        chain = max_chain_of_antichains(p)
        assert chain == [frozenset(), frozenset({0}), frozenset({1}), frozenset({2})]
        for a, b in zip(chain, chain[1:]):
            assert compare_antichains(p, a, b) is Comparison.LESS

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 6))
    def test_chain_has_size_plus_one_strictly_increasing_steps(self, seed, size):
        p = random_poset(seed, size)
        chain = max_chain_of_antichains(p)
        assert len(chain) == size + 1
        for a, b in zip(chain, chain[1:]):
            assert compare_antichains(p, a, b) is Comparison.LESS


class TestAgainstNaive:
    def test_every_relation_on_4_elements(self):
        n = 4
        cells = [(a, b) for a in range(n) for b in range(n) if a != b]
        for bits in range(1 << len(cells)):
            relation = [cell for i, cell in enumerate(cells) if bits >> i & 1]
            successors = [sum(1 << b for x, b in relation if x == a) for a in range(n)]
            reach, witness = naive.naive_order(n, relation)
            if witness is not None:
                a, b = witness
                for stated in ({"relation": relation}, {"successors": successors}):
                    with pytest.raises(ContractError) as refusal:
                        Poset(n, **stated)
                    assert str(refusal.value) == (
                        f"elements {a} and {b} lie below each other: not a partial order"
                    )
                continue
            p = Poset(n, relation)
            assert Poset(n, successors=successors) == p
            assert [[p.leq(a, b) for b in range(n)] for a in range(n)] == reach
            order = naive.naive_linear_extension(reach)
            assert p.linear_extension() == order
            for members in naive.subsets(n):
                assert p.is_antichain(members) == naive.naive_is_antichain(reach, members)
            assert max_chain_of_antichains(p) == naive.naive_max_chain(reach, order)

    @staticmethod
    def assert_matches_naive(n, relation):
        reach, witness = naive.naive_order(n, relation)
        if witness is not None:
            with pytest.raises(ContractError) as refusal:
                Poset(n, relation)
            a, b = witness
            assert str(refusal.value) == (
                f"elements {a} and {b} lie below each other: not a partial order"
            )
            return
        p = Poset(n, relation)
        assert p._up == [sum(1 << b for b in range(n) if reach[a][b]) for a in range(n)]
        order = naive.naive_linear_extension(reach)
        assert p.linear_extension() == order
        assert max_chain_of_antichains(p) == naive.naive_max_chain(reach, order)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_closure_of_dags_labelled_along_and_across_a_topological_order(self, data):
        n = data.draw(st.integers(0, 14))
        upward = [(a, b) for a in range(n) for b in range(a + 1, n)]
        dag = data.draw(st.lists(st.sampled_from(upward), unique=True)) if upward else []
        label = data.draw(st.permutations(range(n)))
        relabelled = [(label[a], label[b]) for a, b in dag]
        # `dag` is labelled along a topological order, so its pairs all
        # point up, as in every condensation; relabelled at random, its
        # pairs point both ways
        self.assert_matches_naive(n, dag)
        self.assert_matches_naive(n, relabelled)
        if dag:
            a, b = data.draw(st.sampled_from(relabelled))
            self.assert_matches_naive(n, relabelled + [(b, a)])


class TestLawsSmall:
    def test_extended_relation_laws_on_all_3_element_posets(self):
        for p in all_posets(3):
            antichains = naive.antichains(p)
            for a in antichains:
                assert antichain_leq(p, a, a)
            for a in antichains:
                for b in antichains:
                    if antichain_leq(p, a, b) and antichain_leq(p, b, a):
                        assert a == b
            for a in antichains:
                for b in antichains:
                    if not antichain_leq(p, a, b):
                        continue
                    for c in antichains:
                        if antichain_leq(p, b, c):
                            assert antichain_leq(p, a, c)

    def test_poset_census_sizes(self):
        # labeled poset counts: 1, 1, 3, 19 for sizes 0..3
        assert sum(1 for _ in all_posets(0)) == 1
        assert sum(1 for _ in all_posets(1)) == 1
        assert sum(1 for _ in all_posets(2)) == 3
        assert sum(1 for _ in all_posets(3)) == 19
