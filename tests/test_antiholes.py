import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive
from kernelkit import (
    ContractError,
    Digraph,
    Orientation,
    SizeCapError,
    UndirectedGraph,
)
from kernelkit.antiholes import (
    AntiholeLabeling,
    c7_counterexample,
    canonical_digits,
    canonical_orientation_key,
    dihedral_edge_actions,
    digits_to_orientation,
    enumerate_simple_clique_acyclic_orientations,
    find_near_sink,
    gen_antihole,
    orbit_digits,
    orientation_digits,
    search_clique_acyclic_no_kernel,
    verify_kernel_solvable,
)
from kernelkit.oracle import (
    find_kernel_bruteforce,
    is_clique_acyclic,
    kernel_via_semikernel_recursion,
)
from strategies import undirected_graphs


def parity_orientation(n):
    """Distance-two edges forward around the hole, the rest following the
    same even-step pattern; not clique-acyclic for odd n >= 9."""
    labeling = AntiholeLabeling(n)
    arcs = []
    for step in (2, 4, 6):
        arcs.extend((i, (i + step) % n) for i in range(n))
    return Orientation.from_digraph(labeling.graph(), Digraph(n, arcs))


class TestGenAntihole:
    @pytest.mark.parametrize("n,edges", [(5, 5), (7, 14), (9, 27)])
    def test_edge_counts(self, n, edges):
        graph, _ = gen_antihole(n)
        assert len(graph.edges) == edges == n * (n - 3) // 2

    def test_five_is_the_five_cycle(self):
        graph, _ = gen_antihole(5)
        assert graph.edges == frozenset(
            {(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)}
        )

    def test_too_small_rejected(self):
        with pytest.raises(ContractError):
            gen_antihole(3)

    def test_non_edges_are_hole_neighbors(self):
        graph, labeling = gen_antihole(9)
        for i in range(9):
            j = (i + 1) % 9
            assert (min(i, j), max(i, j)) not in graph.edges


class TestC7Counterexample:
    def test_arc_pattern(self):
        d = c7_counterexample()
        assert d.has_arc(1, 3) and not d.has_arc(3, 1)
        for i in range(7):
            assert d.has_arc(i, (i + 2) % 7)
            assert d.has_arc(i, (i + 4) % 7)

    def test_is_simple_orientation_of_the_antihole(self):
        d = c7_counterexample()
        o = Orientation.from_digraph(gen_antihole(7)[0], d)
        assert o.is_simple

    def test_clique_acyclic_without_kernel(self):
        d = c7_counterexample()
        assert is_clique_acyclic(d).holds
        assert not find_kernel_bruteforce(d).exists


class TestEnumeration:
    def test_single_edge(self):
        g = UndirectedGraph(2, [(0, 1)])
        assert len(list(enumerate_simple_clique_acyclic_orientations(g))) == 2

    def test_triangle_prunes_the_two_strict_cycles(self):
        g = UndirectedGraph(3, [(0, 1), (0, 2), (1, 2)])
        got = list(enumerate_simple_clique_acyclic_orientations(g))
        assert len(got) == 6
        # cross-check against filtering all 8 assignments
        wanted = sum(
            1
            for arcs in naive.naive_simple_orientations(3, g.edges)
            if naive.naive_clique_acyclic(3, arcs)
        )
        assert wanted == 6

    def test_known_counterexample_is_emitted(self):
        g, _ = gen_antihole(7)
        target = Orientation.from_digraph(g, c7_counterexample())
        assert any(
            o == target for o in enumerate_simple_clique_acyclic_orientations(g)
        )

    @settings(max_examples=30, deadline=None)
    @given(undirected_graphs(max_n=5))
    def test_matches_exhaustive_filter(self, g):
        got = {
            tuple(sorted(o.to_digraph().arcs))
            for o in enumerate_simple_clique_acyclic_orientations(g)
        }
        wanted = {
            tuple(sorted(arcs))
            for arcs in naive.naive_simple_orientations(g.vertex_count, g.edges)
            if naive.naive_clique_acyclic(g.vertex_count, arcs)
        }
        assert got == wanted

    def test_edge_cap(self):
        g = UndirectedGraph(12, [(u, v) for u in range(12) for v in range(u + 1, 12)][:33])
        with pytest.raises(SizeCapError):
            list(enumerate_simple_clique_acyclic_orientations(g))

    def test_prefix_partition_is_a_partition(self):
        g, _ = gen_antihole(7)
        whole = [
            orientation_digits(o, g.sorted_edges())
            for o in enumerate_simple_clique_acyclic_orientations(g)
        ]
        pieces = []
        for a in range(2):
            for b in range(2):
                pieces.extend(
                    orientation_digits(o, g.sorted_edges())
                    for o in enumerate_simple_clique_acyclic_orientations(
                        g, prefix=(a, b)
                    )
                )
        assert sorted(pieces) == sorted(whole)


class TestSymmetry:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**14 - 1))
    def test_canonical_form_laws_on_c7(self, bits):
        labeling = AntiholeLabeling(7)
        actions = dihedral_edge_actions(labeling)
        digits = tuple((bits >> i) & 1 for i in range(14))
        canon = canonical_digits(digits, actions)
        assert canon <= digits
        assert canonical_digits(canon, actions) == canon
        assert canon in orbit_digits(digits, actions)
        assert {canonical_digits(x, actions) for x in orbit_digits(digits, actions)} == {canon}

    def test_orbit_expansion_recovers_full_enumeration(self):
        g, labeling = gen_antihole(7)
        edges = labeling.edges()
        actions = dihedral_edge_actions(labeling)
        full = {
            orientation_digits(o, edges)
            for o in enumerate_simple_clique_acyclic_orientations(g)
        }
        reduced = [
            orientation_digits(o, edges)
            for o in enumerate_simple_clique_acyclic_orientations(
                g, symmetry_reduction=True, labeling=labeling
            )
        ]
        expanded = set()
        for digits in reduced:
            assert digits == canonical_digits(digits, actions)
            expanded |= orbit_digits(digits, actions)
        assert expanded == full
        assert len(reduced) < len(full)

    def test_canonical_key_is_orbit_invariant(self):
        g, labeling = gen_antihole(7)
        edges = labeling.edges()
        actions = dihedral_edge_actions(labeling)
        base = orientation_digits(
            Orientation.from_digraph(g, c7_counterexample()), edges
        )
        for image in orbit_digits(base, actions):
            o = digits_to_orientation(image, g, edges)
            assert canonical_orientation_key(o, labeling) == canonical_digits(
                base, actions
            )


class TestVerify:
    def test_c5_counterexample(self):
        g, _ = gen_antihole(5)
        verdict = verify_kernel_solvable(g, graph_id="c5bar")
        assert verdict.verdict == "counterexample"
        d = verdict.counterexample.to_digraph()
        assert verdict.counterexample.is_simple
        assert is_clique_acyclic(d).holds
        assert not find_kernel_bruteforce(d).exists

    def test_c7_counterexample_matches_known_orbit(self):
        g, labeling = gen_antihole(7)
        verdict = verify_kernel_solvable(g, graph_id="c7bar")
        assert verdict.verdict == "counterexample"
        circulant = Orientation.from_digraph(g, c7_counterexample())
        assert canonical_orientation_key(
            verdict.counterexample, labeling
        ) == canonical_orientation_key(circulant, labeling)

    def test_worker_count_independence(self):
        g, _ = gen_antihole(7)
        sequential = verify_kernel_solvable(g)
        parallel = verify_kernel_solvable(g, jobs=2)
        assert sequential.verdict == parallel.verdict
        assert sequential.orientations_examined == parallel.orientations_examined

    def test_partition_independence(self):
        g, _ = gen_antihole(7)
        counts = {
            verify_kernel_solvable(g, prefix_depth=depth).orientations_examined
            for depth in (0, 3, 9)
        }
        assert len(counts) == 1

    def test_symmetry_reduction_same_verdict(self):
        g, labeling = gen_antihole(7)
        verdict = verify_kernel_solvable(
            g, symmetry_reduction=True, labeling=labeling
        )
        assert verdict.verdict == "counterexample"
        circulant = Orientation.from_digraph(g, c7_counterexample())
        assert canonical_orientation_key(
            verdict.counterexample, labeling
        ) == canonical_orientation_key(circulant, labeling)

    def test_budget_then_resume(self, tmp_path):
        checkpoint = tmp_path / "run.json"
        g, labeling = gen_antihole(9)
        first = verify_kernel_solvable(
            g,
            symmetry_reduction=True,
            labeling=labeling,
            budget=300,
            checkpoint=str(checkpoint),
        )
        assert first.verdict == "exhausted_budget"
        assert first.orientations_examined == 300
        state = json.loads(checkpoint.read_text())
        assert state["next_task"] >= 0
        resumed = verify_kernel_solvable(
            g, symmetry_reduction=True, labeling=labeling, checkpoint=str(checkpoint)
        )
        fresh = verify_kernel_solvable(g, symmetry_reduction=True, labeling=labeling)
        assert resumed.verdict == fresh.verdict == "solvable"
        assert resumed.orientations_examined == fresh.orientations_examined

    def test_parallel_run_with_checkpoint(self, tmp_path):
        checkpoint = tmp_path / "par.json"
        g, _ = gen_antihole(7)
        first = verify_kernel_solvable(g, jobs=2, checkpoint=str(checkpoint))
        again = verify_kernel_solvable(g, jobs=2, checkpoint=str(checkpoint))
        assert first.verdict == again.verdict == "counterexample"
        assert first.orientations_examined == again.orientations_examined

    def test_c5_counterexample_is_order_stable(self):
        # enumeration-order anchor: the first kernel-free orientation of the
        # 5-hole sits at position 11; its arcs are the directed pentagram
        # cycle 0 -> 2 -> 4 -> 1 -> 3 -> 0
        g, _ = gen_antihole(5)
        verdict = verify_kernel_solvable(g)
        assert verdict.orientations_examined == 11
        assert orientation_digits(verdict.counterexample, g.sorted_edges()) == (
            0, 1, 0, 1, 0,
        )
        assert sorted(verdict.counterexample.to_digraph().arcs) == [
            (0, 2), (1, 3), (2, 4), (3, 0), (4, 1),
        ]

    @pytest.mark.parametrize(
        "content",
        ['{"signature": ', "[]", None],
        ids=["truncated", "not-an-object", "missing-fields"],
    )
    def test_corrupt_checkpoint_rejected(self, tmp_path, content):
        checkpoint = tmp_path / "run.json"
        g, _ = gen_antihole(7)
        if content is None:
            verify_kernel_solvable(g, checkpoint=str(checkpoint))
            state = json.loads(checkpoint.read_text())
            del state["next_task"], state["examined"]
            content = json.dumps(state)
        checkpoint.write_text(content)
        with pytest.raises(ContractError, match="checkpoint"):
            verify_kernel_solvable(g, checkpoint=str(checkpoint))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("counterexample", [9]),
            ("counterexample", [0] * 13 + [2]),
            ("counterexample", [0] * 13),
            ("counterexample", [0] * 13 + [True]),
            ("counterexample", "0101"),
            ("elapsed_seconds", "soon"),
            ("elapsed_seconds", -1.0),
            ("elapsed_seconds", None),
            ("elapsed_seconds", float("inf")),
        ],
    )
    def test_bad_checkpoint_field_rejected(self, tmp_path, field, value):
        checkpoint = tmp_path / "run.json"
        g, _ = gen_antihole(7)
        verify_kernel_solvable(g, budget=10, checkpoint=str(checkpoint))
        state = json.loads(checkpoint.read_text())
        state[field] = value
        checkpoint.write_text(json.dumps(state))
        with pytest.raises(ContractError, match=field):
            verify_kernel_solvable(g, checkpoint=str(checkpoint))

    def test_checkpointed_counterexample_is_returned(self, tmp_path):
        checkpoint = tmp_path / "run.json"
        g, _ = gen_antihole(7)
        first = verify_kernel_solvable(g, checkpoint=str(checkpoint))
        assert first.verdict == "counterexample"
        again = verify_kernel_solvable(g, checkpoint=str(checkpoint))
        assert again.counterexample == first.counterexample
        assert again.orientations_examined == first.orientations_examined

    @pytest.mark.parametrize("budget", [0, 1, 64])
    def test_budget_counts_leaves_exactly(self, budget):
        g, labeling = gen_antihole(9)
        verdict = verify_kernel_solvable(
            g, symmetry_reduction=True, labeling=labeling, budget=budget
        )
        assert verdict.verdict == "exhausted_budget"
        assert verdict.orientations_examined == budget

    def test_budget_met_by_a_tasks_last_leaf_is_not_redone(self, tmp_path):
        g, _ = gen_antihole(7)
        probe = tmp_path / "probe.json"
        verify_kernel_solvable(g, budget=300, checkpoint=str(probe))
        completed = json.loads(probe.read_text())
        assert completed["examined"] > 0
        # a budget equal to the leaves of the completed tasks ends exactly
        # on the last leaf of a task, which counts as completed
        checkpoint = tmp_path / "run.json"
        verdict = verify_kernel_solvable(
            g, budget=completed["examined"], checkpoint=str(checkpoint)
        )
        assert verdict.verdict == "exhausted_budget"
        state = json.loads(checkpoint.read_text())
        assert state["examined"] == completed["examined"]
        assert state["next_task"] == completed["next_task"]

    def test_failed_checkpoint_write_keeps_the_previous_one(self, tmp_path, monkeypatch):
        checkpoint = tmp_path / "run.json"
        g, _ = gen_antihole(7)
        first = verify_kernel_solvable(g, budget=10, checkpoint=str(checkpoint))
        assert first.verdict == "exhausted_budget"
        before = checkpoint.read_text()

        def crash(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError, match="disk full"):
            verify_kernel_solvable(g, checkpoint=str(checkpoint))
        assert checkpoint.read_text() == before

    def test_checkpoint_signature_mismatch_rejected(self, tmp_path):
        checkpoint = tmp_path / "run.json"
        g7, lab7 = gen_antihole(7)
        verify_kernel_solvable(g7, checkpoint=str(checkpoint))
        g9, _ = gen_antihole(9)
        with pytest.raises(ContractError, match="different run"):
            verify_kernel_solvable(g9, checkpoint=str(checkpoint))

    def test_general_mode_on_triangle(self):
        g = UndirectedGraph(3, [(0, 1), (0, 2), (1, 2)])
        verdict = verify_kernel_solvable(g, mode="general")
        assert verdict.verdict == "solvable"

    def test_general_mode_on_c5(self):
        # every orientation of the 5-hole is clique-acyclic (cliques are
        # edges); directed 5-cycles among them have no kernel
        g, _ = gen_antihole(5)
        verdict = verify_kernel_solvable(g, mode="general")
        assert verdict.verdict == "counterexample"
        d = verdict.counterexample.to_digraph()
        assert is_clique_acyclic(d).holds
        assert not find_kernel_bruteforce(d).exists

    def test_orbit_arithmetic_on_c9(self):
        # 7963 dihedral representatives times the full group order 18 is
        # exactly the unreduced count: no orientation has extra symmetry
        g, labeling = gen_antihole(9)
        reduced = verify_kernel_solvable(
            g, symmetry_reduction=True, labeling=labeling
        )
        assert reduced.verdict == "solvable"
        assert reduced.orientations_examined * 18 == 143334


class TestSearchWitness:
    def test_c7_witness_found(self):
        g, _ = gen_antihole(7)
        outcome = search_clique_acyclic_no_kernel(g)
        assert outcome.status == "witness"
        d = outcome.orientation.to_digraph()
        assert is_clique_acyclic(d).holds
        assert not find_kernel_bruteforce(d).exists

    def test_complete_graph_exhausts(self):
        g = UndirectedGraph(3, [(0, 1), (0, 2), (1, 2)])
        outcome = search_clique_acyclic_no_kernel(g)
        assert outcome.status == "exhausted"

    def test_small_budget_unknown(self):
        g, _ = gen_antihole(9)
        outcome = search_clique_acyclic_no_kernel(g, budget=50)
        assert outcome.status == "unknown"
        assert outcome.orientations_examined == 50
        verdict = verify_kernel_solvable(g, mode="general", budget=50)
        assert verdict.verdict == "exhausted_budget"
        assert verdict.orientations_examined == 50

    @pytest.mark.parametrize(
        "graph",
        [gen_antihole(5)[0], UndirectedGraph(3, [(0, 1), (0, 2), (1, 2)])],
        ids=["antihole5", "k3"],
    )
    def test_agrees_with_general_verify(self, graph):
        outcome = search_clique_acyclic_no_kernel(graph)
        verdict = verify_kernel_solvable(graph, mode="general")
        status = {"counterexample": "witness", "solvable": "exhausted"}[verdict.verdict]
        assert outcome.status == status
        assert outcome.orientations_examined == verdict.orientations_examined
        assert outcome.orientation == verdict.counterexample


class TestFindNearSink:
    def test_enumerated_orientations_have_one(self):
        g, labeling = gen_antihole(9)
        count = 0
        for o in enumerate_simple_clique_acyclic_orientations(g):
            vertex = find_near_sink(o, labeling)
            d = o.to_digraph()
            assert d.has_arc((vertex - 2) % 9, vertex)
            assert d.has_arc((vertex + 2) % 9, vertex)
            count += 1
            if count >= 200:
                break

    def test_parity_pattern_is_not_clique_acyclic(self):
        with pytest.raises(ContractError, match="not clique-acyclic"):
            find_near_sink(parity_orientation(9))

    def test_seven_rejected(self):
        g, labeling = gen_antihole(7)
        o = Orientation.from_digraph(g, c7_counterexample())
        with pytest.raises(ContractError, match="at least 9"):
            find_near_sink(o, labeling)


class TestSemiKernelRecursionOnAntiholes:
    def test_spotcheck_against_recursion(self):
        g, _ = gen_antihole(9)
        checked = 0
        for o in enumerate_simple_clique_acyclic_orientations(g):
            d = o.to_digraph()
            kernel = kernel_via_semikernel_recursion(d)
            from kernelkit import is_kernel

            assert is_kernel(d, kernel)
            checked += 1
            if checked >= 100:
                break
