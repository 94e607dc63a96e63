import hashlib
import json
import multiprocessing
import os
import random
import tempfile
from itertools import islice, product
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import naive
from kernelkit import (
    ContractError,
    Digraph,
    Orientation,
    SizeCapError,
    UndirectedGraph,
    antiholes,
)
from kernelkit.antiholes import (
    AntiholeLabeling,
    TASK_DEPTH,
    _clique_completions,
    _leaves,
    _live_prefixes,
    _subtree_counter,
    _sweep_tables,
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
    kernel_exists_masks,
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


def complete_graph(k):
    return UndirectedGraph(k, [(u, v) for u in range(k) for v in range(u + 1, k)])


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
        # general mode: the tasks of every depth, in task order, are the
        # whole enumeration
        g, _ = gen_antihole(6)
        whole = core_leaves(g, 3)
        for depth in (1, 2, 3):
            pieces = []
            for prefix in product(range(3), repeat=depth):
                pieces.extend(core_leaves(g, 3, start=prefix))
            assert pieces == whole
        # the live-prefix tasks of a sweep, in task order, are the whole
        # enumeration in both modes, with and without symmetry
        for (n, num_values), symmetry in product([(7, 2), (6, 3)], (False, True)):
            g, _ = gen_antihole(n)
            whole = core_leaves(g, num_values, symmetry)
            edges = tuple(g.sorted_edges())
            tables = _sweep_tables(g, num_values, symmetry)
            for depth in range(9):
                tasks = _live_prefixes(n, edges, num_values, tables, depth)
                assert tasks == sorted(set(tasks))
                pieces = []
                for task in tasks:
                    pieces.extend(core_leaves(g, num_values, symmetry, start=task))
                assert pieces == whole


def core_leaves(graph, num_values, symmetry=False, start=(), fixed=None):
    """The sweep core's leaf sequence from `start`, whose first `fixed`
    digits (all by default) pin the subtree, checking the in-masks it
    keeps at every leaf against masks rebuilt from the digits."""
    n = graph.vertex_count
    edges, completions = _clique_completions(graph, num_values)
    actions = dihedral_edge_actions(AntiholeLabeling(n)) if symmetry else None
    if fixed is None:
        fixed = len(start)
    leaves = []
    for digits, inn in _leaves(n, edges, completions, num_values, start, fixed, actions):
        assert inn == naive.naive_in_masks(n, edges, digits)
        leaves.append(tuple(digits))
    return leaves


def naive_leaves(graph, num_values, symmetry=False):
    """Every clique-acyclic assignment, or the least of each dihedral orbit,
    in lexicographic order."""
    n = graph.vertex_count
    cliques = naive.naive_cliques(n, graph.edges)
    accepted = [
        digits
        for digits, arcs in naive.naive_orientations(graph.edges, num_values)
        if naive.naive_clique_acyclic(n, arcs, cliques)
    ]
    if symmetry:
        actions = dihedral_edge_actions(AntiholeLabeling(n))
        return sorted({canonical_digits(x, actions) for x in accepted})
    return sorted(accepted)


class TestSweepCore:
    @pytest.mark.parametrize("symmetry", [False, True], ids=["full", "symmetry"])
    @pytest.mark.parametrize(
        "n, num_values",
        [(5, 2), (6, 2), (7, 2), (5, 3), (6, 3)],
        ids=["c5-simple", "c6-simple", "c7-simple", "c5-general", "c6-general"],
    )
    def test_leaf_sequence_matches_the_naive_filter(self, n, num_values, symmetry):
        g, _ = gen_antihole(n)
        assert core_leaves(g, num_values, symmetry) == naive_leaves(g, num_values, symmetry)

    @settings(max_examples=40, deadline=None)
    @given(undirected_graphs(max_n=6), st.sampled_from([2, 3]))
    # K4 in general mode needs its own table: its triangles do not decide it
    @example(complete_graph(4), 3)
    def test_leaf_sequence_on_arbitrary_graphs(self, g, num_values):
        assume(num_values ** len(g.edges) <= 2**12)
        assert core_leaves(g, num_values) == naive_leaves(g, num_values)

    @pytest.mark.parametrize("prefix", [(), (0,), (1, 0), (0, 0, 1)], ids=str)
    @pytest.mark.parametrize(
        "n, num_values, orbits", [(8, 2, 1030), (6, 3, 1448)], ids=["c8-simple", "c6-general"]
    )
    def test_incremental_prune_matches_the_full_rescan(self, n, num_values, orbits, prefix):
        g, labeling = gen_antihole(n)
        edges, completions = _clique_completions(g, num_values)
        actions = dihedral_edge_actions(labeling)
        k = len(prefix)
        live = naive.reference_leaves(n, edges[:k], num_values, prefix, actions)
        if not any(live):
            # the prune kills the prefix itself, which the seeded core refuses
            with pytest.raises(ContractError, match="not a live path"):
                _leaves(n, edges, completions, num_values, prefix, k, actions)
            return
        got = [
            (tuple(digits), tuple(inn))
            for digits, inn in _leaves(n, edges, completions, num_values, prefix, k, actions)
        ]
        wanted = list(naive.reference_leaves(n, edges, num_values, prefix, actions))
        assert got == wanted
        if not prefix:
            assert len(got) == orbits

    @pytest.mark.parametrize("n, num_values", [(7, 2), (6, 3)], ids=["c7-simple", "c6-general"])
    def test_truncated_edges_keep_the_whole_group(self, n, num_values):
        # `_live_prefixes` runs the core on the first k edges with the
        # actions of all of them: a comparison blocked at an image position
        # past the k-th edge must wait for good, never index past the lists
        g, labeling = gen_antihole(n)
        edges, completions = _clique_completions(g, num_values)
        actions = dihedral_edge_actions(labeling)
        for k in range(len(edges) + 1):
            got = [
                (tuple(digits), tuple(inn))
                for digits, inn in _leaves(
                    n, edges[:k], completions[:k], num_values, actions=actions
                )
            ]
            assert got == list(
                naive.reference_leaves(n, edges[:k], num_values, (), actions)
            ), k

    @pytest.mark.parametrize("symmetry", [False, True], ids=["full", "symmetry"])
    @pytest.mark.parametrize("n, num_values", [(7, 2), (6, 3)], ids=["c7-simple", "c6-general"])
    def test_seeded_start_continues_the_whole_run(self, n, num_values, symmetry):
        g, _ = gen_antihole(n)
        whole = core_leaves(g, num_values, symmetry)
        rng = random.Random(n * 10 + symmetry)
        for leaf in rng.sample(whole, 8):
            # a leaf or a prefix of one is a lower bound; `fixed` pins its
            # first digits as a task prefix would
            start = leaf[: rng.choice([len(leaf), rng.randrange(len(leaf))])]
            for fixed in {0, min(3, len(start)), len(start)}:
                wanted = [x for x in whole if x >= start and x[:fixed] == start[:fixed]]
                assert core_leaves(g, num_values, symmetry, start, fixed) == wanted

    @pytest.mark.parametrize(
        "start, symmetry",
        [((0,) * 15, False), ((0, 2), False), ((-1,), False), ((1,), True),
         # the directed triangle 0 -> 2 -> 4 -> 0
         ((0, 0, 1, 0, 0, 0, 0, 0, 0), False)],
        ids=["too-long", "digit-2", "negative-digit", "orbit", "triangle"],
    )
    def test_dead_start_is_refused_at_the_call(self, start, symmetry):
        g, labeling = gen_antihole(7)
        edges, completions = _clique_completions(g, 2)
        actions = dihedral_edge_actions(labeling) if symmetry else None
        with pytest.raises(ContractError, match="start"):
            _leaves(7, edges, completions, 2, start, 0, actions)

    def test_prune_hook_skips_subtrees_off_the_start_path(self):
        g, _ = gen_antihole(7)
        edges, completions = _clique_completions(g, 2)
        whole = core_leaves(g, 2)
        start = whole[len(whole) // 3]
        calls = []

        def hook(e, assign, inn, out):
            assert inn == naive.naive_in_masks(7, edges[: e + 1], assign)
            assert out == naive.naive_out_masks(7, edges[: e + 1], assign)
            calls.append(tuple(assign[: e + 1]))
            return assign[e] == 1

        # the hook sits on edges 5 and 9 only
        hooks = [hook if e in (5, 9) else None for e in range(len(edges))]
        got = [tuple(x) for x, _ in _leaves(7, edges, completions, 2, start, 3, None, hooks)]
        # the start path is never offered, so its own subtrees survive
        assert start[:6] not in calls and start[:10] not in calls
        assert got == [
            x for x in whole
            if x >= start and x[:3] == start[:3]
            and (x[5] == 0 or x[:6] == start[:6])
            and (x[9] == 0 or x[:10] == start[:10])
        ]
        assert {len(p) for p in calls} == {6, 10}


LEAF_DIGESTS = json.loads(
    (Path(__file__).resolve().parent / "golden" / "leaf_digests.json").read_text()
)


def leaf_digest(graph, num_values, symmetry=False, limit=None):
    """(leaves, SHA-256) of the core's first `limit` leaves (all by
    default), each leaf hashed as the repr of its (digits, in-masks)
    tuples, in order."""
    n = graph.vertex_count
    edges, completions = _clique_completions(graph, num_values)
    actions = dihedral_edge_actions(AntiholeLabeling(n)) if symmetry else None
    digest = hashlib.sha256()
    leaves = 0
    for digits, inn in islice(_leaves(n, edges, completions, num_values, (), 0, actions), limit):
        digest.update(repr((tuple(digits), tuple(inn))).encode())
        leaves += 1
    return [leaves, digest.hexdigest()]


class TestLeafSequenceGolden:
    """The leaf sequence is part of the behaviour contract: counts,
    witnesses and checkpoints all follow from it.  The digests were taken
    from the allowed-digit-table core that preceded the mask tests; those
    of C9-bar simple and C7-bar general under symmetry, the benchmark's
    symmetric sweeps, from the orbit prune that preceded the wait lists."""

    @pytest.mark.parametrize(
        "key",
        [f"c{n}-simple{s}" for n in (5, 6, 7, 8) for s in ("", "-symmetry")]
        + [f"c{n}-general{s}" for n in (5, 6) for s in ("", "-symmetry")]
        + ["c9-simple-symmetry", "c7-general-symmetry"],
    )
    def test_antihole_leaf_sequence(self, key):
        name, mode, *symmetry = key.split("-")
        graph = gen_antihole(int(name[1:]))[0]
        num_values = 2 if mode == "simple" else 3
        assert leaf_digest(graph, num_values, bool(symmetry)) == LEAF_DIGESTS[key]

    def test_first_leaves_of_c8_general(self):
        # C8-bar's cliques of four vertices are each tested as a whole at
        # their last edge
        digest = leaf_digest(gen_antihole(8)[0], 3, limit=20000)
        assert digest == LEAF_DIGESTS["c8-general-first-20000"]

    def test_k5_general_matches_the_naive_filter(self):
        leaves = core_leaves(complete_graph(5), 3)
        assert len(leaves) == 29281
        assert leaves == naive_leaves(complete_graph(5), 3)


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
            for o in enumerate_simple_clique_acyclic_orientations(g, symmetry_reduction=True)
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
            assert canonical_orientation_key(o) == canonical_digits(base, actions)


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
        g, _ = gen_antihole(7)
        verdict = verify_kernel_solvable(g, graph_id="c7bar")
        assert verdict.verdict == "counterexample"
        circulant = Orientation.from_digraph(g, c7_counterexample())
        assert canonical_orientation_key(verdict.counterexample) == (
            canonical_orientation_key(circulant)
        )

    def test_worker_count_independence(self):
        g, _ = gen_antihole(7)
        sequential = verify_kernel_solvable(g)
        parallel = verify_kernel_solvable(g, jobs=2)
        assert sequential.verdict == parallel.verdict
        assert sequential.orientations_examined == parallel.orientations_examined

    def test_pool_is_no_larger_than_the_tasks(self, monkeypatch):
        # a fake pool records its size and maps in this process, so no
        # worker is started
        sizes = []

        class FakePool:
            def __init__(self, processes):
                sizes.append(processes)

            def imap(self, func, iterable):
                return map(func, iterable)

            def terminate(self):
                pass

        monkeypatch.setattr(multiprocessing, "Pool", FakePool)
        g, _ = gen_antihole(5)
        edges = tuple(g.sorted_edges())
        tasks = _live_prefixes(5, edges, 2, _sweep_tables(g, 2, False), len(edges))
        assert len(tasks) == 32
        sequential = verify_kernel_solvable(g)
        wide = verify_kernel_solvable(g, jobs=500)
        assert sizes == [32]
        assert (wide.verdict, wide.orientations_examined) == (
            sequential.verdict, sequential.orientations_examined
        )
        # one task runs in this process, with no pool at all
        verdict = verify_kernel_solvable(UndirectedGraph(3, []), jobs=500)
        assert (verdict.verdict, verdict.orientations_examined) == ("solvable", 1)
        assert sizes == [32]

    def test_partition_independence(self, monkeypatch):
        g, _ = gen_antihole(7)
        counts = set()
        for depth in (0, 3, 9):
            monkeypatch.setitem(TASK_DEPTH, "simple", depth)
            counts.add(verify_kernel_solvable(g).orientations_examined)
        assert len(counts) == 1
        g, _ = gen_antihole(8)
        for depth in (0, 6, 8, 12):
            monkeypatch.setitem(TASK_DEPTH, "simple", depth)
            verdict = verify_kernel_solvable(g, symmetry_reduction=True)
            assert verdict.orientations_examined == 1030

    def test_symmetry_reduction_same_verdict(self):
        g, _ = gen_antihole(7)
        verdict = verify_kernel_solvable(g, symmetry_reduction=True)
        assert verdict.verdict == "counterexample"
        circulant = Orientation.from_digraph(g, c7_counterexample())
        assert canonical_orientation_key(verdict.counterexample) == (
            canonical_orientation_key(circulant)
        )

    def test_budget_then_resume(self, tmp_path):
        checkpoint = tmp_path / "run.json"
        g, _ = gen_antihole(9)
        first = verify_kernel_solvable(
            g,
            symmetry_reduction=True,
            budget=300,
            checkpoint=str(checkpoint),
        )
        assert first.verdict == "exhausted_budget"
        assert first.orientations_examined == 300
        state = json.loads(checkpoint.read_text())
        assert state["examined"] == 300 and len(state["next"]) == 27
        resumed = verify_kernel_solvable(g, symmetry_reduction=True, checkpoint=str(checkpoint))
        fresh = verify_kernel_solvable(g, symmetry_reduction=True)
        assert resumed.verdict == fresh.verdict == "solvable"
        assert resumed.orientations_examined == fresh.orientations_examined

    # the first task holds 3,573 of C9-bar's 7,963 orbits, so most of
    # these budgets stop inside a task and one stops on its last leaf
    @pytest.mark.parametrize("budget", [1, 1000, 2000, 3573, 4000])
    def test_budgeted_symmetric_run_hands_work_on(self, tmp_path, monkeypatch, budget):
        checkpoint = tmp_path / "run.json"
        g, _ = gen_antihole(9)
        run = dict(symmetry_reduction=True, checkpoint=str(checkpoint))
        first = verify_kernel_solvable(g, budget=budget, **run)
        assert first.verdict == "exhausted_budget"
        state = json.loads(checkpoint.read_text())
        assert state["examined"] == budget and len(state["next"]) == 27
        calls = []

        def counted(*args):
            calls.append(1)
            return kernel_exists_masks(*args)

        monkeypatch.setattr(antiholes, "kernel_exists_masks", counted)
        resumed = verify_kernel_solvable(g, **run)
        assert resumed.verdict == "solvable"
        assert resumed.orientations_examined == 7963
        assert len(calls) == 7963 - budget

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
            del state["next"], state["examined"]
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
            ("next", [0] * 15),
            ("next", [0] * 13 + [2]),
            ("next", [True] + [0] * 13),
            ("next", [-1] + [0] * 7),
            # the directed triangle 0 -> 2 -> 4 -> 0 past the task prefix
            ("next", [0, 0, 1] + [0] * 11),
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
        g, _ = gen_antihole(9)
        verdict = verify_kernel_solvable(g, symmetry_reduction=True, budget=budget)
        assert verdict.verdict == "exhausted_budget"
        assert verdict.orientations_examined == budget

    def test_budget_met_by_a_tasks_last_leaf_is_not_redone(self, tmp_path):
        g, _ = gen_antihole(7)
        edges = tuple(g.sorted_edges())
        tables = _sweep_tables(g, 2, False)
        first, second = _live_prefixes(7, edges, 2, tables, TASK_DEPTH["simple"])[:2]
        leaves = core_leaves(g, 2)
        # a budget equal to the first task's leaves ends exactly on its last
        # leaf, which counts as examined; the next one opens the second task
        budget = sum(1 for leaf in leaves if leaf[:8] == first)
        checkpoint = tmp_path / "run.json"
        verdict = verify_kernel_solvable(g, budget=budget, checkpoint=str(checkpoint))
        assert verdict.verdict == "exhausted_budget"
        state = json.loads(checkpoint.read_text())
        assert state["examined"] == budget
        assert tuple(state["next"]) == leaves[budget]
        assert leaves[budget][:8] == second

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
        g, _ = gen_antihole(9)
        reduced = verify_kernel_solvable(g, symmetry_reduction=True)
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


C7_GENERAL_WITNESS = (0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 0, 1, 0)


def reference_sweep(graph, num_values, budget):
    """`verify_kernel_solvable` as a plain loop: every leaf of the reference
    core goes to the definition of a kernel.  Returns (verdict, examined,
    digits), the digits the witness or, at a budget stop, the first
    unexamined leaf."""
    n = graph.vertex_count
    edges = graph.sorted_edges()
    examined = 0
    for digits, _ in naive.reference_leaves(n, edges, num_values):
        if budget is not None and examined >= budget:
            return "exhausted_budget", examined, digits
        examined += 1
        arcs = naive.naive_arcs(edges, digits)
        if not any(naive.naive_is_kernel(n, arcs, s) for s in naive.subsets(n)):
            return "counterexample", examined, digits
    return "solvable", examined, None


class TestKernelCertificate:
    """Subtrees in which a candidate already absorbs are counted, not
    walked; every count, witness and checkpoint stays leaf-exact."""

    @settings(max_examples=60, deadline=None)
    @given(undirected_graphs(max_n=6), st.sampled_from([2, 3]), st.none() | st.integers(0, 300))
    @example(gen_antihole(5)[0], 3, None)
    @example(gen_antihole(5)[0], 3, 7)
    @example(gen_antihole(6)[0], 2, 40)
    def test_sweep_matches_a_plain_oracle_loop(self, g, num_values, budget):
        assume(num_values ** len(g.edges) <= 2**9)
        wanted, wanted_examined, wanted_digits = reference_sweep(g, num_values, budget)
        mode = "simple" if num_values == 2 else "general"
        with tempfile.TemporaryDirectory() as scratch:
            checkpoint = Path(scratch) / "run.json"
            verdict = verify_kernel_solvable(g, mode, budget=budget, checkpoint=str(checkpoint))
            state = json.loads(checkpoint.read_text())
        assert (verdict.verdict, verdict.orientations_examined) == (wanted, wanted_examined)
        if wanted == "counterexample":
            assert orientation_digits(verdict.counterexample, g.sorted_edges()) == wanted_digits
        if wanted == "exhausted_budget":
            assert tuple(state["next"]) == wanted_digits

    # each budget stops inside a subtree the certificate counts at once: 2
    # leaves from leaf 224 (closing edge 12), 12 from 13,576 and 27 from
    # 15,639 (closing edge 10)
    @pytest.mark.parametrize("budget", [225, 13580, 15650])
    def test_budget_stop_inside_a_certified_subtree(self, tmp_path, budget):
        g, _ = gen_antihole(7)
        edges, completions = _clique_completions(g, 3)
        checkpoint = tmp_path / "run.json"
        first = verify_kernel_solvable(g, "general", budget=budget, checkpoint=str(checkpoint))
        assert first.verdict == "exhausted_budget"
        assert first.orientations_examined == budget
        wanted_next = tuple(next(islice(_leaves(7, edges, completions, 3), budget, None))[0])
        assert tuple(json.loads(checkpoint.read_text())["next"]) == wanted_next
        resumed = verify_kernel_solvable(g, "general", checkpoint=str(checkpoint))
        assert resumed.verdict == "counterexample"
        assert resumed.orientations_examined == 320957
        assert orientation_digits(resumed.counterexample, edges) == C7_GENERAL_WITNESS

    def test_c7_general_witness_is_unchanged(self):
        g, _ = gen_antihole(7)
        verdict = verify_kernel_solvable(g, "general", jobs=2)
        assert verdict.orientations_examined == 320957
        assert orientation_digits(verdict.counterexample, g.sorted_edges()) == C7_GENERAL_WITNESS

    # the two largest trees are walked only from `walk_from` edges down;
    # their whole-tree counts are checked instead: the sweep's 143,334, and
    # 2,851,303 clique-acyclic general orientations of C7-bar, which a BDD
    # model count also finds
    @pytest.mark.parametrize(
        "n, num_values, walk_from, whole",
        [(5, 2, 0, None), (6, 2, 0, None), (7, 2, 0, None), (8, 2, 0, None),
         (9, 2, 10, 143334), (5, 3, 0, None), (6, 3, 0, None), (7, 3, 6, 2851303)],
        ids=["c5-simple", "c6-simple", "c7-simple", "c8-simple", "c9-simple",
             "c5-general", "c6-general", "c7-general"],
    )
    def test_subtree_count_matches_the_walk(self, n, num_values, walk_from, whole):
        g, _ = gen_antihole(n)
        edges = g.sorted_edges()
        tables = _sweep_tables(g, num_values, False)
        assert sorted(s for closed in tables.closing for s in closed) == sorted(tables.candidates)
        m = len(edges)
        count = _subtree_counter(edges, tables.completions, tables.frontier, num_values)

        def count_below(prefix):
            # the counter runs on the lists it is given and leaves them as
            # it found them; the digits past the prefix are stale
            lists = [
                prefix + [num_values - 1] * (m - len(prefix)),
                naive.naive_in_masks(n, edges, prefix),
                naive.naive_out_masks(n, edges, prefix),
            ]
            before = [list(x) for x in lists]
            total = count(*lists, len(prefix))
            assert lists == before
            return total

        if whole is not None:
            assert count_below([]) == whole
        rng = random.Random(n * 10 + num_values)
        for _ in range(2):
            # a random live prefix of every depth, one descent at a time
            prefix = []
            for depth in range(m + 1):
                if depth >= walk_from:
                    wanted = len(core_leaves(g, num_values, start=tuple(prefix)))
                    assert count_below(prefix) == wanted
                if depth < m:
                    # a digit the cliques allow can still lead nowhere
                    cliques = [c for c in naive.naive_cliques(n, edges[: depth + 1]) if len(c) >= 3]
                    prefix.append(rng.choice([
                        d for d in range(num_values)
                        if naive.naive_clique_acyclic(n, naive.naive_arcs(edges, prefix + [d]), cliques)
                        and count_below(prefix + [d])
                    ]))


class TestFindNearSink:
    def test_enumerated_orientations_have_one(self):
        g, _ = gen_antihole(9)
        count = 0
        for o in enumerate_simple_clique_acyclic_orientations(g):
            vertex = find_near_sink(o)
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
        g, _ = gen_antihole(7)
        o = Orientation.from_digraph(g, c7_counterexample())
        with pytest.raises(ContractError, match="at least 9"):
            find_near_sink(o)


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
