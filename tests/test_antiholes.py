import functools
import hashlib
import json
import multiprocessing
import os
import random
import tempfile
from bisect import bisect_left
from itertools import combinations, islice, product
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import naive
from kernelkit import (
    ContractError,
    Digraph,
    InternalInvariantError,
    Orientation,
    SizeCapError,
    UndirectedGraph,
    antiholes,
)
from kernelkit.antiholes import (
    AntiholeLabeling,
    TASK_DEPTH,
    _check_start,
    _clique_completions,
    _dp_tables,
    _live_prefixes,
    _Sweep,
    _walk,
    c7_counterexample,
    canonical_digits,
    canonical_orientation_key,
    dihedral_edge_actions,
    digits_to_orientation,
    enumerate_simple_clique_acyclic_orientations,
    find_near_sink,
    gen_antihole,
    orientation_digits,
    search_clique_acyclic_no_kernel,
    verify_kernel_solvable,
)
from kernelkit.digraph import bits_of, is_kernel
from kernelkit.oracle import (
    find_kernel_bruteforce,
    is_clique_acyclic,
    kernel_exists_masks,
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

    def test_a_failed_recheck_raises_under_python_o_too(self, monkeypatch):
        # the re-check is no `assert`, which `python -O` would strip
        found = SimpleNamespace(exists=True)
        monkeypatch.setattr(antiholes, "find_kernel_bruteforce", lambda digraph: found)
        with pytest.raises(InternalInvariantError, match="has a kernel"):
            c7_counterexample()

    def test_only_kernel_free_orbit(self):
        # up to the dihedral group, the only simple clique-acyclic
        # orientation of the 7-vertex anti-hole with no kernel
        g, _ = gen_antihole(7)
        orientations = list(enumerate_simple_clique_acyclic_orientations(g))
        kernel_free = [o for o in orientations if not find_kernel_bruteforce(o.to_digraph()).exists]
        assert (len(orientations), len(kernel_free)) == (2186, 2)
        circulant = Orientation.from_digraph(g, c7_counterexample())
        assert {canonical_orientation_key(o) for o in kernel_free} == {
            canonical_orientation_key(circulant)
        }


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
        # both sweep entry points refuse 33 edges
        g = UndirectedGraph(12, [(u, v) for u in range(12) for v in range(u + 1, 12)][:33])
        with pytest.raises(SizeCapError):
            list(enumerate_simple_clique_acyclic_orientations(g))
        with pytest.raises(SizeCapError):
            verify_kernel_solvable(g)

    def test_vertex_cap(self):
        # both sweep entry points refuse 26 edgeless vertices, the kernel
        # oracle's cap plus one, and accept 25
        g = UndirectedGraph(26)
        with pytest.raises(SizeCapError, match="26 vertices exceed the sweep cap of 25"):
            list(enumerate_simple_clique_acyclic_orientations(g))
        with pytest.raises(SizeCapError, match="26 vertices exceed the sweep cap of 25"):
            verify_kernel_solvable(g)
        g = UndirectedGraph(25)
        assert len(list(enumerate_simple_clique_acyclic_orientations(g))) == 1
        verdict = verify_kernel_solvable(g)
        assert (verdict.verdict, verdict.orientations_examined) == ("solvable", 1)

    @pytest.mark.parametrize(
        "g", [UndirectedGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), UndirectedGraph(3, [])],
        ids=["path", "too-small"],
    )
    def test_symmetry_needs_the_antihole(self, g):
        # both sweep entry points refuse symmetry reduction off the anti-hole
        with pytest.raises(ContractError, match="anti-hole"):
            list(enumerate_simple_clique_acyclic_orientations(g, symmetry_reduction=True))
        with pytest.raises(ContractError, match="anti-hole"):
            verify_kernel_solvable(g, symmetry_reduction=True)

    def test_prefix_partition_is_a_partition(self):
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
        # enumeration in both modes, with and without symmetry, at every
        # depth.  The 6-vertex anti-hole's 8-edge prefix holds whole
        # triangles, so there a prefix walk's own fields force digits while
        # image positions past the prefix are read too.  The 8-vertex
        # anti-hole runs under symmetry only: only the orbit prune reads
        # forced digits, and its 16,480 leaves without symmetry would make
        # this the slowest test by far
        for n, num_values, symmetry in [
            (6, 2, False), (6, 2, True), (7, 2, False), (7, 2, True), (8, 2, True),
            (6, 3, False), (6, 3, True),
        ]:
            g, _ = gen_antihole(n)
            whole = core_leaves(g, num_values, symmetry)
            tables = plain_tables(g, num_values, antihole_actions(n) if symmetry else None)
            for depth in range(len(tables.edges) + 1):
                tasks = _live_prefixes(tables, depth)
                assert tasks == sorted(set(tasks))
                pieces = []
                # each task passes the start check up to the depth a sweep
                # cuts at; past it the checks would take most of the test
                checked = depth <= TASK_DEPTH["simple"]
                for task in tasks:
                    pieces.extend(
                        core_leaves(g, num_values, symmetry, start=task, check_start=checked)
                    )
                assert pieces == whole, (n, num_values, symmetry, depth)


cached_tables = functools.cache(_dp_tables)


def plain_tables(graph, num_values, actions=None):
    """The walk's tables with no kernel candidates, so the walk yields
    every leaf, cached per graph, digit count and group."""
    return cached_tables(graph, num_values, (), None if actions is None else tuple(actions))


def walk_leaves(graph, num_values, start=(), fixed=0, actions=None):
    """The sweep walk's (rank, digits, in-masks) leaves."""
    return _walk(plain_tables(graph, num_values, actions), start, fixed)


@functools.cache
def antihole_actions(n):
    return dihedral_edge_actions(AntiholeLabeling(n))


def core_leaves(graph, num_values, symmetry=False, start=(), fixed=None, check_start=True):
    """The sweep walk's leaf sequence from a live `start`, whose first
    `fixed` digits (all by default) pin the subtree, checking the in-masks
    it keeps at every leaf against masks rebuilt from the digits, and
    unless told not to, that the start check accepts `start`."""
    n = graph.vertex_count
    edges = graph.sorted_edges()
    actions = antihole_actions(n) if symmetry else None
    if fixed is None:
        fixed = len(start)
    if check_start:
        _check_start(plain_tables(graph, num_values, actions), start)
    leaves = []
    for _, digits, inn in walk_leaves(graph, num_values, start, fixed, actions):
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
        edges = g.sorted_edges()
        actions = dihedral_edge_actions(labeling)
        k = len(prefix)
        live = naive.reference_leaves(n, edges[:k], num_values, prefix, actions)
        if not any(live):
            # the prune kills the prefix itself, which a start check refuses
            with pytest.raises(ContractError, match="not a live path"):
                _check_start(plain_tables(g, num_values, actions), prefix)
            return
        got = [
            (tuple(digits), tuple(inn))
            for _, digits, inn in walk_leaves(g, num_values, prefix, k, actions)
        ]
        wanted = list(naive.reference_leaves(n, edges, num_values, prefix, actions))
        assert got == wanted
        if not prefix:
            assert len(got) == orbits

    @pytest.mark.parametrize("n, num_values", [(7, 2), (6, 3)], ids=["c7-simple", "c6-general"])
    def test_truncated_edges_keep_the_whole_group(self, n, num_values):
        # `_live_prefixes` walks the first k edges with the actions of all
        # of them: a comparison blocked at an image position past the k-th
        # edge must wait for good, never index past the lists
        g, labeling = gen_antihole(n)
        edges = g.sorted_edges()
        actions = dihedral_edge_actions(labeling)
        for k in range(len(edges) + 1):
            prefix_graph = UndirectedGraph(n, edges[:k])
            got = [
                (tuple(digits), tuple(inn))
                for _, digits, inn in walk_leaves(prefix_graph, num_values, actions=actions)
            ]
            assert got == list(
                naive.reference_leaves(n, edges[:k], num_values, (), actions)
            ), k

    @pytest.mark.parametrize("symmetry", [False, True], ids=["full", "symmetry"])
    @pytest.mark.parametrize(
        "n, num_values", [(7, 2), (8, 2), (6, 3)], ids=["c7-simple", "c8-simple", "c6-general"]
    )
    def test_seeded_start_continues_the_whole_run(self, n, num_values, symmetry):
        # seeded paths meet the prunes on forced digits, most often in the
        # 8-vertex anti-hole
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
        actions = dihedral_edge_actions(labeling) if symmetry else None
        with pytest.raises(ContractError, match="start"):
            _check_start(plain_tables(g, 2, actions), start)

    @pytest.mark.parametrize("symmetry", [False, True], ids=["full", "symmetry"])
    def test_live_start_with_no_leaf_below_is_not_refused(self, symmetry):
        # the starts every clique test along them and the symmetry prune
        # accept, but below which the forward test leaves some later edge
        # no digit (or the prune kills every leaf)
        g, labeling = gen_antihole(7)
        edges = g.sorted_edges()
        actions = dihedral_edge_actions(labeling) if symmetry else None
        whole = core_leaves(g, 2, symmetry)
        reached = {leaf[:k] for leaf in whole for k in range(len(edges))}
        emptied = [
            digits
            for k in range(len(edges))
            for digits, _ in naive.reference_leaves(7, edges[:k], 2, (), actions)
            if digits not in reached
        ]
        assert len(emptied) > 100
        for start in emptied[:: len(emptied) // 20]:
            assert core_leaves(g, 2, symmetry, start) == []
            # unpinned, the run goes on past the empty subtree
            assert core_leaves(g, 2, symmetry, start, 0) == [x for x in whole if x >= start]


def forward_table(graph, num_values):
    """`_clique_completions`' tests as (edge tested at, clique, last edge,
    members off the last edge) tuples, sorted."""
    edges = graph.sorted_edges()
    table = []
    for members, (*_, second, last) in _clique_completions(graph, num_values):
        clique = tuple(bits_of(members))
        rest = tuple(x for x in clique if x not in edges[last])
        table.append((second if len(clique) == 3 else last, clique, last, rest))
    return sorted(table)


def naive_forward_table(graph, num_values):
    """Each triangle at its second-to-last edge, and in general mode each
    larger clique at its last edge, from the naive clique list."""
    edges = graph.sorted_edges()
    index = {e: i for i, e in enumerate(edges)}
    table = []
    for clique in naive.naive_cliques(graph.vertex_count, graph.edges):
        if len(clique) < 3 or len(clique) > 3 and num_values == 2:
            continue
        *_, second, last = sorted(index[pair] for pair in combinations(clique, 2))
        rest = tuple(x for x in clique if x not in edges[last])
        table.append((second if len(clique) == 3 else last, clique, last, rest))
    return sorted(table)


class TestForwardTable:
    @pytest.mark.parametrize(
        "n, num_values",
        [(n, 2) for n in (5, 6, 7, 8, 9)] + [(n, 3) for n in (5, 6, 7)],
        ids=lambda x: str(x),
    )
    def test_antihole_cliques_listed_once(self, n, num_values):
        g, _ = gen_antihole(n)
        # the naive list holds each clique once
        assert forward_table(g, num_values) == naive_forward_table(g, num_values)

    @settings(max_examples=60, deadline=None)
    @given(undirected_graphs(max_n=6), st.sampled_from([2, 3]))
    @example(complete_graph(5), 3)
    def test_arbitrary_graph_cliques_listed_once(self, g, num_values):
        assert forward_table(g, num_values) == naive_forward_table(g, num_values)

    @pytest.mark.parametrize(
        "g, num_values",
        [(gen_antihole(n)[0], 2) for n in (5, 6, 7, 8, 9)]
        + [(gen_antihole(n)[0], 3) for n in (5, 6, 7)]
        + [(complete_graph(5), 3)],
        ids=[f"c{n}-simple" for n in (5, 6, 7, 8, 9)]
        + [f"c{n}-general" for n in (5, 6, 7)] + ["k5-general"],
    )
    def test_wake_table_matches_the_clique_list(self, g, num_values):
        # an edge's field narrows at the second-to-last edge of each tested
        # clique whose last edge it is; in general mode cliques of 4-5
        # vertices narrow it too
        edges = g.sorted_edges()
        index = {e: i for i, e in enumerate(edges)}
        narrowed_at = {i: set() for i in range(len(edges))}
        for clique in naive.naive_cliques(g.vertex_count, g.edges):
            if len(clique) < 3 or len(clique) > 3 and num_values == 2:
                continue
            *_, second, last = sorted(index[pair] for pair in combinations(clique, 2))
            narrowed_at[last].add(second)
        wake = _dp_tables(g, num_values).wake
        m = len(edges)
        for i in range(m):
            for e in range(m):
                later = [k for k in narrowed_at[i] if e < k < i]
                assert wake[i][e] == min(later, default=i), (i, e)


LEAF_DIGESTS = json.loads(
    (Path(__file__).resolve().parent / "golden" / "leaf_digests.json").read_text()
)


def leaf_digest(graph, num_values, symmetry=False, limit=None):
    """(leaves, SHA-256) of the walk's first `limit` leaves (all by
    default), each leaf hashed as the repr of its (digits, in-masks)
    tuples, in order."""
    n = graph.vertex_count
    actions = dihedral_edge_actions(AntiholeLabeling(n)) if symmetry else None
    digest = hashlib.sha256()
    leaves = 0
    for _, digits, inn in islice(walk_leaves(graph, num_values, actions=actions), limit):
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

    def test_first_leaves_of_c8_general_under_symmetry(self):
        # the cliques of four vertices under the dihedral group's prune
        digest = leaf_digest(gen_antihole(8)[0], 3, True, limit=20000)
        assert digest == LEAF_DIGESTS["c8-general-symmetry-first-20000"]

    def test_k5_general_matches_the_naive_filter(self):
        leaves = core_leaves(complete_graph(5), 3)
        assert len(leaves) == 29281
        assert leaves == naive_leaves(complete_graph(5), 3)


TASK_LISTS = json.loads(
    (Path(__file__).resolve().parent / "golden" / "task_lists.json").read_text()
)


def task_digest(graph, mode, symmetry):
    """(tasks, SHA-256) of a sweep's prefix tasks, each hashed as the repr
    of its digit tuple, in order."""
    num_values = 2 if mode == "simple" else 3
    actions = antihole_actions(graph.vertex_count) if symmetry else None
    tables = plain_tables(graph, num_values, actions)
    tasks = _live_prefixes(tables, min(TASK_DEPTH[mode], len(tables.edges)))
    digest = hashlib.sha256()
    for task in tasks:
        digest.update(repr(tuple(task)).encode())
    return [len(tasks), digest.hexdigest()]


class TestTaskListGolden:
    """A checkpoint's cursor is bisected into the task list, so the list
    is part of the checkpoint format.  The digests were taken from the
    walk that preceded the one sweep walk."""

    @pytest.mark.parametrize(
        "key",
        [f"c{n}-simple{s}" for n in (5, 6, 7, 8, 9) for s in ("", "-symmetry")]
        + [f"c{n}-general{s}" for n in (5, 6, 7) for s in ("", "-symmetry")],
    )
    def test_antihole_task_list(self, key):
        name, mode, *symmetry = key.split("-")
        graph = gen_antihole(int(name[1:]))[0]
        assert task_digest(graph, mode, bool(symmetry)) == TASK_LISTS[key]

    def test_k5_general_task_list(self):
        assert task_digest(complete_graph(5), "general", False) == TASK_LISTS["k5-general"]


SYMMETRIC_CHECKPOINTS = json.loads(
    (Path(__file__).resolve().parent / "golden" / "symmetric_checkpoints.json").read_text()
)


class TestSymmetricCheckpointGolden:
    """`--symmetry` checkpoints of C7-bar and C9-bar simple written by the
    walk that tested each clique at its last edge: budget stops, and one
    run stopped between tasks, `elapsed_seconds` set to 0.  Each resumes to
    the verdict and count of an uninterrupted run."""

    @pytest.mark.parametrize(
        "entry", SYMMETRIC_CHECKPOINTS, ids=lambda e: f"c{e['n']}-{e['stop'].replace(' ', '-')}"
    )
    def test_checkpoint_resumes_to_the_recorded_verdict(self, tmp_path, entry):
        checkpoint = tmp_path / "run.json"
        checkpoint.write_text(json.dumps(entry["checkpoint"]))
        g, _ = gen_antihole(entry["n"])
        verdict = verify_kernel_solvable(g, symmetry_reduction=True, checkpoint=str(checkpoint))
        assert verdict.verdict == entry["verdict"]
        assert verdict.orientations_examined == entry["examined"]


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
        orbit = naive.orbit_digits(digits, actions)
        assert canon in orbit
        assert {canonical_digits(x, actions) for x in orbit} == {canon}

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda o: list(enumerate_simple_clique_acyclic_orientations(
                o.base, symmetry_reduction=True)),
             "symmetry reduction needs the 3-vertex anti-hole"),
            (canonical_orientation_key, "orientation does not live on the labeled anti-hole"),
            (find_near_sink, "orientation does not live on the labeled anti-hole"),
        ],
        ids=["symmetry", "canonical-key", "near-sink"],
    )
    def test_three_vertices_refused_with_the_callers_reason(self, call, message):
        triangle = UndirectedGraph(3, [(0, 1), (0, 2), (1, 2)])
        o = Orientation.from_digraph(triangle, Digraph(3, [(0, 1), (0, 2), (1, 2)]))
        with pytest.raises(ContractError) as refusal:
            call(o)
        assert str(refusal.value) == message

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
            expanded |= naive.orbit_digits(digits, actions)
        assert expanded == full
        assert len(reduced) < len(full)

    def test_canonical_key_is_orbit_invariant(self):
        g, labeling = gen_antihole(7)
        edges = labeling.edges()
        actions = dihedral_edge_actions(labeling)
        base = orientation_digits(
            Orientation.from_digraph(g, c7_counterexample()), edges
        )
        for image in naive.orbit_digits(base, actions):
            o = digits_to_orientation(image, g, edges)
            assert canonical_orientation_key(o) == canonical_digits(base, actions)


@pytest.fixture
def fake_pool(monkeypatch):
    """Record (processes, chunksize) of each worker pool a sweep opens; the
    fake pool maps in this process, so no worker is started."""
    opened = []

    class FakePool:
        def __init__(self, processes, initializer, initargs):
            opened.append(processes)
            initializer(*initargs)

        def imap(self, func, iterable, chunksize=1):
            opened[-1] = (opened[-1], chunksize)
            return map(func, iterable)

        def terminate(self):
            pass

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    # the fake's initializer sets the worker sweep of this process
    monkeypatch.setattr(antiholes, "_worker", None)
    return opened


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

    def test_pool_is_no_larger_than_the_tasks(self, fake_pool):
        g, _ = gen_antihole(5)
        tasks = _live_prefixes(plain_tables(g, 2), len(g.edges))
        assert len(tasks) == 32
        sequential = verify_kernel_solvable(g)
        wide = verify_kernel_solvable(g, jobs=500)
        # C5-bar has a counterexample, so the interleaved pass and the
        # sorted sweep each open a pool, each no larger than its 32 tasks
        assert [size for size, _ in fake_pool] == [32, 32]
        assert (wide.verdict, wide.orientations_examined) == (
            sequential.verdict, sequential.orientations_examined
        )
        # one task runs in this process, with no pool at all
        verdict = verify_kernel_solvable(UndirectedGraph(3, []), jobs=500)
        assert (verdict.verdict, verdict.orientations_examined) == ("solvable", 1)
        assert len(fake_pool) == 2

    def test_pool_workers_take_task_runs_without_symmetry(self, fake_pool):
        g, _ = gen_antihole(5)
        plain = verify_kernel_solvable(g, jobs=2)
        # 32 tasks on 2 workers: runs of 32 // (4 * 2) tasks in both passes
        assert fake_pool == [(2, 4), (2, 4)]
        fake_pool.clear()
        reduced = verify_kernel_solvable(g, symmetry_reduction=True, jobs=2)
        assert fake_pool == [(2, 1)]
        for run, symmetry in ((plain, False), (reduced, True)):
            alone = verify_kernel_solvable(g, symmetry_reduction=symmetry)
            assert (run.verdict, run.orientations_examined) == (
                alone.verdict, alone.orientations_examined
            )

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
        first, second = _live_prefixes(plain_tables(g, 2), TASK_DEPTH["simple"])[:2]
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
    """Without symmetry the walk counts the leaves on a memo of subtree
    states, not one by one; every count, witness and checkpoint stays
    leaf-exact."""

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

    # budgets that end inside a prefix task: the stop and the checkpoint's
    # `next` are the leaf the walk puts at that rank
    @pytest.mark.parametrize("budget", [225, 13580, 15650])
    def test_budget_stop_inside_a_certified_subtree(self, tmp_path, budget):
        g, _ = gen_antihole(7)
        edges = g.sorted_edges()
        checkpoint = tmp_path / "run.json"
        first = verify_kernel_solvable(g, "general", budget=budget, checkpoint=str(checkpoint))
        assert first.verdict == "exhausted_budget"
        assert first.orientations_examined == budget
        wanted_next = tuple(next(islice(walk_leaves(g, 3), budget, None))[1])
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
        sweep = _Sweep(g, num_values, None)
        m = len(edges)
        # from a certified root every leaf has a kernel, so the walk counts
        # the whole subtree and yields no leaf
        counting = sweep.dp._replace(root=sweep.dp.certified)
        if whole is not None:
            assert walk_stop(counting, memo=[{} for _ in edges]) == (
                whole, None
            )
        rng = random.Random(n * 10 + num_values)
        reference = {}
        for _ in range(2):
            # a random live prefix of every depth, one descent at a time;
            # the reference leaves below it, narrowed as it grows
            prefix = ()
            below = None
            for depth in range(m + 1):
                if depth == walk_from:
                    if prefix not in reference:
                        reference[prefix] = list(naive.reference_leaves(n, edges, num_values, prefix))
                    below = reference[prefix]
                elif depth > walk_from:
                    below = [leaf for leaf in below if leaf[0][depth - 1] == prefix[-1]]
                if below is not None:
                    wanted = reference_stop(below, n, sweep.candidates)
                    for memo in (None, [{} for _ in edges]):
                        got = walk_stop(counting, prefix, depth, memo=memo)
                        assert got == (len(below), None)
                    for memo in (None, [{} for _ in edges]):
                        got = walk_stop(sweep.dp, prefix, depth, memo=memo)
                        assert got == wanted
                if depth < m:
                    live = [
                        d for d in range(num_values)
                        if next(walk_leaves(g, num_values, prefix + (d,), depth + 1), None)
                    ]
                    prefix += (rng.choice(live),)


def walk_stop(dp, start=(), fixed=0, limit=None, memo=None):
    """What a sweep task takes from the walk: (leaves counted, None) once
    it ends, else the rank and digits of the first leaf it yields."""
    walk = _walk(dp, start, fixed, limit, memo)
    try:
        rank, digits, _ = next(walk)
    except StopIteration as done:
        return done.value, None
    return rank, tuple(digits)


def reference_stop(leaves, n, candidates):
    """`walk_stop`'s answer from reference (digits, in-masks) leaves: the
    rank and digits of the first with no kernel, else (their number,
    None)."""
    for rank, (digits, inn) in enumerate(leaves):
        if not kernel_exists_masks((1 << n) - 1, inn, candidates):
            return rank, digits
    return len(leaves), None


class TestLargerCliques:
    """No anti-hole up to C7-bar has a clique of four vertices, so complete
    graphs carry the general-mode tests of larger cliques."""

    @pytest.mark.parametrize(
        "k, mode, examined",
        [(4, "simple", 24), (4, "general", 543), (5, "simple", 120), (5, "general", 29281)],
    )
    def test_complete_graphs_are_solvable(self, k, mode, examined):
        verdict = verify_kernel_solvable(complete_graph(k), mode)
        assert (verdict.verdict, verdict.orientations_examined) == ("solvable", examined)

    @pytest.mark.parametrize("budget", [0, 1, 542, 9000, 29280])
    def test_budget_stops_on_k5_general(self, tmp_path, budget):
        g = complete_graph(5)
        checkpoint = tmp_path / "run.json"
        first = verify_kernel_solvable(g, "general", budget=budget, checkpoint=str(checkpoint))
        assert (first.verdict, first.orientations_examined) == ("exhausted_budget", budget)
        wanted_next = tuple(next(islice(walk_leaves(g, 3), budget, None))[1])
        assert tuple(json.loads(checkpoint.read_text())["next"]) == wanted_next
        resumed = verify_kernel_solvable(g, "general", checkpoint=str(checkpoint))
        assert (resumed.verdict, resumed.orientations_examined) == ("solvable", 29281)

    # K5, two cliques of four vertices sharing a triangle (K5 less an edge),
    # and one whose edges interleave in edge order with those of outside
    # triangles
    @pytest.mark.parametrize(
        "n, edges",
        [
            (5, [(u, v) for u in range(5) for v in range(u + 1, 5)]),
            (5, [(u, v) for u in range(5) for v in range(u + 1, 5) if (u, v) != (0, 4)]),
            (6, [(0, 2), (0, 3), (0, 5), (2, 3), (2, 5), (3, 5), (0, 1), (1, 2), (3, 4), (4, 5)]),
        ],
        ids=["k5", "k5-less-an-edge", "k4-among-triangles"],
    )
    def test_general_counts_match_the_walk(self, n, edges):
        g = UndirectedGraph(n, edges)
        edges = g.sorted_edges()
        sweep = _Sweep(g, 3, None)
        # from a certified root every leaf counts
        counting = sweep.dp._replace(root=sweep.dp.certified)
        whole = list(naive.reference_leaves(n, edges, 3))
        for prefix in product(range(3), repeat=3):
            wanted = sum(1 for digits, _ in whole if digits[:3] == prefix)
            for memo in (None, [{} for _ in edges]):
                assert walk_stop(counting, prefix, 3, memo=memo) == (wanted, None)
        wanted = reference_stop(whole, n, sweep.candidates)
        for memo in (None, [{} for _ in edges]):
            assert walk_stop(sweep.dp, memo=memo) == wanted


def memo_sizes(monkeypatch):
    """Record the size of the memo each sweep task's walk starts with."""
    sizes = []

    def recording(dp, start=(), fixed=0, limit=None, memo=None):
        if memo is not None:
            sizes.append(sum(map(len, memo)))
        return _walk(dp, start, fixed, limit, memo)

    monkeypatch.setattr(antiholes, "_walk", recording)
    return sizes


def memo_depths(monkeypatch):
    """Record, for each sweep task's walk, the last depth whose states hold
    a digit its prefix pins and the memo's size at each depth as it starts."""
    starts = []

    def recording(dp, start=(), fixed=0, limit=None, memo=None):
        if memo is not None:
            pinned = max(dp.keep_until[:fixed], default=-1)
            starts.append((pinned, [len(states) for states in memo]))
        return _walk(dp, start, fixed, limit, memo)

    monkeypatch.setattr(antiholes, "_walk", recording)
    return starts


def budget_stop_matches_the_walk(tmp_path, graph, mode, budget, whole):
    """A budgeted run stops at `budget` with the leaf the walk puts at that
    rank as its checkpoint's `next`, and resumes to `whole` orientations."""
    num_values = 2 if mode == "simple" else 3
    checkpoint = tmp_path / f"run-{budget}.json"
    first = verify_kernel_solvable(graph, mode, budget=budget, checkpoint=str(checkpoint))
    assert (first.verdict, first.orientations_examined) == ("exhausted_budget", budget)
    wanted_next = tuple(next(islice(walk_leaves(graph, num_values), budget, None))[1])
    assert tuple(json.loads(checkpoint.read_text())["next"]) == wanted_next
    resumed = verify_kernel_solvable(graph, mode, checkpoint=str(checkpoint))
    assert (resumed.verdict, resumed.orientations_examined) == ("solvable", whole)


class TestSharedMemo:
    """Without symmetry the tasks a process runs share one memo, fresh for
    every call.  Between tasks it drops the depths whose states hold a
    digit the task's prefix pins, up to the last `keep_until` of the
    pinned edges, and keeps the deeper ones, cut back to `MEMO_ENTRIES`
    entries shallowest depth first."""

    # starts mid-task, whose path nodes a memo filled by a whole run holds
    # with the counts of their whole subtrees
    @pytest.mark.parametrize(
        "n, num_values, certified",
        [(7, 2, False), (7, 2, True), (8, 2, True), (6, 3, True), (7, 3, False)],
        ids=["c7-simple", "c7-simple-all", "c8-simple-all", "c6-general-all", "c7-general"],
    )
    def test_seeded_start_ignores_a_filled_memo(self, n, num_values, certified):
        g, _ = gen_antihole(n)
        edges = g.sorted_edges()
        m = len(edges)
        sweep = _Sweep(g, num_values, None)
        # from a certified root every leaf counts
        dp = sweep.dp._replace(root=sweep.dp.certified) if certified else sweep.dp
        filled = [{} for _ in edges]
        walk_stop(dp, memo=filled)
        depth = TASK_DEPTH["simple" if num_values == 2 else "general"]
        leaves = [tuple(digits) for _, digits, _ in islice(walk_leaves(g, num_values), 3000)]
        rng = random.Random(n * 10 + num_values)
        for _ in range(12):
            start = rng.choice(leaves)[:rng.randint(depth + 1, m)]
            for fixed in (0, depth):
                fresh = walk_stop(dp, start, fixed, memo=[{} for _ in edges])
                shared = walk_stop(dp, start, fixed, memo=filled)
                assert shared == fresh
                limit = rng.randrange(fresh[0] + 1)
                assert walk_stop(dp, start, fixed, limit, filled) == (
                    walk_stop(dp, start, fixed, limit, [{} for _ in edges])
                )
                # the walk without a memo, as far as a few thousand leaves
                limit = min(fresh[0], 3000)
                assert walk_stop(dp, start, fixed, limit) == (
                    fresh if limit == fresh[0] else
                    walk_stop(dp, start, fixed, limit, filled)
                )

    def test_forward_emptied_start_counts_what_follows(self):
        # every start the clique tests along it accept but whose subtree the
        # forward check empties, pinned to each length: the walk leaves the
        # path at the emptied node, so the next digit's subtree is whole
        g, _ = gen_antihole(7)
        edges = g.sorted_edges()
        m = len(edges)
        whole = [digits for digits, _ in naive.reference_leaves(7, edges, 2)]
        reached = {leaf[:k] for leaf in whole for k in range(m)}
        emptied = [
            digits
            for k in range(m)
            for digits, _ in naive.reference_leaves(7, edges[:k], 2)
            if digits not in reached
        ]
        dp = _Sweep(g, 2, None).dp
        counting = dp._replace(root=dp.certified)
        memo = [{} for _ in edges]
        pairs = 0
        for start in emptied:
            for fixed in range(len(start) + 1):
                pinned = start[:fixed]
                end = bisect_left(whole, pinned[:-1] + (pinned[-1] + 1,)) if pinned else len(whole)
                wanted = end - bisect_left(whole, start)
                assert walk_stop(counting, start, fixed, memo=memo) == (wanted, None)
                pairs += 1
        assert pairs == 10450

    # budgets that end in a late task, which earlier tasks' states enter
    @pytest.mark.parametrize(
        "graph, mode, budget, whole",
        [(gen_antihole(8)[0], "simple", b, 16480) for b in (6000, 11111, 16479)]
        + [(complete_graph(5), "general", b, 29281) for b in (9000, 20000, 29280)],
        ids=["c8-simple-6000", "c8-simple-11111", "c8-simple-16479",
             "k5-general-9000", "k5-general-20000", "k5-general-29280"],
    )
    def test_budget_stop_in_a_task_earlier_tasks_memoised(
        self, tmp_path, monkeypatch, graph, mode, budget, whole
    ):
        sizes = memo_sizes(monkeypatch)
        budget_stop_matches_the_walk(tmp_path, graph, mode, budget, whole)
        # the resumed run's first task is the next to start from an empty
        # memo; the task before it, where the budget ended, did not
        stopped_at = sizes.index(0, 1) - 1
        assert sizes[stopped_at] > 0

    def test_sweeps_in_one_process_match_separate_runs(self, monkeypatch):
        sizes = memo_sizes(monkeypatch)
        g7, g8 = gen_antihole(7)[0], gen_antihole(8)[0]
        runs = [
            (g7, "simple", None, ("counterexample", 828)),
            (g7, "general", None, ("counterexample", 320957)),
            (g8, "simple", None, ("solvable", 16480)),
            (complete_graph(5), "general", None, ("solvable", 29281)),
            (g8, "simple", 9000, ("exhausted_budget", 9000)),
            (gen_antihole(6)[0], "general", None, ("solvable", 16875)),
        ]
        for order in (runs, runs[::-1]):
            for graph, mode, budget, wanted in order:
                sizes.clear()
                verdict = verify_kernel_solvable(graph, mode, budget=budget)
                assert (verdict.verdict, verdict.orientations_examined) == wanted
                # no state of an earlier call is kept
                assert sizes[0] == 0

    def test_eviction_keeps_counts_and_witnesses(self, tmp_path, monkeypatch):
        monkeypatch.setattr(antiholes, "MEMO_ENTRIES", 64)
        sizes = memo_sizes(monkeypatch)
        verdict = verify_kernel_solvable(gen_antihole(8)[0])
        assert (verdict.verdict, verdict.orientations_examined) == ("solvable", 16480)
        g7, _ = gen_antihole(7)
        verdict = verify_kernel_solvable(g7, "general")
        assert verdict.orientations_examined == 320957
        assert orientation_digits(verdict.counterexample, g7.sorted_edges()) == C7_GENERAL_WITNESS
        k5 = complete_graph(5)
        verdict = verify_kernel_solvable(k5, "general")
        assert (verdict.verdict, verdict.orientations_examined) == ("solvable", 29281)
        for budget in (0, 1, 542, 9000, 29280):
            budget_stop_matches_the_walk(tmp_path, k5, "general", budget, 29281)
        # every task started within the bound, some with states kept
        assert max(sizes) <= 64 and any(sizes)

    @pytest.mark.parametrize(
        "graph, mode, pinned",
        [(complete_graph(5), "general", {8}), (gen_antihole(8)[0], "simple", None),
         (gen_antihole(7)[0], "general", None)],
        ids=["k5-general", "c8-simple", "c7-general"],
    )
    def test_pinned_depths_are_empty_at_every_task_start(self, monkeypatch, graph, mode, pinned):
        starts = memo_depths(monkeypatch)
        verify_kernel_solvable(graph, mode)
        if pinned is not None:
            assert {last for last, _ in starts} == pinned
        for last, sizes in starts:
            assert not any(sizes[:last + 1])
        # the deeper depths carry states from task to task
        assert any(any(sizes) for _, sizes in starts)

    def test_c9_simple_decision_keeps_every_state_it_may_read(self, monkeypatch):
        sizes = memo_sizes(monkeypatch)
        verdict = verify_kernel_solvable(gen_antihole(9)[0])
        assert (verdict.verdict, verdict.orientations_examined) == ("solvable", 143334)
        # the interleaved pass's tasks, none dropping a state of the ones before
        assert len(sizes) == 144
        assert sizes == sorted(sizes)


def interleaved_edges(n):
    """The edges of the n-vertex anti-hole relabeled evens then odds, in
    (min, max) order."""
    order = [v for v in range(n) if v % 2 == 0] + [v for v in range(n) if v % 2]
    g, _ = gen_antihole(n)
    return UndirectedGraph(n, [(order.index(u), order.index(v)) for u, v in g.edges]).sorted_edges()


def walked_orders(monkeypatch):
    """Record the edge order of the tables each `_walk` call receives."""
    orders = []

    def recording(dp, *args, **kwargs):
        orders.append(list(dp.edges))
        return _walk(dp, *args, **kwargs)

    monkeypatch.setattr(antiholes, "_walk", recording)
    return orders


class TestInterleavedDecision:
    """A sweep of the labeled anti-hole with no symmetry, budget or
    checkpoint decides in the interleaved labeling first; its verdict,
    count and witness are those of the (min, max) order."""

    @pytest.mark.parametrize(
        "n, num_values",
        [(4, 2), (5, 2), (6, 2), (7, 2), (8, 2), (9, 2), (4, 3), (5, 3), (6, 3), (7, 3), (8, 3)],
        ids=["c4-simple", "c5-simple", "c6-simple", "c7-simple", "c8-simple", "c9-simple",
             "c4-general", "c5-general", "c6-general", "c7-general", "c8-general"],
    )
    def test_verdict_is_that_of_the_sorted_walk(self, n, num_values):
        g, _ = gen_antihole(n)
        edges = g.sorted_edges()
        verdict = verify_kernel_solvable(g, "simple" if num_values == 2 else "general")
        # from a certified root every leaf counts
        plain = plain_tables(g, num_values)
        whole, _ = walk_stop(plain._replace(root=plain.certified), memo=[{} for _ in edges])
        if (n, num_values) == (8, 3):
            # C8-bar general's sorted sweep alone takes about 12 s, so only
            # its 1,118,190,605 orientations are compared
            assert (verdict.verdict, verdict.orientations_examined) == ("solvable", whole)
            return
        rank, digits = walk_stop(_Sweep(g, num_values, None).dp, memo=[{} for _ in edges])
        if digits is None:
            assert rank == whole
            assert (verdict.verdict, verdict.orientations_examined) == ("solvable", whole)
            return
        assert (verdict.verdict, verdict.orientations_examined) == ("counterexample", rank + 1)
        assert orientation_digits(verdict.counterexample, edges) == digits
        arcs = naive.naive_arcs(edges, digits)
        assert not any(naive.naive_is_kernel(n, arcs, s) for s in naive.subsets(n))

    def test_c9_simple_walks_only_the_interleaved_order(self, monkeypatch):
        orders = walked_orders(monkeypatch)
        g, _ = gen_antihole(9)
        verdict = verify_kernel_solvable(g)
        assert (verdict.verdict, verdict.orientations_examined) == ("solvable", 143334)
        interleaved = interleaved_edges(9)
        # the task list's prefix walks and the sweep's tasks
        assert orders and all(edges == interleaved[:len(edges)] for edges in orders)

    def test_a_counterexample_is_named_in_the_sorted_order(self, monkeypatch):
        orders = walked_orders(monkeypatch)
        g, _ = gen_antihole(7)
        verdict = verify_kernel_solvable(g)
        assert (verdict.verdict, verdict.orientations_examined) == ("counterexample", 828)
        interleaved, edges = interleaved_edges(7), g.sorted_edges()
        # the interleaved pass, then the sorted one
        k = next(i for i, walked in enumerate(orders) if walked == edges[:len(walked)])
        assert k > 0
        assert all(walked == interleaved[:len(walked)] for walked in orders[:k])
        assert all(walked == edges[:len(walked)] for walked in orders[k:])

    @pytest.mark.parametrize(
        "graph, run",
        [
            (gen_antihole(9)[0], dict(budget=10**6)),
            (gen_antihole(9)[0], dict(checkpoint="run.json")),
            (gen_antihole(9)[0], dict(symmetry_reduction=True)),
            (complete_graph(5), {}),
        ],
        ids=["budget", "checkpoint", "symmetry", "complete-graph"],
    )
    def test_other_runs_walk_only_the_sorted_order(self, monkeypatch, tmp_path, graph, run):
        if "checkpoint" in run:
            run = {**run, "checkpoint": str(tmp_path / run["checkpoint"])}
        orders = walked_orders(monkeypatch)
        verdict = verify_kernel_solvable(graph, **run)
        assert verdict.verdict == "solvable"
        edges = graph.sorted_edges()
        assert orders and all(walked == edges[:len(walked)] for walked in orders)


class TestFindNearSink:
    def test_enumerated_orientations_have_one(self):
        # a dihedral image of a near sink is a near sink of the image, so
        # one orientation per orbit covers all 143,334
        g, _ = gen_antihole(9)
        count = 0
        for o in enumerate_simple_clique_acyclic_orientations(g, symmetry_reduction=True):
            vertex = find_near_sink(o)
            d = o.to_digraph()
            assert d.has_arc((vertex - 2) % 9, vertex)
            assert d.has_arc((vertex + 2) % 9, vertex)
            count += 1
        assert count == 7963

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
        for o in islice(enumerate_simple_clique_acyclic_orientations(g), 100):
            d = o.to_digraph()
            kernel = naive.naive_semikernel_recursion(9, sorted(d.arcs))
            assert kernel is not None and is_kernel(d, kernel)
