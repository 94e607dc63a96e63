import functools
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive
from kernelkit import (
    ArcColor,
    BudgetExceededError,
    ColoredDigraph,
    ConditionsViolatedError,
    ContractError,
    VertexSet,
    is_kernel,
    redblue,
)
from kernelkit.oracle import _first_weak_triangle
from kernelkit.poset import Comparison, compare_antichains
from kernelkit.redblue import (
    _chain_middles_through,
    _chain_violations,
    _open_tails,
    _open_paths,
    _path_middles_through,
    RULE_BLUE_CHAIN,
    RULE_MONO_CYCLE,
    RULE_OPEN_PATH,
    RULE_RED_CHAIN,
    antichain_potential,
    check_chain_conditions,
    check_path_conditions,
    find_initial_independent,
    generate_chain_instance,
    generate_comparability_instance,
    generate_path_instance,
    generate_ssw_instance,
    improve_step,
    solve_chain,
    solve_fixpoint,
)
from strategies import colored_digraphs


def colored(n, rows):
    return ColoredDigraph.from_colored_arcs(n, rows)


THREE_VERTEX = colored(3, [(0, 1, "r"), (2, 0, "b")])
BLUE_TWO_PATH = colored(3, [(0, 1, "b"), (1, 2, "b")])
ALL_BLUE_K3 = colored(3, [(u, v, "b") for u in range(3) for v in range(3) if u != v])


class TestChainConditions:
    def test_blue_path_violates(self):
        report = check_chain_conditions(BLUE_TWO_PATH)
        assert not report.satisfied
        assert (RULE_BLUE_CHAIN, (0, 1, 2)) in report.violations

    def test_two_transitive_classes_satisfy(self):
        cd = colored(3, [(0, 1, "b"), (1, 2, "b"), (0, 2, "b"), (2, 1, "r")])
        assert check_chain_conditions(cd).satisfied

    def test_red_chain_second_alternative(self):
        cd = colored(3, [(0, 1, "r"), (1, 2, "r"), (1, 0, "b"), (2, 0, "b")])
        assert check_chain_conditions(cd).satisfied

    def test_all_blue_triangle_with_all_arcs_satisfies(self):
        assert check_chain_conditions(ALL_BLUE_K3).satisfied

    def test_red_chain_violation_witness(self):
        cd = colored(3, [(0, 1, "r"), (1, 2, "r")])
        report = check_chain_conditions(cd)
        assert (RULE_RED_CHAIN, (0, 1, 2)) in report.violations

    def test_witnesses_reverify(self):
        report = check_chain_conditions(BLUE_TWO_PATH)
        assert report.violations
        for rule, (u, v, w) in report.violations:
            assert rule == RULE_BLUE_CHAIN
            # the premise arcs are present and blue
            assert BLUE_TWO_PATH.color[(u, v)] is ArcColor.BLUE
            assert BLUE_TWO_PATH.color[(v, w)] is ArcColor.BLUE
            # neither alternative of the rule holds
            assert BLUE_TWO_PATH.color.get((u, w)) is not ArcColor.BLUE
            assert not (
                BLUE_TWO_PATH.color.get((w, u)) is ArcColor.RED
                and BLUE_TWO_PATH.color.get((w, v)) is ArcColor.RED
            )

    @settings(max_examples=200, deadline=None)
    @given(colored_digraphs(max_n=7))
    def test_matches_naive_scan(self, cd):
        arcs = {arc: c.value for arc, c in cd.color.items()}
        want = list(naive.naive_chain_violations(cd.vertex_count, arcs))
        assert list(check_chain_conditions(cd).violations) == want
        first = check_chain_conditions(cd, first_only=True).violations
        assert list(first) == want[:1]

    @staticmethod
    def assert_matches_naive(cd, arcs):
        n = cd.vertex_count
        want = list(naive.naive_chain_violations(n, arcs))
        assert list(check_chain_conditions(cd).violations) == want
        assert list(check_chain_conditions(cd, first_only=True).violations) == want[:1]
        # the open-tail scan at every size, also below the size where the
        # check starts to use it
        tails = _open_tails(cd._blue_out), _open_tails(cd._red_out)
        masks = cd._blue_out, cd._blue_in, cd._red_out, cd._red_in
        assert list(_chain_violations(range(n), *masks, *tails)) == want

    @staticmethod
    def digon_rich(n, pick, closed):
        """Each ordered pair holds the arc color `pick()` gives, or none,
        so digons come in either color and in both.  Each class in
        `closed` is then closed over the pairs still free, which leaves
        it transitive except where the other color holds the closing
        pair: closed and open tails mix."""
        arcs = {}
        for u in range(n):
            for v in range(n):
                color = pick()
                if u != v and color:
                    arcs[(u, v)] = color
        for color in sorted(closed):
            grown = True
            while grown:
                grown = False
                for (u, v), c in list(arcs.items()):
                    for w in range(n):
                        if c == color == arcs.get((v, w)) and w != u and (u, w) not in arcs:
                            arcs[(u, w)] = color
                            grown = True
        return colored(n, [(u, v, c) for (u, v), c in sorted(arcs.items())]), arcs

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_open_tail_scan_matches_naive_scan(self, data):
        n = data.draw(st.integers(0, 8))
        pick = functools.partial(data.draw, st.sampled_from([None, None, "b", "r"]))
        self.assert_matches_naive(*self.digon_rich(n, pick, data.draw(st.sets(st.sampled_from("br")))))

    @pytest.mark.parametrize("closed", ["", "b", "r", "br"])
    @pytest.mark.parametrize("seed", range(3))
    def test_open_tail_scan_matches_naive_scan_from_24_vertices(self, seed, closed):
        rng = random.Random(seed)
        n = 24 + 5 * seed
        pick = functools.partial(rng.choice, [None] * 12 + ["b", "r"])
        self.assert_matches_naive(*self.digon_rich(n, pick, closed))

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "generator",
        [generate_ssw_instance, generate_comparability_instance, generate_chain_instance,
         generate_path_instance],
        ids=lambda g: g.__name__,
    )
    def test_open_tail_scan_on_generator_output(self, generator, seed):
        # the three chain generators give instances with no violation, the
        # path generator ones with many
        for n in (3 + seed, 9 + seed, 30):
            cd = generator(seed, n)
            if cd is not None:
                self.assert_matches_naive(cd, {arc: c.value for arc, c in cd.color.items()})


class TestPathConditions:
    def test_blue_triangle_is_monochromatic_cycle(self):
        cd = colored(3, [(0, 1, "b"), (1, 2, "b"), (2, 0, "b")])
        report = check_path_conditions(cd)
        assert not report.satisfied
        assert report.violations[0][0] == RULE_MONO_CYCLE

    def test_bare_red_blue_path_violates(self):
        cd = colored(4, [(0, 1, "r"), (1, 2, "b"), (2, 3, "b")])
        report = check_path_conditions(cd)
        assert (RULE_OPEN_PATH, (0, 1, 2, 3)) in report.violations

    def test_blue_two_path_satisfies(self):
        assert check_path_conditions(BLUE_TWO_PATH).satisfied

    def test_all_blue_triangle_with_all_arcs_violates(self):
        report = check_path_conditions(ALL_BLUE_K3)
        assert not report.satisfied
        assert report.violations[0][0] == RULE_MONO_CYCLE

    def test_closed_path_allowed_as_witness(self):
        # 3-cycle: 0 -r-> 1 -r-> 2 -b-> 0 with no extra arcs
        cd = colored(3, [(0, 1, "r"), (1, 2, "r"), (2, 0, "b")])
        report = check_path_conditions(cd)
        assert (RULE_OPEN_PATH, (0, 1, 2, 0)) in report.violations

    @settings(max_examples=200, deadline=None)
    @given(colored_digraphs(max_n=7))
    def test_open_paths_match_naive_scan(self, cd):
        arcs = {arc: c.value for arc, c in cd.color.items()}
        want = list(naive.naive_open_paths(cd.vertex_count, arcs))
        got = [w for rule, w in check_path_conditions(cd).violations if rule == RULE_OPEN_PATH]
        assert got == want

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_naive_assembly_with_planted_cycles(self, data):
        n = data.draw(st.integers(0, 12))
        vertex = st.integers(0, max(n - 1, 0))
        color = st.sampled_from("br")
        arcs = {}
        for u, v, c in data.draw(st.lists(st.tuples(vertex, vertex, color), max_size=3 * n)):
            if u != v:
                arcs[(u, v)] = c
        if n >= 2:
            # each planted cycle, digons included, recolors the arcs it runs on
            ring = st.lists(vertex, min_size=2, max_size=n, unique=True)
            for planted, c in data.draw(st.lists(st.tuples(ring, color), max_size=3)):
                for u, v in zip(planted, planted[1:] + planted[:1]):
                    arcs[(u, v)] = c
        cd = colored(n, [(u, v, c) for (u, v), c in sorted(arcs.items())])
        want = []
        for c in "br":
            cycle = naive.naive_mono_cycle(n, {arc for arc, k in arcs.items() if k == c})
            if cycle is not None:
                want.append((RULE_MONO_CYCLE, cycle))
        want += [(RULE_OPEN_PATH, quad) for quad in naive.naive_open_paths(n, arcs)]
        assert list(check_path_conditions(cd).violations) == want
        assert list(check_path_conditions(cd, first_only=True).violations) == want[:1]


class TestFindInitialIndependent:
    def test_no_red_arcs_picks_least(self):
        cd = colored(3, [(1, 2, "b")])
        assert find_initial_independent(cd).members() == (0,)

    def test_red_transitive_path_picks_sink(self):
        cd = colored(3, [(0, 1, "r"), (1, 2, "r"), (0, 2, "r")])
        assert find_initial_independent(cd).members() == (2,)

    def test_answered_red_arc_keeps_vertex_eligible(self):
        cd = colored(2, [(0, 1, "r"), (1, 0, "b")])
        assert find_initial_independent(cd).members() == (0,)

    def test_unanswered_red_cycle_is_conditions_violation(self):
        cd = colored(3, [(0, 1, "r"), (1, 2, "r"), (2, 0, "r")])
        with pytest.raises(ConditionsViolatedError):
            find_initial_independent(cd)

    def test_a_red_cycle_elsewhere_leaves_a_qualifying_vertex(self):
        # only a vertex's own unanswered red arcs bar it
        cd = colored(4, [(0, 1, "r"), (1, 2, "r"), (2, 0, "r")])
        assert find_initial_independent(cd).members() == (3,)

    def test_is_the_first_set_of_solve_chain(self):
        instances = [generate_ssw_instance(seed, 3 + seed % 12) for seed in range(30)]
        instances += [generate_comparability_instance(seed, 3 + seed % 10) for seed in range(30)]
        chains = [generate_chain_instance(seed, 3 + seed % 10) for seed in range(60)]
        instances += [cd for cd in chains if cd is not None]
        assert len(instances) > 100
        for cd in instances:
            assert find_initial_independent(cd) == solve_chain(cd).iterations[0].independent


class TestImproveStep:
    def test_add_case(self):
        new, action = improve_step(THREE_VERTEX, VertexSet(3, [1]))
        assert action == "add" and new.members() == (1, 2)
        assert is_kernel(THREE_VERTEX.digraph, new)

    def test_kernel_input_rejected(self):
        with pytest.raises(ContractError, match="already a kernel"):
            improve_step(THREE_VERTEX, VertexSet(3, [1, 2]))

    def test_swap_case(self):
        cd = colored(2, [(0, 1, "b")])
        new, action = improve_step(cd, VertexSet(2, [0]))
        assert action == "swap" and new.members() == (1,)
        assert is_kernel(cd.digraph, new)

    def test_family_violation_carries_witness(self):
        cd = colored(2, [(0, 1, "r")])
        with pytest.raises(ContractError) as err:
            improve_step(cd, VertexSet(2, [0]))
        assert err.value.witness == 1


class TestSolveChain:
    def test_single_vertex(self):
        trace = solve_chain(colored(1, []))
        assert trace.result.members() == (0,)
        assert trace.improve_steps == 0

    def test_three_vertex_example(self):
        trace = solve_chain(THREE_VERTEX)
        assert trace.result.members() == (1, 2)
        assert [it.action for it in trace.iterations] == ["init", "add"]

    def test_all_blue_triangle(self):
        trace = solve_chain(ALL_BLUE_K3)
        assert is_kernel(ALL_BLUE_K3.digraph, trace.result)

    def test_conditions_checked(self):
        with pytest.raises(ConditionsViolatedError) as err:
            solve_chain(BLUE_TWO_PATH)
        assert err.value.report is not None

    def test_trace_potentials_strictly_increase(self):
        cd = generate_ssw_instance(7, 9)
        trace = solve_chain(cd)
        for a, b in zip(trace.iterations, trace.iterations[1:]):
            assert (
                compare_antichains(
                    a.potential.order, a.potential.antichain, b.potential.antichain
                )
                is Comparison.LESS
            )
        assert trace.improve_steps <= cd.vertex_count


class TestSolveFixpoint:
    def test_blue_two_path(self):
        trace = solve_fixpoint(BLUE_TWO_PATH)
        assert trace.result.members() == (0, 2)
        assert is_kernel(BLUE_TWO_PATH.digraph, trace.result)

    def test_single_red_arc(self):
        trace = solve_fixpoint(colored(2, [(0, 1, "r")]))
        assert trace.result.members() == (1,)
        assert trace.improve_steps == 0

    def test_monochromatic_cycle_rejected(self):
        cd = colored(3, [(0, 1, "b"), (1, 2, "b"), (2, 0, "b")])
        with pytest.raises(ConditionsViolatedError):
            solve_fixpoint(cd)

    def test_budget_exhaustion_carries_trace(self):
        with pytest.raises(BudgetExceededError) as err:
            solve_fixpoint(BLUE_TWO_PATH, budget=1)
        assert len(err.value.partial) == 2  # init plus the one allowed step


class TestGenerators:
    def test_deterministic_by_seed(self):
        assert generate_ssw_instance(5, 8) == generate_ssw_instance(5, 8)
        assert generate_comparability_instance(5, 8) == generate_comparability_instance(5, 8)
        assert generate_path_instance(5, 8) == generate_path_instance(5, 8)

    def test_seeds_differentiate(self):
        assert generate_ssw_instance(1, 9) != generate_ssw_instance(2, 9)

    def test_ssw_single_vertex(self):
        cd = generate_ssw_instance(1, 1)
        assert cd.vertex_count == 1
        assert check_chain_conditions(cd).satisfied

    @pytest.mark.parametrize("seed", range(12))
    def test_ssw_classes_transitive_and_disjoint(self, seed):
        cd = generate_ssw_instance(seed, 9)
        blue = cd.restriction(ArcColor.BLUE).arcs
        red = cd.restriction(ArcColor.RED).arcs
        assert not blue & red
        for arcs in (blue, red):
            for (u, v) in arcs:
                for (x, w) in arcs:
                    if x == v:
                        assert (u, w) in arcs

    @pytest.mark.parametrize("seed", range(8))
    def test_comparability_instances_satisfy_chain_conditions(self, seed):
        cd = generate_comparability_instance(seed, 8)
        assert check_chain_conditions(cd).satisfied

    def test_two_chain_poset_coloring_satisfies(self):
        # transitive orientation of a single comparable pair, colored by it
        cd = colored(2, [(0, 1, "r")])
        assert check_chain_conditions(cd).satisfied

    def test_chain_generator_output_verified(self):
        produced = 0
        for seed in range(30):
            cd = generate_chain_instance(seed, 7)
            if cd is None:
                continue
            produced += 1
            assert check_chain_conditions(cd).satisfied
        assert produced > 0

    @pytest.mark.parametrize("seed", range(8))
    def test_path_generator_output_verified(self, seed):
        cd = generate_path_instance(seed, 8)
        assert check_path_conditions(cd).satisfied


def _rows(cd):
    return sorted((u, v, c.value) for (u, v), c in cd.color.items())


@functools.cache
def _campaign_chain_attempts():
    """(seed, n, reference outcome at budget 400) for a seeded sample of
    the chain campaign's attempts, seeds 0-1,280 at n = 3 + seed % 10,
    where about one in five returns None."""
    seeds = sorted(random.Random(1281).sample(range(1281), 320))
    return [(s, 3 + s % 10, naive.naive_chain_rows(s, 3 + s % 10)) for s in seeds]


class TestRepairsRetestEnoughMiddles:
    """The chain and path generators re-test only the middles that
    `_chain_middles_through` and `_path_middles_through` name after a
    change to one arc.  Every middle whose violations that change alters
    must be among them: here for every arc of seeded random instances
    added, deleted or recolored."""

    @staticmethod
    def instances():
        rng = random.Random(3)
        for _ in range(150):
            n = rng.randint(3, 6)
            density = rng.random()
            arcs = {
                (u, v): rng.choice("br")
                for u in range(n)
                for v in range(n)
                if u != v and rng.random() < density
            }
            yield n, arcs

    @staticmethod
    def masks(n, arcs):
        """out, inn, blue_out, blue_in, red_out, red_in"""
        masks = [[0] * n for _ in range(6)]
        for (u, v), color in arcs.items():
            shift = 2 if color == "b" else 4
            for i in (0, shift):
                masks[i][u] |= 1 << v
                masks[i + 1][v] |= 1 << u
        return masks

    def changes(self, n, arcs):
        """(u, w, arcs with u -> w changed) for every change of every pair."""
        for u in range(n):
            for w in range(n):
                if u == w:
                    continue
                for color in ("b", "r", None):
                    if arcs.get((u, w)) != color:
                        changed = {k: c for k, c in arcs.items() if k != (u, w)}
                        if color is not None:
                            changed[(u, w)] = color
                        yield u, w, changed

    def test_chain(self):
        def violations(n, arcs):
            _, _, *colored_masks = self.masks(n, arcs)
            return [list(_chain_violations((m,), *colored_masks)) for m in range(n)], colored_masks

        for n, arcs in self.instances():
            before, _ = violations(n, arcs)
            for u, w, changed in self.changes(n, arcs):
                after, colored_masks = violations(n, changed)
                reach = _chain_middles_through(u, w, *colored_masks)
                for m in range(n):
                    assert before[m] == after[m] or (reach >> m) & 1, (arcs, u, w, m)

    def test_path(self):
        def open_paths(n, arcs):
            out, inn, blue_out, _, _, red_in = self.masks(n, arcs)
            return [list(_open_paths((m,), out, inn, red_in, blue_out)) for m in range(n)], out, inn

        for n, arcs in self.instances():
            before, _, _ = open_paths(n, arcs)
            for a, b, changed in self.changes(n, arcs):
                after, out, inn = open_paths(n, changed)
                reach = _path_middles_through(a, b, out, inn)
                for m in range(n):
                    assert before[m] == after[m] or (reach >> m) & 1, (arcs, a, b, m)


class TestGeneratorsMatchReferences:
    """The incremental generators against the rebuild-everything loops of
    naive.py, which draw from the same seeded streams."""

    @pytest.mark.parametrize("n", range(3, 41))
    def test_ssw(self, n):
        for seed in range(8):
            assert _rows(generate_ssw_instance(seed, n)) == naive.naive_ssw_rows(seed, n)

    @pytest.mark.parametrize("n", range(3, 41))
    def test_comparability(self, n):
        # the reference rescans every triangle per repair: one seed for
        # the larger sizes
        for seed in range(8 if n < 25 else 1):
            got = _rows(generate_comparability_instance(seed, n))
            assert got == naive.naive_comparability_rows(seed, n)

    def test_comparability_resumed_scan_matches_a_full_rescan(self, monkeypatch):
        # after a repair the scan resumes at the witness's (a, b); it must
        # find what a rescan from vertex 0 finds
        resumed = []

        def checked(out, inn, start=0, second=0):
            got = _first_weak_triangle(out, inn, start, second)
            if (start, second) != (0, 0):
                resumed.append((start, second))
                assert got == _first_weak_triangle(out, inn)
            return got

        monkeypatch.setattr(redblue, "_first_weak_triangle", checked)
        for n in range(3, 41):
            for seed in range(3):
                generate_comparability_instance(seed, n, density=0.35)
        assert resumed

    @pytest.mark.parametrize("n", range(3, 31))
    def test_path(self, n):
        for seed in range(8):
            assert _rows(generate_path_instance(seed, n)) == naive.naive_path_rows(seed, n)

    def test_chain(self):
        # n = 3..15, and both outcomes: an instance or None after the budget
        outcomes = set()
        for seed in range(300):
            n = 3 + seed % 13
            got = generate_chain_instance(seed, n)
            want = naive.naive_chain_rows(seed, n)
            assert (got if got is None else _rows(got)) == want
            outcomes.add(got is None)
        assert outcomes == {True, False}

    def test_chain_on_campaign_attempts(self):
        nones = 0
        for seed, n, want in _campaign_chain_attempts():
            got = generate_chain_instance(seed, n)
            assert (got if got is None else _rows(got)) == want
            nones += want is None
        assert nones >= 40

    def test_chain_repeat_stop_needs_no_budget(self):
        # a repeated arc state means the repair cycles forever, so a budget
        # of 10**9 must end where the reference ends at 400
        for seed, n, want in _campaign_chain_attempts():
            got = generate_chain_instance(seed, n, budget=10**9)
            assert (got if got is None else _rows(got)) == want

    @pytest.mark.parametrize("budget", [0, 1, 2, 5, 20])
    def test_chain_budget(self, budget):
        for seed in range(40):
            got = generate_chain_instance(seed, 3 + seed % 5, budget=budget)
            want = naive.naive_chain_rows(seed, 3 + seed % 5, budget=budget)
            assert (got if got is None else _rows(got)) == want

    def test_chain_budget_counts_repairs_exactly(self):
        # fewer than three vertices hold no violation, so no repair is needed
        for seed in range(10):
            assert generate_chain_instance(seed, 1, budget=0) is not None
            assert generate_chain_instance(seed, 2, budget=0) is not None
        # seed 0 at n = 6 needs 3 repairs and seed 2 needs 11
        for seed, repairs in [(0, 3), (2, 11)]:
            assert generate_chain_instance(seed, 6, budget=repairs - 1) is None
            got = generate_chain_instance(seed, 6, budget=repairs)
            assert _rows(got) == naive.naive_chain_rows(seed, 6)

    def test_chain_digest(self):
        # frozen from the generator's output, seeds 0-199 at n = 3..12:
        # a change to its arc bookkeeping must give the same instances
        digest = hashlib.sha256()
        for seed in range(200):
            for n in range(3, 13):
                got = generate_chain_instance(seed, n)
                digest.update(repr(got if got is None else _rows(got)).encode())
        assert digest.hexdigest() == "9a7cd0dd97c75b781cdca4cb16e54405c768d26af4fce0e8b73703e68e0f8a36"

    @pytest.mark.parametrize(
        "generator, n, arcs",
        [
            (generate_ssw_instance, 200, 27_692),
            (generate_comparability_instance, 60, 2_869),
            (generate_path_instance, 80, 638),
        ],
        ids=["ssw", "comparability", "path"],
    )
    def test_command_line_sizes_keep_their_arc_counts(self, generator, n, arcs):
        # `redblue gen KIND --n N` at its default density and seed
        assert len(generator(0, n, density=0.35).digraph.arcs) == arcs

    @pytest.mark.parametrize(
        "generator, n, digest",
        [
            (generate_ssw_instance, 200,
             "8257006342c41900c62c713a3c122d5da8b6405803481c76cbe637490222ece4"),
            (generate_comparability_instance, 60,
             "38125f0e7a15afb092ddccfb8b5d6a8f6012db64d6e4353847e9e21407e7d056"),
            (generate_path_instance, 80,
             "27cdd005f4e3e65dbf0f3985c334789ff94c41b6cb84db4092568006deae998b"),
        ],
        ids=["ssw", "comparability", "path"],
    )
    def test_command_line_sizes_keep_their_rows(self, generator, n, digest):
        # frozen from the generators' output at the sizes above, beyond
        # the references' reach: a change to how an instance is built
        # must give the same arcs in the same colours
        rows = _rows(generator(0, n, density=0.35))
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


class TestSolversMatchReference:
    """Both solvers against naive.py's loop, which starts from the initial
    vertex instead of from the empty set."""

    @staticmethod
    def expected(cd, conditions):
        arcs = {arc: c.value for arc, c in cd.color.items()}
        steps = naive.naive_solver_iterations(cd.vertex_count, arcs, conditions)
        return {"iterations": steps, "result": steps[-1]["independent"] if steps else []}

    @pytest.mark.parametrize(
        "generator", [generate_ssw_instance, generate_comparability_instance, generate_chain_instance]
    )
    def test_chain(self, generator):
        solved = 0
        for seed in range(60):
            cd = generator(seed, 3 + seed % 10)
            if cd is None:
                continue
            assert solve_chain(cd).to_json_obj() == self.expected(cd, "chain")
            solved += 1
        assert solved >= 20

    def test_fixpoint(self):
        for seed in range(60):
            cd = generate_path_instance(seed, 3 + seed % 8)
            assert solve_fixpoint(cd).to_json_obj() == self.expected(cd, "path")

    def test_empty_digraph(self):
        for solve in (solve_chain, solve_fixpoint):
            assert solve(colored(0, [])).to_json_obj() == {"iterations": [], "result": []}


class TestLemmaProperties:
    @pytest.mark.parametrize("seed", range(15))
    def test_blue_reachability_closes_or_answers(self, seed):
        # on condition-satisfying instances, a blue dipath from u to v forces
        # a direct blue arc u -> v or a red arc v -> u
        cd = generate_ssw_instance(seed, 8)
        n = cd.vertex_count
        blue_arcs = sorted(cd.restriction(ArcColor.BLUE).arcs)
        reach = naive.naive_reachable(n, blue_arcs)
        for u in range(n):
            for v in range(n):
                if u == v or not reach[u][v]:
                    continue
                assert (cd._blue_out[u] >> v) & 1 or (cd._red_out[v] >> u) & 1

    @pytest.mark.parametrize("seed", range(15))
    def test_some_vertex_answers_all_its_red_arcs(self, seed):
        cd = generate_comparability_instance(seed, 8)
        n = cd.vertex_count
        d = cd.digraph
        assert any(
            not (cd._red_out[v] & ~d._in[v]) for v in range(n)
        )


class TestAntichainPotential:
    def test_non_antichain_rejected(self):
        # blue path: components {0}, {1}, {2} are totally ordered, so {0, 2}
        # touches comparable components
        with pytest.raises(ContractError, match="antichain"):
            antichain_potential(BLUE_TWO_PATH, VertexSet(3, [0, 2]))

    def test_representatives_sorted(self):
        pot = antichain_potential(THREE_VERTEX, VertexSet(3, [1, 2]))
        assert pot.representatives() == (1, 2)
