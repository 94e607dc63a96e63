import hashlib
import json
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings

import naive
from kernelkit import (
    BudgetExceededError,
    ConditionsViolatedError,
    ContractError,
    Digraph,
    VertexSet,
    is_kernel,
    is_semi_kernel,
)
from kernelkit.chords import (
    RULE_CONSECUTIVE_HEADS,
    RULE_CROSSING_SHORT_ODD,
    RULE_NONE,
    RULE_TWO_ODD,
    RULE_TWO_REVERSIBLE,
    CycleReport,
    _first_failing_odd_cycle,
    _semi_kernel_from,
    are_crossing,
    are_nested,
    check_chord_conditions,
    check_duchet_condition,
    check_gsnl_condition,
    chords_of_cycle,
    classify_chord,
    find_kernel_via_chords,
)
from kernelkit.digraph import strongly_connected_components
from kernelkit.oracle import find_kernel_bruteforce, is_M_clique_acyclic
from strategies import digraphs

FIVE_CYCLE = (0, 1, 2, 3, 4)


def five_cycle_digraph(*chord_arcs):
    arcs = [(i, (i + 1) % 5) for i in range(5)]
    arcs.extend(chord_arcs)
    return Digraph(5, arcs)


# the worked instance: a directed 5-cycle with chords (4, 1) and (0, 2)
CHORDED = five_cycle_digraph((4, 1), (0, 2))


class TestClassifyChord:
    def test_short_chord(self):
        c = classify_chord(five_cycle_digraph((0, 2)), FIVE_CYCLE, (0, 2))
        assert c.span == 2 and c.is_short and not c.is_odd

    def test_odd_chord(self):
        c = classify_chord(five_cycle_digraph((0, 3)), FIVE_CYCLE, (0, 3))
        assert c.span == 3 and c.is_odd and not c.is_short

    def test_wraparound_chord(self):
        c = classify_chord(five_cycle_digraph((3, 0)), FIVE_CYCLE, (3, 0))
        assert c.span == 2 and c.is_short

    def test_cycle_arc_rejected(self):
        with pytest.raises(ContractError, match="cycle arc"):
            classify_chord(five_cycle_digraph(), FIVE_CYCLE, (0, 1))

    def test_off_cycle_endpoint_rejected(self):
        d = Digraph(6, [(i, (i + 1) % 5) for i in range(5)] + [(0, 5)])
        with pytest.raises(ContractError, match="off the cycle"):
            classify_chord(d, FIVE_CYCLE, (0, 5))

    def test_non_arc_rejected(self):
        with pytest.raises(ContractError, match="not an arc"):
            classify_chord(five_cycle_digraph(), FIVE_CYCLE, (0, 2))

    @settings(max_examples=60, deadline=None)
    @given(digraphs(min_n=3, max_n=7))
    def test_span_and_complement_sum_to_length(self, d):
        from kernelkit.digraph import enumerate_directed_cycles

        for cycle in enumerate_directed_cycles(d):
            for chord in chords_of_cycle(d, cycle):
                complement = (chord.tail_pos - chord.head_pos) % len(cycle)
                assert chord.span + complement == len(cycle)


class TestChordPairs:
    # the pair predicates are pure cyclic-position tests, so chords here are
    # built from their endpoint positions on the canonical 5-cycle
    def chord(self, tail, head):
        from kernelkit.chords import Chord

        return Chord(tail, head, tail, head, (head - tail) % 5)

    def test_crossing(self):
        assert are_crossing(self.chord(0, 2), self.chord(1, 3), 5)

    def test_nested(self):
        c1, c2 = self.chord(0, 3), self.chord(1, 2)
        assert are_nested(c1, c2, 5)
        assert not are_crossing(c1, c2, 5)

    def test_reversed_traversal_still_nested(self):
        # same endpoints read in the opposite rotational direction
        c1, c2 = self.chord(0, 2), self.chord(4, 3)
        assert are_nested(c1, c2, 5)

    def test_shared_endpoint_is_neither(self):
        c1, c2 = self.chord(0, 2), self.chord(2, 4)
        assert not are_crossing(c1, c2, 5)
        assert not are_nested(c1, c2, 5)


class TestCheckChordConditions:
    def test_no_odd_cycle_is_vacuous(self):
        d = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        report = check_chord_conditions(d)
        assert report.satisfied and report.cycles == ()

    def test_bare_three_cycle_fails(self):
        report = check_chord_conditions(Digraph(3, [(0, 1), (1, 2), (2, 0)]))
        assert not report.satisfied
        assert report.first_failing == (0, 1, 2)
        assert report.cycles[0].rule == RULE_NONE

    def test_chorded_five_cycle_passes_by_consecutive_heads(self):
        report = check_chord_conditions(CHORDED)
        assert report.satisfied
        tags = {c.cycle: c.rule for c in report.cycles}
        assert tags[FIVE_CYCLE] == RULE_CONSECUTIVE_HEADS

    def test_gsnl_restricts_to_first_rule(self):
        report = check_gsnl_condition(CHORDED)
        assert report.satisfied

    @settings(max_examples=60, deadline=None)
    @given(digraphs(max_n=7))
    def test_gsnl_implies_full_condition(self, d):
        if check_gsnl_condition(d).satisfied:
            assert check_chord_conditions(d).satisfied

    def test_duchet_two_reversible(self):
        d = Digraph(3, [(0, 1), (1, 2), (2, 0), (1, 0), (2, 1)])
        report = check_duchet_condition(d)
        assert report.satisfied
        assert report.cycles[0].rule == RULE_TWO_REVERSIBLE

    def test_duchet_rejects_strict_cycle(self):
        assert not check_duchet_condition(Digraph(3, [(0, 1), (1, 2), (2, 0)])).satisfied

    def test_two_odd_series_chords_tagged(self):
        # odd chords (0,3) and (4,7) sit in series around the 9-cycle:
        # neither crossing nor nested, and their heads are not adjacent
        arcs = [(i, (i + 1) % 9) for i in range(9)] + [(0, 3), (4, 7)]
        report = check_chord_conditions(Digraph(9, arcs))
        tags = {c.cycle: c.rule for c in report.cycles}
        assert tags[tuple(range(9))] == "two-odd-noncrossing-nonnested"
        # the chords themselves spawn shortcut odd cycles that fail, so the
        # overall verdict is negative
        assert not report.satisfied

    def test_crossing_short_odd_tagged(self):
        arcs = [(i, (i + 1) % 5) for i in range(5)] + [(0, 2), (1, 4)]
        report = check_chord_conditions(Digraph(5, arcs))
        tags = {c.cycle: c.rule for c in report.cycles}
        assert tags[FIVE_CYCLE] == "crossing-short-odd"
        assert report.first_failing == (0, 1, 4)

    def test_cycle_reports_carry_their_chords(self):
        report = check_chord_conditions(CHORDED)
        (entry,) = report.cycles
        chords = chords_of_cycle(CHORDED, entry.cycle)
        assert {(c.tail, c.head) for c in chords} == {(4, 1), (0, 2)}

    def test_cycle_reports_compare_on_cycle_chords_and_rule(self):
        # a report is a (cycle, rule) record: equal chords on the same cycle
        # give equal reports, other chords give another rule
        ring = Digraph(5, [(i, (i + 1) % 5) for i in range(5)])
        copy = Digraph(5, sorted(CHORDED.arcs))
        (entry,) = check_chord_conditions(CHORDED).cycles
        (same,) = check_chord_conditions(copy).cycles
        (bare,) = check_chord_conditions(ring).cycles
        assert chords_of_cycle(copy, same.cycle) == chords_of_cycle(CHORDED, entry.cycle)
        assert entry == same and hash(entry) == hash(same)
        assert entry == CycleReport(FIVE_CYCLE, RULE_CONSECUTIVE_HEADS)
        assert bare.cycle == entry.cycle and chords_of_cycle(ring, bare.cycle) == []
        assert bare != entry and bare.rule == RULE_NONE
        with pytest.raises(TypeError):
            CycleReport(FIVE_CYCLE, chords_of_cycle(CHORDED, FIVE_CYCLE), RULE_CONSECUTIVE_HEADS)


class TestChordRulesMatchReference:
    """The three condition checks against naive.py's chord rules, which
    measure every chord by walking the cycle and test the pair predicates
    by reading cycle positions in order."""

    @staticmethod
    def tag(check, rule, reversible):
        if check is check_duchet_condition:
            return RULE_TWO_REVERSIBLE if reversible >= 2 else RULE_NONE
        if check is check_gsnl_condition:
            return rule if rule == RULE_CONSECUTIVE_HEADS else RULE_NONE
        return rule

    def assert_matches_reference(self, d):
        """Compare every report of `d` with the reference; return the
        first-rule tags the reference gave."""
        table = naive.naive_odd_cycle_chords(d.vertex_count, sorted(d.arcs))
        for check in (check_chord_conditions, check_gsnl_condition, check_duchet_condition):
            report = check(d)
            tags = [(cycle, self.tag(check, rule, rev)) for cycle, _, rule, rev in table]
            first_failing = next((c for c, tag in tags if tag == RULE_NONE), None)
            assert [(c.cycle, c.rule) for c in report.cycles] == tags
            assert report.first_failing == first_failing
            assert report.satisfied == (first_failing is None)
            assert report.to_json_obj() == {
                "satisfied": first_failing is None,
                "cycles": [{"cycle": list(c), "rule": tag} for c, tag in tags],
                "first_failing": list(first_failing) if first_failing else None,
            }
            for entry, (cycle, chords, _, _) in zip(report.cycles, table):
                got = chords_of_cycle(d, entry.cycle)
                assert [(c.tail, c.head, c.tail_pos, c.head_pos, c.span) for c in got] == chords
        return {rule for _, _, rule, _ in table}

    @settings(max_examples=150, deadline=None)
    @given(digraphs(min_n=3, max_n=8))
    def test_random_digraphs(self, d):
        self.assert_matches_reference(d)

    def test_chorded_cycles_reach_every_rule(self):
        # random digraphs almost always meet the first rule, so seeded
        # directed 5- and 7-cycles with one to three chords cover the rest
        rng = random.Random(12)
        seen = set()
        for _ in range(300):
            n = rng.choice((5, 7))
            ring = [(i, (i + 1) % n) for i in range(n)]
            spare = [(u, v) for u in range(n) for v in range(n) if u != v and (u, v) not in ring]
            seen |= self.assert_matches_reference(Digraph(n, ring + rng.sample(spare, rng.randint(1, 3))))
        assert seen == {RULE_CONSECUTIVE_HEADS, RULE_TWO_ODD, RULE_CROSSING_SHORT_ODD, RULE_NONE}


def reversible_digraph(rng):
    """Fully reversible, 10 vertices, 22 of the 45 edges."""
    pairs = [(u, v) for u in range(10) for v in range(u + 1, 10)]
    return Digraph(10, [arc for u, v in rng.sample(pairs, 22) for arc in ((u, v), (v, u))])


def chord_suite_digraph(rng):
    """The chord suite's odd cycle with two consecutive-head chords, plus
    up to two random chords and arcs to and from up to two extra
    vertices."""
    length = rng.choice((5, 7))
    n = length + rng.randrange(3)
    shift = rng.randrange(length)
    arcs = {(i, (i + 1) % length) for i in range(length)}
    arcs |= {((length - 1 + shift) % length, (1 + shift) % length), (shift, (2 + shift) % length)}
    spare = [(u, v) for u in range(length) for v in range(length) if u != v and (u, v) not in arcs]
    arcs.update(rng.sample(spare, rng.randint(0, 2)))
    for v in range(length, n):
        for u in range(length):
            if rng.random() < 0.3:
                arcs.add((u, v) if rng.random() < 0.7 else (v, u))
    return Digraph(n, sorted(arcs))


def random_digraph(rng):
    """1-11 vertices at densities 0.15-0.7; the denser draws go to the
    smaller digraphs (at most 3 expected out-arcs per vertex), which keeps
    the full enumeration of the reference small."""
    n = rng.randint(1, 11)
    density = rng.uniform(0.15, min(0.7, 3 / n))
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < density]
    return Digraph(n, arcs)


class TestFirstFailingOddCycle:
    """The construction's verdict-only search against the full check."""

    @pytest.mark.parametrize(
        "make, count",
        [(reversible_digraph, 100), (chord_suite_digraph, 1500), (random_digraph, 1500)],
        ids=["reversible", "chord-suite", "random"],
    )
    def test_matches_full_check(self, make, count):
        rng = random.Random(f"first-failing-{make.__name__}")
        failing = acyclic = 0
        for _ in range(count):
            d = make(rng)
            want = check_chord_conditions(d).first_failing
            assert _first_failing_odd_cycle(d) == want, sorted(d.arcs)
            acyclic += len(strongly_connected_components(d).components) == d.vertex_count
            if want is None:
                continue
            failing += 1
            with pytest.raises(ConditionsViolatedError) as err:
                find_kernel_via_chords(d)
            assert err.value.report.first_failing == want
            assert err.value.report.cycles == (CycleReport(want, RULE_NONE),)
        if make is reversible_digraph:
            # every odd cycle of a reversible digraph has consecutive heads
            assert failing == 0
        else:
            assert 0 < failing < count
        if make is random_digraph:
            assert acyclic > 0

    # least budget at which the search returns, per seeded digraph: a
    # change to the steps the search takes changes what a budget allows
    STEPS = json.loads((Path(__file__).parent / "golden" / "first_failing_steps.json").read_text())

    @pytest.mark.parametrize(
        "make, name",
        [(reversible_digraph, "reversible"), (chord_suite_digraph, "chord-suite"), (random_digraph, "random")],
        ids=["reversible", "chord-suite", "random"],
    )
    def test_step_count_golden(self, make, name):
        rng = random.Random(f"first-failing-steps-{name}")
        for steps in self.STEPS[name]:
            d = make(rng)
            want = check_chord_conditions(d).first_failing
            if steps:
                with pytest.raises(BudgetExceededError, match="odd-cycle search exceeded"):
                    _first_failing_odd_cycle(d, steps - 1)
            assert _first_failing_odd_cycle(d, steps) == want, sorted(d.arcs)


def chord_report_summary():
    """A SHA-256 over the three condition reports and the first failing
    odd cycle of 1,500 seeded digraphs on 1-8 vertices at densities 0.15,
    0.30 and 0.45, with the unsatisfied reports and the tags counted."""
    rng = random.Random("chord-reports")
    digest = hashlib.sha256()
    unsatisfied, tags = 0, Counter()
    for i in range(1500):
        n = rng.randint(1, 8)
        density = (0.15, 0.30, 0.45)[i % 3]
        d = Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < density])
        reports = [
            check(d).to_json_obj()
            for check in (check_chord_conditions, check_gsnl_condition, check_duchet_condition)
        ]
        digest.update(json.dumps([reports, _first_failing_odd_cycle(d)]).encode())
        unsatisfied += sum(not r["satisfied"] for r in reports)
        tags.update(c["rule"] for r in reports for c in r["cycles"])
    return {"sha256": digest.hexdigest(), "unsatisfied": unsatisfied, "tags": dict(sorted(tags.items()))}


def test_chord_reports_golden():
    # taken before the three checks shared one rule function per condition
    golden = json.loads((Path(__file__).parent / "golden" / "chord_reports.json").read_text())
    assert chord_report_summary() == golden
    assert set(golden["tags"]) == {
        RULE_CONSECUTIVE_HEADS, RULE_TWO_ODD, RULE_CROSSING_SHORT_ODD, RULE_TWO_REVERSIBLE, RULE_NONE
    }


class TestAlternatingPathSemiKernel:
    """The semi-kernel the construction takes from K' = K + {u}, with u
    the least vertex and K a kernel of the digraph minus N-[u]."""

    @staticmethod
    def semi_kernel(d, kernel_below):
        n = d.vertex_count
        below = VertexSet(n, kernel_below).mask
        return VertexSet.from_mask(n, _semi_kernel_from(d._out, d._in, (1 << n) - 1, 0, below))

    def test_two_path(self):
        s = self.semi_kernel(Digraph(2, [(0, 1)]), [1])
        assert s.members() == (1,)

    def test_chorded_five_cycle(self):
        # removing N-[0] = {0, 4} leaves 1 -> 2 -> 3 with kernel {1, 3}
        s = self.semi_kernel(CHORDED, [1, 3])
        assert 0 not in s
        assert is_semi_kernel(CHORDED, s)


class TestFindKernelViaChords:
    def test_single_vertex(self):
        assert find_kernel_via_chords(Digraph(1, [])).members() == (0,)

    def test_arcless(self):
        assert find_kernel_via_chords(Digraph(4, [])).members() == (0, 1, 2, 3)

    def test_chorded_five_cycle(self):
        # frozen from the full scan over all 32 subsets
        assert set(naive.naive_kernels(5, sorted(CHORDED.arcs))) == {
            frozenset({1, 3}),
            frozenset({2, 4}),
        }
        kernel = find_kernel_via_chords(CHORDED)
        assert is_kernel(CHORDED, kernel)

    def test_refuses_bare_three_cycle(self):
        with pytest.raises(ConditionsViolatedError) as err:
            find_kernel_via_chords(Digraph(3, [(0, 1), (1, 2), (2, 0)]))
        assert err.value.report.first_failing == (0, 1, 2)
        assert err.value.report.cycles == (CycleReport((0, 1, 2), RULE_NONE),)

    @settings(max_examples=60, deadline=None)
    @given(digraphs(max_n=7))
    def test_sound_whenever_condition_holds(self, d):
        if not check_chord_conditions(d).satisfied:
            return
        assert find_kernel_bruteforce(d).exists
        kernel = find_kernel_via_chords(d)
        assert is_kernel(d, kernel)

    def test_matches_recursive_construction(self):
        # mostly reversible arcs, so that many instances meet the condition
        rng = random.Random(7)
        checked = 0
        for _ in range(400):
            n = rng.randrange(1, 10)
            arcs = []
            for u in range(n):
                for v in range(u + 1, n):
                    roll = rng.random()
                    if roll < 0.3:
                        arcs += [(u, v), (v, u)]
                    elif roll < 0.45:
                        arcs.append((u, v))
                    elif roll < 0.6:
                        arcs.append((v, u))
            d = Digraph(n, arcs)
            if not check_chord_conditions(d).satisfied:
                continue
            checked += 1
            want = naive.naive_chord_kernel(n, arcs)
            assert set(find_kernel_via_chords(d)) == want
        assert checked >= 100

    @settings(max_examples=60, deadline=None)
    @given(digraphs(max_n=7))
    def test_condition_implies_reversible_triangles(self, d):
        if check_chord_conditions(d).satisfied:
            assert is_M_clique_acyclic(d).holds

    @settings(max_examples=40, deadline=None)
    @given(digraphs(max_n=7))
    def test_duchet_regime_has_kernels(self, d):
        if check_duchet_condition(d).satisfied:
            assert find_kernel_bruteforce(d).exists
