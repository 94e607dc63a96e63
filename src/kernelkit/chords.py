"""Chord taxonomy on directed cycles, the chord-rule condition checkers,
and the constructive kernel procedure they enable.

A chord of a directed cycle is an arc between cycle vertices that is not a
cycle arc.  Its span is the cycle distance from tail to head following the
cycle direction; a chord is odd when the span is odd and short when the
span is two.  The kernel-existence condition asks every odd directed cycle
for one of three chord patterns; checking it enumerates all odd cycles, so
everything here is exponential by design.  Each condition has one rule
function from a cycle to its tag, and its checker tags every odd cycle
with it.  The construction needs only the verdict and the first failing
cycle, so it runs the same search with `prune`, which skips the cycles
with consecutive heads, and asks the chord rule function of the rest; a
`budget` there counts that search's steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .digraph import (
    Digraph,
    VertexSet,
    _cycles,
    _subset_mask,
    bits_of,
    enumerate_directed_cycles,
    is_kernel,
    union_of,
)
from .errors import (
    ConditionsViolatedError,
    ContractError,
    InternalInvariantError,
)

__all__ = [
    "RULE_CONSECUTIVE_HEADS",
    "RULE_TWO_ODD",
    "RULE_CROSSING_SHORT_ODD",
    "RULE_TWO_REVERSIBLE",
    "RULE_NONE",
    "Chord",
    "CycleReport",
    "ChordConditionReport",
    "classify_chord",
    "chords_of_cycle",
    "are_crossing",
    "are_nested",
    "check_chord_conditions",
    "check_gsnl_condition",
    "check_duchet_condition",
    "alternating_path_semi_kernel",
    "chord_semi_kernel_strategy",
    "find_kernel_via_chords",
]

RULE_CONSECUTIVE_HEADS = "consecutive-heads"
RULE_TWO_ODD = "two-odd-noncrossing-nonnested"
RULE_CROSSING_SHORT_ODD = "crossing-short-odd"
RULE_TWO_REVERSIBLE = "two-reversible-arcs"
RULE_NONE = "none"


@dataclass(frozen=True)
class Chord:
    """An arc between cycle vertices that is not a cycle arc."""

    tail: int
    head: int
    tail_pos: int
    head_pos: int
    span: int

    @property
    def is_odd(self) -> bool:
        return self.span % 2 == 1

    @property
    def is_short(self) -> bool:
        return self.span == 2


def classify_chord(digraph: Digraph, cycle: tuple[int, ...], arc: tuple[int, int]) -> Chord:
    """Validate and measure a chord of the given directed cycle."""
    position = {v: i for i, v in enumerate(cycle)}
    tail, head = arc
    if tail not in position or head not in position:
        raise ContractError(f"arc ({tail}, {head}) has an endpoint off the cycle")
    if not digraph.has_arc(tail, head):
        raise ContractError(f"({tail}, {head}) is not an arc of the digraph")
    length = len(cycle)
    span = (position[head] - position[tail]) % length
    if span == 1:
        raise ContractError(f"({tail}, {head}) is a cycle arc, not a chord")
    if span == 0:
        raise ContractError(f"({tail}, {head}) is a loop")
    return Chord(
        tail=tail,
        head=head,
        tail_pos=position[tail],
        head_pos=position[head],
        span=span,
    )


def chords_of_cycle(digraph: Digraph, cycle: tuple[int, ...]) -> list[Chord]:
    """Every chord of the cycle, ordered by (tail position, head position)."""
    position = {v: i for i, v in enumerate(cycle)}
    cycle_mask = 0
    for v in cycle:
        cycle_mask |= 1 << v
    found = []
    for tail in cycle:
        for head in bits_of(digraph._out[tail] & cycle_mask):
            span = (position[head] - position[tail]) % len(cycle)
            if span != 1:
                found.append(
                    Chord(tail, head, position[tail], position[head], span)
                )
    found.sort(key=lambda c: (c.tail_pos, c.head_pos))
    return found


def _cyclic_positions(anchor: int, others: tuple[int, ...], length: int) -> tuple[int, ...]:
    return tuple((p - anchor) % length for p in others)


def are_crossing(c1: Chord, c2: Chord, cycle_length: int) -> bool:
    """Endpoints (u, v) and (w, t) are distinct and appear around the cycle
    as u, w, v, t in one of the two rotational directions."""
    u, v, w, t = c1.tail_pos, c1.head_pos, c2.tail_pos, c2.head_pos
    if len({u, v, w, t}) != 4:
        return False
    rw, rv, rt = _cyclic_positions(u, (w, v, t), cycle_length)
    return rw < rv < rt or rt < rv < rw


def are_nested(c1: Chord, c2: Chord, cycle_length: int) -> bool:
    """Endpoints (u, v) and (w, t) are distinct and appear around the cycle
    as u, w, t, v in one of the two rotational directions."""
    u, v, w, t = c1.tail_pos, c1.head_pos, c2.tail_pos, c2.head_pos
    if len({u, v, w, t}) != 4:
        return False
    rw, rt, rv = _cyclic_positions(u, (w, t, v), cycle_length)
    return rw < rt < rv or rv < rt < rw


def _odd_chord_rule(chords: Sequence[Chord], length: int) -> str:
    """First odd-chord rule the cycle meets: two odd chords neither crossing
    nor nested, then a short chord crossing an odd one."""
    for i, c1 in enumerate(chords):
        if not c1.is_odd:
            continue
        for c2 in chords[i + 1 :]:
            if (
                c2.is_odd
                and not are_crossing(c1, c2, length)
                and not are_nested(c1, c2, length)
            ):
                return RULE_TWO_ODD
    for c1 in chords:
        for c2 in chords:
            if c1.is_short and c2.is_odd and are_crossing(c1, c2, length):
                return RULE_CROSSING_SHORT_ODD
    return RULE_NONE


@dataclass(frozen=True)
class CycleReport:
    """An odd cycle's rule tag.  `chords_of_cycle(digraph, cycle)` gives
    its chords."""

    cycle: tuple[int, ...]
    rule: str


@dataclass(frozen=True)
class ChordConditionReport:
    """Per-odd-cycle rule tags plus the overall verdict."""

    satisfied: bool
    cycles: tuple[CycleReport, ...]
    first_failing: Optional[tuple[int, ...]]

    def __bool__(self) -> bool:
        return self.satisfied

    def to_json_obj(self) -> dict:
        return {
            "satisfied": self.satisfied,
            "cycles": [
                {"cycle": list(c.cycle), "rule": c.rule} for c in self.cycles
            ],
            "first_failing": list(self.first_failing) if self.first_failing else None,
        }


def _odd_cycle_report(digraph: Digraph, max_len, budget, rule) -> ChordConditionReport:
    """Tag every odd directed cycle with `rule(digraph, cycle)`; the
    verdict holds iff no cycle is tagged `none`."""
    entries = tuple(
        CycleReport(cycle, rule(digraph, cycle))
        for cycle in enumerate_directed_cycles(digraph, parity="odd", max_len=max_len, budget=budget)
    )
    first_failing = next((c.cycle for c in entries if c.rule == RULE_NONE), None)
    return ChordConditionReport(
        satisfied=first_failing is None, cycles=entries, first_failing=first_failing
    )


def _gsnl_rule(digraph: Digraph, cycle: tuple[int, ...]) -> str:
    """Consecutive heads: two chords of the cycle end on adjacent positions.

    Bit i of `heads` is set iff some chord ends at cycle[i]: an arc into
    it from a cycle vertex other than its cycle predecessor.  The rule
    holds iff two adjacent bits are set, cyclically."""
    inn = digraph._in
    cycle_mask = sum(1 << v for v in cycle)
    heads = 0
    for i, v in enumerate(cycle):
        if inn[v] & cycle_mask & ~(1 << cycle[i - 1]):
            heads |= 1 << i
    consecutive = heads & ((heads >> 1) | ((heads & 1) << (len(cycle) - 1)))
    return RULE_CONSECUTIVE_HEADS if consecutive else RULE_NONE


def _chord_rule(digraph: Digraph, cycle: tuple[int, ...]) -> str:
    """First chord rule the cycle meets, in a fixed order: consecutive
    heads, decided on head positions, then the two odd-chord rules, for
    which only the cycles the first rule leaves build their chords."""
    rule = _gsnl_rule(digraph, cycle)
    if rule == RULE_NONE:
        rule = _odd_chord_rule(chords_of_cycle(digraph, cycle), len(cycle))
    return rule


def _duchet_rule(digraph: Digraph, cycle: tuple[int, ...]) -> str:
    """Two reversible arcs on the cycle."""
    reversible = sum(digraph.has_arc(v, u) for u, v in zip(cycle, cycle[1:] + cycle[:1]))
    return RULE_TWO_REVERSIBLE if reversible >= 2 else RULE_NONE


def check_chord_conditions(
    digraph: Digraph, max_len: Optional[int] = None, budget: Optional[int] = None
) -> ChordConditionReport:
    """Tag every odd directed cycle with the first chord rule it satisfies.

    Rules are tried in a fixed order (consecutive heads, then two odd
    chords neither crossing nor nested, then a crossing short/odd pair) so
    tags are deterministic.  The verdict holds iff no cycle is tagged
    `none`.  `max_len` defaults to the vertex count: the condition
    quantifies over all odd directed cycles.
    """
    return _odd_cycle_report(digraph, max_len, budget, _chord_rule)


def _first_failing_odd_cycle(digraph: Digraph, budget: Optional[int] = None):
    """`check_chord_conditions(digraph).first_failing` without the other
    cycles: a search that skips cycles with consecutive heads, whose
    path-extension steps `budget` caps."""
    cycles = _cycles(digraph, digraph.vertex_count, budget, "odd-cycle search", prune=True)
    return next((c for c in cycles if len(c) % 2 and _chord_rule(digraph, c) == RULE_NONE), None)


def check_gsnl_condition(
    digraph: Digraph, max_len: Optional[int] = None, budget: Optional[int] = None
) -> ChordConditionReport:
    """Restrict the check to the consecutive-heads rule alone."""
    return _odd_cycle_report(digraph, max_len, budget, _gsnl_rule)


def check_duchet_condition(
    digraph: Digraph, max_len: Optional[int] = None, budget: Optional[int] = None
) -> ChordConditionReport:
    """Every odd directed cycle must have at least two reversible arcs."""
    return _odd_cycle_report(digraph, max_len, budget, _duchet_rule)


# -- the constructive procedure ---------------------------------------------
#
# The construction runs on alive masks over the digraph's own out- and
# in-masks.  An induced subdigraph keeps the vertex order, so the least
# vertex of a subdigraph is the least alive vertex and no copy is needed;
# the nesting of kernels inside semi-kernels lives on an explicit stack,
# so input size is never limited by Python's recursion limit.


def _alternating_path_set(out: list[int], part: int, u: int, below: int) -> int:
    """The K' = below + {u} vertices that the alternating-path search of
    `alternating_path_semi_kernel` reaches inside the vertex set `part`."""
    kprime = below | (1 << u)
    start = below & out[u]
    result = start
    seen = {(v, 0) for v in bits_of(start)}
    stack = list(seen)
    while stack:
        vertex, before = stack.pop()
        # extending past `vertex` activates its back-arc constraint
        if out[vertex] & before:
            continue
        now_before = before | ((1 << vertex) & kprime)
        # the next vertex must switch sides between K' and the rest
        if (kprime >> vertex) & 1:
            targets = out[vertex] & part & ~kprime
        else:
            targets = out[vertex] & kprime
        for nxt in bits_of(targets):
            state = (nxt, now_before)
            if state in seen:
                continue
            seen.add(state)
            result |= (1 << nxt) & kprime
            stack.append(state)
    return result


def _semi_kernel_from(
    out: list[int], inn: list[int], part: int, u: int, below: int
) -> int:
    """Non-empty semi-kernel of the subdigraph on `part`, given its least
    vertex u and a kernel `below` of `part` minus N-[u]."""
    if not below & out[u]:
        return below | (1 << u)
    semi = _alternating_path_set(out, part, u, below)
    if (semi >> u) & 1:
        raise InternalInvariantError(
            "alternating-path set reached u: chord conditions must be violated"
        )
    reached = union_of(out, semi) & part
    if reached & semi or reached & ~union_of(inn, semi):
        raise InternalInvariantError(
            "alternating-path set is not a semi-kernel: chord conditions must be violated"
        )
    return semi


def _chord_kernel(out: list[int], inn: list[int], alive: int) -> int:
    """Kernel of the subdigraph on `alive` by the semi-kernel recursion.

    Each round takes a semi-kernel S of what is left and removes S with
    N-(S).  The semi-kernel of a part needs the kernel of the part minus
    N-[u] first, u its least vertex; that nested kernel is a new frame.
    A frame is [part left, kernel so far, u awaiting the nested kernel].
    """
    stack = [[alive, 0, -1]]
    while True:
        frame = stack[-1]
        part = frame[0]
        if part:
            low = part & -part
            if part != low:
                u = low.bit_length() - 1
                frame[2] = u
                stack.append([part & ~(inn[u] | low), 0, -1])
                continue
            semi = low
        else:
            stack.pop()
            if not stack:
                return frame[1]
            below = frame[1]
            frame = stack[-1]
            semi = _semi_kernel_from(out, inn, frame[0], frame[2], below)
        frame[0] &= ~(semi | union_of(inn, semi))
        frame[1] |= semi


def alternating_path_semi_kernel(digraph: Digraph, u: int, kernel_below) -> VertexSet:
    """Grow a semi-kernel from K' = K + {u} by alternating-path search.

    `kernel_below` must be a kernel K of the digraph minus the closed
    in-neighborhood of `u`, meeting N+(u).  The result is the set of K'
    vertices reachable from K ∩ N+(u) by a directed path that alternates
    between K' and non-K' vertices and never lets a non-final vertex shoot
    an arc back at an earlier K' vertex.  States are memoized on (current
    vertex, set of earlier K' vertices on the path): the back-arc rule only
    ever inspects that set, and revisits splice away, so walks and paths
    reach the same endpoints.

    Under the chord conditions the result is a semi-kernel excluding `u`;
    either failing is reported as an internal invariant violation, since it
    is exactly what the conditions guarantee.
    """
    n = digraph.vertex_count
    digraph._check_vertex(u)
    out, inn = digraph._out, digraph._in
    k_mask = _subset_mask(n, kernel_below)
    removed = inn[u] | (1 << u)
    if k_mask & removed:
        raise ContractError("kernel_below intersects the closed in-neighborhood of u")
    rest = ((1 << n) - 1) & ~removed
    if union_of(out, k_mask) & k_mask or rest & ~(k_mask | union_of(inn, k_mask)):
        raise ContractError(
            "kernel_below is not a kernel of the digraph minus N-[u]"
        )
    if not k_mask & out[u]:
        raise ContractError("kernel_below does not meet the out-neighborhood of u")
    return VertexSet.from_mask(n, _semi_kernel_from(out, inn, (1 << n) - 1, u, k_mask))


def chord_semi_kernel_strategy(digraph: Digraph) -> VertexSet:
    """Non-empty semi-kernel of a digraph satisfying the chord conditions.

    Usable as the strategy argument of kernel_via_semikernel_recursion: the
    least vertex u is set aside, the rest minus N-[u] is solved by the
    same construction, and either K + {u} already works or the
    alternating-path construction extracts the semi-kernel from K.
    """
    n = digraph.vertex_count
    out, inn = digraph._out, digraph._in
    full = (1 << n) - 1
    if n <= 1:
        return VertexSet.from_mask(n, full)
    below = _chord_kernel(out, inn, full & ~(inn[0] | 1))
    return VertexSet.from_mask(n, _semi_kernel_from(out, inn, full, 0, below))


def find_kernel_via_chords(digraph: Digraph, budget: Optional[int] = None) -> VertexSet:
    """Kernel of a digraph whose odd cycles all satisfy a chord rule.

    The condition is checked first, since the construction is guaranteed
    only when every odd cycle meets a rule.  The check looks for the first
    failing cycle only, by a search that skips the cycles no rule can fail
    on; `budget` caps that search's path-extension steps, which are fewer
    than `check_chord_conditions` takes.  A failing cycle refuses the
    input with a report that holds that one cycle.  The kernel is then
    assembled by the semi-kernel recursion, with the alternating-path
    construction supplying each level's semi-kernel; the condition is
    inherited by induced subdigraphs, so it is not re-checked per level.
    """
    failing = _first_failing_odd_cycle(digraph, budget)
    if failing is not None:
        raise ConditionsViolatedError(
            f"odd directed cycle {failing} satisfies no chord rule",
            report=ChordConditionReport(
                satisfied=False,
                cycles=(CycleReport(failing, RULE_NONE),),
                first_failing=failing,
            ),
        )
    n = digraph.vertex_count
    result = VertexSet.from_mask(
        n, _chord_kernel(digraph._out, digraph._in, (1 << n) - 1)
    )
    if not is_kernel(digraph, result):
        raise InternalInvariantError("the chord construction returned a non-kernel")
    return result
