"""Condition checkers, instance generators and the two constructive kernel
solvers for digraphs with blue and red arcs.

`solve_chain` handles digraphs whose colors satisfy the chain-closure
conditions (every monochromatic two-arc chain either closes in its own
color or is answered by the stated opposite-color pair).  It runs in
polynomial time: each improvement strictly raises an antichain of blue
strongly connected components, and no chain of antichains can be longer
than the component count plus one.

`solve_fixpoint` handles the path conditions (no monochromatic directed
cycle, and every red-arc/blue-arc path of length three induces another arc
not ending at its second vertex).  The same improvement loop applies but
no polynomial iteration bound is known, so it runs under an explicit
budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice
from typing import Optional

from .digraph import (
    ArcColor,
    ColoredDigraph,
    VertexSet,
    _component_masks,
    _subset_mask,
    _transpose,
    bits_of,
    is_kernel,
    strongly_connected_components,
    union_of,
)
from .errors import (
    BudgetExceededError,
    ConditionsViolatedError,
    ContractError,
    InternalInvariantError,
)
from .oracle import _first_weak_triangle, is_M_clique_acyclic
from .poset import Comparison, Poset, compare_antichains

__all__ = [
    "RULE_BLUE_CHAIN",
    "RULE_RED_CHAIN",
    "RULE_MONO_CYCLE",
    "RULE_OPEN_PATH",
    "ConditionReport",
    "AntichainPotential",
    "SolveIteration",
    "SolveTrace",
    "check_chain_conditions",
    "check_path_conditions",
    "blue_component_order",
    "antichain_potential",
    "find_initial_independent",
    "improve_step",
    "solve_chain",
    "solve_fixpoint",
    "generate_ssw_instance",
    "generate_comparability_instance",
    "generate_chain_instance",
    "generate_path_instance",
]

RULE_BLUE_CHAIN = "blue-chain"
RULE_RED_CHAIN = "red-chain"
RULE_MONO_CYCLE = "mono-cycle"
RULE_OPEN_PATH = "open-path"


@dataclass(frozen=True)
class ConditionReport:
    """Checker verdict; each violation is (rule id, witness vertex tuple)."""

    satisfied: bool
    violations: tuple[tuple[str, tuple[int, ...]], ...]

    def __bool__(self) -> bool:
        return self.satisfied


def _report(scan, first_only: bool) -> ConditionReport:
    violations = tuple(islice(scan, 1 if first_only else None))
    return ConditionReport(satisfied=not violations, violations=violations)


def check_chain_conditions(
    cd: ColoredDigraph, first_only: bool = False
) -> ConditionReport:
    """Scan the vertex triples for the two chain-closure rules.

    blue rule: u -b-> v -b-> w requires u -b-> w, or w -r-> u and w -r-> v.
    red rule:  u -r-> v -r-> w requires u -r-> w, or v -b-> u and w -b-> u.
    The two rules are deliberately not mirror images of each other.  The
    three vertices are distinct: a monochromatic two-cycle is no chain, so
    opposite same-color arcs are fine on their own.  From 24 vertices on
    only the tails in `_open_tails` of their color are scanned, which
    keeps the violations and their order; on fewer, finding them costs
    more than the scan they save.  On the chain generators' instances the
    two break even between 22 and 28 vertices, and the filter is about a
    third slower at 12 vertices and a fifth faster at 48.
    """
    n, blue_out, red_out = cd.vertex_count, cd._blue_out, cd._red_out
    tails = (_open_tails(blue_out), _open_tails(red_out)) if n >= 24 else ()
    scan = _chain_violations(range(n), blue_out, cd._blue_in, red_out, cd._red_in, *tails)
    return _report(scan, first_only)


def _open_tails(out: list[int]) -> int:
    """The vertices u of the color class `out` whose two-step reach leaves
    out[u] plus u itself.  Only these can be the tail u of a chain
    violation u -> v -> w in that color."""
    tails = 0
    for u, row in enumerate(out):
        if union_of(out, row) & ~(row | 1 << u):
            tails |= 1 << u
    return tails


def _chain_violations(
    middles, blue_out: list[int], blue_in: list[int], red_out: list[int], red_in: list[int],
    blue_tails: int = -1, red_tails: int = -1,
):
    """Yield every chain-closure violation (rule, (u, v, w)) with its
    middle v in `middles`, in scan order: v in the order given, its blue
    chains before its red ones, then u and w ascending.  Tails u outside
    `blue_tails` (`red_tails`) are skipped in blue (red) chains."""
    for v in middles:
        if blue_out[v]:
            for u in bits_of(blue_in[v] & blue_tails):
                # heads w the chain u -> v -> w leaves unanswered
                open_heads = blue_out[v] & ~blue_out[u] & ~(1 << u) & ~(red_in[u] & red_in[v])
                if open_heads:
                    for w in bits_of(open_heads):
                        yield RULE_BLUE_CHAIN, (u, v, w)
        if red_out[v]:
            for u in bits_of(red_in[v] & red_tails):
                open_heads = red_out[v] & ~red_out[u] & ~(1 << u)
                if (blue_out[v] >> u) & 1:
                    open_heads &= ~blue_in[u]
                if open_heads:
                    for w in bits_of(open_heads):
                        yield RULE_RED_CHAIN, (u, v, w)


def _chain_middles_through(
    u: int, w: int, blue_out: list[int], blue_in: list[int], red_out: list[int], red_in: list[int]
) -> int:
    """The middles whose chain-closure violations a change to the arc
    u -> w, in either color, can alter: u and w, where it is a chain arc,
    and the middles of the chains u -> m -> w and w -> m -> u, where it is
    the closing arc or an answering one."""
    return (
        (1 << u)
        | (1 << w)
        | (blue_out[u] | red_out[u]) & (blue_in[w] | red_in[w])
        | (blue_out[w] | red_out[w]) & (blue_in[u] | red_in[u])
    )


def _some_directed_cycle(out: list[int]) -> Optional[tuple[int, ...]]:
    """A directed cycle of the out-masks `out` as a vertex tuple starting
    at its least vertex, or None when they are acyclic; deterministic: the
    first component of two or more vertices in `_component_masks` order."""
    for comp_mask in _component_masks(out):
        if not comp_mask & (comp_mask - 1):
            continue
        root = (comp_mask & -comp_mask).bit_length() - 1
        # BFS inside the component back to the root gives a shortest cycle.
        parent = {root: None}
        frontier = [root]
        while frontier:
            nxt = []
            for x in frontier:
                for y in bits_of(out[x] & comp_mask):
                    if y == root:
                        path = [x]
                        while parent[path[-1]] is not None:
                            path.append(parent[path[-1]])
                        path.reverse()
                        return tuple(path)
                    if y not in parent:
                        parent[y] = x
                        nxt.append(y)
            frontier = nxt
        raise InternalInvariantError("strongly connected component without a cycle")
    return None


def check_path_conditions(
    cd: ColoredDigraph, first_only: bool = False
) -> ConditionReport:
    """Check that no color contains a directed cycle and that every directed
    path (v1, v2, v3, v4) with a red first arc and a blue last arc (v4 = v1
    allowed) induces another arc not ending at v2."""
    return _report(_path_violations(cd), first_only)


def _path_violations(cd: ColoredDigraph):
    for out in (cd._blue_out, cd._red_out):
        cycle = _some_directed_cycle(out)
        if cycle is not None:
            yield RULE_MONO_CYCLE, cycle
    d = cd.digraph
    for quad in _open_paths(range(cd.vertex_count), d._out, d._in, cd._red_in, cd._blue_out):
        yield RULE_OPEN_PATH, quad


def _open_paths(middles, out: list[int], inn: list[int], red_in: list[int], blue_out: list[int]):
    """Yield every path (v1, v2, v3, v4) with its middle v2 in `middles`,
    a red first arc and a blue last arc, that induces no arc besides its
    own and those into v2, in scan order: v2 in the order given, then v1,
    v3, v4 ascending."""
    for v2 in middles:
        for v1 in bits_of(red_in[v2]):
            b1 = 1 << v1
            if out[v2] & b1:
                # the arc v2 -> v1 is extra for every v3
                continue
            # the v4 that an arc from v1 or v2, or one into v1, rules out
            barred = out[v1] | out[v2] | inn[v1]
            for v3 in bits_of(out[v2] & ~out[v1]):
                if out[v3] & b1:
                    # an extra arc for every v4 but v1, which closes the
                    # path and leaves no arc to test
                    heads = blue_out[v3] & b1
                else:
                    heads = blue_out[v3] & ~(barred | inn[v3])
                if heads:
                    for v4 in bits_of(heads):
                        yield (v1, v2, v3, v4)


def _path_middles_through(a: int, b: int, out: list[int], inn: list[int]) -> int:
    """The middles v2 whose open paths (v1, v2, v3, v4) a change to the arc
    a -> b can alter.  Such a path holds both a and b, so v2 is one of
    them, or v1 or v3 is and v2 follows v1 or precedes v3."""
    return (1 << a) | (1 << b) | out[a] | inn[a] | out[b] | inn[b]


# -- the antichain potential ----------------------------------------------


@dataclass(frozen=True)
class AntichainPotential:
    """Which blue strongly connected components an independent set touches.

    `components` is the SCC partition of the blue restriction, `order` the
    blue-reachability partial order on component indices, and `antichain`
    the set of component indices the independent set intersects.
    """

    components: tuple[tuple[int, ...], ...]
    order: Poset
    antichain: frozenset[int]

    def representatives(self) -> tuple[int, ...]:
        """Smallest vertex of each touched component, sorted."""
        return tuple(sorted(self.components[i][0] for i in self.antichain))


def blue_component_order(cd: ColoredDigraph) -> tuple:
    """SCC partition of the blue restriction with its reachability order."""
    scc = strongly_connected_components(cd.restriction(ArcColor.BLUE))
    return scc, Poset(len(scc.components), successors=scc.condensation)


def antichain_potential(
    cd: ColoredDigraph, independent, context=None
) -> AntichainPotential:
    """Potential of an independent set; raises ContractError when the
    touched components do not form an antichain (possible only when the
    chain conditions fail)."""
    scc, order = context if context is not None else blue_component_order(cd)
    mask = _subset_mask(cd.vertex_count, independent)
    hit = frozenset(scc.component_of[v] for v in bits_of(mask))
    if not order.is_antichain(hit):
        raise ContractError(
            f"components {sorted(hit)} touched by {list(bits_of(mask))} are "
            f"not an antichain of the blue component order"
        )
    return AntichainPotential(scc.components, order, hit)


# -- the improvement loop ---------------------------------------------------


def _require_family(cd: ColoredDigraph, i_mask: int, label: str) -> None:
    """Refuse `i_mask` unless it is independent and the head of each red
    arc leaving it has an arc back into it."""
    d = cd.digraph
    if union_of(d._out, i_mask) & i_mask:
        raise ContractError(f"{label} is not independent")
    answered = i_mask | union_of(d._in, i_mask)
    w = next(bits_of(union_of(cd._red_out, i_mask) & ~answered), None)
    if w is not None:
        raise ContractError(
            f"{label} has a red arc to vertex {w} with no arc back",
            witness=w,
        )


def _unanswered_red(cd: ColoredDigraph) -> list[int]:
    """Each vertex's red out-neighbors that send no arc back."""
    inn = cd.digraph._in
    return [red & ~inn[v] for v, red in enumerate(cd._red_out)]


def _improvements(cd: ColoredDigraph, blocked: list[int], i_mask: int = 0):
    """Improve the independent set `i_mask` until it is a kernel, yielding
    each new set with its action.

    A step takes the least unabsorbed vertex v whose `blocked[v]` misses
    the unabsorbed set U, and adds it to the set ("add") or swaps it in
    for the members with an arc into v ("swap").  `blocked` is each
    vertex's unanswered red arcs for the chain conditions and all its red
    arcs for the path conditions, so from the empty set the first pick is
    the solver's initial vertex.  Each new set is checked to be
    independent with every red arc answered, and the last one to be a
    kernel.
    """
    d = cd.digraph
    n = cd.vertex_count
    full = (1 << n) - 1
    while True:
        unabsorbed = full & ~(i_mask | union_of(d._in, i_mask))
        if not unabsorbed:
            break
        v = next((x for x in bits_of(unabsorbed) if not blocked[x] & unabsorbed), None)
        if v is None:
            raise ConditionsViolatedError(
                "no unabsorbed vertex has all its red arcs answered within the "
                "unabsorbed set: conditions violated"
            )
        if d._in[v] & i_mask:
            i_mask, action = (i_mask & ~d._in[v]) | (1 << v), "swap"
        else:
            i_mask, action = i_mask | (1 << v), "add"
        try:
            _require_family(cd, i_mask, "improved set")
        except ContractError as exc:
            raise InternalInvariantError(f"improvement left the family: {exc}") from exc
        yield VertexSet.from_mask(n, i_mask), action
    if not is_kernel(d, VertexSet.from_mask(n, i_mask)):
        raise InternalInvariantError("the improvement loop stopped short of a kernel")


def find_initial_independent(cd: ColoredDigraph) -> VertexSet:
    """Singleton of the least vertex all of whose red arcs are answered:
    the first set of `solve_chain`'s improvement loop.

    Raises ConditionsViolatedError when no vertex qualifies, which the
    chain conditions rule out: red arcs with no arc back then form an
    acyclic digraph, and any sink of it qualifies.
    """
    if cd.vertex_count == 0:
        raise ContractError("empty digraph has no vertices to pick from")
    return next(_improvements(cd, _unanswered_red(cd)))[0]


def improve_step(cd: ColoredDigraph, independent) -> tuple[VertexSet, str]:
    """One improvement: add or swap in the least qualifying unabsorbed
    vertex; the result is again independent with all red arcs answered.

    Preconditions, all verified: the input is independent, all its red
    arcs are answered, and it is not yet a kernel.
    """
    i_mask = _subset_mask(cd.vertex_count, independent)
    _require_family(cd, i_mask, "input set")
    step = next(_improvements(cd, _unanswered_red(cd), i_mask), None)
    if step is None:
        raise ContractError("input set is already a kernel")
    return step


@dataclass(frozen=True)
class SolveIteration:
    independent: VertexSet
    potential: Optional[AntichainPotential]
    action: str


@dataclass(frozen=True)
class SolveTrace:
    """Solver run: the visited independent sets and the kernel they reach."""

    iterations: tuple[SolveIteration, ...]
    result: VertexSet

    @property
    def improve_steps(self) -> int:
        return max(0, len(self.iterations) - 1)

    def to_json_obj(self) -> dict:
        return {
            "iterations": [
                {
                    "independent": list(it.independent.members()),
                    "potential": (
                        list(it.potential.representatives())
                        if it.potential is not None
                        else None
                    ),
                    "action": it.action,
                }
                for it in self.iterations
            ],
            "result": list(self.result.members()),
        }


def _trace(n: int, iterations: list[SolveIteration]) -> SolveTrace:
    result = iterations[-1].independent if iterations else VertexSet(n)
    return SolveTrace(iterations=tuple(iterations), result=result)


def solve_chain(cd: ColoredDigraph) -> SolveTrace:
    """Kernel solver for the chain-closure conditions.

    Starts from the initial singleton and improves until a kernel appears.
    The antichain potential strictly increases at every step, so at most
    vertex_count improvements can happen; exceeding that bound (or a
    non-increasing potential) is a bug, not an input error.
    """
    report = check_chain_conditions(cd)
    if not report.satisfied:
        raise ConditionsViolatedError(
            f"chain conditions violated: {report.violations[0]}", report=report
        )
    n = cd.vertex_count
    context = blue_component_order(cd)
    iterations: list[SolveIteration] = []
    for current, action in _improvements(cd, _unanswered_red(cd)):
        if len(iterations) > n:
            raise InternalInvariantError(
                f"more than {n} improvement steps: the antichain chain bound failed"
            )
        potential = antichain_potential(cd, current, context)
        if iterations:
            verdict = compare_antichains(
                context[1], iterations[-1].potential.antichain, potential.antichain
            )
            if verdict is not Comparison.LESS:
                raise InternalInvariantError(
                    f"antichain potential did not strictly increase ({verdict.value})"
                )
        iterations.append(SolveIteration(current, potential, action if iterations else "init"))
    return _trace(n, iterations)


def solve_fixpoint(cd: ColoredDigraph, budget: Optional[int] = None) -> SolveTrace:
    """Kernel solver for the path conditions.

    Same improvement loop, but the new vertex is simply the least red-sink
    of the unabsorbed part, and termination rests on the acyclicity of the
    blue-step relation between independent sets, for which no polynomial
    bound is known.  `budget` caps the improvement count (default
    n * 2**n); exhausting it raises BudgetExceededError carrying the trace
    so far.
    """
    report = check_path_conditions(cd)
    if not report.satisfied:
        raise ConditionsViolatedError(
            f"path conditions violated: {report.violations[0]}", report=report
        )
    n = cd.vertex_count
    if budget is None:
        budget = n * (1 << n)
    iterations: list[SolveIteration] = []
    for current, action in _improvements(cd, cd._red_out):
        if len(iterations) > max(budget, 0):
            raise BudgetExceededError(
                f"no kernel after {budget} improvement steps",
                partial=tuple(iterations),
            )
        iterations.append(SolveIteration(current, None, action if iterations else "init"))
    return _trace(n, iterations)


# -- instance generators ----------------------------------------------------


def _random_transitive_masks(rng: random.Random, n: int, density: float) -> list[int]:
    """Transitive closure of a DAG sampled forward along a random order."""
    order = list(range(n))
    rng.shuffle(order)
    out = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                out[order[i]] |= 1 << order[j]
    # every arc points forward in `order`, so in reverse order each row's
    # successors are closed before the row itself
    for v in reversed(order):
        out[v] |= union_of(out, out[v])
    return out


def generate_ssw_instance(seed: int, n: int, density: float = 0.35) -> ColoredDigraph:
    """Two transitive color classes on disjoint arc sets.

    Blue is the transitive closure of a random forward-sampled DAG.  Red is
    grown arc by arc, keeping its closure at every step and rejecting any
    candidate whose closure would collide with a blue arc, so both classes
    stay genuinely transitive.  Red candidates point forward along their
    own random order, so red stays acyclic and adding u -> v closes it by
    giving every vertex that reaches u the row of v.  Deterministic by
    seed; the output is re-verified against the chain conditions.
    """
    rng = random.Random(("ssw", seed, n, density).__repr__())
    blue = _random_transitive_masks(rng, n, density)
    blue_in = _transpose(blue)
    order = list(range(n))
    rng.shuffle(order)
    candidates = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                candidates.append((order[i], order[j]))
    red = [0] * n
    red_in = [0] * n
    for u, v in candidates:
        if (red[u] >> v) & 1:
            continue
        gained = red[v] | (1 << v)
        rows = red_in[u] | (1 << u)
        if rows & union_of(blue_in, gained):
            continue
        left = rows
        while left:
            low = left & -left
            red[low.bit_length() - 1] |= gained
            left ^= low
        left = gained
        while left:
            low = left & -left
            red_in[low.bit_length() - 1] |= rows
            left ^= low
    cd = ColoredDigraph.from_color_masks(blue, red)
    if not check_chain_conditions(cd, first_only=True).satisfied:
        raise InternalInvariantError("transitive-class instance fails the chain conditions")
    return cd


def _weak_triangle_through(
    out: list[int], inn: list[int], x: int, y: int
) -> Optional[tuple[int, int, int]]:
    """Least weak directed triangle (see `_first_weak_triangle`) with both
    x and y among its vertices, or None."""
    best = None
    for p, q in ((x, y), (y, x)):
        if not (out[p] >> q) & 1:
            continue
        # the directed cycles p -> q -> z -> p, as in `_first_weak_triangle`
        closing = out[q] & inn[p]
        if (out[q] >> p) & 1:
            weak = closing & ~inn[q] & ~out[p]
        else:
            weak = closing & ~(inn[q] & out[p])
        for z in bits_of(weak):
            cycle = (p, q, z)
            first = cycle.index(min(cycle))
            cycle = cycle[first:] + cycle[:first]
            if best is None or cycle < best:
                best = cycle
    return best


def generate_comparability_instance(
    seed: int, n: int, density: float = 0.45
) -> ColoredDigraph:
    """Color a reversible-triangle-free orientation of a comparability graph.

    A random partial order provides the transitive orientation; every
    comparability edge gets a random direction (occasionally both), then
    directed triangles with fewer than two reversible arcs are repaired by
    making one more arc reversible until none remain, always the first
    such triangle in `is_M_clique_acyclic` order.  Arcs agreeing with the
    partial order are colored red, the others blue.
    """
    rng = random.Random(("comparability", seed, n, density).__repr__())
    strict = _random_transitive_masks(rng, n, density)
    out = [0] * n
    inn = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if not ((strict[u] >> v) & 1 or (strict[v] >> u) & 1):
                continue
            roll = rng.random()
            if roll < 0.9:
                tail, head = (u, v) if roll < 0.45 else (v, u)
                out[tail] |= 1 << head
                inn[head] |= 1 << tail
            else:
                out[u] |= 1 << v
                out[v] |= 1 << u
                inn[u] |= 1 << v
                inn[v] |= 1 << u

    witness = _first_weak_triangle(out, inn)
    while witness is not None:
        a, b, c = witness
        for x, y in ((a, b), (b, c), (c, a)):
            if not (out[y] >> x) & 1:
                break
        out[y] |= 1 << x
        inn[x] |= 1 << y
        # only triangles through x and y changed; every other triangle
        # before the witness was already fine, so the scan resumes at the
        # witness's own (a, b)
        through = _weak_triangle_through(out, inn, x, y)
        if through is not None and through < witness:
            witness = through
        else:
            witness = _first_weak_triangle(out, inn, a, b)

    cd = ColoredDigraph.from_color_masks(
        [o & ~s for o, s in zip(out, strict)], [o & s for o, s in zip(out, strict)]
    )
    if not is_M_clique_acyclic(cd.digraph).holds:
        raise InternalInvariantError("repaired orientation has a weak directed triangle")
    if not check_chain_conditions(cd, first_only=True).satisfied:
        raise InternalInvariantError(
            "comparability coloring fails the chain conditions"
        )
    return cd


def generate_chain_instance(
    seed: int, n: int, budget: int = 400, density: float = 0.25
) -> Optional[ColoredDigraph]:
    """Random colored digraph repaired toward the chain conditions.

    Each repair takes the first violation u -> v -> w in
    `check_chain_conditions` order and forces its first alternative: the
    closing arc u -> w is added in the chain's color, or recolored if it
    has the other one.  Repairs edit the arc masks in place, and only the
    middles a repair can affect are tested again.  Returns None when
    `budget` repairs leave a violation, or once the repair is seen to
    revisit an arc state (Brent's cycle detection over one saved state):
    the repair is a function of that state, so from there it cycles
    forever.  The instance is built once and re-verified against the
    chain conditions.
    """
    rng = random.Random(("chain", seed, n, density).__repr__())
    blue_out, blue_in, red_out, red_in = masks = tuple([0] * n for _ in range(4))
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < density:
                if rng.random() < 0.5:
                    blue_out[u] |= 1 << v
                    blue_in[v] |= 1 << u
                else:
                    red_out[u] |= 1 << v
                    red_in[v] |= 1 << u
    # middles that may hold a violation
    dirty = (1 << n) - 1
    # the arc state saved after 1, 2, 4, ... repairs
    saved, save_at = (tuple(blue_out), tuple(red_out)), 1
    repairs = 0
    while (violation := next(_chain_violations(bits_of(dirty), *masks), None)) is not None:
        if repairs == budget:
            return None
        repairs += 1
        rule, (u, v, w) = violation
        # the middles below v were found clean
        dirty &= -(1 << v)
        if rule == RULE_BLUE_CHAIN:
            keep_out, keep_in, drop_out, drop_in = masks
        else:
            drop_out, drop_in, keep_out, keep_in = masks
        keep_out[u] |= 1 << w
        keep_in[w] |= 1 << u
        drop_out[u] &= ~(1 << w)
        drop_in[w] &= ~(1 << u)
        dirty |= _chain_middles_through(u, w, *masks)
        state = (tuple(blue_out), tuple(red_out))
        if state == saved:
            return None
        if repairs == save_at:
            saved, save_at = state, 2 * save_at
    cd = ColoredDigraph.from_color_masks(blue_out, red_out)
    if not check_chain_conditions(cd, first_only=True).satisfied:
        raise InternalInvariantError("repaired instance fails the chain conditions")
    return cd


def generate_path_instance(seed: int, n: int, density: float = 0.3) -> ColoredDigraph:
    """Random instance satisfying the path conditions.

    Each color is sampled forward along its own random vertex order, which
    rules out monochromatic cycles outright; remaining path violations are
    repaired by deleting the closing blue arc of the first one, which
    terminates because the arc count strictly decreases and creates no
    cycle.  After a deletion only the middles it can affect are tested
    again.  The output is re-verified against the path conditions.
    """
    rng = random.Random(("path", seed, n, density).__repr__())
    position = {}
    for color in (ArcColor.BLUE, ArcColor.RED):
        order = list(range(n))
        rng.shuffle(order)
        position[color] = {v: i for i, v in enumerate(order)}
    out = [0] * n
    inn = [0] * n
    red_in = [0] * n
    blue_out = [0] * n
    for u in range(n):
        for v in range(n):
            if u == v or rng.random() >= density:
                continue
            color = ArcColor.BLUE if rng.random() < 0.5 else ArcColor.RED
            if position[color][u] < position[color][v]:
                out[u] |= 1 << v
                inn[v] |= 1 << u
                if color is ArcColor.BLUE:
                    blue_out[u] |= 1 << v
                else:
                    red_in[v] |= 1 << u
    # middles that may hold an open path
    dirty = (1 << n) - 1
    while True:
        quad = next(_open_paths(bits_of(dirty), out, inn, red_in, blue_out), None)
        if quad is None:
            break
        _, v2, a, b = quad
        # the middles below v2 were found clean
        dirty &= -(1 << v2)
        out[a] &= ~(1 << b)
        inn[b] &= ~(1 << a)
        blue_out[a] &= ~(1 << b)
        dirty |= _path_middles_through(a, b, out, inn)
    cd = ColoredDigraph.from_color_masks(blue_out, [o & ~b for o, b in zip(out, blue_out)])
    report = check_path_conditions(cd, first_only=True)
    if not report.satisfied:
        raise InternalInvariantError(
            f"path instance fails the path conditions: {report.violations[0]}"
        )
    return cd
