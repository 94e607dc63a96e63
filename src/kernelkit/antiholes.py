"""Anti-hole generators, the seven-vertex counterexample orientation,
exhaustive enumeration of clique-acyclic orientations, and the solvability
verification machinery built on top of it.

One search core, `_leaves`, enumerates edge-direction assignments in
lexicographic digit order over the edges in (min, max) order.  It runs on
an explicit stack with one mask of digits still to try per edge.  Each
clique is compiled into an allowed-digit table for its last edge, indexed
by the digits of its other edges, so the digits allowed at an edge are the
AND over the cliques ending there and a digit that would leave some clique
without a vertex receiving arcs from all the others is never tried.  In
simple mode only the triangles get tables: a tournament with no directed
triangle is transitive, so larger cliques then have such a vertex too.
The core keeps the in-neighbour masks of the partial orientation up to
date along the path, so each leaf goes to the kernel oracle as it stands.

Anti-hole runs can reduce by symmetry: the dihedral group of the labeling
acts on edge-direction assignments, and only the lexicographically least
assignment of each orbit is emitted; the comparisons with the group
images resume along the search path instead of restarting at each node.
Long runs split the search into tasks (the parallelism and checkpointing
unit) at the live prefixes of the pruned tree, 8 edges deep in simple
mode and 4 in general mode by default; in task order they give exactly
the leaves of the whole run, so counts and verdicts do not depend on the
depth or the worker count.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Iterator, Optional

from .digraph import (
    Digraph,
    EdgeDirection,
    Orientation,
    UndirectedGraph,
)
from .errors import ContractError, InternalInvariantError, SizeCapError
from .oracle import (
    all_clique_masks,
    find_kernel_bruteforce,
    is_clique_acyclic,
    kernel_exists_masks,
    maximal_independent_set_masks,
)

__all__ = [
    "AntiholeLabeling",
    "SolvabilityVerdict",
    "SearchOutcome",
    "gen_antihole",
    "c7_counterexample",
    "enumerate_simple_clique_acyclic_orientations",
    "verify_kernel_solvable",
    "find_near_sink",
    "search_clique_acyclic_no_kernel",
    "dihedral_edge_actions",
    "orientation_digits",
    "digits_to_orientation",
    "canonical_digits",
    "orbit_digits",
    "canonical_orientation_key",
]

MAX_EDGES = 32
_DIGITS = (EdgeDirection.FORWARD, EdgeDirection.BACKWARD, EdgeDirection.BOTH)


@dataclass(frozen=True)
class AntiholeLabeling:
    """Canonical labeling of the complement of an n-cycle: vertex i is
    non-adjacent exactly to i-1 and i+1 (mod n)."""

    n: int

    def __post_init__(self):
        if self.n < 4:
            raise ContractError(f"anti-holes need at least 4 vertices, got {self.n}")

    def edges(self) -> list[tuple[int, int]]:
        n = self.n
        return sorted(
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if (j - i) % n not in (1, n - 1)
        )

    def graph(self) -> UndirectedGraph:
        return UndirectedGraph(self.n, self.edges())

    def vertex_maps(self) -> list[list[int]]:
        """The 2n dihedral symmetries of the labeling, identity first."""
        n = self.n
        maps = []
        for shift in range(n):
            maps.append([(i + shift) % n for i in range(n)])
        for shift in range(n):
            maps.append([(shift - i) % n for i in range(n)])
        return maps


def gen_antihole(n: int) -> tuple[UndirectedGraph, AntiholeLabeling]:
    """Complement of the n-cycle with its canonical labeling."""
    labeling = AntiholeLabeling(n)
    return labeling.graph(), labeling


def c7_counterexample() -> Digraph:
    """The simple clique-acyclic orientation of the 7-vertex anti-hole with
    no kernel: every vertex points at the vertices two and four ahead."""
    arcs = [(i, (i + 2) % 7) for i in range(7)] + [(i, (i + 4) % 7) for i in range(7)]
    digraph = Digraph(7, arcs)
    orientation = Orientation.from_digraph(AntiholeLabeling(7).graph(), digraph)
    assert orientation.is_simple
    assert is_clique_acyclic(digraph).holds
    assert not find_kernel_bruteforce(digraph).exists
    return digraph


# -- edge-direction assignments and the dihedral action ---------------------


def orientation_digits(orientation: Orientation, edges: list[tuple[int, int]]) -> tuple[int, ...]:
    return tuple(_DIGITS.index(orientation.assignment[e]) for e in edges)


def digits_to_orientation(
    digits: tuple[int, ...], base: UndirectedGraph, edges: list[tuple[int, int]]
) -> Orientation:
    return Orientation(base, {e: _DIGITS[d] for e, d in zip(edges, digits)})


def dihedral_edge_actions(labeling: AntiholeLabeling):
    """Per group element: (inverse edge permutation, direction flip) arrays.

    The image assignment y of x under an element is
    y[j] = x[inv[j]] ^ flip[j] for directed digits, with the reversible
    digit fixed.  The identity element is omitted.
    """
    edges = labeling.edges()
    eindex = {e: i for i, e in enumerate(edges)}
    actions = []
    for perm in labeling.vertex_maps():
        if perm == list(range(labeling.n)):
            continue
        inv = [0] * len(edges)
        flip = [0] * len(edges)
        for i, (u, v) in enumerate(edges):
            a, b = perm[u], perm[v]
            j = eindex[(min(a, b), max(a, b))]
            inv[j] = i
            flip[j] = 1 if a > b else 0
        actions.append((tuple(inv), tuple(flip)))
    return actions


def _apply_action(digits: tuple[int, ...], action) -> tuple[int, ...]:
    inv, flip = action
    return tuple(
        digits[inv[j]] if digits[inv[j]] == 2 else digits[inv[j]] ^ flip[j]
        for j in range(len(digits))
    )


def canonical_digits(digits: tuple[int, ...], actions) -> tuple[int, ...]:
    best = digits
    for action in actions:
        image = _apply_action(digits, action)
        if image < best:
            best = image
    return best


def orbit_digits(digits: tuple[int, ...], actions) -> set[tuple[int, ...]]:
    orbit = {digits}
    for action in actions:
        orbit.add(_apply_action(digits, action))
    return orbit


def canonical_orientation_key(orientation: Orientation, labeling: AntiholeLabeling) -> tuple[int, ...]:
    """Orbit representative of an orientation under the labeling's dihedral
    group, as the lexicographically least edge-direction string."""
    edges = labeling.edges()
    if orientation.base != labeling.graph():
        raise ContractError("orientation does not live on the labeled anti-hole")
    return canonical_digits(orientation_digits(orientation, edges), dihedral_edge_actions(labeling))


# -- allowed-digit tables and the sweep core ---------------------------------


def _clique_completions(graph: UndirectedGraph, num_values: int):
    """Per edge index: the cliques whose last edge it is, each as (ids of
    its other edges, their positional weights, table).  The table maps the
    pattern of the other edges' digits to the bit mask of digits of the
    last edge that leave the clique a vertex receiving arcs from all the
    others."""
    edges = graph.sorted_edges()
    eindex = {e: i for i, e in enumerate(edges)}
    n = graph.vertex_count
    adjacency = [graph.adjacency_mask(v) for v in range(n)]
    completions: list[list] = [[] for _ in edges]
    for clique in all_clique_masks(n, adjacency, min_size=3):
        # a simple orientation of a clique is a tournament, and a tournament
        # with no directed triangle is transitive, so it has a sink: in
        # simple mode the triangles decide every larger clique
        if num_values == 2 and len(clique) > 3:
            continue
        eids = sorted(eindex[(a, b)] for a, b in combinations(clique, 2))
        members = sum(1 << v for v in clique)
        size = num_values ** (len(eids) - 1)
        table = bytearray(size)
        for pattern in range(size * num_values):
            inn = dict.fromkeys(clique, 0)
            rest = pattern
            for eid in eids:
                rest, digit = divmod(rest, num_values)
                u, v = edges[eid]
                if digit != 1:
                    inn[v] |= 1 << u
                if digit != 0:
                    inn[u] |= 1 << v
            if any(members & ~inn[x] == 1 << x for x in clique):
                # the last edge's digit is the most significant one
                table[pattern % size] |= 1 << (pattern // size)
        weights = tuple(num_values**p for p in range(len(eids) - 1))
        completions[eids[-1]].append((tuple(eids[:-1]), weights, bytes(table)))
    return edges, completions


def _leaves(
    n: int, edges, completions, num_values: int, prefix: tuple[int, ...] = (), actions=None
) -> Iterator[tuple[list[int], list[int]]]:
    """Yield the accepted assignments in lexicographic digit order as the
    live (digits, in-neighbour masks) lists of the search, which a consumer
    copies to keep.  `pending[e]` holds the digits still to try at edge e.

    With `actions`, the assignment is compared with each group image and
    pruned once an image is provably smaller; at the last edge the
    comparison covers the whole assignment, so exactly one representative
    per orbit, the lexicographically least, survives.  `ties[e]` holds the
    elements whose image still ties with the path above edge e, each with
    the first position not yet compared; edge e resumes from there and a
    sibling digit re-reads the entry, so backtracking needs no undo.
    """
    m = len(edges)
    assign = [0] * m
    inn = [0] * n
    if m == 0:
        yield assign, inn
        return
    every_digit = (1 << num_values) - 1
    pending = [0] * m
    ties = [[(inv, flip, 0) for inv, flip in actions or ()]] + [None] * m

    def allowed(e: int) -> int:
        digits = every_digit if e >= len(prefix) else 1 << prefix[e]
        for others, weights, table in completions[e]:
            pattern = 0
            for eid, weight in zip(others, weights):
                pattern += assign[eid] * weight
            digits &= table[pattern]
        return digits

    def symmetric_prune(e: int) -> bool:
        live = []
        for inv, flip, j in ties[e]:
            # positions below j tie; compare on while both sides are known
            while j <= e and inv[j] <= e:
                y = assign[inv[j]]
                if y != 2:
                    y ^= flip[j]
                if assign[j] != y:
                    break
                j += 1
            else:
                live.append((inv, flip, j))
                continue
            if assign[j] > y:
                return True
        ties[e + 1] = live
        return False

    e = 0
    pending[0] = allowed(0)
    while True:
        # the previous digit at e, if any, leaves the in-masks
        u, v = edges[e]
        inn[v] &= ~(1 << u)
        inn[u] &= ~(1 << v)
        digits = pending[e]
        if not digits:
            if e == 0:
                return
            e -= 1
            continue
        digit = (digits & -digits).bit_length() - 1
        pending[e] = digits & (digits - 1)
        assign[e] = digit
        if digit != 1:
            inn[v] |= 1 << u
        if digit != 0:
            inn[u] |= 1 << v
        if actions is not None and symmetric_prune(e):
            continue
        if e + 1 == m:
            yield assign, inn
            continue
        e += 1
        pending[e] = allowed(e)


def _check_sweep_input(
    graph: UndirectedGraph, symmetry_reduction: bool, labeling: Optional[AntiholeLabeling]
) -> None:
    if len(graph.edges) > MAX_EDGES:
        raise SizeCapError(
            f"{len(graph.edges)} edges exceed the enumeration cap of {MAX_EDGES}"
        )
    if symmetry_reduction:
        if labeling is None:
            raise ContractError("symmetry reduction needs the anti-hole labeling")
        if labeling.graph() != graph:
            raise ContractError("labeling does not match the graph")


def enumerate_simple_clique_acyclic_orientations(
    graph: UndirectedGraph,
    symmetry_reduction: bool = False,
    labeling: Optional[AntiholeLabeling] = None,
    prefix: tuple[int, ...] = (),
) -> Iterator[Orientation]:
    """Stream every simple clique-acyclic orientation of `graph`.

    `prefix` restricts the run to one subtree of the search tree (the
    work-splitting hook).  Symmetry reduction needs the anti-hole labeling
    and emits one orientation per dihedral orbit.
    """
    _check_sweep_input(graph, symmetry_reduction, labeling)
    actions = dihedral_edge_actions(labeling) if symmetry_reduction else None
    edges, completions = _clique_completions(graph, 2)
    for digits, _ in _leaves(graph.vertex_count, edges, completions, 2, prefix, actions):
        yield digits_to_orientation(digits, graph, edges)


# -- solvability verification ------------------------------------------------


@dataclass(frozen=True)
class SolvabilityVerdict:
    graph_id: str
    mode: str
    verdict: str  # "solvable" | "counterexample" | "exhausted_budget"
    counterexample: Optional[Orientation]
    orientations_examined: int
    elapsed_seconds: float

    def to_json_obj(self) -> dict:
        from .io import to_json_obj

        obj = {
            "graph": self.graph_id,
            "mode": self.mode,
            "verdict": self.verdict,
            "orientations_examined": self.orientations_examined,
            "elapsed_ms": int(self.elapsed_seconds * 1000),
        }
        if self.counterexample is not None:
            obj["counterexample"] = to_json_obj(self.counterexample)
        return obj


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # "witness" | "exhausted" | "unknown"
    orientation: Optional[Orientation]
    orientations_examined: int


def _graph_key(n: int, edges, mode: str, symmetry: bool, tasks) -> str:
    # the task list fixes what a checkpoint's task cursor points at
    payload = repr((n, tuple(edges), mode, symmetry, tasks)).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def _sweep_tables(graph: UndirectedGraph, num_values: int, symmetry: bool):
    """What every prefix task of a sweep shares: the clique tables, the
    kernel candidates and the symmetry actions (None without symmetry)."""
    n = graph.vertex_count
    _, completions = _clique_completions(graph, num_values)
    # every leaf orients `graph`, so its maximal independent sets are the
    # kernel candidates of every leaf
    candidates = tuple(
        maximal_independent_set_masks(n, [graph.adjacency_mask(v) for v in range(n)])
    )
    actions = dihedral_edge_actions(AntiholeLabeling(n)) if symmetry else None
    return completions, candidates, actions


def _live_prefixes(n: int, edges, num_values: int, tables, depth: int) -> list[tuple[int, ...]]:
    """The accepted assignments of the first `depth` edges, in order: a
    prefix the tables or the symmetry kill never becomes a task."""
    completions, _, actions = tables
    return [
        tuple(digits)
        for digits, _ in _leaves(n, edges[:depth], completions[:depth], num_values, (), actions)
    ]


def _verify_task(args) -> tuple[int, Optional[tuple[int, ...]], bool]:
    """Enumerate one prefix subtree; returns (examined, first kernel-free
    assignment or None, whether the leaf budget stopped the task)."""
    n, edges, num_values, tables, task_prefix, leaf_budget = args
    completions, candidates, actions = tables
    full = (1 << n) - 1
    examined = 0
    for digits, inn in _leaves(n, edges, completions, num_values, task_prefix, actions):
        if leaf_budget is not None and examined >= leaf_budget:
            return examined, None, True
        examined += 1
        if not kernel_exists_masks(full, inn, candidates):
            return examined, tuple(digits), False
    return examined, None, False


def _load_checkpoint(
    path: Path, signature: str, edge_count: int, num_values: int
) -> Optional[dict]:
    if not path.exists():
        return None
    try:
        state = json.loads(path.read_text())
    except ValueError as exc:
        raise ContractError(f"checkpoint {path} is not valid JSON ({exc})") from None
    if not isinstance(state, dict):
        raise ContractError(f"checkpoint {path} does not hold a JSON object")
    if state.get("signature") != signature:
        raise ContractError(
            f"checkpoint {path} belongs to a different run "
            f"(signature {state.get('signature')!r}, expected {signature!r})"
        )
    for key in ("next_task", "examined"):
        value = state.get(key)
        if type(value) is not int or value < 0:
            raise ContractError(
                f"checkpoint {path} is incomplete: {key} is {value!r}, "
                f"expected a non-negative integer"
            )
    counterexample = state.get("counterexample")
    if counterexample is not None and not (
        isinstance(counterexample, list)
        and len(counterexample) == edge_count
        and all(type(d) is int and 0 <= d < num_values for d in counterexample)
    ):
        raise ContractError(
            f"checkpoint {path} is corrupt: counterexample is {counterexample!r}, "
            f"expected null or {edge_count} digits below {num_values}"
        )
    elapsed = state.get("elapsed_seconds")
    if type(elapsed) not in (int, float) or not 0 <= elapsed < math.inf:
        raise ContractError(
            f"checkpoint {path} is corrupt: elapsed_seconds is {elapsed!r}, "
            f"expected a non-negative number"
        )
    return state


def verify_kernel_solvable(
    graph: UndirectedGraph,
    mode: str = "simple",
    symmetry_reduction: bool = False,
    labeling: Optional[AntiholeLabeling] = None,
    jobs: int = 1,
    budget: Optional[int] = None,
    checkpoint: Optional[str] = None,
    prefix_depth: Optional[int] = None,
    graph_id: str = "graph",
) -> SolvabilityVerdict:
    """Run the kernel oracle over every (simple) clique-acyclic orientation.

    Returns the first kernel-free orientation in enumeration order as a
    counterexample, or `solvable` after exhaustion.  The run is split into
    tasks at the live prefixes of length `prefix_depth`, which share clique
    tables and kernel candidates built once per call; `jobs` workers
    process them, results are consumed in task order, so counts and the
    verdict are identical for any worker count and any `prefix_depth`.
    `budget` caps the number of orientations examined and is tested before
    each one (budgeted runs execute sequentially); `checkpoint` names a
    JSON file updated after each completed task so an interrupted run
    resumes.
    """
    if mode not in ("simple", "general"):
        raise ContractError(f"unknown mode {mode!r}")
    _check_sweep_input(graph, symmetry_reduction, labeling)
    if prefix_depth is not None and prefix_depth < 0:
        raise ContractError(f"prefix depth must be non-negative, got {prefix_depth}")
    num_values = 2 if mode == "simple" else 3
    edges = tuple(graph.sorted_edges())
    n = graph.vertex_count
    if prefix_depth is None:
        prefix_depth = min(len(edges), 8 if num_values == 2 else 4)
    prefix_depth = min(prefix_depth, len(edges))
    tables = _sweep_tables(graph, num_values, symmetry_reduction)
    tasks = _live_prefixes(n, edges, num_values, tables, prefix_depth)
    signature = _graph_key(n, edges, mode, symmetry_reduction, tasks)

    start_task = 0
    examined = 0
    elapsed_before = 0.0
    checkpoint_path = Path(checkpoint) if checkpoint else None
    if checkpoint_path is not None:
        state = _load_checkpoint(checkpoint_path, signature, len(edges), num_values)
        if state is not None:
            start_task = state["next_task"]
            examined = state["examined"]
            elapsed_before = state["elapsed_seconds"]
            if state.get("counterexample") is not None:
                digits = tuple(state["counterexample"])
                return _verdict_from_digits(
                    graph, edges, mode, digits, examined, elapsed_before, graph_id
                )
            if start_task >= len(tasks):
                return SolvabilityVerdict(
                    graph_id, mode, "solvable", None, examined, elapsed_before
                )

    started = time.monotonic()

    def save_checkpoint(next_task: int, count: int, counterexample=None) -> None:
        # `count` must cover completed tasks only, so a re-run of the task
        # under the cursor never double-counts after a resume
        if checkpoint_path is None:
            return
        # a crash mid-write must leave the previous checkpoint intact
        partial = checkpoint_path.with_name(checkpoint_path.name + ".tmp")
        partial.write_text(
            json.dumps(
                {
                    "signature": signature,
                    "prefix_depth": prefix_depth,
                    "next_task": next_task,
                    "examined": count,
                    "elapsed_seconds": elapsed_before + time.monotonic() - started,
                    "counterexample": list(counterexample) if counterexample else None,
                }
            )
        )
        os.replace(partial, checkpoint_path)

    if budget is not None:
        jobs = 1

    total = examined

    def task_args(index: int):
        # read when the task starts, so it sees the budget earlier tasks left
        remaining = None if budget is None else budget - total
        return (n, edges, num_values, tables, tasks[index], remaining)

    args = (task_args(index) for index in range(start_task, len(tasks)))
    pool = None
    if jobs > 1:
        import multiprocessing

        pool = multiprocessing.Pool(processes=jobs)
    counter_digits = None
    budget_hit = False
    try:
        results = map(_verify_task, args) if pool is None else pool.imap(_verify_task, args)
        for index, (task_examined, digits, hit) in enumerate(results, start_task):
            total += task_examined
            if digits is not None:
                counter_digits = digits
                save_checkpoint(index + 1, total, digits)
                break
            if hit:
                budget_hit = True
                save_checkpoint(index, total - task_examined)
                break
            save_checkpoint(index + 1, total)
    finally:
        if pool is not None:
            pool.terminate()

    elapsed = elapsed_before + time.monotonic() - started
    if counter_digits is not None:
        return _verdict_from_digits(
            graph, edges, mode, counter_digits, total, elapsed, graph_id
        )
    if budget_hit:
        return SolvabilityVerdict(
            graph_id, mode, "exhausted_budget", None, total, elapsed
        )
    save_checkpoint(len(tasks), total)
    return SolvabilityVerdict(graph_id, mode, "solvable", None, total, elapsed)


def _verdict_from_digits(
    graph, edges, mode, digits, examined, elapsed, graph_id
) -> SolvabilityVerdict:
    orientation = digits_to_orientation(digits, graph, list(edges))
    digraph = orientation.to_digraph()
    if mode == "simple" and not orientation.is_simple:
        raise InternalInvariantError("counterexample is not simple")
    if not is_clique_acyclic(digraph).holds:
        raise InternalInvariantError("counterexample is not clique-acyclic")
    if find_kernel_bruteforce(digraph).exists:
        raise InternalInvariantError("counterexample has a kernel")
    return SolvabilityVerdict(
        graph_id, mode, "counterexample", orientation, examined, elapsed
    )


def search_clique_acyclic_no_kernel(
    graph: UndirectedGraph, budget: Optional[int] = None
) -> SearchOutcome:
    """Hunt for a clique-acyclic orientation (reversible edges allowed)
    without a kernel: the general-mode sweep of `verify_kernel_solvable`.

    Edge values are tried reversible-last, so simple witnesses surface
    first where they exist.  Exhaustion without a witness certifies that
    the graph is kernel-solvable; running out of budget is reported as an
    explicitly unknown outcome.
    """
    verdict = verify_kernel_solvable(graph, mode="general", budget=budget)
    status = {
        "counterexample": "witness",
        "solvable": "exhausted",
        "exhausted_budget": "unknown",
    }[verdict.verdict]
    return SearchOutcome(status, verdict.counterexample, verdict.orientations_examined)


def find_near_sink(orientation: Orientation, labeling: Optional[AntiholeLabeling] = None) -> int:
    """Least vertex of an anti-hole orientation whose two distance-two
    edges both point at it.

    Requires a simple clique-acyclic orientation of an odd anti-hole on at
    least nine vertices; such a vertex always exists there, so not finding
    one is an internal invariant violation, not an input error.
    """
    n = orientation.base.vertex_count
    if labeling is None:
        labeling = AntiholeLabeling(n)
    if labeling.graph() != orientation.base:
        raise ContractError("orientation does not live on the labeled anti-hole")
    if labeling.n < 9 or labeling.n % 2 == 0:
        raise ContractError(
            f"the two-steps-inward argument needs an odd anti-hole with at "
            f"least 9 vertices, got {labeling.n}"
        )
    if not orientation.is_simple:
        raise ContractError("orientation is not simple")
    digraph = orientation.to_digraph()
    verdict = is_clique_acyclic(digraph)
    if not verdict.holds:
        raise ContractError(
            f"orientation is not clique-acyclic (clique {verdict.witness})"
        )
    for i in range(n):
        if digraph.has_arc((i - 2) % n, i) and digraph.has_arc((i + 2) % n, i):
            return i
    raise InternalInvariantError(
        "no vertex receives both distance-two edges: clique-acyclicity "
        "should force one"
    )
