"""Independent brute-force reference implementations.

Everything here works on plain (vertex_count, arc list) data with nothing
but the standard library, so library results can be cross-checked against
definitions rather than against the code under test.
"""

import random
from itertools import combinations, permutations, product


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def subsets(n):
    for mask in range(1 << n):
        yield [v for v in range(n) if (mask >> v) & 1]


def antichains(poset):
    """Every antichain of `poset` as a frozenset, in increasing order of
    its bit mask: the subsets whose members `poset.leq` leaves pairwise
    incomparable."""
    return [
        frozenset(members)
        for members in subsets(poset.size)
        if not any(poset.leq(a, b) or poset.leq(b, a) for a, b in combinations(members, 2))
    ]


def naive_is_independent(n, arcs, members):
    s = set(members)
    return not any(u in s and v in s for (u, v) in arcs)


def naive_is_kernel(n, arcs, members):
    s = set(members)
    if not naive_is_independent(n, arcs, members):
        return False
    for v in range(n):
        if v in s:
            continue
        if not any(u == v and w in s for (u, w) in arcs):
            return False
    return True


def naive_is_semi_kernel(n, arcs, members):
    s = set(members)
    if not naive_is_independent(n, arcs, members):
        return False
    reached = {w for (u, w) in arcs if u in s and w not in s}
    for w in reached:
        if not any(x == w and y in s for (x, y) in arcs):
            return False
    return True


def naive_kernels(n, arcs):
    return [frozenset(s) for s in subsets(n) if naive_is_kernel(n, arcs, s)]


def naive_nonempty_semi_kernels(n, arcs):
    return [
        frozenset(s)
        for s in subsets(n)
        if s and naive_is_semi_kernel(n, arcs, s)
    ]


def naive_semikernel_recursion(n, arcs):
    """A kernel assembled from semi-kernels by subset scan, or None.

    Each round takes the least non-empty semi-kernel S (by sorted member
    tuple) of the subdigraph induced on the vertices left, adds S to the
    kernel and removes S with every vertex sending an arc into S.  None
    when some round finds no non-empty semi-kernel."""
    alive = list(range(n))
    kernel = set()
    while alive:
        index = {v: i for i, v in enumerate(alive)}
        sub_arcs = [(index[u], index[v]) for u, v in arcs if u in index and v in index]
        found = naive_nonempty_semi_kernels(len(alive), sub_arcs)
        if not found:
            return None
        semi = {alive[i] for i in min(found, key=sorted)}
        kernel |= semi
        absorbed = semi | {u for u, v in arcs if v in semi}
        alive = [v for v in alive if v not in absorbed]
    return frozenset(kernel)


def naive_cycles(n, arcs, parity="all", max_len=None):
    """All directed cycles as rotation classes, via raw sequence scanning."""
    arc_set = set(arcs)
    if max_len is None or max_len > n:
        max_len = n
    found = set()
    for length in range(2, max_len + 1):
        if parity == "odd" and length % 2 == 0:
            continue
        if parity == "even" and length % 2 == 1:
            continue
        for seq in permutations(range(n), length):
            if all(
                (seq[i], seq[(i + 1) % length]) in arc_set for i in range(length)
            ):
                start = seq.index(min(seq))
                found.add(seq[start:] + seq[:start])
    return found


class CycleBudgetHit(Exception):
    """Raised by `recursive_directed_cycles` past its budget; carries the
    cycles found so far."""

    def __init__(self, partial):
        super().__init__(f"budget hit after {len(partial)} cycles")
        self.partial = partial


def recursive_directed_cycles(n, arcs, parity="all", max_len=None, budget=None):
    """The library's cycle enumeration as first written, one Python frame
    per path vertex: same cycles, same order, same step count against
    `budget`.  Paths longer than the recursion limit raise RecursionError."""
    out = [0] * n
    for (u, v) in arcs:
        out[u] |= 1 << v
    if max_len is None or max_len > n:
        max_len = n
    cycles = []
    steps = 0

    def wanted(length):
        return parity == "all" or (length % 2 == 1) == (parity == "odd")

    def extend(root, path, on_path):
        nonlocal steps
        for w in _bits(out[path[-1]]):
            if w < root:
                continue
            steps += 1
            if budget is not None and steps > budget:
                raise CycleBudgetHit(list(cycles))
            if w == root:
                if wanted(len(path)):
                    cycles.append(tuple(path))
            elif not (on_path >> w) & 1 and len(path) < max_len:
                path.append(w)
                extend(root, path, on_path | (1 << w))
                path.pop()

    if max_len >= 2:
        for root in range(n):
            extend(root, [root], 1 << root)
    return cycles


def naive_reachable(n, arcs):
    reach = [[u == v for v in range(n)] for u in range(n)]
    for (u, v) in arcs:
        reach[u][v] = True
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if reach[i][k] and reach[k][j]:
                    reach[i][j] = True
    return reach


def naive_sccs(n, arcs):
    """Set of frozensets; mutual reachability classes."""
    reach = naive_reachable(n, arcs)
    return {
        frozenset(v for v in range(n) if reach[u][v] and reach[v][u])
        for u in range(n)
    }


def naive_tarjan(n, arcs):
    """Tarjan's algorithm over successor lists, each scanned in ascending
    order from a per-vertex iterator, iterative: (components, component_of,
    condensation pairs).  The components come in topological order, each
    sorted, from roots ascending; (i, j) is a condensation pair when an arc
    joins component i to component j."""
    succ = [[] for _ in range(n)]
    for u, v in sorted(arcs):
        succ[u].append(v)
    index_of = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack = []
    sccs = []
    counter = 0
    for root in range(n):
        if index_of[root] != -1:
            continue
        work = [(root, iter(succ[root]))]
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index_of[w] == -1:
                    index_of[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    advanced = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index_of[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index_of[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(tuple(sorted(comp)))
    # Tarjan finishes components in reverse topological order
    sccs.reverse()
    component_of = [0] * n
    for i, comp in enumerate(sccs):
        for v in comp:
            component_of[v] = i
    condensation = {
        (component_of[u], component_of[v]) for u, v in arcs if component_of[u] != component_of[v]
    }
    return tuple(sccs), tuple(component_of), frozenset(condensation)


def naive_mono_cycle(n, arcs):
    """The path check's cycle witness among `arcs`, None when they are
    acyclic: the first component of two or more vertices in `naive_tarjan`
    order, then a breadth-first search inside it from its least vertex,
    successors ascending; the first vertex taken from the queue with an arc
    back to the root closes the cycle, listed from the root."""
    components, _, _ = naive_tarjan(n, arcs)
    for comp in components:
        if len(comp) < 2:
            continue
        root = comp[0]
        parent = {root: None}
        queue = [root]
        for x in queue:
            if (x, root) in arcs:
                cycle = [x]
                while parent[cycle[-1]] is not None:
                    cycle.append(parent[cycle[-1]])
                return tuple(reversed(cycle))
            for y in sorted(y for (u, y) in arcs if u == x and y in comp):
                if y not in parent:
                    parent[y] = x
                    queue.append(y)
    return None


def naive_order(n, pairs):
    """(reach, witness): the reflexive transitive closure of `pairs` on
    {0, ..., n-1}, and the first (a, b) in (a, b) order with a != b and
    each below the other, None when the closure is a partial order."""
    reach = naive_reachable(n, pairs)
    witness = next(
        ((a, b) for a in range(n) for b in range(n) if a != b and reach[a][b] and reach[b][a]),
        None,
    )
    return reach, witness


def naive_linear_extension(reach):
    """Least index first: each step places the least unplaced element
    with no unplaced element strictly below it."""
    n = len(reach)
    order = []
    while len(order) < n:
        order.append(min(
            x for x in range(n)
            if x not in order
            and all(y in order or y == x or not reach[y][x] for y in range(n))
        ))
    return order


def naive_is_antichain(reach, members):
    return not any(reach[a][b] or reach[b][a] for a, b in combinations(sorted(set(members)), 2))


def naive_max_chain(reach, order):
    """Walk `order`, adding each element after evicting what lies below it."""
    chain = [frozenset()]
    for x in order:
        chain.append(frozenset(y for y in chain[-1] if not reach[y][x]) | {x})
    return chain


def naive_has_odd_directed_cycle(n, arcs):
    return bool(naive_cycles(n, arcs, parity="odd"))


def naive_cliques(n, edges):
    """Every clique (any size >= 1) of an undirected edge set."""
    adj = {v: set() for v in range(n)}
    for (u, v) in edges:
        adj[u].add(v)
        adj[v].add(u)
    cliques = []
    for size in range(1, n + 1):
        for group in combinations(range(n), size):
            if all(b in adj[a] for a, b in combinations(group, 2)):
                cliques.append(group)
    return cliques


def naive_clique_acyclic(n, arcs, cliques=None):
    """Every clique of the underlying adjacency must have a vertex with
    arcs from all other clique members.  `cliques` may pass in the
    underlying graph's `naive_cliques`, for callers testing many
    orientations of one graph."""
    arc_set = set(arcs)
    if cliques is None:
        cliques = naive_cliques(n, {(min(u, v), max(u, v)) for (u, v) in arcs})
    for clique in cliques:
        ok = any(
            all((y, x) in arc_set for y in clique if y != x) for x in clique
        )
        if not ok:
            return False
    return True


def naive_m_clique_acyclic(n, arcs):
    arc_set = set(arcs)
    for triple in permutations(range(n), 3):
        a, b, c = triple
        if (a, b) in arc_set and (b, c) in arc_set and (c, a) in arc_set:
            reversible = sum(
                1 for pair in ((b, a), (c, b), (a, c)) if pair in arc_set
            )
            if reversible < 2:
                return False
    return True


def naive_simple_orientations(n, edges):
    """All 2^m arc sets orienting each edge one way."""
    edges = sorted(edges)
    m = len(edges)
    for mask in range(1 << m):
        arcs = []
        for i, (u, v) in enumerate(edges):
            arcs.append((u, v) if (mask >> i) & 1 == 0 else (v, u))
        yield arcs


def naive_orientations(edges, num_values=2):
    """(digits, arcs) for every edge-direction assignment, digits in
    lexicographic order: per edge (u, v), u < v, digit 0 is u -> v, 1 is
    v -> u and 2 (with `num_values` 3) is both arcs."""
    edges = sorted(edges)
    for digits in product(range(num_values), repeat=len(edges)):
        yield digits, naive_arcs(edges, digits)


def naive_arcs(edges, digits):
    """The arcs `digits` gives the sorted `edges`."""
    arcs = []
    for (u, v), digit in zip(edges, digits):
        if digit != 1:
            arcs.append((u, v))
        if digit != 0:
            arcs.append((v, u))
    return arcs


def naive_in_masks(n, edges, digits):
    """In-neighbour masks of the orientation `digits` gives the sorted
    `edges`, rebuilt from scratch."""
    inn = [0] * n
    for (u, v), digit in zip(edges, digits):
        if digit != 1:
            inn[v] |= 1 << u
        if digit != 0:
            inn[u] |= 1 << v
    return inn


def naive_out_masks(n, edges, digits):
    """Out-neighbour masks of the orientation `digits` gives the sorted
    `edges`, rebuilt from scratch."""
    out = [0] * n
    for u, v in naive_arcs(edges, digits):
        out[u] |= 1 << v
    return out


# -- reference generators ----------------------------------------------------
#
# The red-blue generators as first written: every step rebuilds from
# scratch (a fixpoint closure per red candidate, a full triangle or path
# rescan per repair).  They draw from the same seeded streams as the
# library's generators, so the two must return the same arcs.  Each
# returns the sorted (tail, head, "b" | "r") rows.


def _closure(reach):
    reach = reach[:]
    changed = True
    while changed:
        changed = False
        for v in range(len(reach)):
            acc = reach[v]
            for w in _bits(reach[v]):
                acc |= reach[w]
            if acc != reach[v]:
                reach[v] = acc
                changed = True
    return reach


def _random_transitive_masks(rng, n, density):
    order = list(range(n))
    rng.shuffle(order)
    out = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                out[order[i]] |= 1 << order[j]
    return _closure(out)


def naive_ssw_rows(seed, n, density=0.35):
    rng = random.Random(("ssw", seed, n, density).__repr__())
    blue = _random_transitive_masks(rng, n, density)
    order = list(range(n))
    rng.shuffle(order)
    candidates = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                candidates.append((order[i], order[j]))
    red = [0] * n
    for u, v in candidates:
        trial = red[:]
        trial[u] |= 1 << v
        trial = _closure(trial)
        if all(trial[x] & blue[x] == 0 for x in range(n)):
            red = trial
    rows = [(u, v, "b") for u in range(n) for v in _bits(blue[u])]
    rows += [(u, v, "r") for u in range(n) for v in _bits(red[u])]
    return sorted(rows)


def _first_weak_triangle(n, arc_set):
    """First directed triangle with fewer than two reversible arcs, in the
    scan order of the M-clique-acyclicity check."""
    out = [0] * n
    inn = [0] * n
    for (u, v) in arc_set:
        out[u] |= 1 << v
        inn[v] |= 1 << u
    for a in range(n):
        higher = ~((1 << (a + 1)) - 1)
        for b in _bits(out[a] & higher):
            for c in _bits(out[b] & inn[a] & higher):
                reversible = (
                    ((out[b] >> a) & 1) + ((out[c] >> b) & 1) + ((out[a] >> c) & 1)
                )
                if reversible < 2:
                    return (a, b, c)
    return None


def naive_comparability_rows(seed, n, density=0.45):
    rng = random.Random(("comparability", seed, n, density).__repr__())
    strict = _random_transitive_masks(rng, n, density)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (strict[u] >> v) & 1 or (strict[v] >> u) & 1
    ]
    assignment = {}
    for e in edges:
        roll = rng.random()
        assignment[e] = "fwd" if roll < 0.45 else "bwd" if roll < 0.9 else "both"
    while True:
        arc_set = set()
        for (u, v), direction in assignment.items():
            if direction != "bwd":
                arc_set.add((u, v))
            if direction != "fwd":
                arc_set.add((v, u))
        witness = _first_weak_triangle(n, arc_set)
        if witness is None:
            break
        a, b, c = witness
        for (x, y) in ((a, b), (b, c), (c, a)):
            if (y, x) not in arc_set:
                assignment[(min(x, y), max(x, y))] = "both"
                break
    return sorted(
        (u, v, "r" if (strict[u] >> v) & 1 else "b") for (u, v) in arc_set
    )


def naive_open_paths(n, arcs):
    """Every red-then-blue path (v1, v2, v3, v4) inducing no arc besides its
    own and those into v2, in the path-condition check's scan order;
    `arcs` maps (tail, head) to "b" or "r"."""
    out = {v: sorted(w for (u, w) in arcs if u == v) for v in range(n)}
    for v2 in range(n):
        for v1 in sorted(u for (u, w), c in arcs.items() if w == v2 and c == "r"):
            for v3 in out[v2]:
                if v3 == v1:
                    continue
                for v4 in out[v3]:
                    if arcs[(v3, v4)] != "b" or v4 in (v2, v3):
                        continue
                    quad = {v1, v2, v3, v4}
                    path_arcs = {(v1, v2), (v2, v3), (v3, v4)}
                    if not any(
                        x in quad and y in quad and y != v2 and (x, y) not in path_arcs
                        for (x, y) in arcs
                    ):
                        yield (v1, v2, v3, v4)


def naive_chain_violations(n, arcs):
    """Yield every (rule, (u, v, w)) chain-closure violation in the chain
    check's scan order; `arcs` maps (tail, head) to "b" or "r"."""
    for v in range(n):
        for color, other, rule in (("b", "r", "blue-chain"), ("r", "b", "red-chain")):
            tails = sorted(u for (u, x), c in arcs.items() if x == v and c == color)
            heads = sorted(w for (x, w), c in arcs.items() if x == v and c == color)
            for u in tails:
                for w in heads:
                    if w == u or arcs.get((u, w)) == color:
                        continue
                    if color == "b":
                        answered = arcs.get((w, u)) == other == arcs.get((w, v))
                    else:
                        answered = arcs.get((v, u)) == other == arcs.get((w, u))
                    if not answered:
                        yield rule, (u, v, w)


def naive_chain_rows(seed, n, budget=400, density=0.25):
    """The chain generator rescanning the whole instance after each repair,
    which sets the closing arc u -> w of the first violation to the
    chain's color; None when `budget` repairs leave a violation."""
    rng = random.Random(("chain", seed, n, density).__repr__())
    arcs = {}
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < density:
                arcs[(u, v)] = "b" if rng.random() < 0.5 else "r"
    repairs = 0
    while (witness := next(naive_chain_violations(n, arcs), None)) is not None:
        if repairs == budget:
            return None
        repairs += 1
        rule, (u, _, w) = witness
        arcs[(u, w)] = "b" if rule == "blue-chain" else "r"
    return sorted((u, v, c) for (u, v), c in arcs.items())


def naive_path_rows(seed, n, density=0.3):
    rng = random.Random(("path", seed, n, density).__repr__())
    position = {}
    for color in ("b", "r"):
        order = list(range(n))
        rng.shuffle(order)
        position[color] = {v: i for i, v in enumerate(order)}
    arcs = {}
    for u in range(n):
        for v in range(n):
            if u == v or rng.random() >= density:
                continue
            color = "b" if rng.random() < 0.5 else "r"
            if position[color][u] < position[color][v]:
                arcs[(u, v)] = color
    while True:
        witness = next(naive_open_paths(n, arcs), None)
        if witness is None:
            return sorted((u, v, c) for (u, v), c in arcs.items())
        _, _, v3, v4 = witness
        del arcs[(v3, v4)]


# -- reference improvement loop -----------------------------------------------


def naive_solver_iterations(n, arcs, conditions):
    """The iterations of `solve_chain` (conditions "chain") or
    `solve_fixpoint` ("path"), as the solvers computed them before they
    shared one loop: start from the least vertex with no blocking red
    arc, then repeatedly add the least unabsorbed vertex with no blocking
    red arc into the unabsorbed set, or swap it in for its in-neighbours
    in the set.  A red arc blocks when it has no arc back (chain) or
    always (path).  `arcs` maps (tail, head) to "b" or "r"; the result
    has the layout of the trace's JSON iterations, with the least vertex
    of each touched blue component as the chain solver's potential."""
    inn = {v: {u for (u, w) in arcs if w == v} for v in range(n)}
    blocked = {
        v: {w for (u, w), c in arcs.items() if u == v and c == "r"}
        - (inn[v] if conditions == "chain" else set())
        for v in range(n)
    }
    least = {}
    for component in naive_sccs(n, [a for a, c in arcs.items() if c == "b"]):
        for v in component:
            least[v] = min(component)
    steps = []
    current = set()
    while True:
        unabsorbed = set(range(n)) - current - {u for x in current for u in inn[x]}
        if not unabsorbed:
            return steps
        if not steps:
            v = min(x for x in range(n) if not blocked[x])
            current, action = {v}, "init"
        else:
            v = min(x for x in unabsorbed if not blocked[x] & unabsorbed)
            if inn[v] & current:
                current, action = (current - inn[v]) | {v}, "swap"
            else:
                current, action = current | {v}, "add"
        steps.append(
            {
                "independent": sorted(current),
                "potential": sorted({least[x] for x in current}) if conditions == "chain" else None,
                "action": action,
            }
        )


# -- reference chord construction --------------------------------------------


def naive_chord_kernel(n, arcs):
    """The chord construction as mutually recursive functions over vertex
    sets: a kernel is assembled from semi-kernels, and the semi-kernel of
    a set sets its least vertex u aside, solves the set minus N-[u], and
    falls back to the alternating-path search when that kernel meets
    N+(u).  Recursion depth grows with the vertex count."""
    out = {v: {w for (u, w) in arcs if u == v} for v in range(n)}
    inn = {v: {u for (u, w) in arcs if w == v} for v in range(n)}

    def kernel(alive):
        result = set()
        while alive:
            semi = semi_kernel(alive)
            result |= semi
            absorbed = set(semi)
            for s in semi:
                absorbed |= inn[s]
            alive = alive - absorbed
        return frozenset(result)

    def semi_kernel(alive):
        if len(alive) == 1:
            return set(alive)
        u = min(alive)
        below = kernel(alive - inn[u] - {u})
        if not below & out[u]:
            return set(below) | {u}
        kprime = set(below) | {u}
        start = below & out[u]
        result = set(start)
        seen = {(v, frozenset()) for v in start}
        stack = list(seen)
        while stack:
            vertex, before = stack.pop()
            if out[vertex] & alive & before:
                continue
            now_before = before | ({vertex} & kprime)
            for nxt in sorted(out[vertex] & alive):
                if (nxt in kprime) == (vertex in kprime):
                    continue
                state = (nxt, now_before)
                if state in seen:
                    continue
                seen.add(state)
                if nxt in kprime:
                    result.add(nxt)
                stack.append(state)
        return result

    return kernel(frozenset(range(n)))


# -- reference chord rules ---------------------------------------------------


def naive_chords(arcs, cycle):
    """Every chord of `cycle` as (tail, head, tail position, head position,
    span): an arc between two cycle vertices that is not a cycle arc, its
    span the number of steps from tail to head along the cycle."""
    length = len(cycle)
    position = {v: i for i, v in enumerate(cycle)}
    found = []
    for (x, y) in arcs:
        if x in position and y in position:
            steps = 0
            while cycle[(position[x] + steps) % length] != y:
                steps += 1
            if steps != 1:
                found.append((x, y, position[x], position[y], steps))
    return sorted(found, key=lambda c: (c[2], c[3]))


def _appear_as(length, pattern):
    """Whether the cycle positions in `pattern` are distinct and come up
    in that order on a walk around the cycle from `pattern[0]`, in one of
    the two directions."""
    if len(set(pattern)) != len(pattern):
        return False
    for step in (1, -1):
        walk = [(pattern[0] + step * k) % length for k in range(length)]
        if [p for p in walk if p in pattern] == list(pattern):
            return True
    return False


def naive_crossing(c1, c2, length):
    """Chords (u, v) and (w, t) appear around the cycle as u, w, v, t."""
    return _appear_as(length, (c1[2], c2[2], c1[3], c2[3]))


def naive_nested(c1, c2, length):
    """Chords (u, v) and (w, t) appear around the cycle as u, w, t, v."""
    return _appear_as(length, (c1[2], c2[2], c2[3], c1[3]))


def naive_consecutive_heads(c1, c2, length):
    """The heads are one step apart around the cycle, either way."""
    return c1[3] != c2[3] and (
        (c1[3] + 1) % length == c2[3] or (c2[3] + 1) % length == c1[3]
    )


def naive_chord_rule(chords, length):
    """First chord rule the cycle meets: two chords with consecutive heads,
    then two odd chords neither crossing nor nested, then a short chord
    crossing an odd one; "none" when it meets no rule."""
    pairs = list(combinations(chords, 2))
    if any(naive_consecutive_heads(c1, c2, length) for c1, c2 in pairs):
        return "consecutive-heads"
    if any(
        c1[4] % 2 == 1
        and c2[4] % 2 == 1
        and not naive_crossing(c1, c2, length)
        and not naive_nested(c1, c2, length)
        for c1, c2 in pairs
    ):
        return "two-odd-noncrossing-nonnested"
    if any(
        short[4] == 2 and odd[4] % 2 == 1 and naive_crossing(short, odd, length)
        for short, odd in permutations(chords, 2)
    ):
        return "crossing-short-odd"
    return "none"


def naive_odd_cycle_chords(n, arcs):
    """Every odd directed cycle in lexicographic order, which is the order
    the library lists them in, as (cycle, chords, first chord rule, number
    of reversible cycle arcs)."""
    arc_set = set(arcs)
    table = []
    for cycle in sorted(naive_cycles(n, arcs, parity="odd")):
        length = len(cycle)
        chords = naive_chords(arc_set, cycle)
        reversible = sum(
            (cycle[(i + 1) % length], cycle[i]) in arc_set for i in range(length)
        )
        table.append((cycle, chords, naive_chord_rule(chords, length), reversible))
    return table


# -- reference sweep with the full-rescan symmetry prune ---------------------


def reference_leaves(n, edges, num_values, prefix=(), actions=None):
    """The sweep core by definition: a depth-first walk over the digits of
    the sorted `edges` in lexicographic order that keeps a digit only if
    every clique whose edges are all decided still has a vertex receiving
    arcs from all the others (`naive_clique_acyclic` on the arcs placed so
    far), and with `actions` compares the assignment with each group image
    from position 0 at every node.  The first digits are pinned to
    `prefix`.  Yields (digits, in-masks) tuples in lexicographic digit
    order."""
    edges = sorted(edges)
    index = {e: i for i, e in enumerate(edges)}
    closing = [[] for _ in edges]
    for clique in naive_cliques(n, edges):
        if len(clique) >= 3:
            closing[max(index[pair] for pair in combinations(clique, 2))].append(clique)
    assign = []

    def symmetric_prune(depth):
        for inv, flip in actions:
            for j in range(depth + 1):
                i = inv[j]
                if i > depth:
                    break
                y = assign[i]
                if y != 2:
                    y ^= flip[j]
                x = assign[j]
                if x < y:
                    break
                if x > y:
                    return True
        return False

    def walk(e):
        if e == len(edges):
            yield tuple(assign), tuple(naive_in_masks(n, edges, assign))
            return
        for digit in range(num_values) if e >= len(prefix) else [prefix[e]]:
            assign.append(digit)
            arcs = naive_arcs(edges, assign)
            if naive_clique_acyclic(n, arcs, closing[e]) and not (
                actions is not None and symmetric_prune(e)
            ):
                yield from walk(e + 1)
            assign.pop()

    yield from walk(0)


def orbit_digits(digits, actions):
    """The orbit of an edge-direction assignment under the group elements
    `actions`, as (inverse edge permutation, direction flip) pairs: image
    position j takes the digit at inv[j], flipped unless it is the
    reversible digit 2."""
    orbit = {tuple(digits)}
    for inv, flip in actions:
        orbit.add(tuple(
            digits[i] if digits[i] == 2 else digits[i] ^ f for i, f in zip(inv, flip)
        ))
    return orbit


# -- the oracle's former recursive enumerators, kept as order references --
# Each takes per-vertex adjacency masks and yields vertex-set masks in the
# order the oracle promises: lexicographic by sorted member tuple.


def recursive_maximal_independent_sets(n, adjacency):
    if n == 0:
        yield 0
        return
    full = (1 << n) - 1

    def rec(v, chosen, pending):
        rest = full & ~((1 << v) - 1)
        for u in _bits(pending):
            if not adjacency[u] & (chosen | rest):
                return
        if v == n:
            if pending == 0:
                yield chosen
            return
        if adjacency[v] & chosen:
            yield from rec(v + 1, chosen, pending)
            return
        yield from rec(v + 1, chosen | (1 << v), pending & ~adjacency[v])
        yield from rec(v + 1, chosen, pending | (1 << v))

    yield from rec(0, 0, 0)


def recursive_independent_sets(n, adjacency):
    """Every non-empty independent set."""

    def rec(start, chosen):
        for v in range(start, n):
            if adjacency[v] & chosen:
                continue
            m = chosen | (1 << v)
            yield m
            yield from rec(v + 1, m)

    yield from rec(0, 0)


def recursive_cliques(n, adjacency):
    """Every non-empty clique."""

    def extend(chosen, candidates):
        for v in _bits(candidates):
            m = chosen | (1 << v)
            yield m
            yield from extend(m, candidates & adjacency[v] & ~((1 << (v + 1)) - 1))

    yield from extend(0, (1 << n) - 1)
