"""Acceptance suite: one test per criterion, each printing a PASS line.

Runtime-limited criteria assert their stated wall-clock bounds.  Derived
expected values are cross-checked against the plain subset-scan reference
implementations in naive.py.
"""

import random
import time

import naive
from kernelkit import (
    ColoredDigraph,
    Digraph,
    Orientation,
    is_kernel,
)
from kernelkit.antiholes import (
    c7_counterexample,
    canonical_orientation_key,
    gen_antihole,
    verify_kernel_solvable,
)
from kernelkit.chords import (
    check_chord_conditions,
    check_gsnl_condition,
    find_kernel_via_chords,
)
from kernelkit.oracle import (
    enumerate_kernels,
    find_kernel_bruteforce,
    is_M_clique_acyclic,
    is_clique_acyclic,
)
from kernelkit.poset import (
    Poset,
    antichain_leq,
    compare_antichains,
    max_chain_of_antichains,
    Comparison,
)
from kernelkit.redblue import (
    check_chain_conditions,
    check_path_conditions,
    generate_chain_instance,
    generate_comparability_instance,
    generate_path_instance,
    generate_ssw_instance,
    solve_chain,
    solve_fixpoint,
)
from strategies import all_posets, random_poset


def report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {text}", flush=True)


def test_criterion_1_counterexample_construction():
    started = time.monotonic()
    digraph = c7_counterexample()
    base, labeling = gen_antihole(7)
    orientation = Orientation.from_digraph(base, digraph)
    assert orientation.is_simple
    assert is_clique_acyclic(digraph).holds
    report_kernel = find_kernel_bruteforce(digraph)
    assert not report_kernel.exists
    # cross-check with the raw subset scan
    assert naive.naive_kernels(7, sorted(digraph.arcs)) == []
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    report(1, f"7-anti-hole counterexample verified in {elapsed:.3f}s")


def test_criterion_2_seven_antihole_counterexample():
    started = time.monotonic()
    base, _ = gen_antihole(7)
    verdict = verify_kernel_solvable(base, graph_id="c7bar")
    assert verdict.verdict == "counterexample"
    circulant = Orientation.from_digraph(base, c7_counterexample())
    assert canonical_orientation_key(verdict.counterexample) == (
        canonical_orientation_key(circulant)
    )
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    report(
        2,
        f"7-anti-hole counterexample equals the circulant orbit "
        f"({verdict.orientations_examined} orientations, {elapsed:.2f}s)",
    )


def test_criterion_3_nine_antihole_solvable(tmp_path):
    started = time.monotonic()
    base, _ = gen_antihole(9)
    reduced = verify_kernel_solvable(
        base,
        symmetry_reduction=True,
        jobs=2,
        checkpoint=str(tmp_path / "c9bar.ckpt"),
        graph_id="c9bar",
    )
    assert reduced.verdict == "solvable"
    full = verify_kernel_solvable(base, graph_id="c9bar")
    assert full.verdict == "solvable"
    # deterministic enumeration sizes, fixed by the edge order
    assert full.orientations_examined == 143334
    assert reduced.orientations_examined == 7963
    elapsed = time.monotonic() - started
    report(
        3,
        f"9-anti-hole simple kernel-solvable: {full.orientations_examined} "
        f"orientations ({reduced.orientations_examined} up to symmetry), "
        f"{elapsed:.1f}s",
    )


def _chain_instances(count: int):
    """Seeded instances from all three chain-condition generators."""
    instances = []
    for seed in range(count):
        n = 3 + seed % 10
        instances.append(("ssw", generate_ssw_instance(seed, n)))
    for seed in range(count):
        n = 3 + seed % 10
        instances.append(
            ("comparability", generate_comparability_instance(seed, n))
        )
    produced = 0
    seed = 0
    while produced < count:
        n = 3 + seed % 10
        cd = generate_chain_instance(seed, n)
        seed += 1
        if cd is not None:
            produced += 1
            instances.append(("chain", cd))
        assert seed < 20 * count, "chain generator acceptance rate collapsed"
    return instances


def test_criterion_4_chain_solver_soundness_and_bound():
    started = time.monotonic()
    instances = _chain_instances(1000)
    for origin, cd in instances:
        n = cd.vertex_count
        trace = solve_chain(cd)
        assert is_kernel(cd.digraph, trace.result), origin
        assert find_kernel_bruteforce(cd.digraph).exists
        assert trace.improve_steps <= n
        for a, b in zip(trace.iterations, trace.iterations[1:]):
            assert (
                compare_antichains(
                    a.potential.order, a.potential.antichain, b.potential.antichain
                )
                is Comparison.LESS
            )
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report(
        4,
        f"{len(instances)} generated instances solved, oracle-confirmed, "
        f"potentials strictly increasing, steps <= n ({elapsed:.1f}s)",
    )


def test_criterion_5_transitive_classes_pass_by_first_alternatives():
    checked = 0
    for seed in range(1000):
        n = 1 + seed % 12
        cd = generate_ssw_instance(seed, n)
        assert check_chain_conditions(cd).satisfied
        # first alternatives hold outright: each color class is transitive
        for masks in (cd._blue_out, cd._red_out):
            for u in range(n):
                v_mask = masks[u]
                for v in range(n):
                    if not (v_mask >> v) & 1:
                        continue
                    # every w reachable by a second same-color arc closes
                    assert masks[v] & ~masks[u] == 0
        checked += 1
    report(5, f"{checked} two-transitive-class instances close by first alternatives")


def test_criterion_6_fixpoint_solver_soundness():
    # golden separating examples first
    blue_two_path = ColoredDigraph.from_colored_arcs(3, [(0, 1, "b"), (1, 2, "b")])
    assert check_path_conditions(blue_two_path).satisfied
    assert not check_chain_conditions(blue_two_path).satisfied
    all_blue_k3 = ColoredDigraph.from_colored_arcs(
        3, [(u, v, "b") for u in range(3) for v in range(3) if u != v]
    )
    assert check_chain_conditions(all_blue_k3).satisfied
    assert not check_path_conditions(all_blue_k3).satisfied

    solved = 0
    for seed in range(500):
        n = 3 + seed % 8
        cd = generate_path_instance(seed, n)
        assert check_path_conditions(cd).satisfied
        trace = solve_fixpoint(cd)
        assert is_kernel(cd.digraph, trace.result)
        assert find_kernel_bruteforce(cd.digraph).exists
        solved += 1
    report(
        6,
        f"{solved} path-condition instances solved within budget; "
        f"separating examples hold",
    )


def _random_digraph(rng: random.Random, n: int, density: float) -> Digraph:
    arcs = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < density
    ]
    return Digraph(n, arcs)


def _chorded_cycle_instance(rng: random.Random) -> Digraph:
    """An odd directed cycle with consecutive-head chords plus noise."""
    length = rng.choice((5, 7))
    extra = rng.randrange(3)
    n = length + extra
    arcs = {(i, (i + 1) % length) for i in range(length)}
    shift = rng.randrange(length)

    def rotate(v):
        return (v + shift) % length

    arcs.add((rotate(length - 1), rotate(1)))
    arcs.add((rotate(0), rotate(2)))
    for v in range(length, n):
        for u in range(length):
            if rng.random() < 0.3:
                arcs.add((u, v))
    return Digraph(n, sorted(arcs))


def test_criterion_7_chord_condition_suite():
    rng = random.Random(20240718)
    positives = []
    gsnl_positives = []
    attempts = 0
    while len(positives) < 200:
        attempts += 1
        assert attempts < 20000
        if attempts % 3 == 0:
            d = _chorded_cycle_instance(rng)
        else:
            n = 3 + rng.randrange(8)
            d = _random_digraph(rng, n, 1.2 / n)
        full = check_chord_conditions(d)
        if full.satisfied:
            # the chord rules force reversible-rich directed triangles
            assert is_M_clique_acyclic(d).holds
            positives.append(d)
            if check_gsnl_condition(d).satisfied:
                gsnl_positives.append(d)
    nonvacuous = 0
    for d in positives:
        assert find_kernel_bruteforce(d).exists
        kernel = find_kernel_via_chords(d)
        assert is_kernel(d, kernel)
        # the same kernel as the recursive construction
        assert set(kernel) == naive.naive_chord_kernel(d.vertex_count, sorted(d.arcs))
        if check_chord_conditions(d).cycles:
            nonvacuous += 1
    assert nonvacuous >= 50
    assert len(gsnl_positives) >= 50
    for d in gsnl_positives:
        assert is_kernel(d, find_kernel_via_chords(d))
    report(
        7,
        f"{len(positives)} chord-condition positives ({nonvacuous} with odd "
        f"cycles, {len(gsnl_positives)} consecutive-heads-only) all solved "
        f"and oracle-confirmed",
    )


def _longest_antichain_chain(poset: Poset) -> int:
    antichains = naive.antichains(poset)
    index = {a: i for i, a in enumerate(antichains)}
    order = sorted(
        antichains, key=lambda a: sum(antichain_leq(poset, b, a) for b in antichains)
    )
    best = {}
    for a in order:
        best[index[a]] = 1 + max(
            (
                best[index[b]]
                for b in antichains
                if b != a and antichain_leq(poset, b, a) and index[b] in best
            ),
            default=0,
        )
    return max(best.values())


def test_criterion_8_antichain_order_laws():
    for poset in all_posets(4):
        antichains = naive.antichains(poset)
        # reflexivity, antisymmetry, transitivity over all antichain pairs
        for i, a in enumerate(antichains):
            assert antichain_leq(poset, a, a)
            for j, b in enumerate(antichains):
                forward = antichain_leq(poset, a, b)
                if forward and antichain_leq(poset, b, a):
                    assert a == b
                if forward:
                    for k, c in enumerate(antichains):
                        if antichain_leq(poset, b, c):
                            assert antichain_leq(poset, a, c)
        chain = max_chain_of_antichains(poset)
        assert len(chain) == poset.size + 1
        assert _longest_antichain_chain(poset) == poset.size + 1

    for seed in range(12):
        size = 5 + seed % 4
        poset = random_poset(seed, size)
        antichains = naive.antichains(poset)
        m = len(antichains)
        rows = [0] * m
        for i, a in enumerate(antichains):
            for j, b in enumerate(antichains):
                if antichain_leq(poset, a, b):
                    rows[i] |= 1 << j
        for i in range(m):
            assert (rows[i] >> i) & 1, "reflexivity"
            others = rows[i] & ~(1 << i)
            while others:
                j = (others & -others).bit_length() - 1
                others ^= 1 << j
                assert not (rows[j] >> i) & 1, "antisymmetry"
                assert rows[j] & ~rows[i] == 0, "transitivity"
        assert len(max_chain_of_antichains(poset)) == size + 1
    report(
        8,
        "antichain order is a partial order on all 4-element posets "
        "(exhaustive) and random posets up to 8 elements; longest chain is "
        "size+1",
    )


def directed_cycle(n: int) -> Digraph:
    return Digraph(n, [(i, (i + 1) % n) for i in range(n)])


def test_criterion_9_oracle_ground_truths():
    for n in (3, 5, 7, 9, 11):
        d = directed_cycle(n)
        assert not find_kernel_bruteforce(d).exists
        assert naive.naive_kernels(n, sorted(d.arcs)) == []
    for n in (4, 6, 8, 10, 12):
        d = directed_cycle(n)
        kernels = enumerate_kernels(d)
        assert len(kernels) == 2
        assert {frozenset(k.members()) for k in kernels} == set(
            naive.naive_kernels(n, sorted(d.arcs))
        )
    for n in range(1, 13):
        d = Digraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        kernels = enumerate_kernels(d)
        assert [k.members() for k in kernels] == [(n - 1,)]
        assert naive.naive_kernels(n, sorted(d.arcs)) == [frozenset({n - 1})]

    # digraphs with no odd directed cycle always have kernels
    rng = random.Random(1789)
    for trial in range(500):
        n = 2 + rng.randrange(11)
        if trial % 2 == 0:
            # arcs only across a bipartition: every cycle alternates sides
            side = [rng.randrange(2) for _ in range(n)]
            arcs = [
                (u, v)
                for u in range(n)
                for v in range(n)
                if u != v and side[u] != side[v] and rng.random() < 0.3
            ]
        else:
            order = list(range(n))
            rng.shuffle(order)
            arcs = [
                (order[i], order[j])
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.3
            ]
        d = Digraph(n, arcs)
        if n <= 7:
            assert not naive.naive_cycles(n, arcs, parity="odd")
        assert find_kernel_bruteforce(d).exists
        if trial % 17 == 0:
            assert set(
                frozenset(k.members()) for k in enumerate_kernels(d)
            ) == set(naive.naive_kernels(n, arcs))
    report(
        9,
        "cycle and tournament kernel censuses match the subset scan; 500 "
        "odd-cycle-free instances all have kernels",
    )
