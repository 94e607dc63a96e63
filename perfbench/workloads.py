"""The benchmark's workloads, one fresh process per run.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 --tmp DIR [--setup-only]

`perfbench/run.py` starts this program; it is not meant to be run by
hand.  The process imports kernelkit, builds its own inputs, prints
``ready`` (the parent times set-up up to that line) and then runs the
workload in a closed loop with one client: an op starts only after the
previous op and its verification have finished.  An op is one CLI call
(``kernelkit.cli.main(argv)`` in-process, ``--format json --output
FILE``) or one seeded campaign instance through the public API, from its
first library call to the end of its checks.  Every op is checked against
known answers; a wrong verdict, count, exit code or kernel, or an
exception, fails the op.

Untraced (``--trace 0``), whole passes over the workload repeat until
``--seconds`` have passed, and the result carries the end-to-end figures.
Traced (``--trace 1``), one untraced pass is followed by one pass with
the wrappers of `spans.py` installed, and the result carries the
per-layer figures.  The result is written as JSON to ``DIR/result.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import kernelkit as kk
import kernelkit.cli

from spans import Tracer, summarize
from speed import SpeedSampler

ROOT = Path(__file__).resolve().parent.parent
SPANS_DIR = ROOT / ".perfbench" / "spans"

# Golden answers.  The anti-hole counts are fixed by the edge order; the
# arc counts are those of the generators at seed 0.
C9_LEAVES = 143_334
C7_WITNESS_LEAVES = 320_957
C9_ORBITS = 7_963
C9_BUDGET = 4_000
SCALE_ARCS = {"ssw": 27_692, "comparability": 2_869, "path": 638}

CAMPAIGN_INSTANCES = 1_000
PATH_INSTANCES = 500
CHORD_POSITIVES = 200
REVERSIBLE_DIGRAPHS = 20
REVERSIBLE_EDGES = 22
SCALE_PATH_VERTICES = 400
DEEP_PATH_VERTICES = 1_200


# -- ops and their checks ------------------------------------------------------


class Runner:
    """Runs ops one after another and keeps their latency and failures.

    With a `sampler`, latencies are scaled to the reference machine speed
    (see speed.py) and the raw ones are kept in `raw_latencies`."""

    def __init__(self, tmp: Path, tracer: Tracer | None = None, sampler: SpeedSampler | None = None):
        self.tmp = tmp
        self.tracer = tracer
        self.sampler = sampler
        self.latencies: list[float] = []
        self.raw_latencies: list[float] = []
        self.failed = 0
        self.problems: list[str] = []
        self.extras: Counter = Counter()
        self.untraced_ops: set[int] = set()
        self.absent: dict[str, str] = {}

    def op(self, label: str, fn, workers: bool = False) -> None:
        """Time `fn`, which returns a list of problems (empty when every
        check holds).  `workers` marks ops whose work runs in a process
        pool, where spans are not collected."""
        index = len(self.latencies)
        if self.tracer is not None:
            self.tracer.current_op = index
        if workers:
            self.untraced_ops.add(index)
        with Timing(self.sampler, paused=workers) as timing:
            try:
                problems = fn()
            except (Exception, SystemExit) as exc:
                # the op fails, the run goes on
                traceback.print_exc(file=sys.stderr)
                problems = [f"{type(exc).__name__}: {exc}"]
        self.latencies.append(timing.scaled)
        self.raw_latencies.append(timing.raw)
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    def cli(self, out_name: str, *argv: str) -> tuple[int, dict]:
        """One kernelkit CLI call with its JSON report read back."""
        out = self.tmp / out_name
        out.unlink(missing_ok=True)
        args = [*argv, "--format", "json", "--output", str(out)]
        if self.tracer is None:
            code = kernelkit.cli.main(args)
        else:
            with self.tracer.span(f"cli.{argv[0]}_{argv[1]}"):
                code = kernelkit.cli.main(args)
        self.extras["io.bytes_written"] += out.stat().st_size
        return code, json.loads(out.read_text())


class Timing:
    """Context manager timing an interval: `raw` seconds without the speed
    probes taken inside it, and `scaled` to the reference speed."""

    def __init__(self, sampler: SpeedSampler | None, paused: bool = False):
        self.sampler = sampler
        self.paused = paused

    def __enter__(self):
        if self.sampler is not None:
            self.sampler.paused = self.paused
            self.spent = self.sampler.spent
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        self.raw = self.scaled = end - self.start
        if self.sampler is not None:
            self.sampler.paused = False
            self.raw -= self.sampler.spent - self.spent
            self.scaled = self.raw * self.sampler.factor(self.start, end)
        return False


def expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what} is {got!r}, expected {want!r}")


def sweep_problems(code: int, report: dict, want_code: int, want_verdict: str, want_examined: int) -> list[str]:
    problems: list[str] = []
    expect(problems, "exit code", code, want_code)
    expect(problems, "verdict", report.get("verdict", report.get("status")), want_verdict)
    expect(problems, "orientations examined", report.get("orientations_examined"), want_examined)
    return problems


def solver_problems(runner: Runner, cd, trace) -> list[str]:
    """Criterion-4 checks on a chain-solver run."""
    runner.extras["redblue.improve_steps"] += trace.improve_steps
    problems: list[str] = []
    if not kk.is_kernel(cd.digraph, trace.result):
        problems.append("result is not a kernel")
    if not kk.find_kernel_bruteforce(cd.digraph).exists:
        problems.append("the oracle finds no kernel")
    if trace.improve_steps > cd.vertex_count:
        problems.append(f"{trace.improve_steps} steps exceed n = {cd.vertex_count}")
    for a, b in zip(trace.iterations, trace.iterations[1:]):
        relation = kk.compare_antichains(a.potential.order, a.potential.antichain, b.potential.antichain)
        if relation is not kk.Comparison.LESS:
            problems.append(f"potential did not strictly increase ({relation.value})")
            break
    return problems


def kernel_report_problems(code: int, report: dict, n: int) -> list[str]:
    problems: list[str] = []
    expect(problems, "exit code", code, 0)
    steps = len(report.get("iterations", [])) - 1
    if steps > n:
        problems.append(f"{steps} steps exceed n = {n}")
    return problems


# -- workload inputs -----------------------------------------------------------


def path_text(n: int) -> str:
    return f"digraph {n}\n" + "".join(f"{i} {i + 1}\n" for i in range(n - 1))


def path_kernel(n: int) -> list[int]:
    """The unique kernel of the directed path 0 -> 1 -> ... -> n-1."""
    return list(range(n - 1, -1, -2))[::-1]


def reversible_digraphs(seed: int) -> list[list[tuple[int, int]]]:
    """Arc lists of fully reversible digraphs on 10 vertices with 22 of the
    45 edges, about 14k odd directed cycles in all.  The edge count is fixed
    because under G(10, 0.4) the total moves by 40% from seed to seed."""
    rng = random.Random(f"reversible-{seed}")
    pairs = [(u, v) for u in range(10) for v in range(u + 1, 10)]
    graphs = []
    for _ in range(REVERSIBLE_DIGRAPHS):
        arcs = []
        for u, v in rng.sample(pairs, REVERSIBLE_EDGES):
            arcs += [(u, v), (v, u)]
        graphs.append(arcs)
    return graphs


def chord_candidate(rng: random.Random, attempt: int):
    """The chord-suite candidate stream of acceptance criterion 7: every
    third candidate is an odd cycle with consecutive-head chords plus
    noise, the others are sparse random digraphs."""
    if attempt % 3 == 0:
        length = rng.choice((5, 7))
        n = length + rng.randrange(3)
        shift = rng.randrange(length)
        arcs = {(i, (i + 1) % length) for i in range(length)}
        arcs.add(((length - 1 + shift) % length, (1 + shift) % length))
        arcs.add((shift % length, (2 + shift) % length))
        for v in range(length, n):
            for u in range(length):
                if rng.random() < 0.3:
                    arcs.add((u, v))
        return kk.Digraph(n, sorted(arcs))
    n = 3 + rng.randrange(8)
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 1.2 / n]
    return kk.Digraph(n, arcs)


def build_inputs(workload: str, seed: int) -> dict:
    if workload == "campaign":
        return {"reversible": reversible_digraphs(seed)}
    if workload == "scale":
        return {"scale_path": path_text(SCALE_PATH_VERTICES)}
    return {}


# -- the workloads: one pass each ----------------------------------------------


def sweep_full(runner: Runner, inputs: dict, seed: int) -> None:
    def c9_full():
        code, report = runner.cli("c9.json", "antihole", "verify-simple", "--n", "9", "--jobs", "1")
        runner.extras["antiholes.leaves"] += report.get("orientations_examined", 0)
        return sweep_problems(code, report, 0, "solvable", C9_LEAVES)

    def c7_witness():
        code, report = runner.cli("c7.json", "antihole", "search-witness", "--n", "7")
        runner.extras["antiholes.leaves"] += report.get("orientations_examined", 0)
        problems = sweep_problems(code, report, 1, "witness", C7_WITNESS_LEAVES)
        problems += witness_problems(report.get("witness"))
        return problems

    runner.op("antihole verify-simple --n 9", c9_full)
    runner.op("antihole search-witness --n 7", c7_witness)


def witness_problems(witness) -> list[str]:
    """Re-verify the reported C7-bar orientation: right edges, clique-acyclic,
    no kernel."""
    if not witness:
        return ["no witness reported"]
    base, _ = kk.gen_antihole(7)
    problems: list[str] = []
    expect(problems, "witness edges", [tuple(e[:2]) for e in witness["edges"]], base.sorted_edges())
    arcs = []
    for u, v, direction in witness["edges"]:
        if direction != "bwd":
            arcs.append((u, v))
        if direction != "fwd":
            arcs.append((v, u))
    digraph = kk.Digraph(7, arcs)
    if not kk.is_clique_acyclic(digraph).holds:
        problems.append("witness is not clique-acyclic")
    if kk.find_kernel_bruteforce(digraph).exists:
        problems.append("witness has a kernel")
    return problems


def sweep_reduced(runner: Runner, inputs: dict, seed: int) -> None:
    pool_checkpoint = runner.tmp / "jobs2.ckpt"
    budget_checkpoint = runner.tmp / "budget.ckpt"
    verify = ("antihole", "verify-simple", "--n", "9", "--symmetry")
    timing = {}

    def leg(name, out, argv, want_code, want_verdict, want_examined, after=list):
        def run():
            start = time.perf_counter()
            code, report = runner.cli(out, *verify, *argv)
            timing[name] = time.perf_counter() - start
            if name != "jobs2":
                runner.extras["antiholes.leaves"] += report.get("orientations_examined", 0)
            return sweep_problems(code, report, want_code, want_verdict, want_examined) + after()
        return run

    def handed_on() -> list[str]:
        # leaves the budgeted run passed on through its checkpoint; the
        # file format is not public, so a change to it only makes the
        # rework figure absent
        try:
            timing["carried"] = json.loads(budget_checkpoint.read_text())["examined"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            runner.absent["antiholes.resume_rework"] = f"budget checkpoint unreadable ({exc!r})"
        return []

    runner.op("verify-simple --symmetry --jobs 1",
              leg("jobs1", "jobs1.json", ("--jobs", "1"), 0, "solvable", C9_ORBITS))
    runner.op("verify-simple --symmetry --jobs 2 --checkpoint",
              leg("jobs2", "jobs2.json", ("--jobs", "2", "--checkpoint", str(pool_checkpoint)),
                  0, "solvable", C9_ORBITS),
              workers=True)
    runner.op("verify-simple --symmetry --budget --checkpoint",
              leg("budget", "budget.json", ("--budget", str(C9_BUDGET), "--checkpoint", str(budget_checkpoint)),
                  3, "exhausted_budget", C9_BUDGET, after=handed_on))
    runner.op("verify-simple --symmetry --checkpoint (resume)",
              leg("resume", "resume.json", ("--checkpoint", str(budget_checkpoint)), 0, "solvable", C9_ORBITS))
    extras = runner.extras
    extras["antiholes.resume_rework"] += C9_BUDGET - timing.get("carried", C9_BUDGET)
    extras["antiholes.checkpoint_bytes"] += sum(
        p.stat().st_size for p in (pool_checkpoint, budget_checkpoint) if p.exists()
    )
    extras["antiholes.jobs1_s"] += timing.get("jobs1", 0.0)
    extras["antiholes.jobs2_s"] += timing.get("jobs2", 0.0)


def campaign(runner: Runner, inputs: dict, seed: int) -> None:
    base = seed * 1_000_000
    for generator in (kk.generate_ssw_instance, kk.generate_comparability_instance):
        for i in range(CAMPAIGN_INSTANCES):
            def chain_op(i=i, generator=generator):
                cd = generator(base + i, 3 + i % 10)
                return solver_problems(runner, cd, kk.solve_chain(cd))
            runner.op(f"{generator.__name__} {base + i}", chain_op)

    attempt = iter(range(20 * CAMPAIGN_INSTANCES))

    def repaired_chain_op():
        # rejected attempts belong to the op that ends in an instance
        for i in attempt:
            runner.extras["redblue.gen_chain_attempts"] += 1
            cd = kk.generate_chain_instance(base + i, 3 + i % 10)
            if cd is not None:
                runner.extras["redblue.gen_chain_accepted"] += 1
                return solver_problems(runner, cd, kk.solve_chain(cd))
        return ["chain generator acceptance rate collapsed"]

    for _ in range(CAMPAIGN_INSTANCES):
        runner.op("generate_chain_instance", repaired_chain_op)

    for i in range(PATH_INSTANCES):
        def path_op(i=i):
            cd = kk.generate_path_instance(base + i, 3 + i % 8)
            problems = []
            if not kk.check_path_conditions(cd).satisfied:
                problems.append("path conditions fail")
            trace = kk.solve_fixpoint(cd)
            if not kk.is_kernel(cd.digraph, trace.result):
                problems.append("result is not a kernel")
            if not kk.find_kernel_bruteforce(cd.digraph).exists:
                problems.append("the oracle finds no kernel")
            return problems
        runner.op(f"generate_path_instance {base + i}", path_op)

    rng = random.Random(20240718 + seed)
    attempts = iter(range(1, 100 * CHORD_POSITIVES))

    def chord_op():
        for attempt in attempts:
            d = chord_candidate(rng, attempt)
            report = kk.check_chord_conditions(d)
            if report.satisfied:
                break
        else:
            return ["chord-suite candidates ran out"]
        problems = []
        if report.cycles:
            runner.extras["chords.nonvacuous"] += 1
        if not kk.is_M_clique_acyclic(d).holds:
            problems.append("positive is not M-clique-acyclic")
        if not kk.find_kernel_bruteforce(d).exists:
            problems.append("the oracle finds no kernel")
        if not kk.is_kernel(d, kk.find_kernel_via_chords(d)):
            problems.append("chord construction returned a non-kernel")
        return problems

    for _ in range(CHORD_POSITIVES):
        runner.op("chord-suite positive", chord_op)

    for arcs in inputs["reversible"]:
        def reversible_op(arcs=arcs):
            d = kk.Digraph(10, arcs)
            problems = []
            if not kk.check_chord_conditions(d).satisfied:
                problems.append("chord conditions fail")
            if not kk.is_kernel(d, kk.find_kernel_via_chords(d)):
                problems.append("chord construction returned a non-kernel")
            if not kk.find_kernel_bruteforce(d).exists:
                problems.append("the oracle finds no kernel")
            return problems
        runner.op("reversible G(10, 22)", reversible_op)


def scale(runner: Runner, inputs: dict, seed: int) -> None:
    """The README pipeline on large instances.  Generator seeds stay at 0
    whatever the workload seed: the cost of one n = 200 SSW instance moves
    by up to a quarter from seed to seed, which would swamp the figure, and
    seed 0 has golden arc counts."""
    state: dict = {}

    def gen(kind: str, n: int):
        def run():
            path = runner.tmp / f"{kind}.json"
            code, report = runner.cli(path.name, "redblue", "gen", kind, "--n", str(n), "--seed", "0")
            state[kind] = path
            problems: list[str] = []
            expect(problems, "exit code", code, 0)
            expect(problems, "vertex count", report.get("vertex_count"), n)
            expect(problems, "arc count", len(report.get("arcs", [])), SCALE_ARCS[kind])
            return problems
        return run

    def solve(kind: str, n: int, command: str):
        def run():
            code, report = runner.cli(f"{kind}-solve.json", "redblue", command, str(state[kind]))
            state[f"{kind}-kernel"] = report.get("result", [])
            runner.extras["redblue.improve_steps"] += max(0, len(report.get("iterations", [])) - 1)
            return kernel_report_problems(code, report, n)
        return run

    def oracle_check(kind: str):
        def run():
            kernel = ",".join(map(str, state[f"{kind}-kernel"]))
            code, report = runner.cli(f"{kind}-oracle.json", "oracle", "check", str(state[kind]), "--kernel", kernel)
            problems: list[str] = []
            expect(problems, "exit code", code, 0)
            expect(problems, "kernel holds", report.get("holds"), True)
            return problems
        return run

    def chain_check():
        code, report = runner.cli("ssw-check.json", "redblue", "check", str(state["ssw"]), "--conditions", "chain")
        problems: list[str] = []
        expect(problems, "exit code", code, 0)
        expect(problems, "chain conditions", report.get("satisfied"), True)
        return problems

    def chords_solve():
        path = runner.tmp / "path.txt"
        state["chords"] = path
        code, report = runner.cli("chords-solve.json", "chords", "solve", str(path))
        state["chords-kernel"] = report.get("result", [])
        problems: list[str] = []
        expect(problems, "exit code", code, 0)
        expect(problems, "kernel", report.get("result"), path_kernel(SCALE_PATH_VERTICES))
        return problems

    (runner.tmp / "path.txt").write_text(inputs["scale_path"])
    runner.op("redblue gen ssw --n 200", gen("ssw", 200))
    runner.op("redblue check (ssw)", chain_check)
    runner.op("redblue solve (ssw)", solve("ssw", 200, "solve"))
    runner.op("oracle check (ssw)", oracle_check("ssw"))
    runner.op("redblue gen comparability --n 60", gen("comparability", 60))
    runner.op("redblue solve (comparability)", solve("comparability", 60, "solve"))
    runner.op("oracle check (comparability)", oracle_check("comparability"))
    runner.op("redblue gen path --n 80", gen("path", 80))
    runner.op("redblue solve-fixpoint (path)", solve("path", 80, "solve-fixpoint"))
    runner.op("oracle check (path)", oracle_check("path"))
    runner.op(f"chords solve (directed path, {SCALE_PATH_VERTICES} vertices)", chords_solve)
    runner.op("oracle check (directed path)", oracle_check("chords"))


WORKLOADS = {
    "sweep-full": sweep_full,
    "sweep-reduced": sweep_reduced,
    "campaign": campaign,
    "scale": scale,
}


# -- figures -------------------------------------------------------------------


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def samples_beyond(count: int, q: float) -> int:
    """Samples strictly above the nearest-rank q-th percentile."""
    return count - max(1, math.ceil(q / 100 * count))


def peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN covers reaped pool workers
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kib, children_kib) / 1024


def end_to_end(runner: Runner, walls: list[float]) -> dict:
    """Times here are scaled to the reference speed (see speed.py)."""
    latencies_ms = [s * 1000 for s in runner.latencies]
    return {
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (peak_rss_mib(), "MiB"),
        "op_p50_ms": (statistics.median(latencies_ms), "ms"),
        "op_p99_ms": (percentile(latencies_ms, 99), "ms"),
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _from_spans(name: str, unit: str, span: str, field: str):
    return (name, unit, [span], lambda t, c, e: t(span, field))


# name, unit, span names it needs, value from (spans, counts, extras)
LAYER_METRICS = [
    _from_spans("oracle.exists_s", "s", "oracle.exists", "total_s"),
    _from_spans("oracle.exists_calls", "count", "oracle.exists", "calls"),
    ("oracle.mis_per_exists_call", "1", ["oracle.exists"],
     lambda t, c, e: _ratio(c["oracle.mis@oracle.exists"], t("oracle.exists", "calls"))),
    _from_spans("antiholes.self_s", "s", "antiholes.sweep", "self_s"),
    ("antiholes.self_us_per_leaf", "us", ["antiholes.sweep"],
     lambda t, c, e: _ratio(t("antiholes.sweep", "self_s") * 1e6, e["antiholes.leaves"])),
    ("antiholes.leaves", "count", [], lambda t, c, e: e["antiholes.leaves"]),
    _from_spans("oracle.clique_table_s", "s", "oracle.clique_table", "total_s"),
    _from_spans("oracle.clique_table_calls", "count", "oracle.clique_table", "calls"),
    ("antiholes.jobs2_speedup", "1", [], lambda t, c, e: _ratio(e["antiholes.jobs1_s"], e["antiholes.jobs2_s"])),
    ("antiholes.resume_rework", "count", [], lambda t, c, e: e["antiholes.resume_rework"]),
    ("antiholes.checkpoint_bytes", "bytes", [], lambda t, c, e: e["antiholes.checkpoint_bytes"]),
    _from_spans("redblue.gen_ssw_s", "s", "redblue.gen_ssw", "total_s"),
    _from_spans("redblue.gen_comparability_s", "s", "redblue.gen_comparability", "total_s"),
    _from_spans("redblue.gen_path_s", "s", "redblue.gen_path", "total_s"),
    _from_spans("poset.build_s", "s", "poset.build", "total_s"),
    _from_spans("redblue.blue_order_s", "s", "redblue.blue_order", "total_s"),
    _from_spans("digraph.scc_s", "s", "digraph.scc", "total_s"),
    _from_spans("redblue.gen_chain_s", "s", "redblue.gen_chain", "total_s"),
    ("redblue.gen_chain_accept_ratio", "1", [],
     lambda t, c, e: _ratio(e["redblue.gen_chain_accepted"], e["redblue.gen_chain_attempts"])),
    _from_spans("redblue.check_calls", "count", "redblue.check", "calls"),
    _from_spans("redblue.check_s", "s", "redblue.check", "total_s"),
    _from_spans("redblue.solve_s", "s", "redblue.solve", "total_s"),
    ("redblue.improve_steps", "count", [], lambda t, c, e: e["redblue.improve_steps"]),
    _from_spans("poset.compare_s", "s", "poset.compare", "total_s"),
    _from_spans("digraph.is_kernel_s", "s", "digraph.is_kernel", "total_s"),
    _from_spans("oracle.bruteforce_s", "s", "oracle.bruteforce", "total_s"),
    _from_spans("oracle.bruteforce_calls", "count", "oracle.bruteforce", "calls"),
    _from_spans("digraph.cycles_s", "s", "digraph.cycles", "total_s"),
    ("digraph.odd_cycles", "count", ["digraph.cycles"], lambda t, c, e: c["digraph.odd_cycles"]),
    _from_spans("chords.check_s", "s", "chords.check", "total_s"),
    # the semi-kernel recursion runs only under find_kernel_via_chords here
    _from_spans("chords.construct_s", "s", "oracle.semikernel_recursion", "total_s"),
    _from_spans("chords.semi_kernel_calls", "count", "chords.semi_kernel", "calls"),
    _from_spans("oracle.semikernel_recursion_s", "s", "oracle.semikernel_recursion", "self_s"),
    _from_spans("digraph.induced_calls", "count", "digraph.induced", "calls"),
    _from_spans("digraph.induced_s", "s", "digraph.induced", "total_s"),
    _from_spans("io.read_s", "s", "io.read", "total_s"),
    _from_spans("io.write_s", "s", "io.write", "total_s"),
    ("io.bytes_read", "bytes", ["io.read"], lambda t, c, e: c["io.bytes_read"]),
    ("io.bytes_written", "bytes", [], lambda t, c, e: e["io.bytes_written"]),
] + [
    # spans the benchmark opens itself, around each CLI call
    (f"cli.{command}_s", "s", [], lambda t, c, e, command=command: t(f"cli.{command}", "total_s"))
    for command in (
        "antihole_verify-simple",
        "antihole_search-witness",
        "redblue_gen",
        "redblue_check",
        "redblue_solve",
        "redblue_solve-fixpoint",
        "oracle_check",
        "chords_solve",
    )
]


def layer_metrics(tracer: Tracer, runner: Runner, untraced: Runner, overhead: float, deep_ok: int):
    """Per-layer figures of the traced pass, plus the reasons for any that
    could not be measured."""
    table = summarize(tracer, runner.untraced_ops)

    def spans(name: str, field: str) -> float:
        return table.get(name, {}).get(field, 0)

    extras = Counter(runner.extras)
    # pool legs are timed untraced: wrappers would slow the workers
    extras["antiholes.jobs1_s"] = untraced.extras["antiholes.jobs1_s"]
    extras["antiholes.jobs2_s"] = untraced.extras["antiholes.jobs2_s"]
    metrics, absent = {}, dict(runner.absent)
    for name, unit, needs, value in LAYER_METRICS:
        missing = [tracer.missing_spans[s] for s in needs if s in tracer.missing_spans]
        if missing:
            absent[name] = "; ".join(missing)
        metrics[name] = (0 if name in absent else value(spans, tracer.counts, extras), unit)
    metrics["trace_overhead_ratio"] = (overhead, "1")
    metrics["chords.deep_path_ok"] = (deep_ok, "count")
    return metrics, absent, table


def deep_path_probe(tmp: Path) -> tuple[int, str]:
    """Known-defect probe, untimed: `chords solve` on a long directed path
    in its own interpreter.  Returns (1 if the kernel is right, else 0;
    the last line of its error output)."""
    path = tmp / "deep-path.txt"
    out = tmp / "deep-path.json"
    path.write_text(path_text(DEEP_PATH_VERTICES))
    proc = subprocess.run(
        [sys.executable, "-m", "kernelkit", "chords", "solve", str(path), "--format", "json", "--output", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    ok = proc.returncode == 0 and json.loads(out.read_text()).get("result") == path_kernel(DEEP_PATH_VERTICES)
    lines = proc.stderr.strip().splitlines()
    return int(ok), lines[-1] if lines else ""


# -- entry point ---------------------------------------------------------------


def run_passes(runner: Runner, workload: str, inputs: dict, args, count: int | None):
    """Whole passes until `args.seconds` have passed (or exactly `count`);
    returns each pass's (scaled, raw) wall time."""
    walls = []
    deadline = time.perf_counter() + args.seconds
    while True:
        runner.tmp = args.tmp / f"pass-{'traced' if runner.tracer else 'timed'}-{len(walls)}"
        runner.tmp.mkdir(parents=True)
        with Timing(runner.sampler) as timing:
            WORKLOADS[workload](runner, inputs, args.seed)
        walls.append((timing.scaled, timing.raw))
        if (count is None and time.perf_counter() >= deadline) or len(walls) == count:
            return walls


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if not Path(kk.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"kernelkit was imported from {kk.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    inputs = build_inputs(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    result: dict = {}
    if args.trace == 0:
        sampler = SpeedSampler()
        runner = Runner(args.tmp, sampler=sampler)
        sampler.start()
        try:
            walls = run_passes(runner, args.workload, inputs, args, None)
        finally:
            sampler.stop()
        result["metrics"] = end_to_end(runner, [scaled for scaled, _ in walls])
        raw_ms = [s * 1000 for s in runner.raw_latencies]
        result["raw"] = {"wall_s": statistics.median(raw for _, raw in walls),
                         "op_p50_ms": statistics.median(raw_ms), "op_p99_ms": percentile(raw_ms, 99),
                         "speed_probes": len(sampler.samples)}
        runners = [runner]
    else:
        # the per-layer figures are raw times: a probe would land in a span
        untraced = Runner(args.tmp)
        walls = run_passes(untraced, args.workload, inputs, args, 1)
        tracer = Tracer()
        tracer.install()
        # each wrapper adds a Python frame to every wrapped call, which
        # doubles the depth of the chord recursion on long paths
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(3 * limit)
        runner = Runner(args.tmp, tracer)
        try:
            traced_walls = run_passes(runner, args.workload, inputs, args, 1)
        finally:
            sys.setrecursionlimit(limit)
            tracer.uninstall()
        runners = [untraced, runner]
        overhead = traced_walls[0][1] / walls[0][1] - 1
        SPANS_DIR.mkdir(parents=True, exist_ok=True)
        spans_path = SPANS_DIR / f"{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(spans_path)
        deep_ok, deep_error = deep_path_probe(args.tmp)
        metrics, absent, table = layer_metrics(tracer, runner, untraced, overhead, deep_ok)
        result.update(metrics=metrics, absent=absent, spans=table, span_count=len(tracer.start),
                      spans_file=str(spans_path.relative_to(ROOT)),
                      deep_path={"chords.deep_path_ok": deep_ok, "error": deep_error})
    result.update(
        walls=walls,
        attempted=sum(len(r.latencies) for r in runners),
        failed=sum(r.failed for r in runners),
        problems=[p for r in runners for p in r.problems][:50],
        ops_per_pass=len(runners[0].latencies) // len(walls),
        op_samples=len(runners[0].latencies),
        p99_samples_beyond=samples_beyond(len(runners[0].latencies), 99),
        extras=dict(runners[-1].extras),
    )
    (args.tmp / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
