"""Command-line front end.

Exit codes: 0 when the command succeeds and its verdict holds, 1 when a
verdict fails with a witness (kernel absent, conditions violated,
counterexample found), 2 on usage or parse errors, 3 when a budget or size
cap ran out or the memory did.  Reports are stable and machine-readable under
`--format json`.  The environment variable KERNELKIT_BUDGET overrides
default budgets.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import antiholes, chords, io, oracle, redblue
from .digraph import ColoredDigraph, Digraph, Orientation, UndirectedGraph, VertexSet
from .errors import (
    BudgetExceededError,
    ConditionsViolatedError,
    ContractError,
    GraphParseError,
    KernelKitError,
    SizeCapError,
)
from .poset import Poset, compare_antichains, max_chain_of_antichains

EXIT_OK = 0
EXIT_VERDICT_FAILS = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


# (argument, flag) of every input that `-` reads from stdin
_INPUTS = (
    ("input", "input"),
    ("kernel", "--kernel"),
    ("semi_kernel", "--semi-kernel"),
    ("independent", "--independent"),
    ("a", "--a"),
    ("b", "--b"),
)


def _one_stdin_input(args) -> None:
    """Refuse `-` for two inputs: the first read would drain stdin and
    leave the second an empty stream."""
    named = [flag for name, flag in _INPUTS if getattr(args, name, None) == "-"]
    if len(named) > 1:
        raise ContractError(f"stdin (-) given for {', '.join(named)}; at most one input can read it")


def _load_graph(path: str):
    """Graph inputs accept both formats; JSON is sniffed by its brace."""
    return io.load_auto(_read_text(path))


def _as_digraph(obj) -> Digraph:
    """Oracle commands ignore colors and reversibility markers."""
    if isinstance(obj, ColoredDigraph):
        return obj.digraph
    if isinstance(obj, Orientation):
        return obj.to_digraph()
    return _expect(obj, Digraph, "input")


def _expect(obj, kinds, what: str):
    if not isinstance(obj, kinds):
        names = "/".join(k.__name__ for k in (kinds if isinstance(kinds, tuple) else (kinds,)))
        raise GraphParseError(f"{what} must be a {names}, got {type(obj).__name__}")
    return obj


def _env_budget():
    raw = os.environ.get("KERNELKIT_BUDGET")
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ContractError(f"KERNELKIT_BUDGET must be an integer, got {raw!r}") from None


def _at_least(value, name: str, low: int = 0):
    """Refuse an integer setting below `low` as bad input, so that a
    negative budget or cap never reads as an exhausted one."""
    if value is not None and value < low:
        raise ContractError(f"{name} must be at least {low}, got {value}")
    return value


def _budget(args):
    if getattr(args, "budget", None) is not None:
        return _at_least(args.budget, "--budget")
    return _at_least(_env_budget(), "KERNELKIT_BUDGET")


class _Output:
    def __init__(self, args):
        self.fmt = args.format
        self.path = args.output

    def emit(self, report: dict) -> None:
        if self.fmt == "json":
            text = json.dumps(report, indent=2) + "\n"
        else:
            lines = []
            for key, value in report.items():
                if isinstance(value, (dict, list)):
                    value = json.dumps(value)
                lines.append(f"{key}: {value}")
            text = "\n".join(lines) + "\n"
        self.emit_raw(text)

    def emit_graph(self, obj, seed=None) -> None:
        if self.fmt == "json":
            payload = io.to_json_obj(obj)
            if seed is not None:
                payload["seed"] = seed
            self.emit_raw(io.indented_json(payload))
        else:
            text = io.serialize(obj)
            if seed is not None:
                text = f"# seed {seed}\n{text}"
            self.emit_raw(text)

    def emit_raw(self, text: str) -> None:
        if self.path == "-":
            sys.stdout.write(text)
        else:
            with open(self.path, "w", encoding="utf-8") as handle:
                handle.write(text)


def _parse_vertex_spec(spec: str) -> list[int]:
    """Vertex indices from a comma/space list, or from stdin with `-`,
    where a JSON solver report (result/kernel/witness field) also works."""
    if spec == "-":
        raw = sys.stdin.read().strip()
        try:
            data = json.loads(raw)
        except json.JSONDecodeError:
            data = None
        if isinstance(data, dict):
            for key in ("result", "kernel", "witness"):
                if data.get(key) is not None:
                    data = data[key]
                    break
            else:
                raise GraphParseError("JSON on stdin has no result/kernel/witness field")
        if isinstance(data, list):
            if not all(type(v) is int for v in data):
                raise GraphParseError(f"vertex list {json.dumps(data)} holds a non-integer")
            return data
        spec = raw
    try:
        return [int(tok) for tok in spec.replace(",", " ").split()]
    except ValueError:
        raise GraphParseError(f"vertex list {spec!r} holds a non-integer") from None


def _violations_json(report: redblue.ConditionReport) -> list[dict]:
    return [
        {"rule": rule, "vertices": list(vertices)}
        for rule, vertices in report.violations
    ]


# -- oracle commands ---------------------------------------------------------


def cmd_oracle_find(args, out: _Output) -> int:
    digraph = _as_digraph(_load_graph(args.input))
    report = oracle.find_kernel_bruteforce(
        digraph, cap=_at_least(args.cap, "--cap"), count_all=args.count
    )
    payload = {
        "exists": report.exists,
        "witness": list(report.witness.members()) if report.witness is not None else None,
    }
    if args.count:
        payload["count"] = report.count
    out.emit(payload)
    return EXIT_OK if report.exists else EXIT_VERDICT_FAILS


def cmd_oracle_enumerate(args, out: _Output) -> int:
    digraph = _as_digraph(_load_graph(args.input))
    kernels = oracle.enumerate_kernels(digraph, cap=_at_least(args.cap, "--cap"))
    out.emit(
        {"count": len(kernels), "kernels": [list(k.members()) for k in kernels]}
    )
    return EXIT_OK if kernels else EXIT_VERDICT_FAILS


def cmd_oracle_check(args, out: _Output) -> int:
    from .digraph import is_independent, is_kernel, is_semi_kernel

    specs = [
        ("kernel", args.kernel, is_kernel),
        ("semi-kernel", args.semi_kernel, is_semi_kernel),
        ("independent", args.independent, is_independent),
    ]
    chosen = [(name, spec, fn) for name, spec, fn in specs if spec is not None]
    if len(chosen) != 1:
        raise GraphParseError(
            "exactly one of --kernel/--semi-kernel/--independent is required"
        )
    name, spec, predicate = chosen[0]
    vertices = _parse_vertex_spec(spec)
    digraph = _as_digraph(_load_graph(args.input))
    holds = predicate(digraph, VertexSet(digraph.vertex_count, vertices))
    out.emit({"check": name, "vertices": sorted(vertices), "holds": holds})
    return EXIT_OK if holds else EXIT_VERDICT_FAILS


def cmd_oracle_clique_acyclic(args, out: _Output) -> int:
    obj = _load_graph(args.input)
    if isinstance(obj, ColoredDigraph):
        obj = obj.digraph
    obj = _expect(obj, (Digraph, Orientation), "input")
    verdict = oracle.is_clique_acyclic(
        obj, budget=_at_least(args.clique_budget, "--clique-budget")
    )
    witness = list(verdict.witness) if verdict.witness else None
    out.emit({"clique_acyclic": verdict.holds, "violating_clique": witness})
    return EXIT_OK if verdict.holds else EXIT_VERDICT_FAILS


def cmd_oracle_m_clique_acyclic(args, out: _Output) -> int:
    digraph = _as_digraph(_load_graph(args.input))
    verdict = oracle.is_M_clique_acyclic(digraph)
    witness = list(verdict.witness) if verdict.witness else None
    out.emit({"m_clique_acyclic": verdict.holds, "violating_triangle": witness})
    return EXIT_OK if verdict.holds else EXIT_VERDICT_FAILS


# -- redblue commands --------------------------------------------------------


def cmd_redblue_check(args, out: _Output) -> int:
    cd = _expect(_load_graph(args.input), ColoredDigraph, "input")
    checker = (
        redblue.check_chain_conditions
        if args.conditions == "chain"
        else redblue.check_path_conditions
    )
    report = checker(cd)
    out.emit(
        {
            "conditions": args.conditions,
            "satisfied": report.satisfied,
            "violations": _violations_json(report),
        }
    )
    return EXIT_OK if report.satisfied else EXIT_VERDICT_FAILS


def _solve(args, out: _Output, solve) -> int:
    cd = _expect(_load_graph(args.input), ColoredDigraph, "input")
    try:
        trace = solve(cd)
    except ConditionsViolatedError as exc:
        out.emit(
            {
                "satisfied": False,
                "violations": _violations_json(exc.report) if exc.report is not None else [],
            }
        )
        return EXIT_VERDICT_FAILS
    except BudgetExceededError as exc:
        out.emit({"error": str(exc)})
        return EXIT_BUDGET
    out.emit(trace.to_json_obj())
    return EXIT_OK


def cmd_redblue_solve(args, out: _Output) -> int:
    return _solve(args, out, redblue.solve_chain)


def cmd_redblue_solve_fixpoint(args, out: _Output) -> int:
    return _solve(args, out, lambda cd: redblue.solve_fixpoint(cd, budget=_budget(args)))


def cmd_redblue_gen(args, out: _Output) -> int:
    _at_least(args.n, "--n")
    if not 0 <= args.density <= 1:
        raise ContractError(f"--density must lie in [0, 1], got {args.density}")
    if args.budget is not None and args.generator != "chain":
        raise ContractError("--budget applies only to the chain generator")
    if args.generator != "chain":
        generate = getattr(redblue, f"generate_{args.generator}_instance")
        cd = generate(args.seed, args.n, density=args.density)
    else:
        budget = _budget(args)
        if budget is None:
            budget = 400
        cd = redblue.generate_chain_instance(args.seed, args.n, budget=budget, density=args.density)
        if cd is None:
            out.emit({"error": f"no instance within {budget} repairs", "seed": args.seed})
            return EXIT_BUDGET
    out.emit_graph(cd, seed=args.seed)
    return EXIT_OK


# -- chords commands ---------------------------------------------------------


def cmd_chords_check(args, out: _Output) -> int:
    digraph = _expect(_load_graph(args.input), Digraph, "input")
    checker = {
        "all": chords.check_chord_conditions,
        "gsnl": chords.check_gsnl_condition,
        "duchet": chords.check_duchet_condition,
    }[args.which]
    report = checker(digraph, max_len=_at_least(args.max_len, "--max-len"), budget=_budget(args))
    payload = report.to_json_obj()
    if args.max_len is not None:
        # the verdict then covers only the odd cycles of length <= max_len
        payload = {"satisfied": payload.pop("satisfied"), "max_len": args.max_len, **payload}
    out.emit(payload)
    return EXIT_OK if report.satisfied else EXIT_VERDICT_FAILS


def cmd_chords_solve(args, out: _Output) -> int:
    digraph = _expect(_load_graph(args.input), Digraph, "input")
    try:
        kernel = chords.find_kernel_via_chords(digraph, budget=_budget(args))
    except ConditionsViolatedError as exc:
        payload = {"satisfied": False}
        if exc.report is not None:
            payload["first_failing"] = list(exc.report.first_failing)
        out.emit(payload)
        return EXIT_VERDICT_FAILS
    out.emit({"result": list(kernel.members())})
    return EXIT_OK


# -- antihole commands -------------------------------------------------------


def _antihole_input(args):
    if args.n is not None:
        if args.input is not None:
            raise GraphParseError("pass a graph file or --n, not both")
        labeling = antiholes.AntiholeLabeling(args.n)
        # the sweep's caps, before the n(n - 3)/2 edges are built
        antiholes._check_sweep_caps(args.n, args.n * (args.n - 3) // 2)
        return labeling.graph(), f"antihole-{args.n}"
    if not args.input:
        raise GraphParseError("pass a graph file or --n")
    graph = _expect(_load_graph(args.input), UndirectedGraph, "input")
    return graph, args.input


def cmd_antihole_gen(args, out: _Output) -> int:
    graph, _ = antiholes.gen_antihole(args.n)
    out.emit_graph(graph)
    return EXIT_OK


def cmd_antihole_c7(args, out: _Output) -> int:
    out.emit_graph(antiholes.c7_counterexample())
    return EXIT_OK


def cmd_antihole_verify(args, out: _Output) -> int:
    graph, graph_id = _antihole_input(args)
    verdict = antiholes.verify_kernel_solvable(
        graph,
        mode=args.mode,
        symmetry_reduction=args.symmetry,
        jobs=_at_least(args.jobs, "--jobs", 1),
        budget=_budget(args),
        checkpoint=args.checkpoint,
        graph_id=graph_id,
    )
    out.emit(verdict.to_json_obj())
    if verdict.verdict == "solvable":
        return EXIT_OK
    if verdict.verdict == "counterexample":
        return EXIT_VERDICT_FAILS
    return EXIT_BUDGET


def cmd_antihole_search(args, out: _Output) -> int:
    graph, _ = _antihole_input(args)
    outcome = antiholes.search_clique_acyclic_no_kernel(graph, budget=_budget(args))
    payload = {
        "status": outcome.status,
        "orientations_examined": outcome.orientations_examined,
    }
    if outcome.orientation is not None:
        payload["witness"] = io.to_json_obj(outcome.orientation)
    out.emit(payload)
    if outcome.status == "witness":
        return EXIT_VERDICT_FAILS
    if outcome.status == "exhausted":
        return EXIT_OK
    return EXIT_BUDGET


def cmd_antihole_near_sink(args, out: _Output) -> int:
    orientation = _expect(_load_graph(args.input), Orientation, "input")
    vertex = antiholes.find_near_sink(orientation)
    out.emit({"vertex": vertex})
    return EXIT_OK


# -- poset commands ----------------------------------------------------------


def _int_tokens(tokens: list[str], lineno: int, skip: int = 0) -> list[int]:
    try:
        return [int(token) for token in tokens[skip:]]
    except ValueError:
        raise GraphParseError(f"non-integer token in {' '.join(tokens)!r}", lineno) from None


def _parse_poset(text: str) -> Poset:
    lines = io._content_lines(text)
    lineno, tokens = next(lines, (None, None))
    if lineno is None:
        raise GraphParseError("empty input, expected a poset")
    if len(tokens) != 2 or tokens[0] != "poset":
        raise GraphParseError("expected 'poset <n>' header", lineno)
    (size,) = _int_tokens(tokens, lineno, skip=1)
    if size < 0:
        raise GraphParseError(f"poset size {size} is negative", lineno)
    pairs = []
    for lineno, tokens in lines:
        if len(tokens) != 2:
            raise GraphParseError(f"expected '<a> <b>', got {' '.join(tokens)!r}", lineno)
        pairs.append(tuple(_int_tokens(tokens, lineno)))
    return Poset(size, pairs)


def cmd_poset_max_chain(args, out: _Output) -> int:
    poset = _parse_poset(_read_text(args.input))
    chain = max_chain_of_antichains(poset)
    out.emit({"length": len(chain), "chain": [sorted(a) for a in chain]})
    return EXIT_OK


def cmd_poset_compare(args, out: _Output) -> int:
    poset = _parse_poset(_read_text(args.input))
    a = _parse_vertex_spec(args.a)
    b = _parse_vertex_spec(args.b)
    relation = compare_antichains(poset, a, b)
    out.emit({"a": sorted(a), "b": sorted(b), "relation": relation.value})
    return EXIT_OK


# -- graph convert -----------------------------------------------------------


def cmd_graph_convert(args, out: _Output) -> int:
    obj = _load_graph(args.input)
    write = {"text": io.serialize, "json": io.serialize_json, "dot": io.to_dot}[args.to]
    out.emit_raw(write(obj))
    return EXIT_OK


# -- parser wiring -----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors print one `error:` line and exit 2, like any other bad
    input; `add_subparsers` makes every subparser one of these."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {message}\n")


def _common(parser: argparse.ArgumentParser, needs_input: bool = True) -> None:
    if needs_input:
        parser.add_argument("input", help="input file, or - for stdin")
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report and graph output rendering (default text)",
    )
    parser.add_argument("--output", default="-", help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kernelkit",
        description="Digraph kernel solvers, checkers and exhaustive verification.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    # oracle
    p_oracle = top.add_parser("oracle", help="brute-force ground truth")
    sub = p_oracle.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("find", help="find a kernel exhaustively")
    _common(p)
    p.add_argument("--count", action="store_true", help="count all kernels")
    p.add_argument("--cap", type=int, default=oracle.DEFAULT_VERTEX_CAP)
    p.set_defaults(func=cmd_oracle_find)

    p = sub.add_parser("enumerate", help="list every kernel")
    _common(p)
    p.add_argument("--cap", type=int, default=oracle.DEFAULT_VERTEX_CAP)
    p.set_defaults(func=cmd_oracle_enumerate)

    p = sub.add_parser("check", help="check a vertex set against a digraph")
    _common(p)
    p.add_argument("--kernel", help="vertex list, or - for stdin")
    p.add_argument("--semi-kernel", dest="semi_kernel")
    p.add_argument("--independent")
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("clique-acyclic", help="clique-acyclicity over all cliques")
    _common(p)
    p.add_argument("--clique-budget", type=int, default=oracle.DEFAULT_CLIQUE_BUDGET)
    p.set_defaults(func=cmd_oracle_clique_acyclic)

    p = sub.add_parser("m-clique-acyclic", help="two reversible arcs per directed triangle")
    _common(p)
    p.set_defaults(func=cmd_oracle_m_clique_acyclic)

    # redblue
    p_rb = top.add_parser("redblue", help="two-colored digraph solvers")
    sub = p_rb.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("check", help="condition checkers")
    _common(p)
    p.add_argument("--conditions", choices=("chain", "path"), default="chain")
    p.set_defaults(func=cmd_redblue_check)

    p = sub.add_parser("solve", help="polynomial solver (chain conditions)")
    _common(p)
    p.set_defaults(func=cmd_redblue_solve)

    p = sub.add_parser("solve-fixpoint", help="budgeted solver (path conditions)")
    _common(p)
    p.add_argument("--budget", type=int)
    p.set_defaults(func=cmd_redblue_solve_fixpoint)

    p = sub.add_parser("gen", help="seeded instance generators")
    p.add_argument("generator", choices=("ssw", "comparability", "chain", "path"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--density", type=float, default=0.35,
        help="density in [0, 1]; the 0.35 default applies to all four generators, "
        "unlike the library's (comparability 0.45, chain 0.25, path 0.3)",
    )
    p.add_argument("--budget", type=int, help="repairs, chain generator only (default 400)")
    _common(p, needs_input=False)
    p.set_defaults(func=cmd_redblue_gen)

    # chords
    p_ch = top.add_parser("chords", help="odd-cycle chord conditions")
    sub = p_ch.add_subparsers(dest="subcommand", required=True)

    for name, which in (("check", "all"), ("check-gsnl", "gsnl"), ("check-duchet", "duchet")):
        p = sub.add_parser(name)
        _common(p)
        p.add_argument("--max-len", type=int, dest="max_len")
        p.add_argument("--budget", type=int)
        p.set_defaults(func=cmd_chords_check, which=which)

    p = sub.add_parser("solve", help="kernel via the chord-rule construction")
    _common(p)
    p.add_argument("--budget", type=int)
    p.set_defaults(func=cmd_chords_solve)

    # antihole
    p_ah = top.add_parser("antihole", help="anti-hole generation and verification")
    sub = p_ah.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen", help="complement of the n-cycle")
    p.add_argument("--n", type=int, required=True)
    _common(p, needs_input=False)
    p.set_defaults(func=cmd_antihole_gen)

    p = sub.add_parser("c7", help="the kernel-free orientation of the 7-anti-hole")
    _common(p, needs_input=False)
    p.set_defaults(func=cmd_antihole_c7)

    p = sub.add_parser("verify-simple", help="exhaust all clique-acyclic orientations")
    p.add_argument("input", nargs="?", help="graph file, or use --n")
    p.add_argument("--n", type=int, help="verify the n-vertex anti-hole")
    p.add_argument("--mode", choices=("simple", "general"), default="simple")
    p.add_argument("--symmetry", action="store_true",
                   help="examine one orientation per dihedral orbit (anti-holes only)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes, at most one per task "
                        "(default 1; a budget runs in one)")
    p.add_argument("--budget", type=int,
                   help="examine at most this many orientations, then exit 3 "
                        "(default KERNELKIT_BUDGET, else no limit)")
    p.add_argument("--checkpoint", metavar="FILE",
                   help="JSON file that records progress; a rerun resumes from it")
    _common(p, needs_input=False)
    p.set_defaults(func=cmd_antihole_verify)

    p = sub.add_parser("search-witness", help="hunt a clique-acyclic orientation with no kernel")
    p.add_argument("input", nargs="?", help="graph file, or use --n")
    p.add_argument("--n", type=int)
    p.add_argument("--budget", type=int)
    _common(p, needs_input=False)
    p.set_defaults(func=cmd_antihole_search)

    p = sub.add_parser("find-near-sink", help="vertex receiving both distance-two edges")
    _common(p)
    p.set_defaults(func=cmd_antihole_near_sink)

    # poset
    p_po = top.add_parser("poset", help="antichain order utilities")
    sub = p_po.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("max-chain", help="longest chain of antichains")
    _common(p)
    p.set_defaults(func=cmd_poset_max_chain)

    p = sub.add_parser("compare", help="compare two antichains")
    _common(p)
    p.add_argument("--a", required=True, help="comma-separated elements")
    p.add_argument("--b", required=True, help="comma-separated elements")
    p.set_defaults(func=cmd_poset_compare)

    # graph convert
    p_g = top.add_parser("graph", help="format conversion")
    sub = p_g.add_subparsers(dest="subcommand", required=True)
    p = sub.add_parser("convert")
    _common(p)
    p.add_argument("--to", choices=("text", "json", "dot"), default="json")
    p.set_defaults(func=cmd_graph_convert)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on its first call and kept for the
    process; each parse still returns a fresh namespace."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command and return its exit code.

    It may be called many times in one process: the parser is built on the
    first call, not at import, and reused.  Each subcommand's `cmd_*`
    function is bound when the parser is built, so a test that patches
    behaviour must patch the module the command calls into (for example
    `antiholes.verify_kernel_solvable`), not the `cmd_*` function.
    """
    args = _parser().parse_args(argv)
    out = _Output(args)
    try:
        _one_stdin_input(args)
        return args.func(args, out)
    except OSError as exc:
        # a missing input, a directory for a file, an unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KernelKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (SizeCapError, BudgetExceededError)):
            return EXIT_BUDGET
        if isinstance(exc, ConditionsViolatedError):
            return EXIT_VERDICT_FAILS
        return EXIT_USAGE
    except MemoryError:
        # a run too large for this machine is refused, as at a cap, only late
        print("error: out of memory", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
