"""Every CLI subcommand on small arbitrary arguments and stdin: each run
ends in a documented exit code (argparse's SystemExit counting by its
code) and never in a traceback, and exit 2 prints exactly one line."""

import argparse
import contextlib
import io as std_io
import json
import os
import sys
import tempfile
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from kernelkit.cli import build_parser, main
from kernelkit.errors import InternalInvariantError

EXIT_CODES = {0, 1, 2, 3}



def mostly(valid, *malformed):
    """`valid` most of the time, else one of the malformed values (one_of
    would pick each branch about as often)."""
    return st.sampled_from([True] * 19 + [False]).flatmap(
        lambda ok: valid if ok else st.sampled_from(malformed)
    )


# small integers, now and then spelled so that argparse must refuse them
INTS = mostly(st.integers(-1, 6).map(str), "x", "1.5", "")
FLOATS = mostly(st.floats(0, 1).map(repr), "nan", "inf", "-0.5", "1e400", "x")
SPECS = mostly(st.lists(st.integers(0, 5), max_size=4).map(lambda vs: ",".join(map(str, vs))),
               "-", "x", "1,,2", "-1", "9")
KINDS = ["digraph", "cdigraph", "graph", "orientation", "poset"]
THIRD_COLUMN = {
    "cdigraph": ["r", "b", "r", "b", "g"],
    "orientation": ["fwd", "bwd", "both", "fwd", "bwd", "both", "x"],
}


@st.composite
def stdin_texts(draw, kind):
    """Texts of at most five vertices, mostly well formed and of the kind
    the command reads, as text or JSON, and some arbitrary text."""
    kind = draw(mostly(st.just(kind), *KINDS))
    n = draw(st.integers(0, 5))
    in_range = n >= 2 and draw(mostly(st.just(True), False))
    vertex = st.integers(0, n - 1) if in_range else st.integers(-1, n)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=8))
    if in_range:
        pairs = [(u, v) for u, v in pairs if u != v]
        if kind in ("graph", "orientation"):
            pairs = sorted({(min(u, v), max(u, v)) for u, v in pairs})
    third = THIRD_COLUMN.get(kind)
    rows = [
        [u, v] + ([draw(st.sampled_from(third))] if third else []) for u, v in pairs
    ]
    form = draw(st.sampled_from(["text", "text", "json", "junk"]))
    if form == "junk":
        return draw(st.text(max_size=30))
    if form == "json":
        field = "edges" if kind in ("graph", "orientation") else "arcs"
        return json.dumps({"kind": kind, "vertex_count": n, field: rows})
    return "\n".join([f"{kind} {n}"] + [" ".join(map(str, row)) for row in rows]) + "\n"


def opt(flag, values):
    return st.one_of(st.just([]), values.map(lambda value: [flag, value]))


def switch(flag):
    return st.sampled_from([[], [flag]])


# subcommand -> (the kind of input it reads, "?" when it may do without,
# and the option strategies); sizes stay small so that every sweep ends
# within tier-1 time
COMMANDS = {
    ("oracle", "find"): ("digraph", [switch("--count"), opt("--cap", INTS)]),
    ("oracle", "enumerate"): ("digraph", [opt("--cap", INTS)]),
    ("oracle", "check"): (
        "digraph",
        [
            mostly(st.sampled_from(["--kernel", "--semi-kernel", "--independent"]).map(
                lambda flag: [flag]), [], ["--kernel", "0", "--independent"]),
            SPECS.map(lambda spec: [spec]),
        ],
    ),
    ("oracle", "clique-acyclic"): ("digraph", [opt("--clique-budget", INTS)]),
    ("oracle", "m-clique-acyclic"): ("digraph", []),
    ("redblue", "check"): (
        "cdigraph", [opt("--conditions", mostly(st.sampled_from(["chain", "path"]), "x"))]
    ),
    ("redblue", "solve"): ("cdigraph", []),
    ("redblue", "solve-fixpoint"): ("cdigraph", [opt("--budget", INTS)]),
    ("redblue", "gen"): (
        None,
        [
            mostly(st.sampled_from([["ssw"], ["comparability"], ["chain"], ["path"]]), ["x"], []),
            opt("--n", INTS),
            opt("--seed", INTS),
            opt("--density", FLOATS),
            opt("--budget", INTS),
        ],
    ),
    ("chords", "check"): ("digraph", [opt("--max-len", INTS), opt("--budget", INTS)]),
    ("chords", "check-gsnl"): ("digraph", [opt("--max-len", INTS), opt("--budget", INTS)]),
    ("chords", "check-duchet"): ("digraph", [opt("--max-len", INTS), opt("--budget", INTS)]),
    ("chords", "solve"): ("digraph", [opt("--budget", INTS)]),
    ("antihole", "gen"): (None, [opt("--n", INTS)]),
    ("antihole", "c7"): (None, []),
    ("antihole", "verify-simple"): (
        "graph?",
        [
            opt("--n", INTS),
            opt("--mode", st.sampled_from(["simple", "general", "x"])),
            switch("--symmetry"),
            opt("--jobs", st.sampled_from(["-1", "0", "1", "x"])),
            opt("--budget", INTS),
            switch("--checkpoint"),
        ],
    ),
    ("antihole", "search-witness"): ("graph?", [opt("--n", INTS), opt("--budget", INTS)]),
    ("antihole", "find-near-sink"): ("orientation", []),
    ("poset", "max-chain"): ("poset", []),
    ("poset", "compare"): ("poset", [opt("--a", SPECS), opt("--b", SPECS)]),
    ("graph", "convert"): ("graph", [opt("--to", st.sampled_from(["text", "json", "dot", "x"]))]),
}


@st.composite
def invocations(draw):
    """(argv, stdin text, KERNELKIT_BUDGET or None) with files in a
    fresh scratch directory named by the placeholder `{dir}`."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    kind, options = COMMANDS[command]
    argv = list(command)
    if kind is not None and (not kind.endswith("?") or draw(st.booleans())):
        argv.append(draw(mostly(st.sampled_from(["-", "{dir}/in.txt"]), "{dir}/no.txt", "{dir}")))
    for option in options:
        argv.extend(draw(option))
    if "--checkpoint" in argv:
        argv.insert(argv.index("--checkpoint") + 1, "{dir}/run.json")
    argv.extend(draw(opt("--format", mostly(st.sampled_from(["text", "json"]), "x"))))
    argv.extend(draw(opt("--output", mostly(st.just("{dir}/out.txt"), "-", "{dir}/no/out.txt"))))
    argv.extend(draw(st.sampled_from([[]] * 19 + [["--help"]])))
    env_budget = draw(st.one_of(st.none(), st.none(), INTS))
    stdin = draw(stdin_texts((kind or "graph").rstrip("?")))
    return argv, stdin, env_budget


def run_main(argv, stdin, env_budget):
    """Run the CLI in this process; returns (exit code, stderr).

    The CLI reports an InternalInvariantError, a bug, as exit 2 like bad
    input, so the run fails if one is constructed at all."""
    bugs = []

    def tripwire(self, *args):
        bugs.append(args)
        Exception.__init__(self, *args)

    out, err = std_io.StringIO(), std_io.StringIO()
    saved_stdin, saved_budget = sys.stdin, os.environ.get("KERNELKIT_BUDGET")
    sys.stdin = std_io.StringIO(stdin)
    if env_budget is None:
        os.environ.pop("KERNELKIT_BUDGET", None)
    else:
        os.environ["KERNELKIT_BUDGET"] = env_budget
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                mock.patch.object(InternalInvariantError, "__init__", tripwire):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved_stdin
        if saved_budget is None:
            os.environ.pop("KERNELKIT_BUDGET", None)
        else:
            os.environ["KERNELKIT_BUDGET"] = saved_budget
    assert not bugs, (argv, bugs)
    return code, err.getvalue()


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(invocations())
# a truncated cycle check let the construction run on a kernel-free digraph
@example((["chords", "solve", "-", "--max-len", "2"], "digraph 3\n0 1\n1 2\n2 0\n", None))
def test_every_subcommand_exits_with_a_documented_code(invocation):
    argv, stdin, env_budget = invocation
    with tempfile.TemporaryDirectory() as scratch:
        with open(os.path.join(scratch, "in.txt"), "w", encoding="utf-8") as handle:
            handle.write(stdin)
        argv = [arg.replace("{dir}", scratch) for arg in argv]
        code, err = run_main(argv, stdin, env_budget)
    assert code in EXIT_CODES, (argv, code, err)
    assert "Traceback" not in err
    # bad input, argparse's refusals included, is one line on stderr
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


def test_the_table_names_every_subcommand():
    def subcommands(parser):
        (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return action.choices

    known = {
        (command, name)
        for command, parser in subcommands(build_parser()).items()
        for name in subcommands(parser)
    }
    assert known == set(COMMANDS)
