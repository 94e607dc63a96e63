import hashlib
import io as std_io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from kernelkit import ColoredDigraph, Digraph, antiholes, cli, gen_antihole, io, redblue
from kernelkit.antiholes import _dp_tables, _live_prefixes
from kernelkit.cli import main

GOLDEN = Path(__file__).parent / "golden"

THREE_CYCLE_TEXT = "digraph 3\n0 1\n1 2\n2 0\n"
THREE_VERTEX_CD = "cdigraph 3\n0 1 r\n2 0 b\n"


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr(sys, "stdin", std_io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_python(*argv, timeout=300):
    """Run a fresh interpreter with this checkout's `src/` on its path."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=timeout
    )


def capped(*argv):
    """`kernelkit *argv` in a fresh interpreter held to 1 GiB of address
    space, where an out-of-memory exit is also 3."""
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from kernelkit.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    return fresh_python("-c", script, *argv, timeout=20)


class TestOracleCommands:
    def test_find_no_kernel_exits_one(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys,
            ["oracle", "find", "-", "--format", "json"],
            stdin=THREE_CYCLE_TEXT,
            monkeypatch=monkeypatch,
        )
        assert code == 1
        assert json.loads(out) == {"exists": False, "witness": None}

    def test_find_on_the_empty_digraph_reports_the_empty_kernel(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys,
            ["oracle", "find", "-", "--format", "json"],
            stdin="digraph 0\n",
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert json.loads(out) == {"exists": True, "witness": []}

    def test_find_kernel_exits_zero(self, capsys, tmp_path):
        path = tmp_path / "d.dg"
        path.write_text("digraph 4\n0 1\n1 2\n2 3\n3 0\n")
        code, out, _ = run_cli(capsys, ["oracle", "find", str(path), "--format", "json"])
        assert code == 0
        assert json.loads(out)["witness"] == [0, 2]

    def test_enumerate_counts(self, capsys, tmp_path):
        path = tmp_path / "d.dg"
        path.write_text("digraph 4\n0 1\n1 2\n2 3\n3 0\n")
        code, out, _ = run_cli(
            capsys, ["oracle", "enumerate", str(path), "--format", "json"]
        )
        assert code == 0
        assert json.loads(out) == {"count": 2, "kernels": [[0, 2], [1, 3]]}

    def test_check_kernel(self, capsys, tmp_path):
        path = tmp_path / "d.dg"
        path.write_text("digraph 4\n0 1\n1 2\n2 3\n3 0\n")
        code, out, _ = run_cli(
            capsys, ["oracle", "check", "--kernel", "1,3", str(path)]
        )
        assert code == 0
        code, _, _ = run_cli(
            capsys, ["oracle", "check", "--kernel", "0,1", str(path)]
        )
        assert code == 1

    def test_clique_acyclic_verdict(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys,
            ["oracle", "clique-acyclic", "-", "--format", "json"],
            stdin=THREE_CYCLE_TEXT,
            monkeypatch=monkeypatch,
        )
        assert code == 1
        assert json.loads(out)["violating_clique"] == [0, 1, 2]

    def test_m_clique_acyclic(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys,
            ["oracle", "m-clique-acyclic", "-", "--format", "json"],
            stdin="digraph 3\n0 1\n1 2\n2 0\n1 0\n2 1\n",
            monkeypatch=monkeypatch,
        )
        assert code == 0


class TestVertexLists:
    @pytest.mark.parametrize(
        "argv, stdin",
        [
            (["oracle", "check", "GRAPH", "--kernel", "0,x"], None),
            (["oracle", "check", "GRAPH", "--kernel", "-"], '{"result": ["a"]}'),
            (["oracle", "check", "GRAPH", "--kernel", "-"], '{"result": [true]}'),
            (["oracle", "check", "GRAPH", "--kernel", "-"], "[false, 1]"),
            (["poset", "compare", "POSET", "--a", "0,q", "--b", "1"], None),
        ],
        ids=["text-token", "json-string", "json-true", "json-list-false", "poset"],
    )
    def test_non_integer_vertex_exits_two(self, capsys, monkeypatch, tmp_path, argv, stdin):
        (tmp_path / "g.txt").write_text("digraph 2\n0 1\n")
        (tmp_path / "p.txt").write_text("poset 2\n0 1\n")
        files = {"GRAPH": str(tmp_path / "g.txt"), "POSET": str(tmp_path / "p.txt")}
        argv = [files.get(arg, arg) for arg in argv]
        code, out, err = run_cli(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "non-integer" in err

    def test_json_report_on_stdin(self, capsys, monkeypatch, tmp_path):
        (tmp_path / "g.txt").write_text("digraph 2\n0 1\n")
        code, out, _ = run_cli(
            capsys,
            ["oracle", "check", str(tmp_path / "g.txt"), "--kernel", "-", "--format", "json"],
            stdin='{"result": null, "kernel": [1]}',
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert json.loads(out) == {"check": "kernel", "vertices": [1], "holds": True}


class TestOutOfRangeSettings:
    """A negative budget, cap or length is bad input (exit 2), never an
    exhausted budget (exit 3) or a silent no-op."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["redblue", "gen", "chain", "--n", "6", "--budget", "-1"], "--budget"),
            (["redblue", "solve-fixpoint", "CD", "--budget", "-2"], "--budget"),
            (["antihole", "verify-simple", "--n", "5", "--budget", "-1"], "--budget"),
            (["antihole", "search-witness", "--n", "5", "--budget", "-4"], "--budget"),
            (["chords", "check", "GRAPH", "--budget", "-1"], "--budget"),
            (["chords", "check", "GRAPH", "--max-len", "-1"], "--max-len"),
            (["oracle", "find", "GRAPH", "--cap", "-1"], "--cap"),
            (["oracle", "enumerate", "GRAPH", "--cap", "-1"], "--cap"),
            (["oracle", "clique-acyclic", "GRAPH", "--clique-budget", "-1"], "--clique-budget"),
            (["antihole", "verify-simple", "--n", "5", "--jobs", "-3"], "--jobs"),
            (["antihole", "verify-simple", "--n", "5", "--jobs", "0"], "--jobs"),
            (["antihole", "verify-simple", "GRAPH", "--n", "5"], "--n"),
            (["antihole", "search-witness", "-", "--n", "5"], "--n"),
            (["redblue", "gen", "ssw", "--n", "5", "--density", "nan"], "--density"),
            (["redblue", "gen", "path", "--n", "5", "--density", "-0.1"], "--density"),
            (["redblue", "gen", "chain", "--n", "5", "--density", "1.5"], "--density"),
            (["poset", "compare", "POSET", "--a", "-", "--b", "-"], "--a, --b"),
            (["poset", "compare", "-", "--a", "-", "--b", "1"], "input, --a"),
            (["oracle", "check", "-", "--kernel", "-"], "input, --kernel"),
        ],
        ids=[
            "gen-chain-budget", "solve-fixpoint-budget", "verify-budget",
            "search-budget", "chords-budget", "chords-check-max-len", "find-cap",
            "enumerate-cap", "clique-budget", "jobs-negative", "jobs-zero",
            "verify-file-and-n", "search-stdin-and-n",
            "density-nan", "density-negative", "density-above-one",
            "compare-two-stdin-antichains", "compare-stdin-poset-and-antichain",
            "check-stdin-digraph-and-kernel",
        ],
    )
    def test_exits_two_with_one_line(self, capsys, tmp_path, argv, flag):
        (tmp_path / "g.txt").write_text(THREE_CYCLE_TEXT)
        (tmp_path / "c.txt").write_text(THREE_VERTEX_CD)
        (tmp_path / "p.txt").write_text("poset 2\n0 1\n")
        files = {
            "GRAPH": str(tmp_path / "g.txt"),
            "CD": str(tmp_path / "c.txt"),
            "POSET": str(tmp_path / "p.txt"),
        }
        code, out, err = run_cli(capsys, [files.get(arg, arg) for arg in argv])
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and flag in err

    def test_negative_env_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("KERNELKIT_BUDGET", "-1")
        code, out, err = run_cli(
            capsys, ["chords", "check", "-"], stdin=THREE_CYCLE_TEXT, monkeypatch=monkeypatch
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "KERNELKIT_BUDGET" in err

    @pytest.mark.parametrize("density", ["0", "1"])
    def test_density_bounds_are_legal(self, capsys, density):
        code, _, _ = run_cli(capsys, ["redblue", "gen", "ssw", "--n", "5", "--density", density])
        assert code == 0


class TestCounterexamplePipeline:
    def test_c7_into_oracle_find(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["antihole", "c7"])
        assert code == 0
        code, out2, _ = run_cli(
            capsys,
            ["oracle", "find", "-", "--format", "json"],
            stdin=out,
            monkeypatch=monkeypatch,
        )
        assert code == 1
        assert json.loads(out2) == json.loads(
            (GOLDEN / "c7_oracle_find.json").read_text()
        )


class TestRedblueCommands:
    def test_check_chain(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys,
            ["redblue", "check", "-", "--format", "json"],
            stdin="cdigraph 3\n0 1 b\n1 2 b\n",
            monkeypatch=monkeypatch,
        )
        assert code == 1
        assert json.loads(out)["violations"] == [
            {"rule": "blue-chain", "vertices": [0, 1, 2]}
        ]

    def test_solve_golden_trace(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys,
            ["redblue", "solve", "-", "--format", "json"],
            stdin=THREE_VERTEX_CD,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert json.loads(out) == json.loads(
            (GOLDEN / "three_vertex_chain_trace.json").read_text()
        )

    def test_solve_then_check_pipeline(self, capsys, monkeypatch, tmp_path):
        inst = tmp_path / "inst.cd"
        code, out, _ = run_cli(
            capsys, ["redblue", "gen", "ssw", "--n", "7", "--seed", "3"]
        )
        assert code == 0
        inst.write_text(out)
        code, solved, _ = run_cli(
            capsys, ["redblue", "solve", str(inst), "--format", "json"]
        )
        assert code == 0
        code, _, _ = run_cli(
            capsys,
            ["oracle", "check", "--kernel", "-", str(inst)],
            stdin=solved,
            monkeypatch=monkeypatch,
        )
        assert code == 0

    def test_solve_fixpoint(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys,
            ["redblue", "solve-fixpoint", "-", "--format", "json"],
            stdin="cdigraph 3\n0 1 b\n1 2 b\n",
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert json.loads(out)["result"] == [0, 2]

    def test_conditions_violated_report(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys,
            ["redblue", "solve", "-", "--format", "json"],
            stdin="cdigraph 3\n0 1 b\n1 2 b\n",
            monkeypatch=monkeypatch,
        )
        assert code == 1
        assert json.loads(out)["satisfied"] is False

    @pytest.mark.parametrize(
        "command, conditions", [("solve", "chain"), ("solve-fixpoint", "path")]
    )
    def test_refusal_lists_what_check_lists(self, capsys, monkeypatch, command, conditions):
        # a red three-cycle: three red-chain violations, one mono-cycle
        text = "cdigraph 3\n0 1 r\n1 2 r\n2 0 r\n"
        argv = ["-", "--format", "json"]
        code, out, _ = run_cli(
            capsys, ["redblue", "check", *argv, "--conditions", conditions],
            stdin=text, monkeypatch=monkeypatch,
        )
        assert code == 1
        want = json.loads(out)["violations"]
        assert len(want) == {"chain": 3, "path": 1}[conditions]
        code, out, _ = run_cli(
            capsys, ["redblue", command, *argv], stdin=text, monkeypatch=monkeypatch
        )
        assert code == 1
        assert json.loads(out) == {"satisfied": False, "violations": want}

    def test_check_reads_a_huge_sparse_instance(self, tmp_path):
        # the in-masks of 100,000 rows come from the arcs, not from a
        # padded square 131,072 bits wide
        path = tmp_path / "input.cd"
        path.write_text("cdigraph 100000\n0 1 b\n")
        start = time.perf_counter()
        proc = capped("redblue", "check", str(path), "--format", "json")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {
            "conditions": "chain", "satisfied": True, "violations": []
        }
        assert time.perf_counter() - start < 10

    def test_gen_prints_seed(self, capsys):
        code, out, _ = run_cli(
            capsys, ["redblue", "gen", "ssw", "--n", "5", "--seed", "11"]
        )
        assert code == 0
        assert out.startswith("# seed 11\n")

    @pytest.mark.parametrize("generator", ["ssw", "comparability", "chain", "path"])
    def test_gen_negative_n_exits_two(self, capsys, generator):
        code, out, err = run_cli(capsys, ["redblue", "gen", generator, "--n", "-5"])
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "--n" in err

    @pytest.mark.parametrize("generator", ["ssw", "comparability", "path"])
    def test_gen_budget_outside_chain_exits_two(self, capsys, generator):
        code, out, err = run_cli(
            capsys, ["redblue", "gen", generator, "--n", "4", "--budget", "-1"]
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert "--budget applies only to the chain generator" in err

    def test_gen_chain_honours_a_zero_budget(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["redblue", "gen", "chain", "--n", "6", "--budget", "0", "--format", "json"],
        )
        assert code == 3
        assert json.loads(out) == {"error": "no instance within 0 repairs", "seed": 0}

    def test_gen_chain_at_zero_budget_needs_no_repair_on_one_vertex(self, capsys):
        code, out, err = run_cli(capsys, ["redblue", "gen", "chain", "--n", "1", "--budget", "0"])
        assert code == 0 and err == ""
        assert out.startswith("# seed 0\n")

    def test_gen_chain_stops_when_its_repair_repeats(self, monkeypatch):
        # seed 9 at n = 12 never settles: its repair revisits an arc state,
        # which ends the run long before 10**9 repairs
        monkeypatch.setenv("KERNELKIT_BUDGET", str(10**9))
        proc = fresh_python(
            "-m", "kernelkit", "redblue", "gen", "chain", "--seed", "9", "--n", "12",
            "--format", "json", timeout=30,
        )
        assert proc.returncode == 3, proc.stderr
        assert json.loads(proc.stdout) == {
            "error": f"no instance within {10**9} repairs", "seed": 9
        }

    def test_scale_reports_golden(self, tmp_path):
        # the scale benchmark's instances, solved and checked byte for byte;
        # the path instance fails the chain check, so its report lists every
        # chain violation in scan order
        golden = json.loads((GOLDEN / "redblue_traces.json").read_text())
        got = []
        for entry in golden["reports"]:
            instance = tmp_path / f"{entry['kind']}-{entry['n']}.json"
            if not instance.exists():
                assert main([
                    "redblue", "gen", entry["kind"], "--n", str(entry["n"]), "--seed", "0",
                    "--format", "json", "--output", str(instance),
                ]) == 0
            report = tmp_path / "report.json"
            code = main([
                "redblue", entry["command"][0], str(instance), *entry["command"][1:],
                "--format", "json", "--output", str(report),
            ])
            got.append({**entry, "exit": code,
                        "sha256": hashlib.sha256(report.read_bytes()).hexdigest()})
        assert got == golden["reports"]


class TestGenJson:
    @pytest.mark.parametrize(
        "generator, build",
        [
            ("ssw", lambda: redblue.generate_ssw_instance(1, 12, density=0.35)),
            ("comparability", lambda: redblue.generate_comparability_instance(1, 12, density=0.35)),
            ("path", lambda: redblue.generate_path_instance(1, 12, density=0.35)),
            ("chain", lambda: redblue.generate_chain_instance(1, 12, budget=400, density=0.35)),
        ],
    )
    def test_json_output_loads_back_to_the_generators_instance(self, capsys, generator, build):
        code, out, _ = run_cli(
            capsys, ["redblue", "gen", generator, "--n", "12", "--seed", "1", "--format", "json"]
        )
        assert code == 0
        expected = build()
        assert expected is not None and expected.color
        assert io.load_auto(out) == expected
        assert json.loads(out)["seed"] == 1


class TestArgparseErrors:
    """argparse's own refusals exit 2 with one `error:` line, like any
    other bad input."""

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["chords", "solve", "GRAPH", "--max-len", "2"], "unrecognized arguments: --max-len 2"),
            (["chords", "bogus", "GRAPH"], "invalid choice: 'bogus'"),
            (["redblue", "check", "GRAPH", "--conditions", "x"], "invalid choice: 'x'"),
        ],
        ids=["unknown-flag", "unknown-subcommand", "bad-conditions"],
    )
    def test_exits_two_with_one_line(self, capsys, tmp_path, argv, fragment):
        (tmp_path / "g.txt").write_text(THREE_CYCLE_TEXT)
        with pytest.raises(SystemExit) as exc:
            main([str(tmp_path / "g.txt") if arg == "GRAPH" else arg for arg in argv])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert fragment in captured.err

    def test_help_still_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["chords", "check", "--help"])
        captured = capsys.readouterr()
        assert exc.value.code == 0 and captured.err == ""
        assert captured.out.startswith("usage: kernelkit chords check")


class TestParserReuse:
    """`main` builds its parser once per process, and no call's options
    or errors reach the next call."""

    def test_two_calls_build_the_parser_once(self, capsys, monkeypatch):
        built = []
        build = cli.build_parser

        def counted():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        for _ in range(2):
            code, out, _ = run_cli(capsys, ["antihole", "gen", "--n", "5"])
            assert (code, out.splitlines()[0]) == (0, "graph 5")
        assert len(built) == 1

    def test_the_parser_is_built_on_the_first_call_not_at_import(self):
        proc = fresh_python(
            "-c",
            "import kernelkit.cli as cli\n"
            "before = cli._parser.cache_info().currsize\n"
            "cli.main(['antihole', 'c7', '--output', '/dev/null'])\n"
            "print(before, cli._parser.cache_info().currsize)\n",
        )
        assert (proc.returncode, proc.stdout) == (0, "0 1\n")

    def test_build_parser_returns_a_new_tree(self):
        assert cli.build_parser() is not cli.build_parser()
        assert cli._parser() is cli._parser()

    def test_a_usage_error_leaves_the_next_call_alone(self, capsys):
        argv = ["redblue", "gen", "ssw", "--n", "6", "--seed", "2"]
        want = run_cli(capsys, argv)
        with pytest.raises(SystemExit) as exc:
            main(["redblue", "gen", "ssw", "--n", "x"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert run_cli(capsys, argv) == want

    def test_options_do_not_reach_the_next_call(self, capsys, tmp_path):
        def plain():
            code, out, err = run_cli(capsys, ["antihole", "verify-simple", "--n", "5"])
            lines = [line for line in out.splitlines() if not line.startswith("elapsed_ms:")]
            return code, lines, err

        want = plain()
        assert want[0] == 1 and "orientations_examined: 11" in want[1]
        checkpoint = tmp_path / "run.json"
        code, out, _ = run_cli(capsys, [
            "antihole", "verify-simple", "--n", "5", "--format", "json", "--budget", "1",
            "--checkpoint", str(checkpoint), "--symmetry",
        ])
        assert code == 3 and json.loads(out)["orientations_examined"] == 1
        assert checkpoint.exists()
        assert plain() == want


class TestChordsCommands:
    def test_check_reports_its_max_len(self, capsys, monkeypatch):
        # only the 3-cycle fails, so a check cut at length 2 holds; the
        # report says where it was cut
        code, out, _ = run_cli(
            capsys,
            ["chords", "check", "-", "--max-len", "2", "--format", "json"],
            stdin=THREE_CYCLE_TEXT,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert json.loads(out) == {
            "satisfied": True, "max_len": 2, "cycles": [], "first_failing": None
        }
        code, out, _ = run_cli(
            capsys, ["chords", "check", "-", "--max-len", "2"],
            stdin=THREE_CYCLE_TEXT, monkeypatch=monkeypatch,
        )
        assert code == 0
        assert out == "satisfied: True\nmax_len: 2\ncycles: []\nfirst_failing: None\n"

    def test_check_without_max_len_has_no_such_field(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, ["chords", "check", "-"], stdin=THREE_CYCLE_TEXT, monkeypatch=monkeypatch
        )
        assert code == 1
        assert out == (
            "satisfied: False\n"
            'cycles: [{"cycle": [0, 1, 2], "rule": "none"}]\n'
            "first_failing: [0, 1, 2]\n"
        )

    def test_check_failing_cycle(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys,
            ["chords", "check", "-", "--format", "json"],
            stdin=THREE_CYCLE_TEXT,
            monkeypatch=monkeypatch,
        )
        assert code == 1
        assert json.loads(out)["first_failing"] == [0, 1, 2]

    def test_solve(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys,
            ["chords", "solve", "-", "--format", "json"],
            stdin="digraph 5\n0 1\n1 2\n2 3\n3 4\n4 0\n4 1\n0 2\n",
            monkeypatch=monkeypatch,
        )
        assert code == 0
        kernel = json.loads(out)["result"]
        assert kernel in ([1, 3], [2, 4])

    def test_solve_checks_every_odd_cycle(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys,
            ["chords", "solve", "-", "--format", "json"],
            stdin=THREE_CYCLE_TEXT,
            monkeypatch=monkeypatch,
        )
        assert code == 1
        assert json.loads(out) == {"satisfied": False, "first_failing": [0, 1, 2]}

    def test_budget_exit_code(self, capsys, monkeypatch):
        code, _, err = run_cli(
            capsys,
            ["chords", "check", "-", "--budget", "1"],
            stdin=THREE_CYCLE_TEXT,
            monkeypatch=monkeypatch,
        )
        assert code == 3

    def test_solve_budget_counts_the_pruned_search(self, capsys, monkeypatch):
        # the search stays inside strongly connected components, so a
        # directed path takes no step, where `chords check` walks every
        # simple path; a cycle still needs its steps
        n = 400
        path = f"digraph {n}\n" + "".join(f"{i} {i + 1}\n" for i in range(n - 1))
        code, out, _ = run_cli(
            capsys,
            ["chords", "solve", "-", "--budget", "1", "--format", "json"],
            stdin=path,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert json.loads(out)["result"] == list(range(1, n, 2))
        code, _, _ = run_cli(
            capsys, ["chords", "check", "-", "--budget", "1"], stdin=path, monkeypatch=monkeypatch
        )
        assert code == 3
        code, _, err = run_cli(
            capsys,
            ["chords", "solve", "-", "--budget", "1"],
            stdin=THREE_CYCLE_TEXT,
            monkeypatch=monkeypatch,
        )
        assert code == 3
        assert err == "error: odd-cycle search exceeded budget of 1 steps\n"

    def test_env_budget_override(self, capsys, monkeypatch):
        monkeypatch.setenv("KERNELKIT_BUDGET", "1")
        code, _, _ = run_cli(
            capsys,
            ["chords", "check", "-"],
            stdin=THREE_CYCLE_TEXT,
            monkeypatch=monkeypatch,
        )
        assert code == 3


class TestAntiholeCommands:
    def test_gen(self, capsys):
        code, out, _ = run_cli(capsys, ["antihole", "gen", "--n", "7"])
        assert code == 0
        assert out.startswith("graph 7\n")
        assert len(out.strip().splitlines()) == 15

    def test_verify_simple_c5(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["antihole", "verify-simple", "--n", "5", "--format", "json"],
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["verdict"] == "counterexample"
        assert payload["counterexample"]["kind"] == "orientation"

    def test_symmetry_needs_the_antihole(self, capsys, monkeypatch):
        code, out, err = run_cli(
            capsys,
            ["antihole", "verify-simple", "-", "--symmetry"],
            stdin="graph 5\n0 1\n1 2\n2 3\n3 4\n",
            monkeypatch=monkeypatch,
        )
        assert code == 2 and out == ""
        assert err == "error: symmetry reduction needs the 5-vertex anti-hole\n"

    @pytest.mark.parametrize(
        "argv, stdin, message",
        [
            (["verify-simple", "-", "--symmetry"], "graph 3\n0 1\n0 2\n1 2\n",
             "symmetry reduction needs the 3-vertex anti-hole"),
            (["find-near-sink", "-"], "orientation 3\n",
             "orientation does not live on the labeled anti-hole"),
        ],
        ids=["verify-simple", "find-near-sink"],
    )
    def test_below_four_vertices_gives_the_commands_reason(
        self, capsys, monkeypatch, argv, stdin, message
    ):
        code, out, err = run_cli(capsys, ["antihole", *argv], stdin=stdin, monkeypatch=monkeypatch)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_search_witness_exhausted_on_k3(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys,
            ["antihole", "search-witness", "-", "--format", "json"],
            stdin="graph 3\n0 1\n0 2\n1 2\n",
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert json.loads(out)["status"] == "exhausted"

    def test_search_witness_budget(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["antihole", "search-witness", "--n", "9", "--budget", "10", "--format", "json"],
        )
        assert code == 3
        assert json.loads(out)["status"] == "unknown"

    def test_non_integer_env_budget_exits_two(self, capsys, monkeypatch):
        monkeypatch.setenv("KERNELKIT_BUDGET", "abc")
        code, _, err = run_cli(capsys, ["antihole", "search-witness", "--n", "5"])
        assert code == 2
        assert err.count("\n") == 1 and "KERNELKIT_BUDGET" in err

    def test_corrupt_checkpoint_exits_two(self, capsys, tmp_path):
        checkpoint = tmp_path / "run.json"
        checkpoint.write_text('{"signature": "abc", "next_ta')
        code, _, err = run_cli(
            capsys,
            ["antihole", "verify-simple", "--n", "5", "--checkpoint", str(checkpoint)],
        )
        assert code == 2
        assert err.count("\n") == 1 and "not valid JSON" in err

    @staticmethod
    def refuse_task_index_checkpoint(capsys, tmp_path, signed, depth, examined):
        """Resume a C9-bar --symmetry run from a checkpoint whose cursor is
        a task index, signed over the run and `signed`: it must exit 2."""
        edges = tuple(gen_antihole(9)[0].sorted_edges())
        payload = repr((9, edges, "simple", True, signed)).encode()
        checkpoint = tmp_path / "run.json"
        checkpoint.write_text(json.dumps({
            "signature": hashlib.sha256(payload).hexdigest()[:16],
            "prefix_depth": depth,
            "next_task": 1,
            "examined": examined,
            "elapsed_seconds": 1.0,
            "counterexample": None,
        }))
        code, out, err = run_cli(capsys, [
            "antihole", "verify-simple", "--n", "9", "--symmetry",
            "--checkpoint", str(checkpoint),
        ])
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "belongs to a different run" in err

    def test_fixed_product_checkpoint_exits_two(self, capsys, tmp_path):
        # the fixed-product task scheme signed the depth; its cursor pointed
        # into all 2**depth prefixes
        self.refuse_task_index_checkpoint(capsys, tmp_path, 6, 6, 7697)

    def test_task_index_checkpoint_exits_two(self, capsys, tmp_path):
        # the live-prefix scheme signed its task list; a leaf-exact run
        # must not read its cursor
        g, labeling = gen_antihole(9)
        actions = antiholes.dihedral_edge_actions(labeling)
        tasks = _live_prefixes(_dp_tables(g, 2, actions=actions), 8)
        self.refuse_task_index_checkpoint(capsys, tmp_path, tasks, 8, 3573)

    @pytest.mark.parametrize("command", ["verify-simple", "search-witness"])
    def test_zero_budget_examines_nothing(self, capsys, command):
        code, out, _ = run_cli(
            capsys,
            ["antihole", command, "--n", "7", "--budget", "0", "--format", "json"],
        )
        assert code == 3
        assert json.loads(out)["orientations_examined"] == 0

    def test_search_witness_stops_at_its_budget(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["antihole", "search-witness", "--n", "9", "--budget", "50", "--format", "json"],
        )
        assert code == 3
        assert json.loads(out)["orientations_examined"] == 50

    def test_k7_general_stops_at_its_budget(self, tmp_path):
        # K7's one 7-clique has 21 edges: a table over the digits of the
        # other 20 would take 3**20 bytes, the mask test none
        path = tmp_path / "k7.txt"
        path.write_text("graph 7\n" + "".join(
            f"{u} {v}\n" for u in range(7) for v in range(u + 1, 7)
        ))
        proc = fresh_python(
            "-m", "kernelkit", "antihole", "verify-simple", str(path), "--mode", "general",
            "--budget", "1000", "--format", "json", timeout=30,
        )
        assert proc.returncode == 3, proc.stderr
        assert json.loads(proc.stdout)["orientations_examined"] == 1000

    @pytest.mark.parametrize(
        "field, value", [("counterexample", [9]), ("elapsed_seconds", "abc")]
    )
    def test_bad_checkpoint_field_exits_two(self, capsys, tmp_path, field, value):
        checkpoint = tmp_path / "run.json"
        argv = ["antihole", "verify-simple", "--n", "5", "--checkpoint", str(checkpoint)]
        assert run_cli(capsys, [*argv, "--budget", "3"])[0] == 3
        state = json.loads(checkpoint.read_text())
        state[field] = value
        checkpoint.write_text(json.dumps(state))
        code, _, err = run_cli(capsys, argv)
        assert code == 2
        assert err.count("\n") == 1 and field in err

    def test_out_of_memory_exits_three(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(antiholes, "verify_kernel_solvable", exhausted)
        code, out, err = run_cli(capsys, ["antihole", "verify-simple", "--n", "9"])
        assert (code, out, err) == (3, "", "error: out of memory\n")

    @pytest.mark.parametrize(
        "argv", [["--n", "9"], ["--n", "7", "--mode", "general"]], ids=["c9-simple", "c7-general"]
    )
    def test_jobs_do_not_change_the_report(self, capsys, argv):
        reports = []
        for jobs in ("1", "2"):
            code, out, _ = run_cli(
                capsys, ["antihole", "verify-simple", *argv, "--jobs", jobs, "--format", "json"]
            )
            report = json.loads(out)
            del report["elapsed_ms"]
            reports.append((code, report))
        assert reports[0] == reports[1]

    def test_find_near_sink_rejects_seven(self, capsys, monkeypatch):
        c7_orientation = subprocess_output_c7()
        code, _, err = run_cli(
            capsys,
            ["antihole", "find-near-sink", "-"],
            stdin=c7_orientation,
            monkeypatch=monkeypatch,
        )
        assert code == 2
        assert "at least 9" in err

    @staticmethod
    def capped(*argv):
        return capped("antihole", *argv)

    def capped_cli(self, tmp_path, text, *argv):
        """`capped` on `text`, given as a file."""
        path = tmp_path / "input.txt"
        path.write_text(text)
        return self.capped(*argv, str(path))

    def test_sweep_refuses_a_huge_vertex_count_before_building(self, tmp_path):
        proc = self.capped_cli(tmp_path, "graph 5000000\n", "verify-simple")
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == "error: 5000000 vertices exceed the sweep cap of 25\n"

    @pytest.mark.parametrize("command", ["verify-simple", "search-witness"])
    @pytest.mark.parametrize("n", [2000, 100_000])
    def test_sweep_refuses_a_huge_n_before_building(self, command, n):
        # the caps see the anti-hole's n(n - 3)/2 edges before it is built
        start = time.perf_counter()
        proc = self.capped(command, "--n", str(n))
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == f"error: {n * (n - 3) // 2} edges exceed the enumeration cap of 32\n"
        assert time.perf_counter() - start < 3

    def test_find_near_sink_refuses_a_huge_edgeless_orientation(self, tmp_path):
        # compared on the edge count, not on a 100,000-vertex anti-hole
        proc = self.capped_cli(tmp_path, "orientation 100000\n", "find-near-sink")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: orientation does not live on the labeled anti-hole\n"


def subprocess_output_c7() -> str:
    from kernelkit import Orientation, c7_counterexample, gen_antihole
    from kernelkit.io import serialize

    g, _ = gen_antihole(7)
    return serialize(Orientation.from_digraph(g, c7_counterexample()))


class TestPosetCommands:
    def test_max_chain(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys,
            ["poset", "max-chain", "-", "--format", "json"],
            stdin="poset 3\n0 1\n1 2\n",
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert json.loads(out) == {"length": 4, "chain": [[], [0], [1], [2]]}

    def test_compare(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys,
            ["poset", "compare", "-", "--a", "0", "--b", "1", "--format", "json"],
            stdin="poset 2\n0 1\n",
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert json.loads(out)["relation"] == "less"

    def test_compare_with_an_element_past_the_poset_exits_two(self, capsys, monkeypatch):
        # the element past the end sat behind a valid one and was indexed
        # before its range was checked
        code, out, err = run_cli(
            capsys,
            ["poset", "compare", "-", "--a", "", "--b", "0,1"],
            stdin="poset 1\n",
            monkeypatch=monkeypatch,
        )
        assert code == 2 and out == ""
        assert err == "error: element 1 outside [0, 1)\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("poset -1\n", "line 1: poset size -1 is negative"),
            ("# sizes\n\nposet -3 # none\n", "line 3: poset size -3 is negative"),
            ("graph 3\n", "line 1: expected 'poset <n>' header"),
            ("poset 2\n0 1 2\n", "line 2: expected '<a> <b>', got '0 1 2'"),
            ("poset 2\n0 y\n", "line 2: non-integer token in '0 y'"),
        ],
        ids=["negative", "negative-after-comments", "header", "width", "token"],
    )
    def test_bad_poset_exits_two(self, capsys, monkeypatch, text, message):
        code, out, err = run_cli(
            capsys, ["poset", "max-chain", "-"], stdin=text, monkeypatch=monkeypatch
        )
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


class TestFileErrors:
    """A file that cannot be read or written is bad input: one line, exit 2."""

    def assert_one_line(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_missing_input(self, capsys, tmp_path):
        self.assert_one_line(capsys, ["oracle", "find", str(tmp_path / "missing.txt")])

    def test_directory_as_input(self, capsys, tmp_path):
        self.assert_one_line(capsys, ["oracle", "find", str(tmp_path)])

    def test_output_in_a_missing_directory(self, capsys, tmp_path):
        source = tmp_path / "d.txt"
        source.write_text(THREE_CYCLE_TEXT)
        target = tmp_path / "missing" / "x"
        self.assert_one_line(capsys, ["graph", "convert", str(source), "--output", str(target)])

    def test_directory_as_checkpoint(self, capsys, tmp_path):
        self.assert_one_line(
            capsys, ["antihole", "verify-simple", "--n", "5", "--checkpoint", str(tmp_path)]
        )

    def test_unwritable_checkpoint_is_refused_before_any_task(self, capsys, monkeypatch, tmp_path):
        def no_walk(*args, **kwargs):
            raise AssertionError("a task ran")

        monkeypatch.setattr(antiholes, "_walk", no_walk)
        checkpoint = tmp_path / "missing" / "x.json"
        argv = ["antihole", "verify-simple", "--n", "8", "--mode", "general",
                "--checkpoint", str(checkpoint)]
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith(f"error: cannot write checkpoint {checkpoint} (")


class TestGraphConvert:
    def test_text_to_json_roundtrip(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys,
            ["graph", "convert", "-", "--to", "json"],
            stdin=THREE_CYCLE_TEXT,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert json.loads(out)["kind"] == "digraph"
        code, out2, _ = run_cli(
            capsys,
            ["graph", "convert", "-", "--to", "text"],
            stdin=out,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert out2 == THREE_CYCLE_TEXT

    def test_dot_export(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys,
            ["graph", "convert", "-", "--to", "dot"],
            stdin=THREE_CYCLE_TEXT,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert out.startswith("digraph G {")

    def test_parse_error_exit_code(self, capsys, monkeypatch):
        code, _, err = run_cli(
            capsys,
            ["graph", "convert", "-"],
            stdin="digraph 2\n0 5\n",
            monkeypatch=monkeypatch,
        )
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize(
        "kind,field,row",
        [
            ("digraph", "arcs", [0, 1, 7]),
            ("cdigraph", "arcs", [0, 1, "b", 7]),
            ("graph", "edges", [0, 1, 7]),
            ("orientation", "edges", [0, 1, "fwd", 7]),
        ],
    )
    def test_json_row_with_a_trailing_field_exits_two(
        self, capsys, monkeypatch, kind, field, row
    ):
        document = {"kind": kind, "vertex_count": 2, field: [row]}
        code, out, err = run_cli(
            capsys,
            ["graph", "convert", "-", "--to", "text"],
            stdin=json.dumps(document),
            monkeypatch=monkeypatch,
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and f"bad {kind!r} JSON object" in err


    @pytest.mark.parametrize(
        "kind,field,row",
        [
            ("digraph", "arcs", [False, True]),
            ("cdigraph", "arcs", [0, True, "b"]),
            ("graph", "edges", [True, 0]),
            ("orientation", "edges", [False, 1, "fwd"]),
        ],
    )
    def test_json_non_integer_vertex_exits_two(self, capsys, monkeypatch, kind, field, row):
        # JSON true and false used to be read as vertices 1 and 0, and a
        # fractional vertex_count was truncated
        for document in (
            {"kind": kind, "vertex_count": 2, field: [row]},
            {"kind": kind, "vertex_count": 2.9, field: []},
            {"kind": kind, "vertex_count": True, field: []},
        ):
            code, out, err = run_cli(
                capsys,
                ["graph", "convert", "-", "--to", "text"],
                stdin=json.dumps(document),
                monkeypatch=monkeypatch,
            )
            assert code == 2 and out == ""
            assert err.count("\n") == 1 and "not an integer" in err


    @pytest.mark.parametrize(
        "document",
        [
            "orientation 2\n1 0 fwd\n",
            json.dumps({"kind": "orientation", "vertex_count": 2, "edges": [[1, 0, "fwd"]]}),
        ],
    )
    def test_orientation_row_must_ascend(self, capsys, monkeypatch, document):
        # the JSON row used to be flipped to `0 1 fwd` and accepted
        code, out, err = run_cli(
            capsys,
            ["graph", "convert", "-", "--to", "text"],
            stdin=document,
            monkeypatch=monkeypatch,
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert "edge endpoints must satisfy u < v, got (1, 0)" in err


def _refuse_view(self):
    raise AssertionError("a derived view was built on a command's path")


class TestCommandsReadTheMasks:
    """`Digraph.arcs` and `ColoredDigraph.color` are views for API
    callers; the commands below never build them."""

    def test_no_command_builds_a_derived_view(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(Digraph, "arcs", property(_refuse_view))
        monkeypatch.setattr(ColoredDigraph, "color", property(_refuse_view))
        ssw, chain, path = tmp_path / "ssw.json", tmp_path / "chain.txt", tmp_path / "path.txt"
        dag = tmp_path / "dag.txt"
        rng = random.Random(5)
        rows = [f"{u} {v}\n" for u in range(7) for v in range(u + 1, 7) if rng.random() < 0.4]
        dag.write_text("digraph 7\n" + "".join(rows))
        commands = [
            ["redblue", "gen", "ssw", "--n", "40", "--seed", "3", "--format", "json",
             "--output", str(ssw)],
            ["redblue", "gen", "chain", "--n", "8", "--seed", "1", "--output", str(chain)],
            ["redblue", "gen", "path", "--n", "20", "--seed", "2", "--output", str(path)],
            ["redblue", "check", str(ssw)],
            ["redblue", "check", str(path), "--conditions", "path"],
        ] + [
            ["graph", "convert", str(source), "--to", fmt]
            for source in (ssw, chain, dag)
            for fmt in ("json", "text", "dot")
        ]
        for argv in commands:
            assert run_cli(capsys, argv)[0] == 0, argv
        for solve in (
            ["redblue", "solve", str(ssw)],
            ["redblue", "solve", str(chain)],
            ["redblue", "solve-fixpoint", str(path)],
            ["chords", "solve", str(dag)],
        ):
            code, report, _ = run_cli(capsys, solve + ["--format", "json"])
            assert code == 0, solve
            code, out, _ = run_cli(
                capsys,
                ["oracle", "check", solve[2], "--kernel", "-"],
                stdin=report,
                monkeypatch=monkeypatch,
            )
            assert code == 0 and "holds: True" in out, solve


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = fresh_python("-m", "kernelkit", "antihole", "c7")
        assert proc.returncode == 0
        assert proc.stdout.startswith("digraph 7\n")

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run_cli(
            capsys,
            ["antihole", "c7", "--format", "json", "--output", str(target)],
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["kind"] == "digraph"


class TestDeepInputs:
    """Long paths and cycles in a fresh interpreter, so the default
    recursion limit applies whatever the test runner has set."""

    LENGTH = 1_200

    def chords_solve(self, tmp_path, arcs):
        path = tmp_path / "path.txt"
        path.write_text(f"digraph {self.LENGTH}\n" + "".join(f"{u} {v}\n" for u, v in arcs))
        proc = fresh_python(
            "-m", "kernelkit", "chords", "solve", str(path), "--format", "json"
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)["result"]

    def test_chords_solve_on_a_long_path(self, tmp_path):
        n = self.LENGTH
        arcs = [(i, i + 1) for i in range(n - 1)]
        assert self.chords_solve(tmp_path, arcs) == list(range(1, n, 2))

    def test_chords_solve_on_a_long_reversible_path(self, tmp_path):
        # one strong component, so the construction nests a frame per
        # vertex pair: about 600 frames deep
        n = self.LENGTH
        arcs = [arc for i in range(n - 1) for arc in ((i, i + 1), (i + 1, i))]
        assert self.chords_solve(tmp_path, arcs) == list(range(0, n, 2))

    def test_cycle_enumeration_on_a_long_cycle(self):
        script = (
            "import sys\n"
            "from kernelkit import Digraph, enumerate_directed_cycles\n"
            f"n = {self.LENGTH}\n"
            "cycles = enumerate_directed_cycles(Digraph(n, [(i, (i + 1) % n) for i in range(n)]))\n"
            "assert sys.getrecursionlimit() < n\n"
            "assert cycles == [tuple(range(n))], len(cycles)\n"
        )
        proc = fresh_python("-c", script)
        assert proc.returncode == 0, proc.stderr

    # Oracle legs: a lowered recursion limit stands in for the default one
    # at n = 1,200, so each leg stays fast.
    DEEP = 300

    def deep_oracle(self, tmp_path, text, *argv):
        path = tmp_path / "input.txt"
        path.write_text(text)
        script = (
            "import sys\n"
            "sys.setrecursionlimit(200)\n"
            "from kernelkit.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        return fresh_python("-c", script, "oracle", *argv, str(path), "--format", "json")

    def test_oracle_find_on_a_reversed_path(self, tmp_path):
        n = self.DEEP
        text = f"digraph {n}\n" + "".join(f"{i + 1} {i}\n" for i in range(n - 1))
        proc = self.deep_oracle(tmp_path, text, "find", "--cap", "5000")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["witness"] == list(range(0, n, 2))

    def test_oracle_enumerate_on_an_arc_free_digraph(self, tmp_path):
        n = self.DEEP
        proc = self.deep_oracle(tmp_path, f"digraph {n}\n", "enumerate", "--cap", "5000")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"count": 1, "kernels": [list(range(n))]}

    def test_oracle_clique_budget_on_a_transitive_tournament(self, tmp_path):
        n = self.DEEP
        text = f"digraph {n}\n" + "".join(
            f"{u} {v}\n" for u in range(n) for v in range(u + 1, n)
        )
        proc = self.deep_oracle(tmp_path, text, "clique-acyclic", "--clique-budget", "5000")
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
