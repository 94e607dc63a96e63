import hashlib
import io as std_io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kernelkit import gen_antihole
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


def fresh_python(*argv):
    """Run a fresh interpreter with this checkout's `src/` on its path."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=300
    )


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
            (["chords", "solve", "GRAPH", "--max-len", "-1"], "--max-len"),
            (["oracle", "find", "GRAPH", "--cap", "-1"], "--cap"),
            (["oracle", "enumerate", "GRAPH", "--cap", "-1"], "--cap"),
            (["oracle", "clique-acyclic", "GRAPH", "--clique-budget", "-1"], "--clique-budget"),
            (["antihole", "verify-simple", "--n", "5", "--jobs", "-3"], "--jobs"),
            (["antihole", "verify-simple", "--n", "5", "--jobs", "0"], "--jobs"),
            (["redblue", "gen", "ssw", "--n", "5", "--density", "nan"], "--density"),
            (["redblue", "gen", "path", "--n", "5", "--density", "-0.1"], "--density"),
            (["redblue", "gen", "chain", "--n", "5", "--density", "1.5"], "--density"),
        ],
        ids=[
            "gen-chain-budget", "solve-fixpoint-budget", "verify-budget",
            "search-budget", "chords-budget", "chords-check-max-len",
            "chords-solve-max-len", "find-cap", "enumerate-cap", "clique-budget",
            "jobs-negative", "jobs-zero", "density-nan", "density-negative",
            "density-above-one",
        ],
    )
    def test_exits_two_with_one_line(self, capsys, tmp_path, argv, flag):
        (tmp_path / "g.txt").write_text(THREE_CYCLE_TEXT)
        (tmp_path / "c.txt").write_text(THREE_VERTEX_CD)
        files = {"GRAPH": str(tmp_path / "g.txt"), "CD": str(tmp_path / "c.txt")}
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


class TestChordsCommands:
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

    def test_budget_exit_code(self, capsys, monkeypatch):
        code, _, err = run_cli(
            capsys,
            ["chords", "check", "-", "--budget", "1"],
            stdin=THREE_CYCLE_TEXT,
            monkeypatch=monkeypatch,
        )
        assert code == 3

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

    def test_negative_prefix_depth_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, ["antihole", "verify-simple", "--n", "5", "--prefix-depth", "-3"]
        )
        assert code == 2
        assert err.count("\n") == 1 and "prefix depth" in err

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

    def test_fixed_product_checkpoint_exits_two(self, capsys, tmp_path):
        # a checkpoint of the fixed-product task scheme, whose task cursor
        # pointed into all 2**depth prefixes, must not resume a live-prefix run
        g, _ = gen_antihole(9)
        payload = repr((9, tuple(g.sorted_edges()), "simple", True, 6)).encode()
        checkpoint = tmp_path / "run.json"
        checkpoint.write_text(json.dumps({
            "signature": hashlib.sha256(payload).hexdigest()[:16],
            "prefix_depth": 6,
            "next_task": 1,
            "examined": 7697,
            "elapsed_seconds": 1.0,
            "counterexample": None,
        }))
        code, out, err = run_cli(capsys, [
            "antihole", "verify-simple", "--n", "9", "--symmetry",
            "--prefix-depth", "6", "--checkpoint", str(checkpoint),
        ])
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "belongs to a different run" in err

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

    def test_chords_solve_on_a_long_path(self, tmp_path):
        n = self.LENGTH
        path = tmp_path / "path.txt"
        path.write_text(f"digraph {n}\n" + "".join(f"{i} {i + 1}\n" for i in range(n - 1)))
        proc = fresh_python(
            "-m", "kernelkit", "chords", "solve", str(path), "--format", "json"
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["result"] == list(range(1, n, 2))

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
