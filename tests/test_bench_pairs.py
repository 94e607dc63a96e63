"""`tools/bench_pairs.py` turns alternating benchmark runs into a BENCH
file's `workloads` block.  Its ordering and summary are checked here on
fixed synthetic runs; no benchmark run, and no subprocess, is started."""

import importlib.util
import json
import statistics
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture
def bench_pairs(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the summary must start no subprocess")

    monkeypatch.setattr(subprocess, "run", refuse)
    monkeypatch.setattr(subprocess, "Popen", refuse)
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(wall, rss, failed=0):
    return {"wall_s": wall, "peak_rss_mb": rss, "failed": failed, "attempted": 10,
            "correct": not failed, "exit": int(bool(failed))}


def test_even_pairs_run_the_parent_first(bench_pairs):
    assert bench_pairs.pair_order(4) == [
        ("parent", "change"), ("change", "parent"), ("parent", "change"), ("change", "parent"),
    ]


def test_summary_of_synthetic_runs(bench_pairs):
    runs = {
        "parent": [run(1.0, 30.0), run(1.2, 30.0), run(0.9, 31.0, failed=2), run(1.1, 30.5),
                   run(1.3, 30.0)],
        "change": [run(0.8, 30.0), run(1.3, 30.5), run(0.85, 30.0), run(1.0, 30.5),
                   run(0.95, 30.0)],
    }
    block = bench_pairs.summarize(runs, {"wall_s": 0.24, "peak_rss_mb": 0.1, "op_p50_ms": 0.24})
    assert block["pairs"] == 5
    assert block["failed"] == {"parent": 2, "change": 0}
    assert block["runs"] is runs
    # a metric no run reports has no summary
    assert set(block["summary"]) == {"wall_s", "peak_rss_mb"}
    wall = block["summary"]["wall_s"]
    assert wall["parent_median"] == 1.1
    assert wall["change_median"] == 0.95
    # inclusive quartiles of 0.9, 1.0, 1.1, 1.2, 1.3
    assert wall["parent_q1_q3"] == pytest.approx([1.0, 1.2])
    assert wall["parent_iqr"] == pytest.approx(0.2)
    assert wall["change_q1_q3"] == pytest.approx([0.85, 1.0])
    # lower in pairs 0, 2, 3 and 4; pair 1 read higher
    assert wall["change_lower_in_pairs"] == 4
    assert wall["change_vs_parent"] == pytest.approx(0.95 / 1.1 - 1)
    rss = block["summary"]["peak_rss_mb"]
    # ties count for neither side
    assert rss["change_lower_in_pairs"] == 1
    assert rss["parent_median"] == statistics.median([30.0, 30.0, 31.0, 30.5, 30.0])


@pytest.mark.parametrize(
    "parent_failed, change_failed, want",
    [([0, 0], [0, 1], "worse"), ([0, 2], [1, 1], "within"), ([1, 0], [0, 0], "within")],
    ids=["change-fails-more", "same-share", "change-fails-less"],
)
def test_failed_share_of_each_side(bench_pairs, parent_failed, change_failed, want):
    runs = {
        "parent": [run(1.0, 30.0, failed=f) for f in parent_failed],
        "change": [run(1.0, 30.0, failed=f) for f in change_failed],
    }
    share = bench_pairs.summarize(runs, {"wall_s": 0.24})["failed_share"]
    # each run attempts 10 ops
    assert share == {
        "parent": sum(parent_failed) / 20, "change": sum(change_failed) / 20, "verdict": want
    }


def test_one_pair_has_no_spread(bench_pairs):
    block = bench_pairs.summarize({"parent": [run(2.0, 1.0)], "change": [run(1.5, 1.0)]},
                                  {"wall_s": 0.24})
    wall = block["summary"]["wall_s"]
    assert wall["parent_q1_q3"] == [2.0, 2.0] and wall["parent_iqr"] == 0
    assert wall["change_lower_in_pairs"] == 1


@pytest.mark.parametrize(
    "parent, change, want",
    [
        # the change's median 1.30 exceeds 1.00 by more than 24%
        ([1.0, 1.0, 1.01, 0.99, 1.0], [1.3, 1.3, 1.31, 1.29, 1.3], "worse"),
        # a wide parent still reads worse once the median is past the bound
        ([1.0, 1.5, 2.0, 2.5, 3.0], [2.6, 2.6, 2.6, 2.6, 2.6], "worse"),
        # parent interquartile range 1.0 is 50% of its median 2.0
        ([1.0, 1.5, 2.0, 2.5, 3.0], [1.9, 2.2, 2.1, 1.8, 2.3], "unresolved"),
        # every change run beats every parent run, so the spread settles nothing
        ([1.0, 1.5, 2.0, 2.5, 3.0], [0.5, 0.6, 0.7, 0.8, 0.9], "within"),
        # a change run level with the fastest parent run is no win
        ([1.0, 1.5, 2.0, 2.5, 3.0], [0.5, 0.6, 0.7, 0.8, 1.0], "unresolved"),
        # tight parent, change 10% slower
        ([1.0, 1.0, 1.01, 0.99, 1.0], [1.1, 1.1, 1.1, 1.1, 1.1], "within"),
    ],
    ids=["worse", "worse-despite-spread", "unresolved", "every-run-beats", "tie", "within"],
)
def test_verdict_against_the_bound(bench_pairs, parent, change, want):
    runs = {"parent": [run(w, 30.0) for w in parent], "change": [run(w, 30.0) for w in change]}
    wall = bench_pairs.summarize(runs, {"wall_s": 0.24})["summary"]["wall_s"]
    assert wall["bound"] == 0.24
    assert wall["verdict"] == want


def test_rss_verdict_uses_its_own_bound(bench_pairs):
    # +5% is within peak_rss_mb's 10% bound and +15% is past it
    for rss, want in ((31.5, "within"), (34.5, "worse")):
        runs = {"parent": [run(1.0, 30.0)] * 5, "change": [run(1.0, rss)] * 5}
        summary = bench_pairs.summarize(runs, {"wall_s": 0.24, "peak_rss_mb": 0.1})["summary"]
        assert summary["peak_rss_mb"]["verdict"] == want
        assert summary["wall_s"]["verdict"] == "within"


def test_summary_lines_read_one_metric_each(bench_pairs):
    runs = {
        "parent": [run(1.0, 30.0), run(1.2, 30.0), run(1.1, 30.0)],
        "change": [run(0.8, 30.0), run(1.3, 30.0), run(0.9, 30.0)],
    }
    block = bench_pairs.summarize(runs, {"wall_s": 0.24, "peak_rss_mb": 0.1})
    # a parent median of 0 has no relative change
    zero = bench_pairs.summarize(
        {"parent": [run(0.0, 30.0)], "change": [run(0.5, 30.0)]}, {"wall_s": 0.24}
    )
    assert bench_pairs.summary_lines({"sweep-full": block, "scale": zero}) == [
        "sweep-full wall_s: parent 1.1 change 0.9 (-18.2%), lower in 2/3 pairs, within",
        "sweep-full peak_rss_mb: parent 30 change 30 (+0.0%), lower in 0/3 pairs, within",
        "scale wall_s: parent 0 change 0.5 (n/a), lower in 0/1 pairs, worse",
    ]


def test_unknown_workload_is_refused_before_anything_runs(bench_pairs, capsys):
    # the fixture makes any git call or benchmark run fail the test
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--parent", "HEAD", "--workload", "scale", "--workload", "scael"])
    assert exit_info.value.code == 2
    assert "unknown workload 'scael'" in capsys.readouterr().err


def test_seed_is_passed_on_to_each_run(bench_pairs, monkeypatch):
    argvs = []

    def benchmark(argv, **kwargs):
        argvs.append(argv)
        result = {"metrics": {"wall_s": {"value": 1.0}}, "failed": 0, "attempted": 1,
                  "correct": True}
        return subprocess.CompletedProcess(argv, 0, json.dumps(result) + "\n", "")

    monkeypatch.setattr(subprocess, "run", benchmark)
    assert bench_pairs.run_once(Path("."), "sweep-full", 1)["wall_s"] == 1.0
    bench_pairs.run_once(Path("."), "sweep-full")
    assert argvs[0][1:] == ["perfbench/run.py", "--workload", "sweep-full", "--seed", "1"]
    assert argvs[1][1:] == ["perfbench/run.py", "--workload", "sweep-full"]


def test_line_counts_per_file_and_in_total(bench_pairs, monkeypatch, tmp_path):
    sources = {
        "parent": {"a.py": "x = 1\ny = 2\nz = 3\n", "b.py": "pass\n"},
        "change": {"a.py": "x = 1\n", "b.py": "pass\n", "c.py": "\n\n"},
    }

    def fill(side, dest):
        package = dest / "src" / "kernelkit"
        package.mkdir(parents=True)
        for name, text in sources[side].items():
            (package / name).write_text(text)
        # only the package's Python files count
        (package / "notes.txt").write_text("one\ntwo\n")

    def extract(rev, dest):
        fill("parent", dest)
        return "0" * 40

    monkeypatch.setattr(bench_pairs, "extract", extract)
    monkeypatch.setattr(bench_pairs, "snapshot", lambda dest: fill("change", dest))
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: run(1.0, 30.0))
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", "HEAD", "--workload", "scale", "--pairs", "1",
                             "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["src_lines_by_file"] == {
        "parent": {"a.py": 3, "b.py": 1}, "change": {"a.py": 1, "b.py": 1, "c.py": 2},
    }
    assert report["src_lines"] == {"parent": 4, "change": 4}
