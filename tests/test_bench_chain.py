"""`tools/bench_chain.py` chains the change/parent ratios of a run of
BENCH files.  Checked here on the repository's own BENCH files."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_chain.py"


@pytest.fixture
def bench_chain():
    spec = importlib.util.spec_from_file_location("bench_chain", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wall_time_over_bench_31_to_35(bench_chain, capsys):
    # the chained figures ROADMAP's bench trajectory cites
    assert bench_chain.main(["--since", "31", "--until", "35"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    wall = sorted(line.split(" (")[0] for line in out.splitlines() if " wall_s: " in line)
    assert wall == [
        "campaign wall_s: +0.4% over 5 of BENCH_31..35",
        "scale wall_s: -9.7% over 5 of BENCH_31..35",
        "sweep-full wall_s: -49.0% over 5 of BENCH_31..35",
        "sweep-reduced wall_s: -12.2% over 5 of BENCH_31..35",
    ]
    # one line per workload and metric, and the src_lines line
    assert len(out.splitlines()) == 4 * 5 + 1


def test_src_lines_over_bench_31_to_35(bench_chain, capsys):
    assert bench_chain.main(["--since", "31", "--until", "35"]) == 0
    out, _ = capsys.readouterr()
    assert out.splitlines()[-1] == (
        "src_lines: 4563 -> 4609 -> 4668 -> 4653 -> 4680 -> 4536 (-27) over 5 of BENCH_31..35"
    )
    # a missing file is left out: the trajectory starts at BENCH_14's parent
    files = bench_chain.bench_files(bench_chain.ROOT, 13, 15)
    assert bench_chain.src_lines(files) == [4308, 4387, 4409]


def test_skipped_files_are_named(bench_chain):
    files = bench_chain.bench_files(bench_chain.ROOT, 11, 15)
    chained, skipped = bench_chain.chain(files, ["wall_s"])
    assert [note.split(":")[0] for note in skipped] == [
        "BENCH_11.json", "BENCH_12.json", "BENCH_13.json", "BENCH_14.json",
    ]
    assert "BENCH_13.json: no such file" in skipped
    # only BENCH_15 holds per-metric summaries
    assert {used for metrics in chained.values() for _, used in metrics.values()} == {1}


def test_a_zero_parent_median_is_skipped(bench_chain, tmp_path):
    summary = {"setup_s": {"parent_median": 0, "change_median": 1.0}}
    (tmp_path / "BENCH_1.json").write_text(json.dumps({"workloads": {"w": {"summary": summary}}}))
    chained, skipped = bench_chain.chain(bench_chain.bench_files(tmp_path, 1, None), ["setup_s"])
    assert chained == {}
    assert skipped == ["BENCH_1.json: w setup_s has a parent median of 0"]
