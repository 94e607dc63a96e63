"""Alternating parent/change pairs of the benchmark, summarised as a
BENCH file's `workloads` block.

    python3 tools/bench_pairs.py --parent REV --workload W [--workload W ...]
        [--pairs K] [--seed N] [--out FILE]

Extracts a `git archive` of REV (the parent) and a copy of the working
tree (the change: the files git tracks or would track) into two sibling
temporary directories, and runs `python3 perfbench/run.py --workload W`
K times in each, one after the other, with `--seed N` passed on when
given; each W must be a workload that `BENCHMARK.json` lists.  Both sides run from the same kind
of place, since where a checkout lies moves `peak_rss_mb` (by about
0.5 MiB between two directories of one 2-vCPU Linux VM).  Even pairs (from 0) run the parent first, odd pairs
the change first, so a drift in the machine's speed weighs on both sides
alike.  Each run's last line of
standard output is the benchmark's JSON result; the end-to-end metrics
are the ones `BENCHMARK.json` names.

The JSON written to FILE (standard output by default) holds the parent
commit, the command, both sides' `src/kernelkit/*.py` line counts, in
total (`src_lines`) and per file (`src_lines_by_file`), and, per
workload, the number of pairs, the failed ops of each side, each side's
failed share (failed / attempted ops) with a verdict, `worse` when the
change's share is higher and `within` otherwise, the raw runs and per
metric each side's median and quartiles, the parent's
interquartile range, the number of pairs in which the change read lower,
the metric's `BENCHMARK.json` bound and a verdict: `worse`, `unresolved`
or `within` (see `verdict`).  Standard error ends with one line per
workload and metric, and one more per workload where an op failed (see
`summary_lines`), so a paired run reads without a script.  The tool only
reads `perfbench/`; each run writes its records under its own checkout's
`.perfbench/`.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent


def pair_order(pairs: int) -> list[tuple[str, str]]:
    """The sides of each pair in the order they run."""
    return [("parent", "change") if k % 2 == 0 else ("change", "parent") for k in range(pairs)]


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def verdict(pairs: list[tuple[float, float]], before: float, after: float,
            iqr: float, bound: float) -> str:
    """`worse` when the change's median exceeds the parent's by more than
    `bound` (relative); else `unresolved` when the parent's interquartile
    range exceeds `bound` of its median, unless every change run beats
    every parent run; else `within`."""
    if after > before * (1 + bound):
        return "worse"
    if iqr > bound * before and max(c for _, c in pairs) >= min(p for p, _ in pairs):
        return "unresolved"
    return "within"


def failed_share(runs: list[dict]) -> float:
    """Failed ops over attempted ops across `runs`."""
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def summarize(runs: dict[str, list[dict]], bounds: dict[str, float]) -> dict:
    """One workload's block from its runs per side, listed pair by pair;
    `bounds` maps each metric, one where lower reads better, to its
    relative bound."""
    parent, change = runs["parent"], runs["change"]
    summary = {}
    for name, bound in bounds.items():
        pairs = [(p[name], c[name]) for p, c in zip(parent, change) if name in p and name in c]
        if not pairs:
            continue
        before = statistics.median(p for p, _ in pairs)
        after = statistics.median(c for _, c in pairs)
        parent_q = quartiles([p for p, _ in pairs])
        iqr = parent_q[1] - parent_q[0]
        summary[name] = {
            "parent_median": before,
            "change_median": after,
            "parent_iqr": iqr,
            "parent_q1_q3": parent_q,
            "change_q1_q3": quartiles([c for _, c in pairs]),
            "change_lower_in_pairs": sum(c < p for p, c in pairs),
            "change_vs_parent": after / before - 1 if before else None,
            "bound": bound,
            "verdict": verdict(pairs, before, after, iqr, bound),
        }
    share = {side: failed_share(runs[side]) for side in runs}
    share["verdict"] = "worse" if share["change"] > share["parent"] else "within"
    return {
        "pairs": min(len(parent), len(change)),
        "failed": {side: sum(run["failed"] for run in runs[side]) for side in runs},
        "failed_share": share,
        "summary": summary,
        "runs": runs,
    }


def summary_lines(workloads: dict) -> list[str]:
    """One line per workload and summarised metric: both medians, the
    relative change, the pairs in which the change read lower and the
    verdict; and, for a workload with a failed op on either side, one
    more with each side's failed ops and share and the share's verdict."""
    lines = []
    for workload, block in workloads.items():
        for name, metric in block["summary"].items():
            change = metric["change_vs_parent"]
            lines.append(
                f"{workload} {name}: parent {metric['parent_median']:.4g} "
                f"change {metric['change_median']:.4g} "
                f"({'n/a' if change is None else f'{change:+.1%}'}), "
                f"lower in {metric['change_lower_in_pairs']}/{block['pairs']} pairs, "
                f"{metric['verdict']}"
            )
        failed, share = block["failed"], block["failed_share"]
        if any(failed.values()):
            lines.append(
                f"{workload} failed ops: parent {failed['parent']} ({share['parent']:.2%}) "
                f"change {failed['change']} ({share['change']:.2%}), {share['verdict']}"
            )
    return lines


def src_lines_by_file(checkout: Path) -> dict[str, int]:
    """The line count of each `src/kernelkit/*.py` file, by file name."""
    return {
        path.name: len(path.read_text().splitlines())
        for path in sorted((checkout / "src" / "kernelkit").glob("*.py"))
    }


def run_once(checkout: Path, workload: str, seed: Optional[int] = None) -> dict:
    """One untraced benchmark run in `checkout`, with the benchmark's
    default seed unless `seed` is given: its end-to-end metrics, op
    counts and exit code."""
    seeded = [] if seed is None else ["--seed", str(seed)]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, *seeded],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RuntimeError(
            f"{workload} in {checkout} printed no result (exit {proc.returncode}): "
            f"{proc.stderr.strip()[-500:]}"
        ) from None
    record = {name: metric["value"] for name, metric in result["metrics"].items()}
    record.update(
        failed=result["failed"], attempted=result["attempted"],
        correct=result["correct"], exit=proc.returncode,
    )
    return record


def extract(rev: str, dest: Path) -> str:
    """Extract the tree of `rev` into `dest`; returns its commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        # the archive is this repository's own commit
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return commit


def snapshot(dest: Path) -> None:
    """Copy the working tree's files that git tracks or would track into
    `dest`."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout.decode()
    for name in filter(None, listed.split("\0")):
        # a tracked file deleted in the working tree is still listed
        if (ROOT / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, help="seed for every run (default: the benchmark's)")
    parser.add_argument("--out", help="JSON file to write (default: standard output)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [w["name"] for w in benchmark["workloads"]]
    unknown = [w for w in args.workload if w not in listed]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; BENCHMARK.json lists {', '.join(listed)}")
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        checkouts = {"parent": Path(scratch) / "parent", "change": Path(scratch) / "change"}
        commit = extract(args.parent, checkouts["parent"])
        snapshot(checkouts["change"])
        workloads = {}
        for workload in args.workload:
            runs = {"parent": [], "change": []}
            for k, order in enumerate(pair_order(args.pairs)):
                for side in order:
                    runs[side].append(run_once(checkouts[side], workload, args.seed))
                walls = [runs[side][-1].get("wall_s") for side in ("parent", "change")]
                print(f"{workload} pair {k + 1}/{args.pairs}: wall_s parent {walls[0]} "
                      f"change {walls[1]}", file=sys.stderr, flush=True)
            workloads[workload] = summarize(runs, bounds)
        by_file = {side: src_lines_by_file(checkout) for side, checkout in checkouts.items()}
    seeded = "" if args.seed is None else f" --seed {args.seed}"
    report = {
        "parent_commit": commit,
        "command": f"python3 perfbench/run.py --workload W{seeded}, the parent from a git "
                   "archive of its commit and the change from a copy of the working tree, in "
                   "sibling temporary directories",
        "order": "alternating pairs: even pairs (from 0) run the parent first, odd pairs the "
                 "change first; workloads one after another",
        "quartiles": "statistics.quantiles(n=4, method='inclusive') over each side's runs",
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version()},
        "src_lines": {side: sum(counts.values()) for side, counts in by_file.items()},
        "src_lines_by_file": by_file,
        "workloads": workloads,
    }
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    for line in summary_lines(workloads):
        print(line, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
