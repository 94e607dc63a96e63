"""Chained change/parent ratios over a run of BENCH files.

    python3 tools/bench_chain.py --since N [--until M]

Reads `BENCH_N.json` to `BENCH_M.json` at the repository root (M defaults
to the highest number present) and prints, for each workload and each
end-to-end metric that `BENCHMARK.json` names, the product of the files'
change/parent median ratios as a relative change.  Each file compares one
change with its parent, so the product is the drift over the whole run of
changes: a run of small slowdowns, each within its bound, shows here.
A file that is missing, unreadable or written before the per-metric
`summary` blocks (from `tools/bench_pairs.py`) is named on standard error
and skipped, and so is a metric whose parent median is 0.  Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent


def bench_files(root: Path, since: int, until: Optional[int]) -> dict[int, Path]:
    """The BENCH files numbered `since` to `until` (inclusive) in `root`."""
    numbered = {
        int(match.group(1)): path
        for path in root.glob("BENCH_*.json")
        if (match := re.fullmatch(r"BENCH_(\d+)\.json", path.name))
    }
    last = max(numbered, default=since) if until is None else until
    return {k: numbered.get(k, root / f"BENCH_{k}.json") for k in range(since, last + 1)}


def chain(files: dict[int, Path], metrics: list[str]) -> tuple[dict, list[str]]:
    """({workload: {metric: (ratio product, files used)}}, skip notes)."""
    chained: dict[str, dict[str, tuple[float, int]]] = {}
    skipped = []
    for path in files.values():
        try:
            medians = {
                (workload, metric): (summary[metric]["parent_median"],
                                     summary[metric]["change_median"])
                for workload, block in json.loads(path.read_text())["workloads"].items()
                for summary in [block["summary"]]
                for metric in metrics
                if metric in summary
            }
        except FileNotFoundError:
            skipped.append(f"{path.name}: no such file")
            continue
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            skipped.append(f"{path.name}: no per-metric summary ({type(exc).__name__}: {exc})")
            continue
        for (workload, metric), (before, after) in medians.items():
            if not before:
                skipped.append(f"{path.name}: {workload} {metric} has a parent median of 0")
                continue
            ratio, used = chained.setdefault(workload, {}).get(metric, (1.0, 0))
            chained[workload][metric] = (ratio * after / before, used + 1)
    return chained, skipped


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--since", type=int, required=True, help="first BENCH file number")
    parser.add_argument("--until", type=int, help="last BENCH file number (default: the highest)")
    args = parser.parse_args(argv)
    files = bench_files(ROOT, args.since, args.until)
    if not files:
        parser.error(f"no BENCH file numbered from {args.since}")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    chained, skipped = chain(files, [m["name"] for m in benchmark["end_to_end"]])
    for note in skipped:
        print(f"skipped {note}", file=sys.stderr)
    first, last = min(files), max(files)
    for workload, metrics in chained.items():
        for metric, (ratio, used) in metrics.items():
            print(f"{workload} {metric}: {ratio - 1:+.1%} over {used} of "
                  f"BENCH_{first}..{last} ({ratio:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
