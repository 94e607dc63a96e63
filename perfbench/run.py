"""kernelkit benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is one of sweep-full, sweep-reduced, campaign, scale, or `all`,
which runs the four one after another and prints a table.  Run it from
anywhere inside a checkout of the repository: the package is imported
from the checkout's own `src/`, and everything the run writes stays in
the checkout, under `.perfbench/`.

Each workload runs in a fresh process (`workloads.py`).  Set-up time is
measured from spawning such a process to its first op, over several
spawns, and reported as their median.  The timed run's other times are
scaled to a reference machine speed measured alongside them (see
speed.py).  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
untraced (`--trace 0`), the per-layer metrics traced (`--trace 1`).  The exit code is 0 only when every op passed its
checks.  See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
WORKLOADS = ("sweep-full", "sweep-reduced", "campaign", "scale")
DEFAULT_SEED = 0
SETUP_SPAWNS = 5
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("KERNELKIT_BUDGET", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], env: dict) -> tuple[subprocess.Popen, float]:
    """Start a workload process; returns it with the seconds from spawn to
    its `ready` line."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), *argv],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )
    try:
        line = proc.stdout.readline()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"workload process exited before set-up finished (exit {proc.returncode})")
    return proc, ready


def finish(proc: subprocess.Popen) -> None:
    try:
        proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"workload process ran past {CHILD_TIMEOUT_S} s and was killed") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")


def metadata(seed: int) -> dict:
    commit = "unknown (not a git checkout)"
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.split()
        if Path(top).resolve() == ROOT:
            commit = head
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "commit": commit,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "src_lines": src_lines,
        "seed": seed,
        "default_seed": DEFAULT_SEED,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload in fresh processes; returns the record printed and saved."""
    record = {"workload": workload, "trace": trace, "metadata": metadata(seed)}
    env = child_env()
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(trace)]
    try:
        setups = []
        # set-up is measured, and so repeated, in the timed run only
        for i in range(SETUP_SPAWNS - 1 if trace == 0 else 0):
            probe_tmp = tmp / f"setup-{i}"
            probe_tmp.mkdir()
            proc, ready = spawn([*common, "--tmp", str(probe_tmp), "--setup-only"], env)
            finish(proc)
            setups.append(ready)
        proc, ready = spawn([*common, "--tmp", str(tmp)], env)
        setups.append(ready)
        finish(proc)
        child = json.loads((tmp / "result.json").read_text())
    finally:
        # checkpoints and instance files go with the run
        shutil.rmtree(tmp, ignore_errors=True)
    record["metadata"]["loadavg_end"] = os.getloadavg()
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in child.pop("metrics").items()}
    if trace == 0:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    child["setup_samples_s"] = setups
    record.update(child)
    record["metrics"] = metrics
    return record


def summary_lines(record: dict) -> list[str]:
    lines = [f"{record['workload']} (trace {record['trace']}, seed {record['metadata']['seed']}): "
             f"{record['attempted']} ops, {record['failed']} failed, "
             f"failed_ratio {record['failed'] / record['attempted']:.4g}"]
    for name, metric in sorted(record["metrics"].items()):
        reason = record.get("absent", {}).get(name)
        value = f"absent: {reason}" if reason else f"{metric['value']:.6g} {metric['unit']}"
        lines.append(f"  {name:34} {value}")
    if record["trace"] == 0:
        lines.append(f"  op samples {record['op_samples']}; {record['p99_samples_beyond']} beyond p99"
                     + ("" if record["p99_samples_beyond"] >= 10 else
                        " (fewer than 10: op_p99_ms is the slowest op)"))
    else:
        deep = record["deep_path"]
        lines.append(f"  known defect: chords.deep_path_ok = {deep['chords.deep_path_ok']}"
                     + (f" ({deep['error']})" if deep["error"] else ""))
    lines.extend(f"  FAILED {p}" for p in record["problems"])
    return lines


def result_line(record: dict) -> str:
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    })


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run still kills its workload process and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "kernelkit" / "__init__.py").is_file():
        print(f"error: no kernelkit sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for workload in workloads:
        try:
            record = run_workload(workload, args.seed, args.seconds, args.trace)
        except (RuntimeError, OSError, ValueError) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        records.append(record)
        (WORK / "results").mkdir(parents=True, exist_ok=True)
        name = f"{workload}-trace{args.trace}-seed{args.seed}.json"
        (WORK / "results" / name).write_text(json.dumps(record, indent=1))
        print("\n".join(summary_lines(record)), flush=True)
    print(json.dumps({"metadata": records[0]["metadata"]}))
    if len(records) == 1:
        print(result_line(records[0]))
    else:
        print(json.dumps({r["workload"]: json.loads(result_line(r)) for r in records}))
    return 0 if all(r["failed"] == 0 for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
