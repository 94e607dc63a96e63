"""Self-tests of the benchmark's own arithmetic and bookkeeping.

    python3 perfbench/selftest.py

Covers the percentile rule, self time over nested spans, failure
counting, absent wrap targets, and the agreement of BENCHMARK.json with
the metrics the benchmark reports.  Needs the checkout's `src/` and
nothing else; no workload is run.
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 101))
        self.assertEqual(workloads.percentile(samples, 50), 50)
        self.assertEqual(workloads.percentile(samples, 99), 99)
        self.assertEqual(workloads.percentile([7.0], 99), 7.0)

    def test_ten_samples_beyond_p99(self):
        # campaign runs 3,720 ops a pass
        self.assertGreaterEqual(workloads.samples_beyond(3720, 99), 10)
        self.assertEqual(workloads.samples_beyond(1000, 99), 10)
        self.assertLess(workloads.samples_beyond(999, 99), 10)
        # sweeps run a few ops: their p99 is the slowest op
        self.assertEqual(workloads.samples_beyond(4, 99), 0)
        self.assertEqual(workloads.percentile([3.0, 1.0, 2.0, 4.0], 99), 4.0)


def fake_tracer(rows) -> spans.Tracer:
    """rows: (name, start, end, parent, op)."""
    tracer = spans.Tracer()
    for name, start, end, parent, op in rows:
        tracer.name.append(tracer.name_id(name))
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
        tracer.op.append(op)
    return tracer


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # sweep [0, 10] holds exists [1, 3] and exists [4, 8]; the second
        # holds mis [5, 6]
        start = array("d", [0, 1, 4, 5])
        end = array("d", [10, 3, 8, 6])
        parent = array("i", [-1, 0, 0, 2])
        self.assertEqual(spans.self_times(start, end, parent), [4, 2, 3, 1])

    def test_recursion_counted_once(self):
        tracer = fake_tracer([
            ("chords.semi_kernel", 0, 10, -1, 0),
            ("digraph.induced", 1, 2, 0, 0),
            ("chords.semi_kernel", 3, 9, 0, 0),
            ("chords.semi_kernel", 4, 5, 2, 0),
            ("chords.semi_kernel", 20, 21, -1, 1),
        ])
        self.assertEqual(spans.outermost(tracer.name, tracer.parent), [True, True, False, False, True])
        table = spans.summarize(tracer)
        self.assertEqual(table["chords.semi_kernel"], {"calls": 4, "total_s": 11, "self_s": 10})
        self.assertEqual(table["digraph.induced"]["total_s"], 1)
        self.assertEqual(spans.summarize(tracer, skip_ops={1})["chords.semi_kernel"]["total_s"], 10)

    def test_live_spans_nest(self):
        tracer = spans.Tracer()
        with tracer.span("cli.antihole_verify-simple"):
            with tracer.span("antiholes.sweep"):
                pass
        self.assertEqual(list(tracer.parent), [-1, 0])
        self.assertTrue(all(e >= s for s, e in zip(tracer.start, tracer.end)))


class FailureCounting(unittest.TestCase):
    def test_perturbed_count_fails(self):
        runner = workloads.Runner(Path("."))
        report = {"verdict": "solvable", "orientations_examined": workloads.C9_LEAVES}
        runner.op("golden", lambda: workloads.sweep_problems(0, report, 0, "solvable", workloads.C9_LEAVES))
        runner.op("perturbed", lambda: workloads.sweep_problems(0, report, 0, "solvable", workloads.C9_LEAVES + 1))
        runner.op("wrong exit", lambda: workloads.sweep_problems(1, report, 0, "solvable", workloads.C9_LEAVES))
        self.assertEqual((len(runner.latencies), runner.failed), (3, 2))
        self.assertIn("143335", runner.problems[0])

    def test_exception_fails_the_op_not_the_run(self):
        runner = workloads.Runner(Path("."))
        runner.op("raises", lambda: 1 / 0)
        runner.op("exits", lambda: sys.exit(2))
        self.assertEqual(runner.failed, 2)

    def test_failed_cli_call_is_a_failed_op(self):
        with tempfile.TemporaryDirectory() as tmp:
            runner = workloads.Runner(Path(tmp))
            runner.op("bad vertex", lambda: runner.cli("out.json", "antihole", "gen", "--n", "2") and [])
            self.assertEqual(runner.failed, 1)


class AbsentTargets(unittest.TestCase):
    def test_missing_target_is_reported_not_raised(self):
        saved = spans.SPAN_TARGETS[:]
        spans.SPAN_TARGETS.append(("oracle.exists", "kernelkit.oracle", "no_such_function", None))
        tracer = spans.Tracer()
        try:
            tracer.install()
        finally:
            tracer.uninstall()
            spans.SPAN_TARGETS[:] = saved
        self.assertIn("no_such_function", tracer.missing_spans["oracle.exists"])
        runner = workloads.Runner(Path("."))
        metrics, absent, _ = workloads.layer_metrics(tracer, runner, runner, 0.1, 0)
        self.assertIn("oracle.exists_s", absent)
        self.assertIn("oracle.mis_per_exists_call", absent)
        self.assertNotIn("redblue.gen_ssw_s", absent)
        self.assertEqual(metrics["oracle.exists_s"], (0, "s"))

    def test_uninstall_restores_the_package(self):
        import kernelkit.antiholes
        import kernelkit.oracle

        original = kernelkit.oracle.kernel_exists_masks
        tracer = spans.Tracer()
        tracer.install()
        self.assertIsNot(kernelkit.antiholes.kernel_exists_masks, original)
        tracer.uninstall()
        self.assertIs(kernelkit.antiholes.kernel_exists_masks, original)
        self.assertIs(kernelkit.oracle.kernel_exists_masks, original)


class BenchmarkFile(unittest.TestCase):
    def test_metrics_match_what_is_reported(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        reported = {name: unit for name, unit, _, _ in workloads.LAYER_METRICS}
        reported.update({"trace_overhead_ratio": "1", "chords.deep_path_ok": "count"})
        self.assertEqual(per_layer, reported)
        end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        runner = workloads.Runner(Path("."))
        runner.latencies = [0.1, 0.2]
        reported = {name: unit for name, (_, unit) in workloads.end_to_end(runner, [1.0]).items()}
        reported["setup_s"] = "s"
        self.assertEqual(end_to_end, reported)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
