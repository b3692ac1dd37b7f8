"""Fast self-test of the benchmark harness at a tiny size.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_harness.py

Covers the tracer's wrapping of functions imported by name, the metric names
and units against BENCHMARK.json, failure counting, and the output checks.
"""

import collections
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

import hkbnet
from hkbnet import cli, dynamics, metrics, runner
from hkbnet.dynamics import NoCoupling, OscillatorParams
from hkbnet.graph import complete_graph

import run
import workloads
from tracer import Tracer
from worker import _coverage_failures, measure

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _names_and_units(entries):
    return {entry["name"]: entry["unit"] for entry in entries}


class TracerTest(unittest.TestCase):
    def test_wraps_every_by_name_import_and_restores_it(self):
        original = dynamics.integrate
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(runner.integrate, original)
            self.assertIs(runner.integrate, dynamics.integrate)
            self.assertIs(hkbnet.integrate, dynamics.integrate)
            self.assertIs(metrics.phases_from_trajectory, hkbnet.phase.phases_from_trajectory)
            with tempfile.TemporaryDirectory() as tmp:
                argv = ["run", "rocking6-fsc", "--out-dir", tmp, "--duration", "0.5"]
                self.assertEqual(cli.main(argv), 0)
        finally:
            tracer.uninstall()
        self.assertIs(runner.integrate, original)
        self.assertIs(hkbnet.integrate, original)

        stats = tracer.stats
        for name in ("cli.main", "dynamics.integrate", "runner.write_outputs", "runner.bounds_rows"):
            self.assertEqual(stats[name].calls, 1, name)
        self.assertEqual(tracer.counters["dynamics.integrate.steps"], 50)
        # six nodes, 51 samples padded to 64
        self.assertEqual(tracer.counters["phase.phases_from_trajectory.fft_points"], 6 * 64)
        (main_span,) = [span for span in tracer.spans if span[3] == "cli.main"]
        children = [span for span in tracer.spans if span[1] == main_span[0]]
        self.assertIn("dynamics.integrate", [span[3] for span in children])
        child_s = sum(span[5] - span[4] for span in children)
        self.assertAlmostEqual(stats["cli.main"].self_s, main_span[5] - main_span[4] - child_s, places=12)
        self.assertAlmostEqual(tracer.top_level_s, stats["cli.main"].total_s, places=12)

    def test_counts_divergence_and_reraises(self):
        unstable = OscillatorParams(0.0, 0.0, 6.0, 0.1)
        tracer = Tracer()
        tracer.install()
        try:
            with self.assertRaises(dynamics.DivergenceError):
                runner.integrate(
                    [unstable, unstable], complete_graph(2), NoCoupling(), [[0.1, 0.0], [0.1, 0.0]], 10.0, 0.01
                )
        finally:
            tracer.uninstall()
        self.assertEqual(tracer.stats["dynamics.integrate"].errors["DivergenceError"], 1)

    def test_coverage_check_names_a_layer_that_was_not_seen(self):
        tracer = Tracer()
        expected = {"dynamics.integrate": workloads.exactly(3), "graph.spectrum": workloads.at_least(0)}
        self.assertEqual(len(_coverage_failures(tracer, expected)), 1)
        tracer.stats["dynamics.integrate"].calls = 3
        self.assertEqual(_coverage_failures(tracer, expected), [])


class MetricNamingTest(unittest.TestCase):
    def test_end_to_end_names_and_units_match_benchmark_json(self):
        samples = [("a", 1.0, False), ("a", 0.5, False), ("b", 1.5, False)]
        measured = {"samples": samples, "units_per_item": 4, "peak_rss_mib": 40.0}
        got = run.end_to_end_metrics(measured, [0.2, 0.3])
        self.assertEqual({k: unit for k, (_, unit) in got.items()}, _names_and_units(BENCHMARK["end_to_end"]))
        self.assertEqual(got["job_s_p50"][0], 1.0)  # median of the fastest runs of a and b
        self.assertEqual(got["items_per_s"][0], 4.0)

    def test_per_layer_names_and_units_match_benchmark_json(self):
        samples = [("a", 1.0, False), ("a", 1.1, True), ("b", 1.0, True), ("b", 0.9, False)]
        traced = {"samples": samples, "spans": {}, "counters": {}, "check_counters": {}, "top_level_s": 1.5}
        got = run.per_layer_metrics(traced)
        self.assertEqual({k: unit for k, (_, unit) in got.items()}, _names_and_units(BENCHMARK["per_layer"]))
        self.assertAlmostEqual(got["trace.unattributed_frac"][0], 0.6 / 2.1)
        self.assertAlmostEqual(got["trace.overhead_frac"][0], 2.1 / 1.9 - 1.0)

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        self.assertEqual(run.tail_percentile([3.0, 1.0, 2.0]), (100.0, 3.0))
        pct, value = run.tail_percentile([float(v) for v in range(100)])
        self.assertEqual((pct, value), (90.0, 89.0))


class FailureCountingTest(unittest.TestCase):
    def test_raised_and_rejected_items_count_as_failed(self):
        def boom():
            raise ValueError("boom")

        class Fake:
            min_rounds = 1
            counters = collections.Counter()

            def round(self):
                return [
                    workloads.Item("ok", lambda: 1, lambda r: []),
                    workloads.Item("raises", boom, lambda r: []),
                    workloads.Item("wrong", lambda: 2, lambda r: [f"value {r}"]),
                ]

        samples, failed, failures = measure(Fake(), seconds=0.0)
        self.assertEqual((len(samples), failed), (3, 2))
        self.assertIn("raises: raised", failures[0])
        self.assertEqual(failures[1], "value 2")

        samples, failed, _ = measure(Fake(), seconds=0.0, tracer=Tracer())
        self.assertEqual([label for label, _, _ in samples], ["ok", "ok", "raises", "raises", "wrong", "wrong"])
        self.assertEqual([traced for _, _, traced in samples], [False, True, True, False, False, True])
        self.assertEqual(failed, 4)

    def test_sweep_check_rejects_rho_outside_unit_interval_and_missing_cells(self):
        freqs, amps = (0.2, 0.5), (0.1,)
        header = "param1,param2,rho_g_mean,rho_g_std,rho_E\n"
        good = header + "0.2,0.1,0.9,0.05,0.4\n0.5,0.1,0.95,0.02,0.7\n"
        self.assertEqual(workloads.check_sweep_csv(good.encode(), freqs, amps), [])
        bad = header + "0.2,0.1,1.2,0.05,0.4\n0.5,0.1,,,\n"
        self.assertEqual(len(workloads.check_sweep_csv(bad.encode(), freqs, amps)), 4)
        short = header + "0.2,0.1,0.9,0.05,0.4\n"
        self.assertEqual(len(workloads.check_sweep_csv(short.encode(), freqs, amps)), 1)

    def test_certificate_check_uses_the_numpy_reference(self):
        (case, *_) = workloads.survey_cases(seed=3)
        rows = runner.bounds_rows(case.config, case.pilot)
        self.assertEqual(workloads.check_certificate(case, rows), [])
        lam2 = dict(rows)["lambda2"]
        self.assertAlmostEqual(lam2, workloads.reference_lambda2(case.config.topology.weights), places=12)
        shifted = [(k, v * (1 + 1e-6) if k == "lambda2" else v) for k, v in rows]
        self.assertEqual(len(workloads.check_certificate(case, shifted)), 1)

    def test_value_comparison_uses_the_stated_tolerance(self):
        reference = {"bounds": {"c_bar": 2.0}, "sync_report": {"rho_g_mean:": 0.5}}
        near = {"bounds": {"c_bar": 2.0 * (1 + 1e-8)}, "sync_report": {"rho_g_mean:": 0.5}}
        far = {"bounds": {"c_bar": 2.001}, "sync_report": {}}
        self.assertEqual(workloads.compare_values("p", near, reference), [])
        self.assertEqual(len(workloads.compare_values("p", far, reference)), 2)

    def test_seed_picks_the_grid_but_not_its_size(self):
        a, b = workloads.sweep_grid(1), workloads.sweep_grid(2)
        self.assertNotEqual(a, b)
        self.assertEqual([len(v) for v in a], [len(v) for v in b])
        self.assertEqual(a, workloads.sweep_grid(1))
        for freq in a[0] + b[0]:
            self.assertTrue(0.1 <= freq <= 0.9)
        sizes = [c.config.topology.n for c in workloads.survey_cases(seed=4)]
        self.assertEqual(sizes, [c.config.topology.n for c in workloads.survey_cases(seed=5)])
        self.assertTrue(np.all(np.diff(sizes[:20]) == 1))


class EntryPointTest(unittest.TestCase):
    def test_refuses_a_directory_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "cert_survey",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
