"""hkbnet benchmark: times the run, sweep and certificate jobs and checks their outputs.

    python3 perfbench/run.py --workload {run_presets,sweep_entrain,cert_survey}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; hkbnet is imported from ./src.  Every
pass runs in a fresh child process (perfbench/worker.py), one at a time,
with BLAS and OpenMP capped at one thread.  Outputs go to a temporary
directory under ./.perfbench-work that is removed afterwards; the raw spans
of a traced pass are kept there as spans_<workload>_seed<N>.jsonl.

--trace 0 reports the end-to-end metrics.  --trace 1 reports the per-layer
metrics of a pass in which every item runs twice back to back, untraced and
traced, so the tracing overhead is measured under the same machine load.
An item's time is the fastest of its executions in the pass, because other
tenants of a shared host slow single executions in bursts.
Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("run_presets", "sweep_entrain", "cert_survey")
# Set-up is timed in this many fresh processes besides the measured one.
SETUP_PROBES = 6
# Every child must finish within this many seconds of the benchmark's start.
TIME_LIMIT_S = 170.0
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def tail_percentile(values) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least ten samples beyond it.

    Nearest rank on the sorted samples: the value with exactly ten larger
    samples sits at percentile 100 * (n - 10) / n.  Below 20 samples that
    percentile would not exceed the median, so the maximum is reported.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def best_times(samples, traced: bool = False) -> dict[str, float]:
    """Fastest execution of each distinct item among the (un)traced samples."""
    best: dict[str, float] = {}
    for label, seconds, was_traced in samples:
        if was_traced == traced:
            best[label] = min(seconds, best.get(label, math.inf))
    return best


def end_to_end_metrics(measured: dict, setup_samples: list[float]) -> dict[str, tuple[float, str]]:
    best = list(best_times(measured["samples"]).values())
    _, tail = tail_percentile(best)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "job_s_p50": (statistics.median(best), "s"),
        "job_s_tail": (tail, "s"),
        "items_per_s": (len(best) * measured["units_per_item"] / math.fsum(best), "items/s"),
        "peak_rss_mib": (measured["peak_rss_mib"], "MiB"),
    }


def per_layer_metrics(traced: dict) -> dict[str, tuple[float, str]]:
    """Per-execution layer times and counts of the traced samples, plus trace quality."""
    traced_s = [seconds for _, seconds, was_traced in traced["samples"] if was_traced]
    items = len(traced_s)
    spans = traced["spans"]
    counters = traced["counters"]

    def span(name, key="total_s"):
        return spans.get(name, {}).get(key, 0) / items

    def count(name):
        return counters.get(name, 0) / items

    def checked(name):  # counted by the output check on every execution
        return traced["check_counters"].get(name, 0) / len(traced["samples"])

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    integrate_s = span("dynamics.integrate")
    write_s = span("runner.write_outputs")
    best_traced = best_times(traced["samples"], traced=True)
    best_plain = best_times(traced["samples"])
    traced_job = math.fsum(traced_s)
    return {
        "dynamics.integrate.s": (integrate_s, "s/item"),
        "dynamics.integrate.calls": (span("dynamics.integrate", "calls"), "calls/item"),
        "dynamics.integrate.steps": (count("dynamics.integrate.steps"), "steps/item"),
        "dynamics.integrate.steps_per_s": (rate(count("dynamics.integrate.steps"), integrate_s), "steps/s"),
        "dynamics.integrate.diverged": (
            spans.get("dynamics.integrate", {}).get("errors", {}).get("DivergenceError", 0) / items,
            "calls/item",
        ),
        "runner.write_outputs.s": (write_s, "s/item"),
        "runner.write_outputs.bytes": (checked("runner.write_outputs.bytes"), "B/item"),
        "runner.write_outputs.rows": (checked("runner.write_outputs.rows"), "rows/item"),
        "runner.write_outputs.mib_per_s": (
            rate(checked("runner.write_outputs.bytes") / 2**20, write_s),
            "MiB/s",
        ),
        "runner.write_outputs.digest_changes": (checked("runner.write_outputs.digest_changes"), "files/item"),
        "phase.phases_from_trajectory.s": (span("phase.phases_from_trajectory"), "s/item"),
        "phase.phases_from_trajectory.calls": (span("phase.phases_from_trajectory", "calls"), "calls/item"),
        "phase.phases_from_trajectory.fft_points": (
            count("phase.phases_from_trajectory.fft_points"),
            "points/item",
        ),
        "metrics.compute_sync_report.self_s": (span("metrics.compute_sync_report", "self_s"), "s/item"),
        "metrics.compute_sync_report.calls": (span("metrics.compute_sync_report", "calls"), "calls/item"),
        "metrics.indeterminate_samples": (count("metrics.indeterminate_samples"), "samples/item"),
        "graph.spectrum.s": (span("graph.spectrum"), "s/item"),
        "graph.spectrum.calls": (span("graph.spectrum", "calls"), "calls/item"),
        "bounds.quad_certificate.self_s": (span("bounds.quad_certificate", "self_s"), "s/item"),
        "bounds.contraction_window.s": (span("bounds.contraction_window"), "s/item"),
        "runner.bounds_rows.self_s": (span("runner.bounds_rows", "self_s"), "s/item"),
        "cli.main.self_s": (span("cli.main", "self_s"), "s/item"),
        "runner.load_config.s": (span("runner.load_config"), "s/item"),
        "runner.run_sweep.self_s": (span("runner.run_sweep", "self_s"), "s/item"),
        "runner.sweep.emit_s": (span("runner.sweep", "self_s"), "s/item"),
        "trace.overhead_frac": (
            math.fsum(best_traced.values()) / math.fsum(best_plain[k] for k in best_traced) - 1.0,
            "frac",
        ),
        "trace.unattributed_frac": ((traced_job - traced["top_level_s"]) / traced_job, "frac"),
    }


class Harness:
    """Spawns the worker processes of one benchmark invocation."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.workdir = root / ".perfbench-work"
        self.workdir.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=self.workdir))
        self.env = {**os.environ, **CHILD_ENV, "PYTHONPATH": str(root / "src")}
        self.children = 0

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def child(self, *extra: str) -> dict:
        self.children += 1
        result = self.tmp / f"child{self.children}.json"
        cmd = [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--out", str(self.tmp / f"out{self.children}"),
            "--result", str(result),
            *extra,
        ]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise RuntimeError("time limit reached before a child could start")
        proc = subprocess.run(cmd, env=self.env, cwd=self.root, stdout=subprocess.DEVNULL, timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with status {proc.returncode}")
        summary = json.loads(result.read_text(encoding="utf-8"))
        src = (self.root / "src").resolve()
        if not Path(summary["hkbnet"]).resolve().is_relative_to(src):
            raise RuntimeError(f"hkbnet was imported from {summary['hkbnet']}, not from {src}")
        return summary

    def keep_spans(self, summary: dict) -> Path:
        kept = self.workdir / f"spans_{self.workload}_seed{self.seed}.jsonl"
        shutil.move(summary["span_file"], kept)
        return kept


def _print_end_to_end(metrics: dict, measured: dict, setup_samples: list[float]) -> None:
    best = best_times(measured["samples"])
    n = len(best)
    runs = len(measured["samples"])
    pct, _ = tail_percentile(best.values())
    notes = {
        "setup_s": f"median of {len(setup_samples)} set-ups in fresh processes",
        "job_s_p50": f"median over {n} distinct items of each one's fastest execution ({runs} in all)",
        "job_s_tail": f"p{pct:.4g} of the same {n} items, {10 if pct < 100 else 0} beyond",
        "items_per_s": f"{measured['noun']} per second, from the same fastest times",
        "peak_rss_mib": "ru_maxrss of the measured process",
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:<14} {value:12.6g} {unit:<8} {notes[name]}")
    failed_frac = measured["failed"] / measured["attempted"]
    print(f"{'failed_frac':<14} {failed_frac:12.6g} {'frac':<8} {measured['failed']} of {runs} executions failed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hkbnet benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hkbnet" / "__init__.py").is_file():
        print(f"error: {root} holds no hkbnet source tree (src/hkbnet)", file=sys.stderr)
        return 2

    harness = Harness(root, args.workload, args.seed)
    try:
        print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        if args.trace:
            measured = harness.child("--seconds", str(args.seconds), "--trace", "1")
            metrics = per_layer_metrics(measured)
            problems = measured["coverage_failures"] + measured["failures"]
        else:
            setup_samples = [harness.child("--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
            measured = harness.child("--seconds", str(args.seconds))
            setup_samples.append(measured["setup_s"])
            metrics = end_to_end_metrics(measured, setup_samples)
            problems = measured["failures"]
        print(f"# env: {json.dumps(measured['env'])}")
        if args.trace:
            print(f"# spans: {harness.keep_spans(measured).relative_to(root)}")
            for name, (value, unit) in metrics.items():
                print(f"{name:<40} {value:14.6g} {unit}")
        else:
            _print_end_to_end(metrics, measured, setup_samples)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        harness.close()

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
