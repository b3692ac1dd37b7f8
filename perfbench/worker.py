"""One measured pass of one workload, run as a fresh child process by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR --result FILE
                                [--seconds S] [--trace 0|1] [--setup-only]

The set-up (importing hkbnet, building the inputs, writing the config and one
warm-up call) is timed from before the first import.  The pass then runs
whole rounds of items for about --seconds, times every execution, checks
every output after its timer stops, and writes a JSON summary to --result.
With --trace 1 each item also runs with the layer functions wrapped by the
span tracer.
"""

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _coverage_failures(tracer, expected: dict) -> list[str]:
    failures = []
    for name, (low, high) in expected.items():
        calls = tracer.stats[name].calls if name in tracer.stats else 0
        if calls < low or (high is not None and calls > high):
            want = f"{low}" if low == high else f"{low}..{'' if high is None else high}"
            failures.append(f"trace: {name} called {calls} times, expected {want}")
    return failures


def _run_timed(item) -> tuple[float, object, str | None]:
    """Seconds, result and (if it raised) traceback of one call of the item."""
    t0 = time.perf_counter()
    try:
        result = item.run()
    except Exception:
        return time.perf_counter() - t0, None, traceback.format_exc()
    return time.perf_counter() - t0, result, None


def measure(workload, seconds: float, tracer=None) -> tuple[list[tuple], int, list[str]]:
    """Run whole rounds of the workload's items; return samples and failures.

    Each sample is (item label, seconds, traced).  With a tracer every item
    runs twice back to back, untraced and traced, in alternating order, so
    the tracing overhead is measured under the same machine load.  A round
    starts only while it is expected to end within ``seconds``, after at
    least ``workload.min_rounds`` rounds.  An execution fails when it raises
    or its check reports a problem.
    """
    samples: list[tuple] = []
    failures: list[str] = []
    failed = 0
    rounds = 0
    start = time.perf_counter()
    while True:
        for index, item in enumerate(workload.round()):
            if tracer is None:
                modes = (False,)
            else:  # alternate which execution goes first, across items and rounds
                modes = (False, True) if (index + rounds) % 2 == 0 else (True, False)
            for traced in modes:
                if traced:
                    tracer.item = len(samples)
                    tracer.install()
                try:
                    elapsed, result, error = _run_timed(item)
                finally:
                    if traced:
                        tracer.uninstall()
                samples.append((item.label, elapsed, traced))
                problems = [f"{item.label}: raised\n{error}"] if error else item.check(result)
                if problems:
                    failed += 1
                    failures.extend(problems)
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= workload.min_rounds and elapsed * (rounds + 1) / rounds > seconds:
            break
    return samples, failed, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import hkbnet
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[args.workload](args.seed, args.out)
    setup_s = time.perf_counter() - SETUP_START
    summary = {"setup_s": setup_s, "hkbnet": hkbnet.__file__, "env": _environment()}
    if args.setup_only:
        args.result.write_text(json.dumps(summary), encoding="utf-8")
        return 0

    tracer = Tracer() if args.trace else None
    samples, failed, failures = measure(workload, args.seconds, tracer)
    summary.update(
        samples=samples,
        attempted=len(samples),
        failed=failed,
        failures=failures,
        noun=workload.noun,
        units_per_item=workload.units_per_item,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        check_counters=dict(workload.counters),
    )
    if tracer is not None:
        summary["coverage_failures"] = _coverage_failures(
            tracer, workload.expected_calls(sum(1 for sample in samples if sample[2]))
        )
        summary["counters"] = dict(tracer.counters)
        summary["spans"] = {
            name: {"total_s": s.total_s, "self_s": s.self_s, "calls": s.calls, "errors": dict(s.errors)}
            for name, s in tracer.stats.items()
        }
        summary["top_level_s"] = tracer.top_level_s
        trace_file = args.result.with_suffix(".spans.jsonl")
        with open(trace_file, "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")
        summary["span_file"] = str(trace_file)
    args.result.write_text(json.dumps(summary), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
