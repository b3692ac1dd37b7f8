"""In-memory span tracer that wraps hkbnet's layer functions from outside.

Each traced function is replaced by a wrapper that records a span (name,
start, end, parent span, item) and adds its duration to per-name totals.
The wrapper is installed on every ``hkbnet`` module attribute that holds the
original function, so a caller that imported the function by name, such as
``hkbnet.runner.integrate``, calls the wrapper too.  ``uninstall`` puts every
original back.

A span's self time is its duration minus the durations of the spans opened
directly inside it.
"""

from __future__ import annotations

import collections
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

# (module, function) pairs wrapped by the traced run; the span name drops
# the "hkbnet." prefix, e.g. "runner.write_outputs".
TRACED_FUNCTIONS = (
    ("hkbnet.cli", "main"),
    ("hkbnet.runner", "load_config"),
    ("hkbnet.runner", "sweep"),
    ("hkbnet.runner", "run_sweep"),
    ("hkbnet.runner", "write_outputs"),
    ("hkbnet.runner", "bounds_rows"),
    ("hkbnet.dynamics", "integrate"),
    ("hkbnet.phase", "phases_from_trajectory"),
    ("hkbnet.metrics", "compute_sync_report"),
    ("hkbnet.graph", "spectrum"),
    ("hkbnet.bounds", "quad_certificate"),
    ("hkbnet.bounds", "contraction_window"),
)


@dataclass
class SpanStats:
    """Totals over every span of one name."""

    total_s: float = 0.0
    self_s: float = 0.0
    calls: int = 0
    errors: collections.Counter = field(default_factory=collections.Counter)


def _padded_points(traj) -> int:
    """Points transformed by phase extraction: nodes x next power of two >= samples."""
    samples, nodes = traj.states.shape[0], traj.states.shape[1]
    return nodes * (1 << (samples - 1).bit_length())


# Counters taken from a traced call's arguments and result, keyed by span name.
# Each hook gets (counters, args, kwargs, result) after the span has closed.
def _count_steps(counters, args, kwargs, result):
    counters["dynamics.integrate.steps"] += result.num_samples - 1


def _count_fft_points(counters, args, kwargs, result):
    traj = args[0] if args else kwargs["traj"]
    counters["phase.phases_from_trajectory.fft_points"] += _padded_points(traj)


def _count_indeterminate(counters, args, kwargs, result):
    counters["metrics.indeterminate_samples"] += result.indeterminate_samples


RESULT_HOOKS: dict[str, Callable] = {
    "dynamics.integrate": _count_steps,
    "phase.phases_from_trajectory": _count_fft_points,
    "metrics.compute_sync_report": _count_indeterminate,
}


class Tracer:
    """Records spans around the wrapped functions while installed."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = collections.defaultdict(SpanStats)
        self.counters: collections.Counter = collections.Counter()
        # (span id, parent span id or None, item id, name, start, end)
        self.spans: list[tuple] = []
        # Summed duration of spans opened while no other span was open.
        self.top_level_s = 0.0
        self.item = None
        self._open: list[list] = []  # [span id, child seconds] per open span
        self._patched: list[tuple] = []

    def wrap(self, name: str, func: Callable) -> Callable:
        hook = RESULT_HOOKS.get(name)

        def traced(*args, **kwargs):
            span_id = len(self.spans) + len(self._open)
            parent = self._open[-1][0] if self._open else None
            frame = [span_id, 0.0]
            self._open.append(frame)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                self.stats[name].errors[type(exc).__name__] += 1
                raise
            finally:
                end = time.perf_counter()
                self._open.pop()
                duration = end - start
                stats = self.stats[name]
                stats.total_s += duration
                stats.self_s += duration - frame[1]
                stats.calls += 1
                if self._open:
                    self._open[-1][1] += duration
                else:
                    self.top_level_s += duration
                self.spans.append((span_id, parent, self.item, name, start, end))
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap each traced function wherever an hkbnet module holds it by name."""
        originals = [
            (name, attr, getattr(importlib.import_module(name), attr)) for name, attr in TRACED_FUNCTIONS
        ]
        holders = [
            mod for mod_name, mod in list(sys.modules.items())
            if mod_name == "hkbnet" or mod_name.startswith("hkbnet.")
        ]
        for module_name, attr, original in originals:
            wrapper = self.wrap(f"{module_name.removeprefix('hkbnet.')}.{attr}", original)
            for mod in holders:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()
