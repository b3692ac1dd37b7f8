"""Execution of a RunConfig: runs, sweeps, the bounds verb and their CSVs.

hkbnet.config builds and checks every RunConfig and hkbnet.bounds turns a
pilot run into bounds.csv's rows; this module runs one and writes what it
produced.  The README's "Outputs" section is the reference for the CSVs
that run, sweep and bounds write.
"""

from __future__ import annotations

import contextlib
import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

# BoundsOptions, bounds_rows, SweepSpec, load_config and preset_config are
# re-exported: the acceptance tests and the benchmark look them up here.
from .bounds import BoundsOptions, bounds_rows  # noqa: F401
from .config import ConfigError, RunConfig, SweepSpec, _sweep_grid, load_config, preset_config  # noqa: F401
from .dynamics import DivergenceError, Trajectory, integrate, step_count
from .metrics import SyncReport, compute_sync_report
from .phase import DegenerateSignalError


@dataclass(frozen=True, eq=False)
class RunResult:
    """Bundle produced by one run."""

    trajectory: Trajectory
    report: SyncReport
    bounds_rows: tuple[tuple[str, float], ...]
    written: tuple[Path, ...] = ()


@dataclass(frozen=True)
class CellReport:
    """The three numbers sweep.csv prints for one cell; rho_e is None without entrainment."""

    rho_g_mean: float
    rho_g_std: float
    rho_e: float | None


@dataclass(frozen=True, eq=False)
class SweepCell:
    """Outcome of one sweep grid point."""

    value1: float
    value2: float | None
    report: CellReport | None  # None when the cell diverged


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _integrate(config: RunConfig, positions_only: bool = False) -> Trajectory:
    try:
        return integrate(config.params, config.topology, config.protocol, config.initial_states,
                         config.duration, config.dt, entrainment=config.entrainment,
                         positions_only=positions_only)
    except MemoryError:
        samples = step_count(config.duration, config.dt) + 1
        raise ConfigError(f"[simulation] {samples} samples do not fit in memory") from None


def simulate(config: RunConfig) -> RunResult:
    """Integrate, extract phases, and compute the full metric suite (no I/O)."""
    traj = _integrate(config)
    report = compute_sync_report(traj, entrainment=config.entrainment)
    rows = bounds_rows(config, traj)
    return RunResult(trajectory=traj, report=report, bounds_rows=rows)


def nodes_fault(exc: DegenerateSignalError) -> str:
    """The message for nodes that have no phase: a fault of the [nodes] table that only a run finds."""
    return f"[nodes] {exc}"


def _cell_report(config: RunConfig) -> CellReport | None:
    """Simulate one sweep cell and keep its three scalars, or None if it diverges.

    The cell records positions only, which is all its three scalars read.
    The trajectory goes straight to the report, which frees it once the
    phases are taken, and the full report goes when this returns, so no
    cell's per-sample arrays outlive it or overlap the next cell's.
    """
    # No name here holds the trajectory; only the integration can diverge.
    try:
        report = compute_sync_report(_integrate(config, positions_only=True), entrainment=config.entrainment)
    except DivergenceError:
        return None
    return CellReport(report.rho_g_mean, report.rho_g_std, report.rho_e)


def run_sweep(config: RunConfig) -> list[SweepCell]:
    """Execute the sweep grid cell by cell (no I/O).

    Cells are independent: a cell that diverges is recorded without stopping
    the rest of the grid.  A cell without a phase raises ConfigError naming
    its swept values, and any other error propagates.  Each cell keeps only
    its three scalars, so memory does not grow with cells x samples.
    """
    cells = []
    for v1, v2, cell_cfg in _sweep_grid(config):
        try:
            cells.append(SweepCell(v1, v2, _cell_report(cell_cfg)))
        except DegenerateSignalError as exc:
            spec = config.sweep
            swept = f"{spec.field} = {v1!r}" + ("" if v2 is None else f", {spec.field2} = {v2!r}")
            raise ConfigError(f"[sweep] {swept}: {nodes_fault(exc)}") from None
    return cells


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


# Samples per block of a per-sample CSV, and per %-template within a block.
# The block bounds what emission holds at once (about 0.3 MiB of Python
# objects for six nodes, whatever the duration); 4096-sample blocks held
# 5.4 MiB and saved under a fifth of the emission time.  The piece size
# barely moves the time but shifts the benchmark's peak RSS, set when the
# run_presets check reads the 3.9 MB trajectory.csv into one buffer, which
# glibc fits in the heap or not by the heap's layout.  Over 12 fixed rounds
# of the five presets 256-sample pieces read 47.2 MiB, and 16-sample pieces
# 43.2 or 47.0 by the driving script (the former writer 43.2-43.6); in the
# benchmark's worker they read 43.6-44.1 MiB, the former writer 44.0-44.2.
_BLOCK_SAMPLES = 256
_PIECE_SAMPLES = 16


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".9g")


def _open_output(out_dir: str, name: str):
    """Create out_dir and open the file name in it for writing, or raise ConfigError naming the file."""
    path = Path(out_dir) / name
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        return open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ConfigError(f"[output] cannot write {path}: {exc}") from None


def _write_csv(handle, header: Sequence[str], rows) -> None:
    handle.write(",".join(header) + "\n")
    for row in rows:
        handle.write(",".join(_fmt(v) for v in row) + "\n")


def _write_per_sample(handle, header: Sequence[str], times: np.ndarray, *columns: np.ndarray) -> None:
    """Write one row per sample of 1-D columns, or per sample and node of 2-D ones.

    A row is the time, the 1-based node number for 2-D columns, then one
    value per column, printed as _write_csv prints them.  The rows are
    formatted _BLOCK_SAMPLES samples at a time, so memory does not grow
    with the number of samples.  In a block each time is formatted once,
    the node numbers are part of the template, and one %-template formats
    and one write emits every _PIECE_SAMPLES samples.
    """
    per_node = columns[0].ndim == 2
    n = columns[0].shape[1] if per_node else 1
    tags = [f",{node}," for node in range(1, n + 1)] if per_node else [","]
    values = ",".join(["%.9g"] * len(columns)) + "\n"
    sample = "".join("%s" + tag + values for tag in tags)  # one sample's rows
    width = 1 + len(columns)  # fields of a row: the time stamp, then the values
    span = n * width  # fields of a sample
    handle.write(",".join(header) + "\n")
    for start in range(0, len(times), _BLOCK_SAMPLES):
        block = slice(start, start + _BLOCK_SAMPLES)
        t = times[block].tolist()
        stamps = ("%.9g\n" * len(t) % tuple(t)).split()
        fields = [None] * (len(t) * span)
        for node in range(n):
            fields[node * width :: span] = stamps
        for k, column in enumerate(columns, 1):
            fields[k::width] = column[block].ravel().tolist()
        for first in range(0, len(fields), _PIECE_SAMPLES * span):
            piece = tuple(fields[first : first + _PIECE_SAMPLES * span])
            handle.write(sample * (len(piece) // span) % piece)


# The files of a run's bundle, in the order write_outputs fills them.
RUN_FILES = ("trajectory.csv", "phases.csv", "rho_g_series.csv", "eta_series.csv", "sync_report.csv", "bounds.csv")
_BOUNDS_HEADER = ("quantity", "value")


def write_outputs(result: RunResult, handles) -> RunResult:
    """Write the artifact bundle for one run into handles, open on RUN_FILES in order, and record their paths."""
    result.trajectory.require_velocities("write_outputs")
    trajectory, phases, rho_g, eta, sync_report, bounds_csv = handles
    times = result.trajectory.times
    states = result.trajectory.states
    report = result.report
    _write_per_sample(trajectory, ("t", "node", "pos", "vel"), times, states[:, :, 0], states[:, :, 1])
    _write_per_sample(phases, ("t", "node", "theta"), times, report.phases.phases)
    _write_per_sample(rho_g, ("t", "rho_g"), times, report.rho_g_series)
    _write_per_sample(eta, ("t", "eta"), times, report.eta_series)
    _write_csv(sync_report, ("metric", "node_or_pair", "value"), _report_rows(report))
    _write_csv(bounds_csv, _BOUNDS_HEADER, result.bounds_rows)
    return dataclasses.replace(result, written=tuple(Path(handle.name) for handle in handles))


def _report_rows(report: SyncReport):
    rows = []
    for i, value in enumerate(report.rho_k):
        rows.append(("rho_k", str(i + 1), value))
    rows.append(("rho_g_mean", "", report.rho_g_mean))
    rows.append(("rho_g_std", "", report.rho_g_std))
    n = report.rho_k.shape[0]
    for k in range(n - 1):
        for kp in range(k + 1, n):
            rows.append(("rho_d", f"{k + 1}-{kp + 1}", report.dyadic[k, kp]))
    if report.rho_e_k is not None:
        for i, value in enumerate(report.rho_e_k):
            rows.append(("rho_E_k", str(i + 1), value))
        rows.append(("rho_E", "", report.rho_e))
    rows.append(("indeterminate_samples", "", report.indeterminate_samples))
    return rows


def run(config: RunConfig) -> RunResult:
    """Open the artifact bundle's files in config.out_dir, simulate, and write the bundle into them.

    A node without a phase raises ConfigError naming [nodes], and leaves the files empty.
    """
    with contextlib.ExitStack() as stack:
        handles = [stack.enter_context(_open_output(config.out_dir, name)) for name in RUN_FILES]
        try:
            result = simulate(config)
        except DegenerateSignalError as exc:
            raise ConfigError(nodes_fault(exc)) from None
        return write_outputs(result, handles)


def sweep(config: RunConfig) -> tuple[list[SweepCell], Path]:
    """Open sweep.csv in config.out_dir, run the sweep grid, and write the long-form cells into it."""
    _sweep_grid(config)  # a config without [sweep] fails here, before sweep.csv is opened
    with _open_output(config.out_dir, "sweep.csv") as handle:
        cells = run_sweep(config)
        # a CellReport's fields are sweep.csv's last three columns, in order
        rows = [(c.value1, c.value2) + ((None,) * 3 if c.report is None else dataclasses.astuple(c.report))
                for c in cells]
        _write_csv(handle, ("param1", "param2", "rho_g_mean", "rho_g_std", "rho_E"), rows)
    return cells, Path(handle.name)


def evaluate_bounds(config: RunConfig) -> tuple[tuple[tuple[str, float], ...], Path]:
    """Open bounds.csv in config.out_dir, integrate the pilot run, and write bounds_rows into it."""
    with _open_output(config.out_dir, "bounds.csv") as handle:
        rows = bounds_rows(config, _integrate(config))
        _write_csv(handle, _BOUNDS_HEADER, rows)
    return rows, Path(handle.name)
