"""Configuration-driven experiment orchestration and CSV emission.

A run is described by a named preset or by an INI-style config file.  The
README is the reference: "Config file format" for the file's sections and
options, "Command line" for the checks every RunConfig passes, and
"Outputs" for the CSVs that run, sweep and bounds write.
"""

from __future__ import annotations

import configparser
import contextlib
import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import bounds as bounds_mod
from . import presets
from .bounds import BoundsOptions
from .dynamics import (
    PROTOCOL_KINDS,
    CouplingProtocol,
    DivergenceError,
    Entrainment,
    FullState,
    HkbCoupling,
    NoCoupling,
    OscillatorParams,
    PartialState,
    Trajectory,
    integrate,
    state_extrema,
    step_count,
    strength_fields,
)
from .graph import Topology, TopologyError, complete_graph
from .metrics import SyncReport, compute_sync_report
from .phase import PhaseSeries, phases_from_trajectory


class ConfigError(ValueError):
    """Malformed run configuration; the message names the section and field."""


@dataclass(frozen=True)
class SweepSpec:
    """Grid over one or two dotted scalar fields (e.g. protocol.c)."""

    field: str
    values: tuple[float, ...]
    field2: str | None = None
    values2: tuple[float, ...] = ()

    def __post_init__(self):
        if not self.values:
            raise ValueError("values must not be empty")
        if (self.field2 is None) != (not self.values2):
            raise ValueError("field2 and values2 must be given together")
        if self.field2 == self.field:
            # the second axis would overwrite the first in every cell
            raise ValueError(f"field2 must differ from field ({self.field})")


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Everything needed to reproduce one deterministic run.

    __post_init__ checks the run contract in the README's "Command line"
    section, and dataclasses.replace runs it too, so CLI overrides and sweep
    cells are checked like presets and config files; the sweep's cells are
    built here.
    """

    label: str
    topology: Topology
    params: tuple[OscillatorParams, ...]
    initial_states: np.ndarray
    protocol: CouplingProtocol
    entrainment: Entrainment = Entrainment()
    duration: float = 200.0
    dt: float = 0.01
    out_dir: str = "out"
    sweep: SweepSpec | None = None
    bounds: BoundsOptions = BoundsOptions()

    def __post_init__(self):
        n = self.topology.n
        if len(self.params) != n:
            raise ConfigError(f"[nodes] got {len(self.params)} parameter sets for {n} nodes")
        states = np.asarray(self.initial_states, dtype=float)
        if states.shape != (n, 2):
            raise ConfigError(f"[nodes] initial states have shape {states.shape}, not ({n}, 2)")
        if not np.all(np.isfinite(states)):
            raise ConfigError("[nodes] initial states must be finite")
        try:
            samples = step_count(self.duration, self.dt) + 1
        except ValueError as exc:
            raise ConfigError(f"[simulation] {exc}") from None
        grid = f"[simulation] duration={self.duration} at dt={self.dt} gives {samples:.6g} samples"
        if samples < 4:
            raise ConfigError(f"{grid}, but phase extraction needs at least 4")
        # integrate stores every sample in one (samples, n, 2) float64 array
        if samples * n * 16 > np.iinfo(np.intp).max:
            raise ConfigError(f"{grid}, more than one array can hold for {n} nodes")
        isolated = np.flatnonzero(self.topology.neighbor_counts == 0)
        if isolated.size and not isinstance(self.protocol, NoCoupling):
            raise ConfigError(
                f"[network] node {isolated[0] + 1} has no neighbors, "
                "but a coupled protocol needs every node to have one"
            )
        if self.sweep is not None:
            _sweep_grid(self)


@dataclass(frozen=True, eq=False)
class RunResult:
    """Bundle produced by one run."""

    config: RunConfig
    trajectory: Trajectory
    phases: PhaseSeries
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
# Presets
# ---------------------------------------------------------------------------


def _rocking6(label: str, protocol: CouplingProtocol) -> RunConfig:
    return RunConfig(
        label=label,
        topology=presets.rocking6_topology(),
        params=presets.ROCKING6_PARAMS,
        initial_states=presets.ROCKING6_INITIAL,
        protocol=protocol,
    )


def _validation5() -> RunConfig:
    return RunConfig(
        label="validation5",
        topology=presets.validation5_topology(),
        params=presets.VALIDATION5_PARAMS,
        initial_states=presets.VALIDATION5_INITIAL,
        protocol=FullState(0.07),
        bounds=BoundsOptions(
            quad=True,
            p11=presets.VALIDATION5_P[0],
            p22=presets.VALIDATION5_P[1],
            w11=presets.VALIDATION5_W11,
            w22=presets.VALIDATION5_W22,
        ),
    )


PRESET_BUILDERS = {
    "rocking6-nc": lambda: _rocking6("rocking6-nc", NoCoupling()),
    "rocking6-fsc": lambda: _rocking6("rocking6-fsc", FullState(0.15)),
    "rocking6-psc": lambda: _rocking6("rocking6-psc", PartialState(0.15, 0.15)),
    "rocking6-hkb": lambda: _rocking6("rocking6-hkb", HkbCoupling(-1.0, -1.0, 0.15)),
    "validation5": _validation5,
}

PRESET_NAMES = tuple(sorted(PRESET_BUILDERS))


def preset_config(name: str) -> RunConfig:
    """Build one of the bundled scenario presets by name."""
    try:
        builder = PRESET_BUILDERS[name]
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}") from None
    return builder()


# ---------------------------------------------------------------------------
# Config file parsing
# ---------------------------------------------------------------------------


def _parse_matrix(text: str, section: str, option: str) -> np.ndarray:
    rows = []
    for lineno, line in enumerate(text.strip().splitlines(), start=1):
        if not line.strip():
            continue
        rows.append(_parse_values(line, section, f"{option}, row {lineno}"))
    if not rows:
        raise ConfigError(f"[{section}] {option}: no rows given")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ConfigError(f"[{section}] {option}: rows have unequal lengths")
    return np.array(rows)


def _finite_float(text: str, section: str, option: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {option}: not a finite number ({text!r})")
    return value


def _parse_values(text: str, section: str, option: str) -> tuple[float, ...]:
    return tuple(_finite_float(tok, section, option) for tok in text.split())


def _read_parser(path: Path) -> dict[str, dict[str, str]]:
    """Read the config file at path as {section: {option: text}}."""
    # No header can name the empty section, so [DEFAULT] is an ordinary (and
    # unknown) section rather than defaults copied into every other one.
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None, default_section="")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            cfg.read_file(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error in {path}: {exc}") from None
    return {name: dict(cfg[name]) for name in cfg.sections()}


def _take(sections, name, option, default=None):
    """Remove option from section [name] and return its text, or default when absent or blank.

    A section this leaves empty is removed, so a section still present once
    every read is done holds an option no read took, or no read looked at it.
    """
    section = sections.get(name, {})
    text = section.pop(option, "").strip()
    if not section:
        sections.pop(name, None)
    return text or default


def _reject_unread(sections, *names):
    """Raise ConfigError if a read left anything of [names], or else of any section.

    A section left with options is named with its first option.  One left
    empty was never looked at (_take removes the sections it empties), so it
    is unknown.
    """
    for name in names or sections:
        if name in sections:
            option = next(iter(sections[name]), None)
            if option is None:
                raise ConfigError(f"[{name}]: unknown section")
            raise ConfigError(f"[{name}] {option}: unknown or unused option")


def _section(sections, name, cls, **defaults):
    """Build the dataclass cls from section [name], one option per field.

    An absent or blank option takes its value from defaults, else from the
    field's own default (so a field defaulting to None is optional); a field
    with neither is required.  bool, str and tuple fields are read as a
    boolean, as text and as numbers; any other as a float.  Any other option
    in [name] is an error.
    """
    fields = dataclasses.fields(cls)
    texts = {f.name: _take(sections, name, f.name) for f in fields}
    _reject_unread(sections, name)
    values = {}
    for f in fields:
        raw = texts[f.name]
        if raw is None:
            values[f.name] = defaults.get(f.name, f.default)
            if values[f.name] is dataclasses.MISSING:
                raise ConfigError(f"[{name}] missing required field {f.name!r}")
        elif f.type == "bool":
            values[f.name] = configparser.ConfigParser.BOOLEAN_STATES.get(raw.lower())
            if values[f.name] is None:
                raise ConfigError(f"[{name}] {f.name}: not a boolean ({raw!r})")
        elif f.type.startswith("tuple"):
            values[f.name] = _parse_values(raw, name, f.name)
        elif f.type.startswith("str"):
            values[f.name] = raw
        else:
            values[f.name] = _finite_float(raw, name, f.name)
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"[{name}] {exc}") from None


def load_config(source: str | Path) -> RunConfig:
    """Resolve a preset name or parse a config file into a RunConfig."""
    name = str(source)
    if name in PRESET_BUILDERS:
        return preset_config(name)
    path = Path(source)
    if not path.exists():
        raise ConfigError(f"{name!r} is neither a preset name nor an existing config file")
    sections = _read_parser(path)

    table = _parse_matrix(_take(sections, "nodes", "table", ""), "nodes", "table")
    if table.shape[1] != 6:
        raise ConfigError("[nodes] table rows must hold: alpha beta gamma omega pos0 vel0")
    try:
        params = tuple(OscillatorParams(*row[:4]) for row in table)
    except ValueError as exc:
        raise ConfigError(f"[nodes] table: {exc}") from None

    # Topology: an inline matrix or the complete-graph shorthand.
    weights = _take(sections, "network", "weights")
    if weights is not None:
        try:
            topology = Topology(_parse_matrix(weights, "network", "weights"))
        except TopologyError as exc:
            raise ConfigError(f"[network] weights: {exc}") from None
    elif _take(sections, "network", "preset") == "complete":
        try:
            n = int(_take(sections, "network", "nodes", ""))
        except ValueError:
            raise ConfigError("[network] preset=complete needs an integer 'nodes'") from None
        # the n x n matrix is built only for a count the table already holds
        if n != len(table):
            raise ConfigError(f"[network] nodes = {n}, but the [nodes] table has {len(table)} rows")
        weight = _take(sections, "network", "weight", "1.0")
        try:
            topology = complete_graph(n, _finite_float(weight, "network", "weight"))
        except TopologyError as exc:
            raise ConfigError(f"[network] {exc}") from None
        except MemoryError:
            raise ConfigError(f"[network] nodes = {n}: the {n} x {n} weight matrix does not fit in memory") from None
    else:
        raise ConfigError("[network] needs either 'weights' or 'preset = complete'")

    kind = _take(sections, "protocol", "kind", "none").lower()
    if kind not in PROTOCOL_KINDS:
        raise ConfigError(f"[protocol] unknown kind {kind!r}")
    simulation = {
        key: _finite_float(text, "simulation", key)
        for key in ("duration", "dt")
        if (text := _take(sections, "simulation", key)) is not None
    }
    config = RunConfig(
        label=_take(sections, "run", "label", path.stem),
        topology=topology,
        params=params,
        initial_states=table[:, 4:6].copy(),
        protocol=_section(sections, "protocol", PROTOCOL_KINDS[kind]),
        entrainment=_section(sections, "entrainment", Entrainment),
        out_dir=_take(sections, "output", "directory", RunConfig.out_dir),
        sweep=_section(sections, "sweep", SweepSpec) if "sweep" in sections else None,
        # a [bounds] section is a request for the certificate unless it says otherwise
        bounds=(_section(sections, "bounds", BoundsOptions, quad=True)
                if "bounds" in sections else BoundsOptions()),
        **simulation,
    )
    _reject_unread(sections)
    return config


def validate_config(cfg: RunConfig) -> list[str]:
    """Collect diagnostics on a valid configuration without running anything.

    Returns an empty list for a healthy configuration.  An invalid one never
    gets here: building the RunConfig (or load_config) raised ConfigError.
    """
    diagnostics: list[str] = []
    if not cfg.topology.is_connected():
        diagnostics.append("network: topology is not connected")
    strengths = strength_fields(cfg.protocol)
    if strengths and all(getattr(cfg.protocol, name) == 0.0 for name in strengths):
        diagnostics.append(
            f"protocol: every {type(cfg.protocol).__name__} strength "
            f"({', '.join(strengths)}) is zero (coupling inactive)"
        )
    ent = cfg.entrainment
    if ent.enabled and not ent.active:
        diagnostics.append("entrainment: enabled with zero amplitude (no effect)")
    # a swept entrainment field switches the entrainment on in every cell
    swept = () if cfg.sweep is None else (cfg.sweep.field, cfg.sweep.field2 or "")
    if not ent.enabled and ent.amplitude != 0.0 and not any(f.startswith("entrainment.") for f in swept):
        diagnostics.append(f"entrainment: amplitude {ent.amplitude:g} but not enabled (no effect)")
    if cfg.bounds.quad:
        _, failures = bounds_mod.quad_hypotheses(cfg.topology, cfg.params)
        diagnostics += [
            f"bounds: quad bound requested but {failure} (certificate inapplicable)" for failure in failures
        ]
    return diagnostics


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _integrate(config: RunConfig) -> Trajectory:
    try:
        return integrate(config.params, config.topology, config.protocol, config.initial_states,
                         config.duration, config.dt, entrainment=config.entrainment)
    except MemoryError:
        samples = step_count(config.duration, config.dt) + 1
        raise ConfigError(f"[simulation] {samples} samples do not fit in memory") from None


def simulate(config: RunConfig) -> RunResult:
    """Integrate, extract phases, and compute the full metric suite (no I/O)."""
    traj = _integrate(config)
    phases = phases_from_trajectory(traj)
    report = compute_sync_report(traj, entrainment=config.entrainment, phases=phases)
    rows = bounds_rows(config, traj)
    return RunResult(config=config, trajectory=traj, phases=phases, report=report, bounds_rows=rows)


def bounds_rows(config: RunConfig, traj: Trajectory) -> tuple[tuple[str, float], ...]:
    """Evaluate both analytic certificates as (quantity, value) rows.

    Infeasible or inapplicable outcomes become 0/1 flag rows, never
    exceptions: the certificates are sufficient conditions and the bundled
    scenarios intentionally operate below them.  State bounds default to the
    extrema of the pilot trajectory traj.
    """
    extrema = state_extrema(traj)
    z1 = config.bounds.z1_max if config.bounds.z1_max is not None else extrema.pos_max
    z2 = config.bounds.z2_max if config.bounds.z2_max is not None else extrema.vel_max
    remainder = bounds_mod.m_bar(config.params, extrema.pos_max, extrema.vel_max)
    rows: list[tuple[str, float]] = [
        ("p_M", extrema.pos_max),
        ("v_M", extrema.vel_max),
        ("m_bar", remainder),
    ]

    window = bounds_mod.contraction_window(config.params, z1, z2)
    rows += [
        ("c_lo", window.c_lo),
        ("c_hi", window.c_hi),
        ("contraction_feasible", float(window.feasible)),
        ("contraction_assumes_complete_unweighted", 1.0),
        ("topology_is_complete_unweighted", float(bounds_mod.is_complete_unweighted(config.topology))),
    ]

    lam2, failures = bounds_mod.quad_hypotheses(config.topology, config.params)
    if lam2 is not None:
        rows.append(("lambda2", lam2))
    quad_ok = lam2 is not None and not failures
    rows.append(("quad_applicable", float(quad_ok)))
    if quad_ok:
        c = config.protocol.c if isinstance(config.protocol, FullState) else None
        cert = bounds_mod.quad_certificate(lam2, config.params, config.bounds, c, remainder)
        rows.append(("c_bar", cert.c_bar))
        rows.append(("epsilon_applicable", float(cert.epsilon is not None)))
        if cert.epsilon is not None:
            rows.append(("epsilon", cert.epsilon))
    return tuple(rows)


def _with_field(config: RunConfig, field: str, value: float) -> RunConfig:
    """Return a copy of the config with one dotted scalar field replaced."""
    section, _, key = field.partition(".")

    def replaced(obj, **changes):
        try:
            return dataclasses.replace(obj, **changes)
        except ValueError as exc:
            raise ConfigError(f"[sweep] {field} = {value!r}: {exc}") from None

    if section == "protocol":
        proto = config.protocol
        if key not in {f.name for f in dataclasses.fields(proto)}:
            raise ConfigError(f"[sweep] field {field!r} does not exist on {type(proto).__name__}")
        return dataclasses.replace(config, protocol=replaced(proto, **{key: value}))
    if section == "entrainment":
        if key not in ("amplitude", "frequency"):
            raise ConfigError(f"[sweep] field {field!r} is not a scalar entrainment field")
        ent = replaced(config.entrainment, enabled=True, **{key: value})
        return dataclasses.replace(config, entrainment=ent)
    if section == "simulation":
        if key not in ("duration", "dt"):
            raise ConfigError(f"[sweep] field {field!r} is not a scalar simulation field")
        return replaced(config, **{key: value})
    raise ConfigError(f"[sweep] field {field!r} not supported")


def _sweep_grid(config: RunConfig) -> list[tuple[float, float | None, RunConfig]]:
    """(value1, value2, cell config) for each cell of the sweep, in grid order.

    Cells derive from a copy without the sweep, so building one does not recurse.
    """
    spec = config.sweep
    base = dataclasses.replace(config, sweep=None)
    grid = []
    for v1 in spec.values:
        for v2 in spec.values2 or (None,):
            cell_cfg = _with_field(base, spec.field, v1)
            if v2 is not None:
                cell_cfg = _with_field(cell_cfg, spec.field2, v2)
            grid.append((v1, v2, cell_cfg))
    return grid


def _require_sweep(config: RunConfig) -> None:
    if config.sweep is None:
        raise ConfigError("configuration has no [sweep] section")


def _cell_report(config: RunConfig) -> CellReport | None:
    """Simulate one sweep cell and keep its three scalars, or None if it diverges.

    The trajectory and the full report go when this returns, so no cell's
    per-sample arrays outlive it or overlap the next cell's.
    """
    try:
        traj = _integrate(config)
    except DivergenceError:
        return None
    report = compute_sync_report(traj, entrainment=config.entrainment)
    return CellReport(report.rho_g_mean, report.rho_g_std, report.rho_e)


def run_sweep(config: RunConfig) -> list[SweepCell]:
    """Execute the sweep grid cell by cell (no I/O).

    Cells are independent: a cell that diverges is recorded without stopping
    the rest of the grid, and any other error propagates.  Each cell keeps
    only its three scalars, so memory does not grow with cells x samples.
    """
    _require_sweep(config)
    return [SweepCell(v1, v2, _cell_report(cell_cfg)) for v1, v2, cell_cfg in _sweep_grid(config)]


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


# Samples per formatted block of a per-sample CSV.  The block bounds what
# emission holds at once (about 0.3 MiB of Python objects for six nodes,
# whatever the duration); 4096-sample blocks held 5.4 MiB and saved under
# a fifth of the emission time.
_BLOCK_SAMPLES = 256


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
    value per column, all printed by one %-template as _write_csv prints
    them.  Rows are formatted and written _BLOCK_SAMPLES samples at a time,
    so memory does not grow with the number of samples.
    """
    per_node = columns[0].ndim == 2
    n = columns[0].shape[1] if per_node else 1
    template = "%.9g" + (",%d" if per_node else "") + ",%.9g" * len(columns) + "\n"
    nodes = np.arange(1, n + 1)
    handle.write(",".join(header) + "\n")
    for start in range(0, len(times), _BLOCK_SAMPLES):
        block = slice(start, start + _BLOCK_SAMPLES)
        t = times[block]
        lead = [np.repeat(t, n).tolist()]
        if per_node:
            lead.append(np.tile(nodes, len(t)).tolist())
        values = [column[block].ravel().tolist() for column in columns]
        handle.write("".join(map(template.__mod__, zip(*lead, *values))))


# The files of a run's bundle, in the order write_outputs fills them.
RUN_FILES = ("trajectory.csv", "phases.csv", "rho_g_series.csv", "eta_series.csv", "sync_report.csv", "bounds.csv")
_BOUNDS_HEADER = ("quantity", "value")


def write_outputs(result: RunResult, handles) -> RunResult:
    """Write the artifact bundle for one run into handles, open on RUN_FILES in order, and record their paths."""
    trajectory, phases, rho_g, eta, sync_report, bounds_csv = handles
    times = result.trajectory.times
    states = result.trajectory.states
    report = result.report
    _write_per_sample(trajectory, ("t", "node", "pos", "vel"), times, states[:, :, 0], states[:, :, 1])
    _write_per_sample(phases, ("t", "node", "theta"), times, result.phases.phases)
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
    """Open the artifact bundle's files in config.out_dir, simulate, and write the bundle into them."""
    with contextlib.ExitStack() as stack:
        handles = [stack.enter_context(_open_output(config.out_dir, name)) for name in RUN_FILES]
        return write_outputs(simulate(config), handles)


def sweep(config: RunConfig) -> tuple[list[SweepCell], Path]:
    """Open sweep.csv in config.out_dir, run the sweep grid, and write the long-form cells into it."""
    _require_sweep(config)
    with _open_output(config.out_dir, "sweep.csv") as handle:
        cells = run_sweep(config)
        rows = []
        for cell in cells:
            rows.append(
                (
                    cell.value1,
                    cell.value2,
                    None if cell.report is None else cell.report.rho_g_mean,
                    None if cell.report is None else cell.report.rho_g_std,
                    None if cell.report is None else cell.report.rho_e,
                )
            )
        _write_csv(handle, ("param1", "param2", "rho_g_mean", "rho_g_std", "rho_E"), rows)
    return cells, Path(handle.name)


def evaluate_bounds(config: RunConfig) -> tuple[tuple[tuple[str, float], ...], Path]:
    """Open bounds.csv in config.out_dir, integrate the pilot run, and write bounds_rows into it."""
    with _open_output(config.out_dir, "bounds.csv") as handle:
        rows = bounds_rows(config, _integrate(config))
        _write_csv(handle, _BOUNDS_HEADER, rows)
    return rows, Path(handle.name)
