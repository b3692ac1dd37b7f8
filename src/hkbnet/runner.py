"""Configuration-driven experiment orchestration and CSV emission.

A run is described either by a named preset or by an INI-style config file
with the sections below (matrices and node tables are whitespace-separated
rows on indented continuation lines):

    [network]
    # either a complete graph ...
    preset = complete
    nodes = 6
    weight = 1.0
    # ... or an inline weight matrix
    # weights =
    #     0 1
    #     1 0

    [nodes]
    # one row per node: alpha beta gamma omega pos0 vel0
    table =
        0.46 1.16 0.58 0.31 -1.4 0.3
        ...

    [protocol]
    kind = full_state        # none | full_state | partial_state | hkb
    c = 0.15                 # partial_state uses c1/c2, hkb uses a/b/c

    [entrainment]
    enabled = true
    amplitude = 0.3
    frequency = 0.5

    [simulation]
    duration = 200.0         # dt must divide it, giving at least 4 samples
    dt = 0.01

    [bounds]                 # optional Lyapunov-bound inputs
    quad = true              # implied by the section when left out
    p11 = 0.077
    p22 = 0.077
    w11 = 0.001
    w22 = 0.045
    z1_max =                 # default: measured from the run
    z2_max =

    [sweep]                  # optional grid over scalar fields
    field = protocol.c
    values = 0.05 0.1 0.15
    field2 = entrainment.amplitude
    values2 = 0.1 0.2

    [output]
    directory = out

Each section's defaults are those of the dataclass it builds, and every
number must be finite.  Every RunConfig, however it is built (preset,
file, CLI override or sweep cell), is checked on construction: 0 < dt <=
duration, dt divides the duration, the grid holds at least 4 samples and
no more than one array can address, and no node is isolated under a
coupled protocol.  A violation raises ConfigError naming the section and
field, which the CLI turns into exit status 2.

write_outputs emits a run's bundle: four per-sample files (trajectory.csv,
phases.csv, rho_g_series.csv, eta_series.csv), written a fixed block of
samples at a time so emission memory does not grow with the duration, and
sync_report.csv and bounds.csv.  sweep writes sweep.csv, where a diverged
cell's metrics are empty fields.  All emitted CSVs are UTF-8 with LF line
endings, one header row, and reals printed with 9 significant digits.
Runs are deterministic: an identical config reproduces byte-identical files.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import bounds as bounds_mod
from . import presets
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
from .graph import Topology, TopologyError, complete_graph, neighbor_lambda2
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


@dataclass(frozen=True)
class BoundsOptions:
    """Inputs for the bound evaluation attached to a run.

    quad marks an explicit request for the Lyapunov certificate; it only
    affects validation diagnostics, since bounds evaluation reports the
    certificate whenever its hypotheses hold anyway.
    """

    quad: bool = False
    p11: float = 1.0
    p22: float = 1.0
    w11: float = 1e-6
    w22: float | None = None
    gamma1: float = 1.0
    gamma2: float = 1.0
    z1_max: float | None = None
    z2_max: float | None = None

    def __post_init__(self):
        for name in ("p11", "p22", "w11", "gamma1", "gamma2", "z1_max", "z2_max"):
            value = getattr(self, name)
            if value is not None and not value > 0.0:
                raise ValueError(f"{name} must be positive, got {value}")


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Everything needed to reproduce one deterministic run.

    __post_init__ checks the run contract in the module docstring, and
    dataclasses.replace runs it too, so CLI overrides and sweep cells are
    checked like presets and config files.
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
        try:
            samples = step_count(self.duration, self.dt) + 1
        except ValueError as exc:
            raise ConfigError(f"[simulation] {exc}") from None
        grid = f"[simulation] duration={self.duration} at dt={self.dt} gives {samples:.6g} samples"
        if samples < 4:
            raise ConfigError(f"{grid}, but phase extraction needs at least 4")
        # integrate stores every sample in one (samples, n, 2) float64 array
        if samples * self.topology.n * 16 > np.iinfo(np.intp).max:
            raise ConfigError(f"{grid}, more than one array can hold for {self.topology.n} nodes")
        isolated = np.flatnonzero(self.topology.neighbor_counts == 0)
        if isolated.size and not isinstance(self.protocol, NoCoupling):
            raise ConfigError(
                f"[network] node {isolated[0] + 1} has no neighbors, "
                "but a coupled protocol needs every node to have one"
            )


@dataclass(frozen=True, eq=False)
class RunResult:
    """Bundle produced by one run."""

    config: RunConfig
    trajectory: Trajectory
    phases: PhaseSeries
    report: SyncReport
    bounds_rows: tuple[tuple[str, float], ...]
    written: tuple[Path, ...] = ()


@dataclass(frozen=True, eq=False)
class SweepCell:
    """Outcome of one sweep grid point."""

    value1: float
    value2: float | None
    report: SyncReport | None  # None when the cell diverged


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------


def _rocking6(label: str, protocol: CouplingProtocol, entrainment: Entrainment = Entrainment()) -> RunConfig:
    return RunConfig(
        label=label,
        topology=presets.rocking6_topology(),
        params=presets.ROCKING6_PARAMS,
        initial_states=presets.ROCKING6_INITIAL,
        protocol=protocol,
        entrainment=entrainment,
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


def _get_float(cfg, section, option, default=None):
    raw = cfg.get(section, option, fallback="").strip()
    if not raw:
        if default is None:
            raise ConfigError(f"[{section}] missing required field {option!r}")
        return default
    return _finite_float(raw, section, option)


def _read_parser(path: Path) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            cfg.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error in {path}: {exc}") from None
    return cfg


def _section(cfg, name, cls, **defaults):
    """Build the dataclass cls from section [name], one option per field.

    An absent or blank option takes its value from defaults, else from the
    field's own default (so a field defaulting to None is optional); a field
    with neither is required.  bool fields are read with getboolean, every
    other field as a float.
    """
    values = {}
    for f in dataclasses.fields(cls):
        raw = cfg.get(name, f.name, fallback="").strip()
        if not raw:
            values[f.name] = defaults.get(f.name, f.default)
            if values[f.name] is dataclasses.MISSING:
                raise ConfigError(f"[{name}] missing required field {f.name!r}")
        elif f.type in (bool, "bool"):
            try:
                values[f.name] = cfg.getboolean(name, f.name)
            except ValueError:
                raise ConfigError(f"[{name}] {f.name}: not a boolean ({raw!r})") from None
        else:
            values[f.name] = _get_float(cfg, name, f.name)
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
    cfg = _read_parser(path)

    for required in ("network", "nodes"):
        if not cfg.has_section(required):
            raise ConfigError(f"missing required section [{required}]")

    # Topology: complete-graph shorthand or an inline matrix.
    if cfg.has_option("network", "weights"):
        weights = _parse_matrix(cfg.get("network", "weights"), "network", "weights")
        try:
            topology = Topology(weights)
        except TopologyError as exc:
            raise ConfigError(f"[network] weights: {exc}") from None
    elif cfg.get("network", "preset", fallback="").strip() == "complete":
        try:
            n = cfg.getint("network", "nodes")
        except (ValueError, configparser.NoOptionError):
            raise ConfigError("[network] preset=complete needs an integer 'nodes'") from None
        try:
            topology = complete_graph(n, _get_float(cfg, "network", "weight", default=1.0))
        except TopologyError as exc:
            raise ConfigError(f"[network] {exc}") from None
    else:
        raise ConfigError("[network] needs either 'weights' or 'preset = complete'")

    table = _parse_matrix(cfg.get("nodes", "table", fallback=""), "nodes", "table")
    if table.shape[1] != 6:
        raise ConfigError("[nodes] table rows must hold: alpha beta gamma omega pos0 vel0")
    if table.shape[0] != topology.n:
        raise ConfigError(
            f"[nodes] table has {table.shape[0]} rows but the topology has {topology.n} nodes"
        )
    try:
        params = tuple(OscillatorParams(*row[:4]) for row in table)
    except ValueError as exc:
        raise ConfigError(f"[nodes] table: {exc}") from None
    initial = table[:, 4:6].copy()

    kind = cfg.get("protocol", "kind", fallback="none").strip().lower()
    if kind not in PROTOCOL_KINDS:
        raise ConfigError(f"[protocol] unknown kind {kind!r}")
    protocol = _section(cfg, "protocol", PROTOCOL_KINDS[kind])
    entrainment = _section(cfg, "entrainment", Entrainment)
    simulation = {
        key: _get_float(cfg, "simulation", key, default=getattr(RunConfig, key))
        for key in ("duration", "dt")
    }

    sweep_spec = None
    if cfg.has_section("sweep") and cfg.has_option("sweep", "field"):
        values = _parse_values(cfg.get("sweep", "values", fallback=""), "sweep", "values")
        if not values:
            raise ConfigError("[sweep] needs a non-empty 'values' list")
        field2 = cfg.get("sweep", "field2", fallback="").strip() or None
        values2 = _parse_values(cfg.get("sweep", "values2", fallback=""), "sweep", "values2")
        if field2 and not values2:
            raise ConfigError("[sweep] field2 given without values2")
        sweep_spec = SweepSpec(
            field=cfg.get("sweep", "field").strip(),
            values=values,
            field2=field2,
            values2=values2,
        )

    bounds_opts = BoundsOptions()
    if cfg.has_section("bounds"):
        # a [bounds] section is a request for the certificate unless it says otherwise
        bounds_opts = _section(cfg, "bounds", BoundsOptions, quad=True)

    return RunConfig(
        label=cfg.get("run", "label", fallback=path.stem),
        topology=topology,
        params=params,
        initial_states=initial,
        protocol=protocol,
        entrainment=entrainment,
        out_dir=cfg.get("output", "directory", fallback="out"),
        sweep=sweep_spec,
        bounds=bounds_opts,
        **simulation,
    )


def validate_config(source: str | Path | RunConfig) -> list[str]:
    """Collect diagnostics without running anything.

    Returns an empty list for a healthy configuration.  Structural problems
    that prevent even building the configuration surface as a single parse
    diagnostic rather than an exception.
    """
    diagnostics: list[str] = []
    if isinstance(source, RunConfig):
        cfg = source
    else:
        try:
            cfg = load_config(source)
        except ConfigError as exc:
            return [f"parse: {exc}"]

    if not cfg.topology.is_connected():
        diagnostics.append("network: topology is not connected")
    strengths = strength_fields(cfg.protocol)
    if strengths and all(getattr(cfg.protocol, name) == 0.0 for name in strengths):
        diagnostics.append(
            f"protocol: every {type(cfg.protocol).__name__} strength "
            f"({', '.join(strengths)}) is zero (coupling inactive)"
        )
    if cfg.entrainment.enabled and cfg.entrainment.amplitude == 0.0:
        diagnostics.append("entrainment: enabled with zero amplitude (no effect)")
    if cfg.bounds.quad and bounds_mod.common_gamma(cfg.params) is None:
        diagnostics.append(
            "bounds: quad bound requested but gamma differs across nodes "
            "(certificate inapplicable)"
        )
    if cfg.bounds.quad and cfg.topology.is_connected():
        lam2 = neighbor_lambda2(cfg.topology)
        if not bounds_mod.has_spectral_gap(lam2):
            diagnostics.append(
                f"bounds: quad bound requested but lambda2 = {lam2:.3g} leaves no spectral gap "
                "(certificate inapplicable)"
            )
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


def bounds_rows(config: RunConfig, traj: Trajectory | None = None) -> tuple[tuple[str, float], ...]:
    """Evaluate both analytic certificates as (quantity, value) rows.

    Infeasible or inapplicable outcomes become 0/1 flag rows, never
    exceptions: the certificates are sufficient conditions and the bundled
    scenarios intentionally operate below them.  State bounds default to the
    extrema of the supplied pilot trajectory.
    """
    if traj is None:
        traj = _integrate(config)
    extrema = state_extrema(traj)
    z1 = config.bounds.z1_max if config.bounds.z1_max is not None else extrema.pos_max
    z2 = config.bounds.z2_max if config.bounds.z2_max is not None else extrema.vel_max
    avg = bounds_mod.AveragedParams.from_nodes(config.params)
    rows: list[tuple[str, float]] = [
        ("p_M", extrema.pos_max),
        ("v_M", extrema.vel_max),
        ("m_bar", bounds_mod.m_bar(config.params, extrema.pos_max, extrema.vel_max)),
    ]

    window = bounds_mod.contraction_window(avg, z1, z2, config.topology.n)
    rows += [
        ("c_lo", window.c_lo),
        ("c_hi", window.c_hi),
        ("contraction_feasible", float(window.feasible)),
        ("contraction_assumes_complete_unweighted", 1.0),
        ("topology_is_complete_unweighted", float(bounds_mod.is_complete_unweighted(config.topology))),
    ]

    quad_ok = False
    if config.topology.is_connected():
        lam2 = neighbor_lambda2(config.topology)
        rows.append(("lambda2", lam2))
        quad_ok = bounds_mod.has_spectral_gap(lam2) and bounds_mod.common_gamma(config.params) is not None
    rows.append(("quad_applicable", float(quad_ok)))
    if quad_ok:
        cert = bounds_mod.quad_certificate(
            lam2,
            config.params,
            p=(config.bounds.p11, config.bounds.p22),
            w11=config.bounds.w11,
            coupling_shape=(config.bounds.gamma1, config.bounds.gamma2),
            c=config.protocol.c if isinstance(config.protocol, FullState) else None,
            pos_max=extrema.pos_max,
            vel_max=extrema.vel_max,
            w22=config.bounds.w22,
        )
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


def run_sweep(config: RunConfig) -> list[SweepCell]:
    """Execute the sweep grid cell by cell (no I/O).

    Every cell's config is built before any cell runs, so a swept value the
    config rejects raises ConfigError up front.  Cells are independent: a
    cell that diverges is recorded without stopping the rest of the grid,
    and any other error propagates.
    """
    if config.sweep is None:
        raise ConfigError("configuration has no [sweep] section")
    spec = config.sweep
    grid2 = spec.values2 if spec.field2 else (None,)
    grid = []
    for v1 in spec.values:
        for v2 in grid2:
            cell_cfg = _with_field(config, spec.field, v1)
            if spec.field2 and v2 is not None:
                cell_cfg = _with_field(cell_cfg, spec.field2, v2)
            grid.append((v1, v2, cell_cfg))
    cells: list[SweepCell] = []
    for v1, v2, cell_cfg in grid:
        try:
            traj = _integrate(cell_cfg)
        except DivergenceError:
            cells.append(SweepCell(v1, v2, report=None))
            continue
        report = compute_sync_report(traj, entrainment=cell_cfg.entrainment)
        cells.append(SweepCell(v1, v2, report=report))
    return cells


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


def _write_csv(path: Path, header: Sequence[str], rows) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(_fmt(v) for v in row) + "\n")
    return path


def _write_per_sample(path: Path, header: Sequence[str], times: np.ndarray, *columns: np.ndarray) -> Path:
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
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for start in range(0, len(times), _BLOCK_SAMPLES):
            block = slice(start, start + _BLOCK_SAMPLES)
            t = times[block]
            lead = [np.repeat(t, n).tolist()]
            if per_node:
                lead.append(np.tile(nodes, len(t)).tolist())
            values = [column[block].ravel().tolist() for column in columns]
            handle.write("".join(map(template.__mod__, zip(*lead, *values))))
    return path


def write_outputs(result: RunResult, out_dir: str | Path | None = None) -> RunResult:
    """Write the full artifact bundle for one run and record the paths."""
    base = Path(out_dir if out_dir is not None else result.config.out_dir)
    times = result.trajectory.times
    states = result.trajectory.states
    report = result.report
    written = (
        _write_per_sample(base / "trajectory.csv", ("t", "node", "pos", "vel"),
                          times, states[:, :, 0], states[:, :, 1]),
        _write_per_sample(base / "phases.csv", ("t", "node", "theta"), times, result.phases.phases),
        _write_per_sample(base / "rho_g_series.csv", ("t", "rho_g"), times, report.rho_g_series),
        _write_per_sample(base / "eta_series.csv", ("t", "eta"), times, report.eta_series),
        _write_csv(base / "sync_report.csv", ("metric", "node_or_pair", "value"), _report_rows(report)),
        write_bounds_csv(result.bounds_rows, base),
    )
    return dataclasses.replace(result, written=written)


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


def write_bounds_csv(rows, out_dir: str | Path) -> Path:
    """Write (quantity, value) rows as bounds.csv under out_dir."""
    return _write_csv(Path(out_dir) / "bounds.csv", ("quantity", "value"), rows)


def run(config: RunConfig, out_dir: str | Path | None = None) -> RunResult:
    """Simulate one configuration and write its artifact bundle."""
    return write_outputs(simulate(config), out_dir)


def sweep(config: RunConfig, out_dir: str | Path | None = None) -> list[SweepCell]:
    """Run the sweep grid and write the long-form sweep.csv."""
    cells = run_sweep(config)
    base = Path(out_dir if out_dir is not None else config.out_dir)
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
    _write_csv(base / "sweep.csv", ("param1", "param2", "rho_g_mean", "rho_g_std", "rho_E"), rows)
    return cells
