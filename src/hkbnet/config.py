"""Run configurations: presets, the config file reader, the run contract, sweep cells, CLI overrides.

A run is described by a named preset or by an INI-style config file.  The
README is the reference: "Config file format" for the file's sections and
options, and "Command line" for the checks every RunConfig passes and for
the flags that override a config's fields.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import presets
from .bounds import BoundsOptions
from .dynamics import (
    PROTOCOL_KINDS,
    CouplingProtocol,
    Entrainment,
    FullState,
    HkbCoupling,
    NoCoupling,
    OscillatorParams,
    PartialState,
    check_drive,
    step_count,
    strength_fields,
)
from .graph import Topology, TopologyError, complete_graph


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
            steps = step_count(self.duration, self.dt)
        except ValueError as exc:
            raise ConfigError(f"[simulation] {exc}") from None
        samples = steps + 1
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
        try:
            check_drive(self.entrainment, steps, self.dt)
        except ValueError as exc:
            raise ConfigError(f"[entrainment] {exc}") from None
        if self.sweep is not None:
            _sweep_grid(self)


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------


def _rocking6(label: str, protocol: CouplingProtocol) -> RunConfig:
    return RunConfig(
        label=label,
        topology=complete_graph(6, 1.0),
        params=presets.ROCKING6_PARAMS,
        initial_states=presets.ROCKING6_INITIAL,
        protocol=protocol,
    )


def _validation5() -> RunConfig:
    return RunConfig(
        label="validation5",
        topology=Topology(presets.VALIDATION5_WEIGHTS),
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
        with open(path, "r", encoding="utf-8-sig") as handle:
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
    path = Path(source)
    if name in PRESET_BUILDERS:
        # a directory cannot be a config file, so one named after the preset (an --out-dir) is fine
        if path.is_file():
            raise ConfigError(f"{name!r} is both a preset name and a config file; write ./{name} to load the file")
        return preset_config(name)
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
    if "entrainment.frequency" in swept and "entrainment.amplitude" not in swept and ent.amplitude == 0.0:
        diagnostics.append("entrainment: entrainment.frequency is swept at amplitude 0 (no effect in any cell)")
    if cfg.bounds.quad:
        _, failures = bounds_mod.quad_hypotheses(cfg.topology, cfg.params)
        diagnostics += [
            f"bounds: quad bound requested but {failure} (certificate inapplicable)" for failure in failures
        ]
    return diagnostics



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
        return replaced(config, entrainment=ent)
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
    if spec is None:
        raise ConfigError("configuration has no [sweep] section")
    base = dataclasses.replace(config, sweep=None)
    grid = []
    for v1 in spec.values:
        for v2 in spec.values2 or (None,):
            cell_cfg = _with_field(base, spec.field, v1)
            if v2 is not None:
                cell_cfg = _with_field(cell_cfg, spec.field2, v2)
            grid.append((v1, v2, cell_cfg))
    return grid



def apply_overrides(config: RunConfig, out_dir: str | None, dt: float | None, duration: float | None) -> RunConfig:
    """Return config with each CLI flag that was given (not None) set; a flag may not set a swept field."""
    if out_dir is not None and not out_dir.strip():
        # a blank [output] directory means the default; a blank flag would write into the working directory
        raise ConfigError("[output] --out-dir must not be blank")
    flags = {"out_dir": out_dir, "dt": dt, "duration": duration}
    updates = {name: value for name, value in flags.items() if value is not None}
    swept = () if config.sweep is None else (config.sweep.field, config.sweep.field2)
    for name in ("dt", "duration"):
        if name in updates and f"simulation.{name}" in swept:
            raise ConfigError(f"[sweep] simulation.{name} is swept, so --{name} cannot also set it")
    return dataclasses.replace(config, **updates) if updates else config
