"""Command-line entry point.

    hkbnet run <config>       simulate and write the artifact bundle
    hkbnet sweep <config>     run the sweep grid and write sweep.csv
    hkbnet bounds <config>    evaluate the analytic bounds, write bounds.csv
    hkbnet validate <config>  print configuration diagnostics

<config> is a preset name (rocking6-nc, rocking6-fsc, rocking6-psc,
rocking6-hkb, validation5) or a path to a config file; --out-dir, --dt and
--duration override its fields.  run, sweep and bounds create the output
directory before any work.  Exit status: 0 success, 2 invalid configuration
(also an output directory that cannot be created, a grid whose samples do
not fit in memory, or a node that never moves), 3 divergence during
integration.  validate exits 0 whatever diagnostics it prints, unless the
configuration itself is invalid (2).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .dynamics import DivergenceError
from .phase import DegenerateSignalError
from .runner import (
    ConfigError,
    PRESET_NAMES,
    bounds_rows,
    load_config,
    run,
    sweep,
    validate_config,
    write_bounds_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hkbnet",
        description="Simulate and analyze networks of coupled HKB oscillators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("run", "simulate one configuration and write all artifact CSVs"),
        ("sweep", "run a parameter sweep and write sweep.csv"),
        ("bounds", "evaluate the analytic coupling bounds and write bounds.csv"),
        ("validate", "print configuration diagnostics without running"),
    ):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("config", help=f"preset ({', '.join(PRESET_NAMES)}) or config file path")
        cmd.add_argument("--out-dir", default=None, help="override the output directory")
        cmd.add_argument("--dt", type=float, default=None, help="override the integration step")
        cmd.add_argument("--duration", type=float, default=None, help="override the run duration")
    return parser


def _apply_overrides(config, args):
    updates = {}
    if args.out_dir is not None:
        updates["out_dir"] = args.out_dir
    if args.dt is not None:
        updates["dt"] = args.dt
    if args.duration is not None:
        updates["duration"] = args.duration
    return dataclasses.replace(config, **updates) if updates else config


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _apply_overrides(load_config(args.config), args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.command != "validate":
        try:
            Path(config.out_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(f"error: [output] cannot create directory {config.out_dir}: {exc}", file=sys.stderr)
            return EXIT_CONFIG

    try:
        if args.command == "validate":
            diagnostics = validate_config(config)
            for line in diagnostics:
                print(line)
            print(f"{len(diagnostics)} diagnostic(s)")
            return EXIT_OK
        if args.command == "run":
            result = run(config)
            print(
                f"{config.label}: rho_g_mean={result.report.rho_g_mean:.4f} "
                f"rho_g_std={result.report.rho_g_std:.4f} "
                f"eta_final={result.report.eta_series[-1]:.4f}"
            )
            for path in result.written:
                print(f"wrote {path}")
            return EXIT_OK
        if args.command == "sweep":
            cells = sweep(config)
            diverged = sum(1 for c in cells if c.report is None)
            print(f"{config.label}: {len(cells)} cells, {diverged} diverged")
            print(f"wrote {Path(config.out_dir) / 'sweep.csv'}")
            return EXIT_OK
        if args.command == "bounds":
            rows = bounds_rows(config)
            path = write_bounds_csv(rows, config.out_dir)
            for quantity, value in rows:
                print(f"{quantity} = {value:.6g}")
            print(f"wrote {path}")
            return EXIT_OK
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DegenerateSignalError as exc:
        print(f"error: [nodes] {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
