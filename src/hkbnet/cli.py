"""Command-line entry point: hkbnet run|sweep|bounds|validate <config>.

The README's "Command line" section is the reference for the verbs, the
flags and the exit statuses.
"""

from __future__ import annotations

import argparse
import sys

from .config import PRESET_NAMES, ConfigError, apply_overrides, load_config, validate_config
from .dynamics import DivergenceError
from .runner import evaluate_bounds, run, sweep

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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = apply_overrides(load_config(args.config), args.out_dir, args.dt, args.duration)
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
            cells, path = sweep(config)
            diverged = sum(1 for c in cells if c.report is None)
            print(f"{config.label}: {len(cells)} cells, {diverged} diverged")
            print(f"wrote {path}")
            return EXIT_OK
        if args.command == "bounds":
            rows, path = evaluate_bounds(config)
            for quantity, value in rows:
                print(f"{quantity} = {value:.6g}")
            print(f"wrote {path}")
            return EXIT_OK
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
