"""The benchmark's three workloads: inputs, timed items and output checks.

Each workload builds its inputs from the seed and makes one warm-up call in
its constructor (the set-up), then hands out rounds of items.  An item's
``run`` is the timed call into hkbnet's public API; its ``check`` runs
after the timer stops and returns a list of failure messages.

* run_presets   -- ``hkbnet run <preset>`` for the five bundled presets as
                   shipped (T = 200 s, dt = 0.01 s).  Does not use the seed.
* sweep_entrain -- ``hkbnet sweep`` on a 2 x 2 entrainment frequency x
                   amplitude grid over rocking6-fsc; the seed picks the grid.
* cert_survey   -- ``runner.bounds_rows`` on 100 seeded random connected
                   graphs (n = 5..24, five of each size) with a common gamma,
                   given state bounds and a coupling above c_bar, so both
                   certificates and epsilon are evaluated without integrating.
"""

from __future__ import annotations

import collections
import csv
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from hkbnet import cli, runner
from hkbnet.bounds import quad_cbar_direct
from hkbnet.dynamics import FullState, OscillatorParams, Trajectory
from hkbnet.graph import random_weighted_graph

REFERENCE_PATH = Path(__file__).with_name("reference_run_presets.json")
RUN_PRESETS = ("rocking6-nc", "rocking6-fsc", "rocking6-psc", "rocking6-hkb", "validation5")
PRESET_CSVS = (
    "trajectory.csv",
    "phases.csv",
    "rho_g_series.csv",
    "eta_series.csv",
    "sync_report.csv",
    "bounds.csv",
)
# A reported value passes when |value - reference| <= VALUE_RTOL * max(1, |reference|).
VALUE_RTOL = 1e-7
# lambda2 and c_bar against the numpy reference, same form of tolerance.
SPECTRAL_RTOL = 1e-9

SWEEP_FREQ_RANGE = (0.1, 0.9)  # rad/s, the acceptance fixture's frequency range
SWEEP_AMP_RANGE = (0.05, 0.3)  # the acceptance fixture's amplitude range
SURVEY_SIZES = range(5, 25)
SURVEY_GRAPHS_PER_SIZE = 5


@dataclass
class Item:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


def exactly(calls: int) -> tuple[int, int]:
    return (calls, calls)


def at_least(calls: int) -> tuple[int, None]:
    return (calls, None)


def read_csv_rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def _close(value: float, reference: float, rtol: float) -> bool:
    return abs(value - reference) <= rtol * max(1.0, abs(reference))


def preset_values(out_dir: Path) -> dict[str, dict[str, float]]:
    """The checked scalars of one run: sync_report.csv and bounds.csv rows."""
    report = {
        f"{metric}:{key}": float(value)
        for metric, key, value in read_csv_rows(out_dir / "sync_report.csv")[1:]
    }
    bounds = {quantity: float(value) for quantity, value in read_csv_rows(out_dir / "bounds.csv")[1:]}
    return {"sync_report": report, "bounds": bounds}


def compare_values(label: str, got: dict, reference: dict) -> list[str]:
    failures = []
    for table, expected in reference.items():
        for key, ref in expected.items():
            value = got.get(table, {}).get(key)
            if value is None:
                failures.append(f"{label}: {table} row {key!r} missing")
            elif not _close(value, ref, VALUE_RTOL):
                failures.append(f"{label}: {table} {key} = {value!r}, reference {ref!r}")
    return failures


class RunPresets:
    """``hkbnet run`` on each bundled preset; one item is one run."""

    name = "run_presets"
    noun = "runs"
    units_per_item = 1
    min_rounds = 1

    def __init__(self, seed: int, out_dir: Path):
        del seed  # the presets are fixed; the workload does not depend on the seed
        self.out_dir = out_dir
        self.counters = collections.Counter()
        self.reference = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
        warm = out_dir / "warmup"
        code = cli.main(["run", "rocking6-fsc", "--out-dir", str(warm), "--duration", "1"])
        if code != 0:
            raise RuntimeError(f"warm-up run exited with status {code}")

    def round(self) -> list[Item]:
        return [self._item(preset) for preset in RUN_PRESETS]

    def _item(self, preset: str) -> Item:
        out = self.out_dir / preset
        argv = ["run", preset, "--out-dir", str(out)]
        return Item(preset, lambda: cli.main(argv), lambda code: self._check(preset, out, code))

    def _check(self, preset: str, out: Path, code) -> list[str]:
        if code != 0:
            return [f"{preset}: exit status {code}"]
        missing = [name for name in PRESET_CSVS if not (out / name).is_file()]
        if missing:
            return [f"{preset}: missing {', '.join(missing)}"]
        reference = self.reference[preset]
        for name in PRESET_CSVS:
            data = (out / name).read_bytes()
            self.counters["runner.write_outputs.bytes"] += len(data)
            self.counters["runner.write_outputs.rows"] += data.count(b"\n") - 1
            if hashlib.sha256(data).hexdigest() != reference["sha256"][name]:
                self.counters["runner.write_outputs.digest_changes"] += 1
        return compare_values(preset, preset_values(out), reference["values"])

    def expected_calls(self, items: int) -> dict[str, tuple]:
        return {
            "cli.main": exactly(items),
            "runner.load_config": exactly(items),
            "runner.write_outputs": exactly(items),
            "runner.bounds_rows": exactly(items),
            "dynamics.integrate": exactly(items),
            "phase.phases_from_trajectory": at_least(items),
            "metrics.compute_sync_report": exactly(items),
            "graph.spectrum": at_least(items),
            "bounds.contraction_window": exactly(items),
            "bounds.quad_certificate": exactly(items // len(RUN_PRESETS)),  # validation5 only
            "runner.sweep": exactly(0),
            "runner.run_sweep": exactly(0),
        }


def sweep_grid(seed: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Two frequencies and two amplitudes drawn from the fixed ranges."""
    rng = np.random.default_rng(seed)
    freqs = tuple(sorted(round(float(v), 3) for v in rng.uniform(*SWEEP_FREQ_RANGE, 2)))
    amps = tuple(sorted(round(float(v), 3) for v in rng.uniform(*SWEEP_AMP_RANGE, 2)))
    return freqs, amps


def entrainment_sweep_config(freqs, amps, out_dir: Path) -> str:
    """Config file text for the rocking6-fsc preset with an entrainment sweep."""
    base = runner.preset_config("rocking6-fsc")
    table = "\n".join(
        f"    {p.alpha!r} {p.beta!r} {p.gamma!r} {p.omega!r} {x0!r} {v0!r}"
        for p, (x0, v0) in zip(base.params, base.initial_states.tolist())
    )
    return (
        "[network]\npreset = complete\n"
        f"nodes = {base.topology.n}\nweight = 1.0\n\n"
        f"[nodes]\ntable =\n{table}\n\n"
        f"[protocol]\nkind = full_state\nc = {base.protocol.c!r}\n\n"
        f"[entrainment]\nenabled = true\namplitude = {amps[0]!r}\nfrequency = {freqs[0]!r}\n\n"
        f"[simulation]\nduration = {base.duration!r}\ndt = {base.dt!r}\n\n"
        "[sweep]\nfield = entrainment.frequency\n"
        f"values = {' '.join(map(repr, freqs))}\n"
        "field2 = entrainment.amplitude\n"
        f"values2 = {' '.join(map(repr, amps))}\n\n"
        f"[output]\ndirectory = {out_dir}\n"
    )


def check_sweep_csv(data: bytes, freqs, amps) -> list[str]:
    """Every cell present, in grid order, with rho values in [0, 1]."""
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    if rows[:1] != [["param1", "param2", "rho_g_mean", "rho_g_std", "rho_E"]]:
        return [f"sweep.csv: unexpected header {rows[:1]}"]
    expected = [(f, a) for f in freqs for a in amps]
    if len(rows) - 1 != len(expected):
        return [f"sweep.csv: {len(rows) - 1} cells, expected {len(expected)}"]
    failures = []
    for (freq, amp), row in zip(expected, rows[1:]):
        if float(row[0]) != freq or float(row[1]) != amp:
            failures.append(f"sweep.csv: cell ({row[0]}, {row[1]}), expected ({freq}, {amp})")
            continue
        for column, text in zip(("rho_g_mean", "rho_g_std", "rho_E"), row[2:]):
            value = float(text) if text else float("nan")
            if not 0.0 <= value <= 1.0:
                failures.append(f"sweep.csv: cell ({freq}, {amp}) {column} = {text!r}")
    return failures


class SweepEntrain:
    """``hkbnet sweep`` over a seeded entrainment grid; one item is one sweep job."""

    name = "sweep_entrain"
    noun = "cells"
    min_rounds = 2  # two passes, so the output can be compared between them

    def __init__(self, seed: int, out_dir: Path):
        self.out_dir = out_dir
        self.counters = collections.Counter()
        self.freqs, self.amps = sweep_grid(seed)
        self.units_per_item = len(self.freqs) * len(self.amps)
        self.config_path = out_dir / "entrain.cfg"
        out_dir.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(
            entrainment_sweep_config(self.freqs, self.amps, out_dir / "sweep"), encoding="utf-8"
        )
        self.first_output: bytes | None = None
        warm = ["sweep", str(self.config_path), "--out-dir", str(out_dir / "warmup"), "--duration", "1"]
        code = cli.main(warm)
        if code != 0:
            raise RuntimeError(f"warm-up sweep exited with status {code}")

    def round(self) -> list[Item]:
        argv = ["sweep", str(self.config_path)]
        return [Item("sweep", lambda: cli.main(argv), self._check)]

    def _check(self, code) -> list[str]:
        if code != 0:
            return [f"sweep: exit status {code}"]
        data = (self.out_dir / "sweep" / "sweep.csv").read_bytes()
        if self.first_output is None:
            self.first_output = data
        elif data != self.first_output:
            return ["sweep.csv differs between two passes of the same sweep"]
        return check_sweep_csv(data, self.freqs, self.amps)

    def expected_calls(self, items: int) -> dict[str, tuple]:
        cells = items * self.units_per_item
        return {
            "cli.main": exactly(items),
            "runner.load_config": exactly(items),
            "runner.sweep": exactly(items),
            "runner.run_sweep": exactly(items),
            "dynamics.integrate": exactly(cells),
            "phase.phases_from_trajectory": at_least(cells),
            "metrics.compute_sync_report": exactly(cells),
            "runner.write_outputs": exactly(0),
            "runner.bounds_rows": exactly(0),
        }


def reference_lambda2(weights: np.ndarray) -> float:
    """lambda2 of the neighbor-normalized Laplacian via numpy's symmetric solver.

    The normalized Laplacian D^-1 L (D the neighbor counts) is similar to the
    symmetric D^-1/2 L D^-1/2, which has the same eigenvalues.
    """
    lap = np.diag(weights.sum(axis=1)) - weights
    root = np.sqrt(np.count_nonzero(weights > 0.0, axis=1).astype(float))
    return float(np.linalg.eigvalsh(lap / np.outer(root, root))[1])


@dataclass
class SurveyCase:
    config: runner.RunConfig
    pilot: Trajectory
    lambda2: float
    c_bar: float


def survey_cases(seed: int) -> list[SurveyCase]:
    """Seeded connected graphs, five of each size, with common-gamma nodes."""
    rng = np.random.default_rng(seed)
    cases = []
    for rep in range(SURVEY_GRAPHS_PER_SIZE):
        for n in SURVEY_SIZES:
            topology = random_weighted_graph(
                n, float(rng.uniform(0.3, 0.9)), 0.5, 2.0, seed=int(rng.integers(2**31))
            )
            gamma = float(rng.uniform(0.3, 1.5))
            params = tuple(
                OscillatorParams(
                    alpha=float(rng.uniform(0.1, 0.8)),
                    beta=float(rng.uniform(0.2, 1.8)),
                    gamma=gamma,
                    omega=float(rng.uniform(0.1, 0.9)),
                )
                for _ in range(n)
            )
            bound = np.array([rng.uniform(1.0, 3.0), rng.uniform(0.5, 2.0)])
            # Two samples whose extrema are the drawn state bounds (p_M, v_M).
            box = np.tile(bound, (n, 1))
            pilot = Trajectory(dt=1.0, times=np.array([0.0, 1.0]), states=np.stack([box, -box]))
            lam2 = reference_lambda2(topology.weights)
            defaults = runner.BoundsOptions()
            c_bar = quad_cbar_direct(
                lam2, gamma, (defaults.p11, defaults.p22), defaults.w11, (defaults.gamma1, defaults.gamma2)
            )
            config = runner.RunConfig(
                label=f"graph{rep}-n{n}",
                topology=topology,
                params=params,
                initial_states=np.zeros((n, 2)),
                protocol=FullState(2.0 * c_bar),  # above c_bar, so epsilon exists
                bounds=runner.BoundsOptions(quad=True),
            )
            cases.append(SurveyCase(config, pilot, lam2, c_bar))
    return cases


def check_certificate(case: SurveyCase, rows) -> list[str]:
    label = case.config.label
    got = dict(rows)
    failures = []
    for key, reference in (("lambda2", case.lambda2), ("c_bar", case.c_bar)):
        if key not in got:
            failures.append(f"{label}: no {key} row")
        elif not _close(got[key], reference, SPECTRAL_RTOL):
            failures.append(f"{label}: {key} = {got[key]!r}, numpy reference {reference!r}")
    if got.get("epsilon_applicable") != 1.0 or not got.get("epsilon", 0.0) > 0.0:
        failures.append(f"{label}: epsilon not computed above c_bar")
    if "c_lo" not in got or "c_hi" not in got:
        failures.append(f"{label}: no contraction window rows")
    return failures


class CertSurvey:
    """Both certificates on seeded random topologies; one item is one graph."""

    name = "cert_survey"
    noun = "certificates"
    units_per_item = 1
    min_rounds = 1

    def __init__(self, seed: int, out_dir: Path):
        self.counters = collections.Counter()
        self.cases = survey_cases(seed)
        warm = self.cases[0]
        failures = check_certificate(warm, runner.bounds_rows(warm.config, warm.pilot))
        if failures:
            raise RuntimeError(f"warm-up certificate failed: {failures}")

    def round(self) -> list[Item]:
        return [self._item(case) for case in self.cases]

    @staticmethod
    def _item(case: SurveyCase) -> Item:
        return Item(
            case.config.label,
            lambda: runner.bounds_rows(case.config, case.pilot),
            lambda rows: check_certificate(case, rows),
        )

    def expected_calls(self, items: int) -> dict[str, tuple]:
        return {
            "runner.bounds_rows": exactly(items),
            "bounds.contraction_window": exactly(items),
            "bounds.quad_certificate": exactly(items),
            "graph.spectrum": at_least(items),
            "dynamics.integrate": exactly(0),
            "runner.write_outputs": exactly(0),
            "cli.main": exactly(0),
        }


WORKLOADS = {cls.name: cls for cls in (RunPresets, SweepEntrain, CertSurvey)}
