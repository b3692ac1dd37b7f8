"""Tests for config parsing, presets, artifact emission, and the CLI."""

import copy
import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from contextlib import ExitStack, redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkbnet import cli, config, metrics, runner
from hkbnet.dynamics import Entrainment, FullState, HkbCoupling, NoCoupling, PartialState, step_count
from hkbnet.presets import (
    ROCKING6_INITIAL,
    ROCKING6_PARAMS,
    VALIDATION5_INITIAL,
    VALIDATION5_PARAMS,
    VALIDATION5_WEIGHTS,
)

REPO_ROOT = Path(__file__).resolve().parents[1]

# Verbatim copies of the bundled parameter tables, kept here so a preset
# edit cannot silently drift: (alpha, beta, gamma, omega, pos0, vel0).
SIX_NODE_TABLE = [
    (0.46, 1.16, 0.58, 0.31, -1.4, 0.3),
    (0.37, 1.20, 1.84, 0.52, 1.0, 0.2),
    (0.34, 1.73, 0.62, 0.37, -1.8, -0.3),
    (0.17, 0.31, 1.86, 0.41, 0.2, -0.2),
    (0.76, 0.76, 1.40, 0.85, 1.5, 0.1),
    (0.25, 0.86, 0.56, 0.62, -0.8, -0.1),
]

FIVE_NODE_TABLE = [
    (0.46, 1.16, 0.58, 0.16, -1.4, 0.3),
    (0.37, 1.20, 0.58, 0.26, 1.0, 0.2),
    (0.34, 1.73, 0.58, 0.18, -1.8, -0.3),
    (0.17, 0.31, 0.58, 0.21, 0.2, -0.2),
    (0.76, 0.76, 0.58, 0.27, 1.5, 0.1),
]

GOOD_CONFIG = """\
[run]
label = demo

[network]
weights =
    0 1
    1 0

[nodes]
table =
    0.46 1.16 0.58 0.31 -1.4 0.3
    0.25 0.86 0.56 0.62 -0.8 -0.1

[protocol]
kind = full_state
c = 0.15

[simulation]
duration = 5
dt = 0.01

[output]
directory = out
"""


class TestPresetFixtures:
    def test_six_node_table_matches(self):
        for params, x0, row in zip(ROCKING6_PARAMS, ROCKING6_INITIAL, SIX_NODE_TABLE):
            assert (params.alpha, params.beta, params.gamma, params.omega) == row[:4]
            assert tuple(x0) == row[4:]

    def test_five_node_table_matches(self):
        for params, x0, row in zip(VALIDATION5_PARAMS, VALIDATION5_INITIAL, FIVE_NODE_TABLE):
            assert (params.alpha, params.beta, params.gamma, params.omega) == row[:4]
            assert tuple(x0) == row[4:]

    def test_fixture_graph_is_valid(self):
        assert np.array_equal(VALIDATION5_WEIGHTS, VALIDATION5_WEIGHTS.T)
        assert np.all(np.diag(VALIDATION5_WEIGHTS) == 0.0)
        assert VALIDATION5_WEIGHTS.max() <= 2.0

    def test_preset_protocols(self):
        assert isinstance(runner.preset_config("rocking6-nc").protocol, NoCoupling)
        assert runner.preset_config("rocking6-fsc").protocol == FullState(0.15)
        assert runner.preset_config("rocking6-psc").protocol == PartialState(0.15, 0.15)
        assert runner.preset_config("rocking6-hkb").protocol == HkbCoupling(-1.0, -1.0, 0.15)
        assert runner.preset_config("validation5").protocol == FullState(0.07)

    def test_unknown_preset(self):
        with pytest.raises(runner.ConfigError):
            runner.preset_config("rocking7")


class TestConfigParsing:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "demo.cfg"
        path.write_text(GOOD_CONFIG)
        cfg = runner.load_config(path)
        assert cfg.label == "demo"
        assert cfg.topology.n == 2
        assert cfg.protocol == FullState(0.15)
        assert cfg.duration == 5.0
        assert cfg.params[0].alpha == 0.46
        assert tuple(cfg.initial_states[1]) == (-0.8, -0.1)

    def test_missing_section(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[network]\npreset = complete\nnodes = 3\n")
        with pytest.raises(runner.ConfigError) as err:
            runner.load_config(path)
        assert "nodes" in str(err.value)

    def test_bad_number_names_field(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(GOOD_CONFIG.replace("c = 0.15", "c = fast"))
        with pytest.raises(runner.ConfigError) as err:
            runner.load_config(path)
        assert "protocol" in str(err.value)

    def test_ragged_matrix_reports_rows(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(GOOD_CONFIG.replace("    0 1\n    1 0", "    0 1\n    1 0 2"))
        with pytest.raises(runner.ConfigError) as err:
            runner.load_config(path)
        assert "weights" in str(err.value)

    def test_node_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(
            GOOD_CONFIG.replace("    0.25 0.86 0.56 0.62 -0.8 -0.1\n", "")
        )
        with pytest.raises(runner.ConfigError) as err:
            runner.load_config(path)
        assert "2 nodes" in str(err.value)

    def test_empty_known_sections_load(self, tmp_path):
        # an empty [bounds] is a certificate request, an empty [entrainment] takes every default
        path = tmp_path / "empty.cfg"
        path.write_text(GOOD_CONFIG + "\n[bounds]\n\n[entrainment]\n")
        cfg = runner.load_config(path)
        assert cfg.bounds == runner.BoundsOptions(quad=True)
        assert cfg.entrainment == Entrainment()

    @pytest.mark.parametrize("field, value, message", [
        pytest.param("params", ROCKING6_PARAMS[:5], "got 5 parameter sets for 6 nodes", id="params"),
        pytest.param("initial_states", ROCKING6_INITIAL[:, :1], "initial states have shape (6, 1), not (6, 2)",
                     id="states-shape"),
        pytest.param("initial_states", np.full((6, 2), np.nan), "initial states must be finite", id="states-nan"),
    ])
    def test_node_table_checked_on_construction(self, field, value, message):
        with pytest.raises(runner.ConfigError, match=re.escape(f"[nodes] {message}")):
            dataclasses.replace(runner.preset_config("rocking6-fsc"), **{field: value})

    def test_complete_shorthand(self, tmp_path):
        path = tmp_path / "complete.cfg"
        path.write_text(
            "[network]\npreset = complete\nnodes = 6\nweight = 1.0\n\n[nodes]\ntable =\n"
            + "".join(f"    {' '.join(str(v) for v in row)}\n" for row in SIX_NODE_TABLE)
            + "\n[protocol]\nkind = hkb\na = -1\nb = -1\nc = 0.15\n"
        )
        cfg = runner.load_config(path)
        assert cfg.topology.n == 6
        assert cfg.protocol == HkbCoupling(-1.0, -1.0, 0.15)

    def test_complete_graph_out_of_memory_exits_config(self, tmp_path, monkeypatch):
        def no_memory(*args):
            raise MemoryError

        monkeypatch.setattr(config, "complete_graph", no_memory)
        path = tmp_path / "complete.cfg"
        path.write_text(GOOD_CONFIG.replace(COMPLETE_WEIGHTS, "preset = complete\nnodes = 2"))
        with pytest.raises(runner.ConfigError, match=re.escape("[network] nodes = 2")):
            runner.load_config(path)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # editors that save UTF-8 "with signature" put U+FEFF before the first header
        (tmp_path / "plain").mkdir()
        (tmp_path / "bom").mkdir()
        (tmp_path / "plain" / "demo.cfg").write_text(GOOD_CONFIG, encoding="utf-8")
        (tmp_path / "bom" / "demo.cfg").write_text(GOOD_CONFIG, encoding="utf-8-sig")
        assert (tmp_path / "bom" / "demo.cfg").read_bytes().startswith(b"\xef\xbb\xbf[run]")
        plain, bom = (runner.load_config(tmp_path / d / "demo.cfg") for d in ("plain", "bom"))
        for field in dataclasses.fields(plain):
            a, b = getattr(plain, field.name), getattr(bom, field.name)
            if field.name == "topology":
                a, b = a.weights, b.weights
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, field.name

    def test_dot_slash_loads_a_file_named_like_a_preset(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "rocking6-fsc").write_text(GOOD_CONFIG)
        assert runner.load_config("./rocking6-fsc").topology.n == 2
        # a directory cannot be a config file, so one named like a preset (an --out-dir) leaves the preset alone
        (tmp_path / "validation5").mkdir()
        assert runner.load_config("validation5").topology.n == 5

    def test_nonexistent_source(self):
        with pytest.raises(runner.ConfigError):
            runner.load_config("no/such/file.cfg")

    def test_readme_example(self, tmp_path):
        # the README's documented format must be what the reader accepts
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        section = readme[readme.index("## Config file format"):]
        path = tmp_path / "readme.cfg"
        path.write_text(section.split("```ini\n", 1)[1].split("```", 1)[0])
        cfg = runner.load_config(path)
        assert cfg.protocol == FullState(0.15)
        assert cfg.sweep == runner.SweepSpec(field="protocol.c", values=(0.05, 0.1, 0.15, 0.2))
        assert cfg.bounds.quad and cfg.bounds.w22 == 0.045

    def test_benchmark_sweep_config_validates(self, entrainment_sweep_path, capsys):
        # the config the benchmark's sweep_entrain workload writes must stay one the reader accepts
        assert cli.main(["validate", str(entrainment_sweep_path)]) == cli.EXIT_OK
        assert capsys.readouterr().out == "0 diagnostic(s)\n"


class TestValidateConfig:
    def test_valid_presets_are_clean(self):
        for name in config.PRESET_NAMES:
            assert config.validate_config(runner.preset_config(name)) == []

    def test_asymmetric_matrix_diagnostic(self, tmp_path):
        path = tmp_path / "asym.cfg"
        path.write_text(GOOD_CONFIG.replace("    0 1\n    1 0", "    0 1\n    2 0"))
        with pytest.raises(runner.ConfigError, match=r"\[network\] weights: .*symmetric"):
            runner.load_config(path)

    def test_heterogeneous_gamma_with_quad_request(self, tmp_path):
        path = tmp_path / "quad.cfg"
        path.write_text(GOOD_CONFIG + "\n[bounds]\nquad = true\n")
        diagnostics = config.validate_config(runner.load_config(path))
        assert any("gamma" in d for d in diagnostics)

    def test_no_spectral_gap_with_quad_request(self, tmp_path):
        # a connected 4-node path whose 1e-10 middle edge leaves lambda2 below tolerance
        path = tmp_path / "bridge.cfg"
        path.write_text(
            GOOD_CONFIG.replace("    0 1\n    1 0", "    0 1 0 0\n    1 0 1e-10 0\n    0 1e-10 0 1\n    0 0 1 0")
            .replace("0.56 0.62 -0.8 -0.1", "0.58 0.62 -0.8 -0.1\n    0.37 1.20 0.58 0.52 1.0 0.2"
                     "\n    0.34 1.73 0.58 0.37 -1.8 -0.3")
            + "\n[bounds]\nquad = true\n"
        )
        assert config.validate_config(runner.load_config(path)) == [
            "bounds: quad bound requested but lambda2 = 6.67e-11 leaves no spectral gap "
            "(certificate inapplicable)"
        ]
        out_dir = tmp_path / "out"
        assert cli.main(["bounds", str(path), "--out-dir", str(out_dir)]) == cli.EXIT_OK
        assert "quad_applicable,0\n" in (out_dir / "bounds.csv").read_text()

    def test_amplitude_without_enabled_flagged(self, tmp_path):
        path = tmp_path / "ent.cfg"
        path.write_text(GOOD_CONFIG + "\n[entrainment]\namplitude = 0.3\n")
        assert config.validate_config(runner.load_config(path)) == [
            "entrainment: amplitude 0.3 but not enabled (no effect)"
        ]
        # a swept entrainment field switches the entrainment on in every cell
        path.write_text(path.read_text() + "\n[sweep]\nfield = entrainment.frequency\nvalues = 0.5 1.0\n")
        assert config.validate_config(runner.load_config(path)) == []

    def test_frequency_sweep_at_zero_amplitude_flagged(self, tmp_path):
        # every cell enables the drive, but at amplitude 0 it is never active
        path = tmp_path / "freq.cfg"
        path.write_text(GOOD_CONFIG + "\n[sweep]\nfield = entrainment.frequency\nvalues = 0.5 1.0\n")
        assert config.validate_config(runner.load_config(path)) == [
            "entrainment: entrainment.frequency is swept at amplitude 0 (no effect in any cell)"
        ]
        # a swept amplitude gives the drive one; test_benchmark_sweep_config_validates
        # keeps the benchmark's frequency x amplitude sweep clean as well
        path.write_text(path.read_text() + "field2 = entrainment.amplitude\nvalues2 = 0.1 0.3\n")
        assert config.validate_config(runner.load_config(path)) == []

    def test_zero_strength_flagged(self):
        cfg = dataclasses.replace(
            runner.preset_config("rocking6-psc"), protocol=PartialState(0.0, 0.0)
        )
        assert any("inactive" in d for d in config.validate_config(cfg))

    def test_dt_must_divide_duration(self, tmp_path):
        with pytest.raises(runner.ConfigError, match=r"\[simulation\] dt=0.3 does not divide"):
            dataclasses.replace(runner.preset_config("rocking6-nc"), duration=1.0, dt=0.3)
        path = tmp_path / "grid.cfg"
        path.write_text(GOOD_CONFIG.replace("dt = 0.01", "dt = 0.3"))
        with pytest.raises(runner.ConfigError, match=r"\[simulation\] dt=0.3 does not divide"):
            runner.load_config(path)


@pytest.fixture(scope="module")
def short_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = dataclasses.replace(runner.preset_config("validation5"), duration=5.0, out_dir=str(out))
    return runner.run(cfg), out


class TestRunOutputs:

    def test_all_artifacts_written(self, short_run):
        _, out = short_run
        expected = {
            "trajectory.csv",
            "phases.csv",
            "rho_g_series.csv",
            "eta_series.csv",
            "sync_report.csv",
            "bounds.csv",
        }
        assert {p.name for p in out.iterdir()} == expected

    def test_lf_endings_and_headers(self, short_run):
        _, out = short_run
        headers = {
            "trajectory.csv": "t,node,pos,vel",
            "phases.csv": "t,node,theta",
            "rho_g_series.csv": "t,rho_g",
            "eta_series.csv": "t,eta",
            "sync_report.csv": "metric,node_or_pair,value",
            "bounds.csv": "quantity,value",
        }
        for name, header in headers.items():
            raw = (out / name).read_bytes()
            assert b"\r" not in raw
            assert raw.decode("utf-8").splitlines()[0] == header

    def test_nine_significant_digits(self, short_run):
        result, out = short_run
        lines = (out / "sync_report.csv").read_text().splitlines()
        row = next(line for line in lines if line.startswith("rho_g_mean"))
        assert row.split(",")[2] == format(result.report.rho_g_mean, ".9g")

    def test_bounds_csv_contains_lambda2(self, short_run):
        _, out = short_run
        text = (out / "bounds.csv").read_text()
        row = next(line for line in text.splitlines() if line.startswith("lambda2"))
        assert abs(float(row.split(",")[1]) - 0.4112) < 1e-6

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = dataclasses.replace(runner.preset_config("rocking6-fsc"), duration=3.0)
        a = runner.run(dataclasses.replace(cfg, out_dir=str(tmp_path / "a")))
        b = runner.run(dataclasses.replace(cfg, out_dir=str(tmp_path / "b")))
        for pa, pb in zip(a.written, b.written):
            assert pa.read_bytes() == pb.read_bytes(), pa.name

    def test_rocking6_fsc_digests(self, tmp_path):
        # sha256 of each file as written before emission moved to the block writer
        expected = {
            "trajectory.csv": "c1ec68bc5ac2db7cdc2da5133dc41bd6c445aabd27633405ac06c3dba66c30e6",
            "phases.csv": "72f2fd5b108bc2178692d1d7f96f37a8e087020e49a13550f617cfc115d14287",
            "rho_g_series.csv": "7470e86a91fa712d6e71bef2f2ec00ee453fee64130302c3a62e2a27b49fe569",
            "eta_series.csv": "f886c965e441d42ba374db9d769ae89c5878caf73c7e39940c869332c95d491d",
            "sync_report.csv": "1e1d9f0758dbf52d5d7cad48bc05451273a0c75ee0a3761e42b1d6ced0b6fc5e",
            "bounds.csv": "f00f25e49787d555f780ae895563a57098b9b15d509c52d5e37d4ad7e2cd95af",
        }
        with redirect_stdout(io.StringIO()):
            code = cli.main(["run", "rocking6-fsc", "--duration", "2", "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_OK
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
        assert got == expected

    def test_entrainment_run_digests(self, entrainment_sweep_path, tmp_path):
        # no preset enables entrainment, so this run pins the rho_E rows of sync_report.csv
        expected = {
            "rho_g_series.csv": "ed7f28db007a06c24ebad1b7147a5719d71a703fce76558c40ef376588eabec4",
            "sync_report.csv": "f9a104b5233ed10e370551f9da281d291defed5d8969d3a567707d69240f19c1",
        }
        out = tmp_path / "out"
        with redirect_stdout(io.StringIO()):
            code = cli.main(["run", str(entrainment_sweep_path), "--duration", "20", "--out-dir", str(out)])
        assert code == cli.EXIT_OK
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in expected} == expected
        assert "rho_E,,0.319983535\n" in (out / "sync_report.csv").read_text()

    @pytest.mark.parametrize("verb", ["bounds", "run"])
    def test_validation5_bounds_digest(self, verb, tmp_path):
        # sha256 of bounds.csv, with its lambda2 and Lyapunov rows, as written
        # before the certificate went through quad_cbar_direct and quad_epsilon_direct
        with redirect_stdout(io.StringIO()):
            code = cli.main([verb, "validation5", "--duration", "2", "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_OK
        digest = hashlib.sha256((tmp_path / "bounds.csv").read_bytes()).hexdigest()
        assert digest == "c94a4e024634e0b46b5c17649ae449cc81a042daa7f5e074e50c66023a8bbb4b"

    def test_inactive_drive_is_no_drive(self, tmp_path):
        # enabled at amplitude 0 the drive is never evaluated, so every byte is as without [entrainment]
        text = GOOD_CONFIG + "\n[sweep]\nfield = protocol.c\nvalues = 0.1 0.2\n"
        inactive = "\n[entrainment]\nenabled = true\namplitude = 0\nfrequency = 0.5\n"
        written = {}
        for name, extra in (("plain", ""), ("inactive", inactive)):
            path = tmp_path / f"{name}.cfg"
            path.write_text(text + extra)
            out = tmp_path / name
            with redirect_stdout(io.StringIO()):
                assert cli.main(["run", str(path), "--out-dir", str(out)]) == cli.EXIT_OK
                assert cli.main(["sweep", str(path), "--out-dir", str(out)]) == cli.EXIT_OK
            written[name] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(written["plain"]) == sorted(VERB_FILES["run"] + VERB_FILES["sweep"])
        assert written["inactive"] == written["plain"]


def _row_writer(path, header, rows):
    """The row-by-row writer the per-sample files used to go through, kept as the oracle."""

    def fmt(value):
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return format(float(value), ".9g")

    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(fmt(v) for v in row) + "\n")


EDGE_VALUES = [-0.0, 5e-324, 1e16, -123456789.5, 0.1 + 0.2, 0.0, 1.0, -1e-300, 123456789.0]


class TestBlockWriter:
    # 1, 15, 16 and 17 samples sit around one formatting piece, 255 to 257
    # around a block; 12 nodes give two-digit node numbers
    @pytest.mark.parametrize("samples", [1, 4, 15, 16, 17, 255, 256, 257, 2001])
    @pytest.mark.parametrize("n", [1, 2, 6, 12])
    def test_matches_row_writer(self, n, samples, tmp_path):
        rng = np.random.default_rng(1000 * n + samples)
        pool = np.concatenate([EDGE_VALUES, rng.normal(size=64) * 10.0 ** rng.integers(-20, 21, size=64)])
        times, series = rng.choice(pool, size=(2, samples))
        pos, vel = rng.choice(pool, size=(2, samples, n))
        for nonfinite in (False, True):
            if nonfinite:  # NaN and +-inf in the value columns, the times left finite
                for column in (series, pos, vel):
                    spots = rng.integers(0, column.size, size=column.size // 4 + 1)
                    column.flat[spots] = rng.choice([np.nan, np.inf, -np.inf], size=spots.size)
            cases = [
                (("t", "node", "pos", "vel"), (times, pos, vel),
                 ((times[k], i + 1, pos[k, i], vel[k, i]) for k in range(samples) for i in range(n))),
                (("t", "node", "theta"), (times, pos),
                 ((times[k], i + 1, pos[k, i]) for k in range(samples) for i in range(n))),
                (("t", "eta"), (times, series), zip(times, series)),
            ]
            for header, arrays, rows in cases:
                _row_writer(tmp_path / "rows.csv", header, rows)
                with open(tmp_path / "blocks.csv", "w", encoding="utf-8", newline="\n") as handle:
                    runner._write_per_sample(handle, header, *arrays)
                written = (tmp_path / "blocks.csv").read_bytes()
                assert written == (tmp_path / "rows.csv").read_bytes(), (header, nonfinite)

    @pytest.mark.parametrize("name", config.PRESET_NAMES)
    def test_preset_files_match_row_writer(self, name, tmp_path):
        result = runner.simulate(dataclasses.replace(runner.preset_config(name), duration=20.0))
        with ExitStack() as stack:
            handles = [stack.enter_context(open(tmp_path / file, "w", encoding="utf-8", newline="\n"))
                       for file in runner.RUN_FILES]
            runner.write_outputs(result, handles)
        times, states, report = result.trajectory.times, result.trajectory.states, result.report
        samples, n = states.shape[:2]
        expected = {
            "trajectory.csv": (("t", "node", "pos", "vel"), ((times[k], i + 1, *states[k, i])
                                                            for k in range(samples) for i in range(n))),
            "phases.csv": (("t", "node", "theta"), ((times[k], i + 1, report.phases.phases[k, i])
                                                    for k in range(samples) for i in range(n))),
            "rho_g_series.csv": (("t", "rho_g"), zip(times, report.rho_g_series)),
            "eta_series.csv": (("t", "eta"), zip(times, report.eta_series)),
        }
        for file, (header, rows) in expected.items():
            _row_writer(tmp_path / "rows.csv", header, rows)
            assert (tmp_path / file).read_bytes() == (tmp_path / "rows.csv").read_bytes(), file


class TestSweep:
    def test_grid_and_csv(self, tmp_path):
        base = runner.preset_config("rocking6-fsc")
        cfg = dataclasses.replace(
            base,
            duration=5.0,
            sweep=runner.SweepSpec(field="protocol.c", values=(0.05, 0.15)),
            out_dir=str(tmp_path),
        )
        cells, path = runner.sweep(cfg)
        assert path == tmp_path / "sweep.csv"
        assert [c.value1 for c in cells] == [0.05, 0.15]
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "param1,param2,rho_g_mean,rho_g_std,rho_E"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0.05"
        assert first[1] == ""  # no second field
        assert first[4] == ""  # entrainment off

    def test_two_field_grid_enables_entrainment(self, tmp_path):
        base = runner.preset_config("rocking6-fsc")
        cfg = dataclasses.replace(
            base,
            duration=5.0,
            sweep=runner.SweepSpec(
                field="entrainment.frequency",
                values=(0.4, 0.5),
                field2="entrainment.amplitude",
                values2=(0.1, 0.3),
            ),
        )
        cells = runner.run_sweep(cfg)
        assert len(cells) == 4
        assert all(c.report is not None and c.report.rho_e is not None for c in cells)

    def test_one_integrate_and_one_report_per_cell(self, monkeypatch):
        # the traced sweep_entrain benchmark asserts this too (SweepEntrain.expected_calls):
        # a kernel that integrates several cells in one call changes both together.
        # Its tracer also counts steps from each integrate result's num_samples and
        # FFT points from each phases_from_trajectory argument's states.shape[:2].
        calls = dict.fromkeys(("integrate", "compute_sync_report", "phases_from_trajectory"), 0)
        seen = {"integrate": [], "phases_from_trajectory": []}

        def counting(module, name):
            wrapped = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                result = wrapped(*args, **kwargs)
                if name == "integrate":
                    seen[name].append(result.num_samples)
                elif name == "phases_from_trajectory":
                    seen[name].append(args[0].states.shape[:2])
                return result

            return wrapper

        for module, name in ((runner, "integrate"), (runner, "compute_sync_report"),
                             (metrics, "phases_from_trajectory")):
            monkeypatch.setattr(module, name, counting(module, name))
        cfg = dataclasses.replace(
            runner.preset_config("rocking6-fsc"),
            duration=5.0,
            sweep=runner.SweepSpec(
                field="entrainment.frequency", values=(0.4, 0.5, 0.6),
                field2="entrainment.amplitude", values2=(0.1, 0.3),
            ),
        )
        assert len(runner.run_sweep(cfg)) == 6
        assert calls == {"integrate": 6, "compute_sync_report": 6, "phases_from_trajectory": 6}
        samples = step_count(cfg.duration, cfg.dt) + 1
        assert seen == {"integrate": [samples] * 6, "phases_from_trajectory": [(samples, 6)] * 6}

    def test_divergent_cell_is_recorded_and_sweep_continues(self, tmp_path):
        path = tmp_path / "unstable.cfg"
        path.write_text(
            "[network]\npreset = complete\nnodes = 2\nweight = 1.0\n\n"
            "[nodes]\ntable =\n    0 0 6.0 0.1 0.1 0\n    0 0 6.0 0.1 0.1 0\n\n"
            "[protocol]\nkind = full_state\nc = 0.01\n\n"
            "[simulation]\nduration = 10\ndt = 0.01\n\n"
            "[sweep]\nfield = protocol.c\nvalues = 0.01 0.02\n"
        )
        cfg = dataclasses.replace(runner.load_config(path), out_dir=str(tmp_path))
        cells, _ = runner.sweep(cfg)
        assert len(cells) == 2
        assert all(c.report is None for c in cells)
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[1].split(",")[2] == ""  # empty metrics for diverged cell

    def test_benchmark_sweep_digest(self, entrainment_sweep_path, tmp_path, capsys):
        # sha256 of the benchmark's seed-3 sweep.csv at T = 20 s (at the full 200 s it is 73779a9d5ef3...)
        out = tmp_path / "out"
        code = cli.main(["sweep", str(entrainment_sweep_path), "--duration", "20", "--out-dir", str(out)])
        assert code == cli.EXIT_OK
        digest = hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest()
        assert digest == "2a8326a38448a7c88257dcd27b1186263b5d977995ed3851729cc63808066887"

    def test_cells_hold_no_per_sample_array(self):
        # a cell keeps three scalars, so neither what the cells retain nor the
        # sweep's peak grows by one per-sample array when the grid grows
        base = dataclasses.replace(runner.preset_config("rocking6-fsc"), duration=10.0)
        per_sample_bytes = 1001 * 8

        def traced(values):
            cfg = dataclasses.replace(base, sweep=runner.SweepSpec(field="entrainment.amplitude", values=values))
            tracemalloc.start()
            try:
                cells = runner.run_sweep(cfg)
                assert all(cell.report.rho_e is not None for cell in cells)
                return tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()

        traced((0.1,))  # allocations a first call keeps (caches) stay out of the counts below
        _, one_cell_peak = traced((0.1,))
        retained, peak = traced((0.1, 0.2, 0.3))
        assert retained < per_sample_bytes
        assert peak - one_cell_peak < per_sample_bytes

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="before CPython 3.11 the caller's stack holds "
                        "a call's arguments until the call returns")
    def test_cell_peak_under_2_6_positions_recordings(self, entrainment_sweep_path):
        # the phases go over the cell's own positions, not into a second
        # (samples, n) array: 2.88 recordings at the peak with that array, 2.45 without
        _, _, cell = config._sweep_grid(config.load_config(entrainment_sweep_path))[0]
        assert cell.duration == 200.0
        runner._cell_report(dataclasses.replace(cell, duration=1.0))  # first-call caches stay out of the peak
        recording = (step_count(cell.duration, cell.dt) + 1) * len(cell.params) * 8
        tracemalloc.start()
        try:
            assert runner._cell_report(cell) is not None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.6 * recording

    def test_unknown_sweep_field(self):
        # only dataclass fields are sweepable, not other attributes of the protocol;
        # the config rejects such a sweep when it is built, before any cell runs
        for field in ("protocol.zeta", "protocol.__init__", "protocol.add_coupling"):
            with pytest.raises(runner.ConfigError, match=re.escape(field)):
                dataclasses.replace(
                    runner.preset_config("rocking6-fsc"),
                    sweep=runner.SweepSpec(field=field, values=(0.1,)),
                )

    def test_rejected_swept_value_exits_config(self, tmp_path, capsys):
        path = tmp_path / "sweep.cfg"
        path.write_text(GOOD_CONFIG + "\n[sweep]\nfield = protocol.c\nvalues = 0.1 -0.1\n")
        assert cli.main(["sweep", str(path), "--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "protocol.c" in err and "-0.1" in err

    def test_swept_dt_must_divide_duration(self, tmp_path, capsys):
        path = tmp_path / "sweep.cfg"
        path.write_text(GOOD_CONFIG + "\n[sweep]\nfield = simulation.dt\nvalues = 0.01 0.03\n")
        assert cli.main(["sweep", str(path), "--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "simulation.dt = 0.03" in err and "divide" in err
        assert not (tmp_path / "sweep.csv").exists()

    def test_non_divergence_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ZeroDivisionError("bug inside a cell")

        monkeypatch.setattr(runner, "integrate", broken)
        cfg = dataclasses.replace(
            runner.preset_config("rocking6-fsc"),
            sweep=runner.SweepSpec(field="protocol.c", values=(0.1,)),
        )
        with pytest.raises(ZeroDivisionError):
            runner.run_sweep(cfg)

    def test_sweep_without_spec(self):
        with pytest.raises(runner.ConfigError):
            runner.run_sweep(runner.preset_config("rocking6-fsc"))


COMPLETE_WEIGHTS = "weights =\n    0 1\n    1 0"
ROW1 = "    0.46 1.16 0.58 0.31 -1.4 0.3"

# Inputs that break the run contract: (CLI flags, (old, new) edit of the config
# file or None, text the error must hold: the section, and the option when the
# fault is an option nothing reads).
CONTRACT_INPUTS = [
    pytest.param(["--duration", "-1"], None, "[simulation]", id="duration-negative"),
    pytest.param(["--duration", "0.02"], None, "[simulation]", id="three-samples"),
    pytest.param(["--dt", "0"], None, "[simulation]", id="dt-zero"),
    pytest.param(["--dt", "5", "--duration", "1"], None, "[simulation]", id="dt-above-duration"),
    pytest.param(["--dt", "0.03", "--duration", "1"], None, "[simulation]", id="dt-not-dividing"),
    pytest.param(["--dt", "1e-300", "--duration", "1"], None, "1e+300 samples", id="grid-too-large"),
    pytest.param([], ("duration = 5", "duration = -5"), "[simulation]", id="file-duration-negative"),
    pytest.param([], ("[output]", "[bounds]\nquad = maybe\n\n[output]"), "[bounds]", id="file-quad-maybe"),
    pytest.param([], ("c = 0.15", "c = 5%"), "[protocol]", id="percent-sign"),
    pytest.param([], ("c = 0.15", "c = nan"), "[protocol]", id="c-nan"),
    pytest.param([], (COMPLETE_WEIGHTS, "preset = complete\nnodes = 2\nweight = 0"), "[network]",
                 id="complete-weight-zero"),
    pytest.param([], (COMPLETE_WEIGHTS, "preset = complete\nnodes = 1"), "[network]",
                 id="complete-one-node"),
    # a 10^7-node complete graph would take 728 TiB, so the count is checked against the table first
    pytest.param([], (COMPLETE_WEIGHTS, "preset = complete\nnodes = 10000000"), "[network] nodes",
                 id="complete-nodes-above-table"),
    pytest.param([], (ROW1, ROW1.replace("0.31", "inf")), "[nodes]", id="omega-inf"),
    pytest.param([], (ROW1, ROW1.replace("-1.4", "nan")), "[nodes]", id="pos0-nan"),
    pytest.param([], ("values = 0.1 0.2", "values = nan 0.2"), "[sweep]", id="sweep-value-nan"),
    pytest.param([], ("values = 0.1 0.2", "values = 0.1 -0.2"), "[sweep]", id="sweep-value-negative"),
    pytest.param([], ("field = protocol.c", "field = protocol.cc"), "[sweep]", id="sweep-field-unknown"),
    pytest.param([], ("c = 0.15", "c = 0.15\ncc = 9"), "[protocol] cc", id="unread-protocol-cc"),
    pytest.param([], ("c = 0.15", "c = 0.15\nc1 = 0.1"), "[protocol] c1", id="unread-c1-full-state"),
    pytest.param([], ("[simulation]", "[entrainment]\nenabled = true\namplitud = 0.3\n\n[simulation]"),
                 "[entrainment] amplitud", id="unread-entrainment-amplitud"),
    pytest.param([], ("[simulation]", "[simulaton]"), "[simulaton] duration", id="unread-section-simulaton"),
    pytest.param([], ("[output]", "[bound]\n\n[output]"), "[bound]", id="unread-empty-section-bound"),
    pytest.param([], ("[run]", "[DEFAULT]\ndt = 0.01\n\n[run]"), "[DEFAULT] dt", id="unread-default-section"),
    pytest.param([], ("field = protocol.c", "feild = protocol.c"), "[sweep] feild", id="unread-sweep-feild"),
    pytest.param([], ("values = 0.1 0.2", "values = 0.1 0.2\nfield2 = protocol.c\nvalues2 = 0.3 0.4"),
                 "[sweep] field2 must differ from field", id="sweep-field2-repeats-field"),
    pytest.param([], ("[network]\n", "[network]\npreset = complete\n"), "[network] preset",
                 id="unread-preset-beside-weights"),
    pytest.param([], ("[output]", "[bounds]\np11 = 0\n\n[output]"), "[bounds]", id="p11-zero"),
    pytest.param([], ("[output]", "[bounds]\nw11 = -1\n\n[output]"), "[bounds]", id="w11-negative"),
    pytest.param([], ("[output]", "[bounds]\nw22 = -5\n\n[output]"), "[bounds] w22", id="w22-negative"),
    pytest.param([], ("[output]", "[bounds]\nw22 = 0\n\n[output]"), "[bounds] w22", id="w22-zero"),
    pytest.param([], ("[output]", "[bounds]\nz1_max = 0\n\n[output]"), "[bounds]", id="z1-max-zero"),
    pytest.param([], ("[output]", "[bounds]\ngamma1 = -1\n\n[output]"), "[bounds]",
                 id="gamma1-negative"),
    pytest.param(["--duration", "5"], ("field = protocol.c", "field = simulation.duration"),
                 "[sweep] simulation.duration is swept, so --duration", id="duration-flag-on-swept-duration"),
    pytest.param(["--dt", "0.005"],
                 ("field = protocol.c\nvalues = 0.1 0.2", "field = simulation.dt\nvalues = 0.01 0.02"),
                 "[sweep] simulation.dt is swept, so --dt", id="dt-flag-on-swept-dt"),
    # math.sin raises on an infinite frequency * t, so the drive's phase must stay finite
    pytest.param([], ("[simulation]", "[entrainment]\nenabled = true\namplitude = 0.3\nfrequency = 1e308\n\n"
                      "[simulation]"), "[entrainment] frequency=1e+308 overflows", id="drive-phase-overflow"),
    pytest.param([], ("field = protocol.c\nvalues = 0.1 0.2",
                      "field = entrainment.frequency\nvalues = 0.5 1e308\n\n[entrainment]\namplitude = 0.3"),
                 "[sweep] entrainment.frequency = 1e+308: [entrainment]", id="swept-drive-phase-overflow"),
]

# The files each writing verb opens in its output directory before it integrates.
VERB_FILES = {
    "run": ("trajectory.csv", "phases.csv", "rho_g_series.csv", "eta_series.csv", "sync_report.csv", "bounds.csv"),
    "sweep": ("sweep.csv",),
    "bounds": ("bounds.csv",),
}


def _no_integration(*args, **kwargs):
    raise AssertionError("integrated before the output files were opened")


class TestCli:
    @pytest.mark.parametrize("verb", ["run", "sweep", "bounds", "validate"])
    @pytest.mark.parametrize("flags, edit, section", CONTRACT_INPUTS)
    def test_run_contract_exits_config(self, verb, flags, edit, section, tmp_path, capsys):
        # the file has a [sweep] section, so the sweep verb can only fail on the input
        text = GOOD_CONFIG + "\n[sweep]\nfield = protocol.c\nvalues = 0.1 0.2\n"
        path = tmp_path / "contract.cfg"
        path.write_text(text.replace(*edit) if edit else text)
        out = tmp_path / "out"
        assert cli.main([verb, str(path), "--out-dir", str(out), *flags]) == cli.EXIT_CONFIG
        assert section in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["run", "sweep", "bounds", "validate"])
    def test_preset_name_beside_a_file_of_that_name_exits_config(self, verb, tmp_path, capsys, monkeypatch):
        # a 2-node uncoupled file named like the 6-node preset: neither may silently stand in for the other
        monkeypatch.chdir(tmp_path)
        (tmp_path / "rocking6-fsc").write_text(GOOD_CONFIG.replace("kind = full_state\nc = 0.15", "kind = none"))
        assert cli.main([verb, "rocking6-fsc", "--out-dir", "out", "--duration", "2"]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "'rocking6-fsc' is both a preset name and a config file" in err and "./rocking6-fsc" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("verb", ["run", "sweep", "bounds", "validate"])
    @pytest.mark.parametrize("blank", [pytest.param("", id="empty"), pytest.param("  ", id="spaces")])
    def test_blank_out_dir_exits_config(self, verb, blank, tmp_path, capsys, monkeypatch):
        # a blank [output] directory means the default; a blank flag would name the working directory
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text(GOOD_CONFIG + "\n[sweep]\nfield = protocol.c\nvalues = 0.1 0.2\n")
        assert cli.main([verb, "run.cfg", "--out-dir", blank, "--duration", "1"]) == cli.EXIT_CONFIG
        assert "[output] --out-dir must not be blank" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    def test_validate_exit_ok(self, capsys):
        assert cli.main(["validate", "rocking6-fsc"]) == cli.EXIT_OK
        assert "0 diagnostic" in capsys.readouterr().out

    def test_unknown_config_exit(self, capsys):
        assert cli.main(["run", "not-a-preset"]) == cli.EXIT_CONFIG
        assert "error" in capsys.readouterr().err

    def test_run_writes_bundle(self, tmp_path, capsys):
        code = cli.main(
            ["run", "validation5", "--out-dir", str(tmp_path), "--duration", "3"]
        )
        assert code == cli.EXIT_OK
        assert (tmp_path / "trajectory.csv").exists()
        assert (tmp_path / "bounds.csv").exists()
        assert "rho_g_mean" in capsys.readouterr().out

    def test_divergence_exit_code(self, tmp_path, capsys):
        path = tmp_path / "unstable.cfg"
        path.write_text(
            "[network]\npreset = complete\nnodes = 2\nweight = 1.0\n\n"
            "[nodes]\ntable =\n    0 0 6.0 0.1 0.1 0\n    0 0 6.0 0.1 0.1 0\n\n"
            "[protocol]\nkind = none\n\n[simulation]\nduration = 10\ndt = 0.01\n"
        )
        (tmp_path / "sync_report.csv").write_text("stale\n")
        # integrate runs on past the divergence to the end of its check block, silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["run", str(path), "--out-dir", str(tmp_path)]) == cli.EXIT_DIVERGED
        err = capsys.readouterr().err
        assert re.fullmatch(r"divergence: state left trusted region at step \d+\n", err), err
        # the bundle was opened before integrating: every file is left empty, the stale one too
        assert {p.name: p.read_bytes() for p in tmp_path.glob("*.csv")} == dict.fromkeys(VERB_FILES["run"], b"")

    def test_bounds_verb(self, tmp_path, capsys):
        code = cli.main(
            ["bounds", "validation5", "--out-dir", str(tmp_path), "--duration", "5"]
        )
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "lambda2" in out and "c_bar" in out
        assert (tmp_path / "bounds.csv").exists()

    @pytest.mark.parametrize("verb", ["run", "bounds"])
    def test_isolated_node_under_coupling_exits_config(self, verb, tmp_path, capsys):
        path = tmp_path / "isolated.cfg"
        path.write_text(
            GOOD_CONFIG.replace("    0 1\n    1 0", "    0 1 0\n    1 0 0\n    0 0 0").replace(
                "    0.25 0.86 0.56 0.62 -0.8 -0.1\n",
                "    0.25 0.86 0.56 0.62 -0.8 -0.1\n    0.37 1.20 1.84 0.52 1.0 0.2\n",
            )
        )
        assert cli.main([verb, str(path), "--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "[network]" in err and "node 3" in err

    def test_sweep_verb(self, tmp_path, capsys):
        path = tmp_path / "sweep.cfg"
        path.write_text(
            GOOD_CONFIG + "\n[sweep]\nfield = protocol.c\nvalues = 0.1 0.2\n"
        )
        code = cli.main(["sweep", str(path), "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_OK
        assert (tmp_path / "sweep.csv").exists()
        assert "2 cells" in capsys.readouterr().out

    @pytest.mark.parametrize("verb", ["run", "sweep", "bounds"])
    def test_unwritable_out_dir_exits_before_integrating(self, verb, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(runner, "integrate", _no_integration)
        path = tmp_path / "run.cfg"
        path.write_text(GOOD_CONFIG + "\n[sweep]\nfield = protocol.c\nvalues = 0.1 0.2\n")
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert cli.main([verb, str(path), "--out-dir", str(blocker / "x")]) == cli.EXIT_CONFIG
        assert f"[output] cannot write {blocker / 'x'}" in capsys.readouterr().err

    @pytest.mark.parametrize("verb, name", [(verb, name) for verb, names in VERB_FILES.items() for name in names])
    def test_output_file_that_is_a_directory_exits_config(self, verb, name, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(runner, "integrate", _no_integration)
        path = tmp_path / "run.cfg"
        path.write_text(GOOD_CONFIG + "\n[sweep]\nfield = protocol.c\nvalues = 0.1 0.2\n")
        (tmp_path / "out" / name).mkdir(parents=True)
        assert cli.main([verb, str(path), "--out-dir", str(tmp_path / "out")]) == cli.EXIT_CONFIG
        assert f"[output] cannot write {tmp_path / 'out' / name}" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["run", "sweep", "bounds", "validate"])
    def test_config_not_utf8_exits_config(self, verb, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"# caf\xff\n" + GOOD_CONFIG.encode())
        out = tmp_path / "out"
        assert cli.main([verb, str(path), "--out-dir", str(out)]) == cli.EXIT_CONFIG
        assert f"cannot read config {path}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["run", "sweep"])
    def test_node_that_never_moves_exits_config(self, verb, tmp_path, capsys):
        # uncoupled, node 2 starts at the origin, a fixed point, so it has no phase
        path = tmp_path / "still.cfg"
        path.write_text(
            GOOD_CONFIG.replace("kind = full_state\nc = 0.15", "kind = none").replace("-0.8 -0.1", "0 0")
            + "\n[sweep]\nfield = simulation.duration\nvalues = 1 2\n"
        )
        assert cli.main([verb, str(path), "--out-dir", str(tmp_path / "out")]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "[nodes]" in err and "node 2" in err
        # the verb stopped after opening its files, so it leaves them empty
        assert {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()} == dict.fromkeys(VERB_FILES[verb], b"")

    def test_sweep_names_the_cell_whose_node_never_moves(self, tmp_path, capsys):
        # node 3 starts at the origin: without coupling it stays there, at c = 0.5 its neighbors move it
        path = tmp_path / "still.cfg"
        path.write_text(
            "[network]\npreset = complete\nnodes = 3\n\n"
            "[nodes]\ntable =\n    0.46 1.16 0.58 0.31 -1.4 0.3\n    0.25 0.86 0.56 0.62 -0.8 -0.1\n"
            "    0.37 1.20 1.84 0.52 0 0\n\n"
            "[protocol]\nkind = full_state\nc = 0.5\n\n[simulation]\nduration = 2\n\n"
            "[sweep]\nfield = protocol.c\nvalues = 0.5 0.0\nfield2 = simulation.dt\nvalues2 = 0.01\n"
        )
        out = tmp_path / "out"
        assert cli.main(["sweep", str(path), "--out-dir", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: [sweep] protocol.c = 0.0, simulation.dt = 0.01: [nodes] node 3 never moves, so it has no phase\n"
        )
        assert (out / "sweep.csv").read_bytes() == b""

    @pytest.mark.parametrize("verb", ["run", "sweep"])
    def test_cluster_phase_never_defined_exits_config(self, verb, tmp_path, capsys):
        # two identical uncoupled nodes started at +1 and -1 stay in exact antiphase,
        # so their phasors cancel at every sample
        path = tmp_path / "antiphase.cfg"
        path.write_text(
            "[network]\npreset = complete\nnodes = 2\n\n"
            "[nodes]\ntable =\n    0.5 1.0 0.5 0.5 1.0 0.0\n    0.5 1.0 0.5 0.5 -1.0 0.0\n\n"
            "[protocol]\nkind = none\n\n[simulation]\nduration = 20\n\n"
            "[sweep]\nfield = simulation.duration\nvalues = 10 20\n"
        )
        assert cli.main([verb, str(path), "--out-dir", str(tmp_path / "out")]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "[nodes]" in err and "cluster phase is never defined" in err

    def test_bounds_without_spectral_gap(self, tmp_path, capsys):
        # connected, so RunConfig accepts it, but the 1e-10 bridge leaves lambda2 below tolerance
        path = tmp_path / "bridge.cfg"
        path.write_text(
            GOOD_CONFIG.replace("    0 1\n    1 0", "    0 1 0\n    1 0 1e-10\n    0 1e-10 0")
            .replace("0.56 0.62 -0.8 -0.1", "0.58 0.62 -0.8 -0.1\n    0.37 1.20 0.58 0.52 1.0 0.2")
        )
        assert cli.main(["bounds", str(path), "--out-dir", str(tmp_path)]) == cli.EXIT_OK
        assert "lambda2 = " in capsys.readouterr().out
        rows = dict(line.split(",") for line in (tmp_path / "bounds.csv").read_text().splitlines()[1:])
        assert 0.0 < float(rows["lambda2"]) < 1e-8
        assert rows["quad_applicable"] == "0" and "c_bar" not in rows

    def test_bounds_at_rest(self, tmp_path, capsys):
        # every node starts at the origin and stays there: both state bounds are 0
        path = tmp_path / "rest.cfg"
        path.write_text(GOOD_CONFIG.replace("-1.4 0.3", "0 0").replace("-0.8 -0.1", "0 0"))
        assert cli.main(["bounds", str(path), "--out-dir", str(tmp_path)]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "p_M = 0\n" in out and "contraction_feasible = 1" in out


# A valid config as {section: {option: value}}, matrices as rows of tokens.
# The two nodes share gamma, so the bounds verb reaches the Lyapunov
# certificate.  One second at dt = 0.1 keeps a draw short, and a blank
# duration then means the default 200 s at 2000 steps.
FUZZ_BASE = {
    "network": {"weights": [["0", "1"], ["1", "0"]]},
    "nodes": {
        "table": [
            ["0.46", "1.16", "0.58", "0.31", "-1.4", "0.3"],
            ["0.25", "0.86", "0.58", "0.62", "-0.8", "-0.1"],
        ]
    },
    "protocol": {"kind": "full_state", "c": "0.15"},
    "entrainment": {"enabled": "true", "amplitude": "0.3", "frequency": "0.5"},
    "simulation": {"duration": "1", "dt": "0.1"},
    "sweep": {"field": "protocol.c", "values": "0.1 0.2"},
    "bounds": {
        "p11": "0.077", "p22": "0.077", "w11": "0.001", "w22": "0.045",
        "gamma1": "1", "gamma2": "1", "z1_max": "2", "z2_max": "1",
    },
}


def _fuzz_targets():
    """Where a mutation lands: a whole section, one option, or one matrix cell."""
    targets = []
    for section, options in FUZZ_BASE.items():
        targets.append((section,))
        for option, value in options.items():
            if isinstance(value, list):
                targets += [(section, option, r, c) for r, row in enumerate(value) for c in range(len(row))]
            else:
                targets.append((section, option))
    return targets


FUZZ_TOKENS = (
    "nan", "inf", "-inf", "1e999", "0", "-0", "-1", "0.5", "2", "5%", "%(c)s", "abc", "",
    "1 2", "yes", "none", "hkb", "partial_state", "protocol.c1", "entrainment.frequency",
    "simulation.dt",
)


def _fuzz_config(target, token) -> str:
    """FUZZ_BASE with the target replaced by token (None deletes it), as INI text."""
    sections = copy.deepcopy(FUZZ_BASE)
    if len(target) == 1:
        del sections[target[0]]
    elif len(target) == 2:
        if token is None:
            del sections[target[0]][target[1]]
        else:
            sections[target[0]][target[1]] = token
    else:
        row = sections[target[0]][target[1]][target[2]]
        row[target[3]:target[3] + 1] = [] if token is None else [token]
    lines = []
    for name, options in sections.items():
        lines.append(f"[{name}]")
        for option, value in options.items():
            if isinstance(value, list):
                lines += [f"{option} ="] + ["    " + " ".join(row) for row in value]
            else:
                lines.append(f"{option} = {value}")
        lines.append("")
    return "\n".join(lines)


class TestCliProperty:
    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(
        verb=st.sampled_from(["run", "sweep", "bounds", "validate"]),
        target=st.sampled_from(_fuzz_targets()),
        token=st.none() | st.sampled_from(FUZZ_TOKENS),
        dt=st.none() | st.sampled_from(["0", "-1", "nan", "inf", "0.5", "0.03", "0.05", "0.1"]),
        duration=st.none() | st.sampled_from(["0", "-1", "nan", "inf", "0.02", "0.5", "2"]),
    )
    def test_one_mutation_exits_0_2_or_3(self, verb, target, token, dt, duration):
        flags = (["--dt", dt] if dt else []) + (["--duration", duration] if duration else [])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.cfg"
            path.write_text(_fuzz_config(target, token))
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = cli.main([verb, str(path), "--out-dir", str(Path(tmp) / "out"), *flags])
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_DIVERGED)
        if code == cli.EXIT_CONFIG:
            assert re.search(r"\[[a-z]+\]", err.getvalue()), err.getvalue()


REFERENCE_PATH = REPO_ROOT / "perfbench" / "reference_run_presets.json"
PRESET_FIXTURES = {
    "rocking6-nc": "rocking6_nc",
    "rocking6-fsc": "rocking6_fsc",
    "rocking6-psc": "rocking6_psc",
    "rocking6-hkb": "rocking6_hkb",
    "validation5": "validation5_low",
}


class TestGoldenValues:
    """The preset runs against the reference values the benchmark checks."""

    @pytest.mark.parametrize("preset", sorted(PRESET_FIXTURES))
    def test_report_and_bounds_match_reference(self, preset, request):
        result = request.getfixturevalue(PRESET_FIXTURES[preset])
        reference = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))[preset]["values"]
        got = {
            "sync_report": {f"{m}:{k}": float(v) for m, k, v in runner._report_rows(result.report)},
            "bounds": {q: float(v) for q, v in result.bounds_rows},
        }
        for table, expected in reference.items():
            for key, ref in expected.items():
                assert key in got[table], f"{table} row {key!r} missing"
                # the benchmark's tolerance, VALUE_RTOL in perfbench/workloads.py
                assert abs(got[table][key] - ref) <= 1e-7 * max(1.0, abs(ref)), (table, key)


# The CSV digest pins.  The states' last bits depend on the BLAS kernel, and
# every byte of these CSVs must not.
DIGEST_TESTS = (
    "tests/test_runner.py::TestRunOutputs::test_rocking6_fsc_digests",
    "tests/test_runner.py::TestRunOutputs::test_entrainment_run_digests",
    "tests/test_runner.py::TestRunOutputs::test_validation5_bounds_digest[bounds]",
    "tests/test_runner.py::TestRunOutputs::test_validation5_bounds_digest[run]",
    "tests/test_runner.py::TestSweep::test_benchmark_sweep_digest",
)
SANDYBRIDGE = {"OPENBLAS_CORETYPE": "Sandybridge", "OPENBLAS_NUM_THREADS": "1"}


def _cpu_flags() -> set[str]:
    """The CPU's feature flags as /proc/cpuinfo lists them, or none where it cannot be read."""
    try:
        lines = Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines()
    except OSError:
        return set()
    return next((set(line.split(":", 1)[1].split()) for line in lines if line.startswith("flags")), set())


def _product_bytes(env) -> bytes:
    """The bytes of a seeded 20 x 20 a @ a, computed in a fresh process with env."""
    code = ("import sys, numpy as np; a = np.random.default_rng(0).standard_normal((20, 20)); "
            "sys.stdout.buffer.write((a @ a).tobytes())")
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True).stdout


class TestSecondBlasKernel:
    def test_digests_hold_under_sandybridge(self, tmp_path):
        if "avx" not in _cpu_flags():
            pytest.skip("the CPU lists no avx flag, so OpenBLAS's Sandybridge kernel cannot be forced")
        inherited = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
        forced = {**os.environ, **SANDYBRIDGE}
        if _product_bytes(inherited) == _product_bytes(forced):
            pytest.skip("forcing OpenBLAS's Sandybridge kernel changes no bit of a 20 x 20 product here")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"--basetemp={tmp_path}", *DIGEST_TESTS],
            cwd=REPO_ROOT, env=forced, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        assert f"{len(DIGEST_TESTS)} passed" in done.stdout
