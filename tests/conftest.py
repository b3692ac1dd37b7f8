"""Shared fixtures: the bundled scenarios are expensive (T=200 s runs), so
each preset is simulated once per session and reused across test modules;
the benchmark's sweep config is written once per test that asks for it."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

from hkbnet import runner
from hkbnet.dynamics import FullState

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def rocking6_nc():
    return runner.simulate(runner.preset_config("rocking6-nc"))


@pytest.fixture(scope="session")
def rocking6_fsc():
    return runner.simulate(runner.preset_config("rocking6-fsc"))


@pytest.fixture(scope="session")
def rocking6_psc():
    return runner.simulate(runner.preset_config("rocking6-psc"))


@pytest.fixture(scope="session")
def rocking6_hkb():
    return runner.simulate(runner.preset_config("rocking6-hkb"))


@pytest.fixture(scope="session")
def validation5_low():
    """Validation scenario at the small coupling strength (its preset value)."""
    return runner.simulate(runner.preset_config("validation5"))


@pytest.fixture(scope="session")
def validation5_high():
    """Validation scenario at a coupling strength above the Lyapunov bound."""
    cfg = dataclasses.replace(runner.preset_config("validation5"), protocol=FullState(1.45))
    return runner.simulate(cfg)


@pytest.fixture
def entrainment_sweep_path(tmp_path, monkeypatch):
    """The benchmark's seed-3 sweep_entrain config: rocking6-fsc with entrainment on
    (frequency 0.169, amplitude 0.196) and a 2 x 2 frequency x amplitude sweep."""
    spec = importlib.util.spec_from_file_location("workloads", REPO_ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look themselves up there
    spec.loader.exec_module(workloads)
    path = tmp_path / "entrain.cfg"
    path.write_text(workloads.entrainment_sweep_config(*workloads.sweep_grid(3), tmp_path / "sweep"))
    return path
