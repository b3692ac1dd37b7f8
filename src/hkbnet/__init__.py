"""Simulation and analysis toolkit for heterogeneous networks of HKB oscillators.

Submodules:

* graph    -- weighted simple undirected graphs, Laplacians, spectra, lambda2 of D^-1 L
* dynamics -- node fields, coupling protocols, entrainment, RK4 integration
* phase    -- analytic-signal instantaneous phase extraction
* metrics  -- synchronization indices and the tracking-error norm
* bounds   -- contraction and Lyapunov coupling-strength certificates, bounds.csv's rows
* config   -- presets, config files, the run contract, sweep cells, CLI overrides
* runner   -- execution, sweeps, CSV emission; re-exports BoundsOptions and
              bounds_rows from bounds, and ConfigError, RunConfig, SweepSpec,
              load_config and preset_config from config

The package itself exports only the five names of the README's library
example; everything else is imported from the submodule that defines it.
"""

from .dynamics import FullState, OscillatorParams, integrate
from .graph import complete_graph
from .metrics import compute_sync_report

__version__ = "0.1.0"
