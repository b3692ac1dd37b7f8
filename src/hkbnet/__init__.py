"""Simulation and analysis toolkit for heterogeneous networks of HKB oscillators.

Submodules:

* graph    -- weighted simple undirected graphs, Laplacians, spectra, lambda2 of D^-1 L
* dynamics -- node fields, coupling protocols, entrainment, RK4 integration
* phase    -- analytic-signal instantaneous phase extraction
* metrics  -- synchronization indices and the tracking-error norm
* bounds   -- contraction and Lyapunov coupling-strength certificates, bounds.csv's rows
* config   -- presets, config files, the run contract, sweep cells, CLI overrides
* runner   -- execution, sweeps, CSV emission (re-exports bounds_rows)
"""

from .bounds import (
    BoundsOptions,
    ContractionWindow,
    QuadCertificate,
    bounds_rows,
    contraction_window,
    m_bar,
    quad_cbar_direct,
    quad_certificate,
    quad_epsilon_direct,
)
from .config import PRESET_NAMES, ConfigError, RunConfig, SweepSpec, load_config, preset_config, validate_config
from .dynamics import (
    CouplingProtocol,
    DivergenceError,
    Entrainment,
    FullState,
    HkbCoupling,
    NoCoupling,
    OscillatorParams,
    PartialState,
    StateExtrema,
    Trajectory,
    integrate,
    state_extrema,
)
from .graph import (
    SpectrumResult,
    Topology,
    TopologyError,
    complete_graph,
    laplacian,
    neighbor_lambda2,
    random_weighted_graph,
    spectrum,
)
from .metrics import (
    RelativePhase,
    SyncReport,
    agent_relative_phase,
    agent_sync_degree,
    compute_sync_report,
    dyadic_matrix,
    entrainment_index,
    group_sync_series,
    group_sync_summary,
    tracking_error_norm,
)
from .phase import (
    DegenerateSignalError,
    PhaseSeries,
    analytic_signal,
    instantaneous_phase,
    phases_from_trajectory,
    wrap_phase,
)
from .runner import (
    RunResult,
    SweepCell,
    evaluate_bounds,
    run,
    run_sweep,
    simulate,
    sweep,
    write_outputs,
)

__version__ = "0.1.0"
