"""Phase-based synchronization indices and the state-space tracking error.

All time averages are plain discrete means over the samples (no quadrature
correction), and the spread of the group index uses the population
normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Entrainment, Trajectory
from .phase import DegenerateSignalError, PhaseSeries, phases_from_trajectory, wrap_phase

# Mean phasors shorter than this leave the group angle undefined.
INDETERMINATE_ORDER_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class RelativePhase:
    """Per-node phase relative to the group, and its time-averaged phasor.

    excluded_samples counts how many cluster-phase-indeterminate samples
    were left out of the phasor average.
    """

    series: np.ndarray
    mean_phasor: np.ndarray
    mean_phase: np.ndarray
    excluded_samples: int


@dataclass(frozen=True, eq=False)
class SyncReport:
    """Every synchronization quantity computed from one trajectory."""

    rho_k: np.ndarray
    rho_g_series: np.ndarray
    rho_g_mean: float
    rho_g_std: float
    dyadic: np.ndarray
    eta_series: np.ndarray
    rho_e_k: np.ndarray | None = None
    rho_e: float | None = None
    indeterminate_samples: int = 0


def _unit_phasors(theta) -> np.ndarray:
    """exp(1j * theta), exponentiated in place in the one complex buffer 1j * theta makes."""
    z = 1j * theta
    return np.exp(z, out=z)


def agent_relative_phase(phases: PhaseSeries) -> RelativePhase:
    """Phase of each node relative to the group, averaged as a unit phasor.

    The group (cluster) phase at a sample is the angle of the mean unit
    phasor over the nodes.  When the phasors cancel almost exactly that
    angle is meaningless: the sample is indeterminate, its group angle is
    taken as 0, and it is excluded from the phasor average and counted in
    the result.  Raises DegenerateSignalError when every sample is
    indeterminate.
    """
    order = _unit_phasors(phases.phases).mean(axis=1)
    indeterminate = np.abs(order) < INDETERMINATE_ORDER_TOL
    if indeterminate.all():
        raise DegenerateSignalError(
            "the nodes' phases cancel at every sample, so the cluster phase is never defined"
        )
    group_angle = np.where(indeterminate, 0.0, np.angle(order))
    rel = wrap_phase(phases.phases - group_angle[:, None])
    mean_phasor = _unit_phasors(rel[~indeterminate] if indeterminate.any() else rel).mean(axis=0)
    return RelativePhase(
        series=rel,
        mean_phasor=mean_phasor,
        mean_phase=wrap_phase(np.angle(mean_phasor)),
        excluded_samples=int(indeterminate.sum()),
    )


def agent_sync_degree(mean_phasor) -> np.ndarray:
    """Per-node degree of synchronization with the group trend, in [0, 1]."""
    return np.abs(mean_phasor)


def group_sync_series(rel_phases, mean_phase) -> np.ndarray:
    """Instantaneous group synchronization index in [0, 1]."""
    deviation = np.asarray(rel_phases, dtype=float) - np.asarray(mean_phase, dtype=float)[None, :]
    return np.abs(_unit_phasors(deviation).mean(axis=1))


def group_sync_summary(series) -> tuple[float, float]:
    """Time mean of the group index and its population standard deviation."""
    s = np.asarray(series, dtype=float)
    if s.size == 0:
        raise ValueError("series must be non-empty")
    mean = float(s.mean())
    std = float(np.sqrt(((s - mean) ** 2).mean()))
    return mean, std


def dyadic_matrix(phases: PhaseSeries) -> np.ndarray:
    """Pairwise phase-locking strengths rho_d in [0, 1] (diagonal fixed at 1).

    Entry (k, k') is |mean over samples of exp(i (theta_k - theta_k'))|.  The
    upper triangle is mirrored, since the product's rounding need not be
    symmetric.
    """
    z = _unit_phasors(phases.phases)
    upper = np.triu(np.abs(z.conj().T @ z), 1) / phases.num_samples
    return upper + upper.T + np.eye(phases.n_nodes)


def entrainment_index(phases: PhaseSeries, entrainment: Entrainment) -> tuple[np.ndarray, float]:
    """Per-node and mean phase locking onto the external sinusoid.

    The reference phase is computed analytically as frequency * t - pi/2
    (exact for a pure sine), not Hilbert-extracted.
    """
    if not entrainment.active:
        raise ValueError("no entrainment signal was active; index undefined")
    reference = wrap_phase(entrainment.frequency * phases.times - 0.5 * np.pi)
    per_node = np.abs(_unit_phasors(phases.phases - reference[:, None]).mean(axis=0))
    return per_node, float(per_node.mean())


def tracking_error_norm(traj: Trajectory) -> np.ndarray:
    """Euclidean norm of the stacked deviations from the average trajectory."""
    if traj.n_nodes < 2:
        raise ValueError("tracking error needs at least two nodes")
    deviation = traj.states - traj.states.mean(axis=1, keepdims=True)
    np.multiply(deviation, deviation, out=deviation)
    return np.sqrt(deviation.sum(axis=(1, 2)))


def compute_sync_report(
    traj: Trajectory,
    entrainment: Entrainment | None = None,
    phases: PhaseSeries | None = None,
) -> SyncReport:
    """Run the whole metric suite on one trajectory.

    Entrainment indices are filled in only when an active signal is passed;
    precomputed phases may be supplied to avoid repeating the extraction.
    """
    eta = tracking_error_norm(traj)
    ph = phases if phases is not None else phases_from_trajectory(traj)
    # Nothing below reads the trajectory, so the report keeps no reference to
    # it: a caller that keeps none either frees the states here, before the
    # full-size phasor buffers below are allocated.
    del traj
    dyadic = dyadic_matrix(ph)
    rho_e_k = None
    rho_e = None
    if entrainment is not None and entrainment.active:
        rho_e_k, rho_e = entrainment_index(ph, entrainment)
    rel = agent_relative_phase(ph)
    series = group_sync_series(rel.series, rel.mean_phase)
    mean, std = group_sync_summary(series)
    return SyncReport(
        rho_k=agent_sync_degree(rel.mean_phasor),
        rho_g_series=series,
        rho_g_mean=mean,
        rho_g_std=std,
        dyadic=dyadic,
        eta_series=eta,
        rho_e_k=rho_e_k,
        rho_e=rho_e,
        indeterminate_samples=rel.excluded_samples,
    )
