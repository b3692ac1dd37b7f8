"""Phase-based synchronization indices and the state-space tracking error.

All time averages are plain discrete means over the samples (no quadrature
correction), and the spread of the group index uses the population
normalization.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .dynamics import Entrainment, Trajectory
from .phase import DegenerateSignalError, PhaseSeries, phases_from_trajectory, wrap_phase

# Mean phasors shorter than this leave the group angle undefined.
INDETERMINATE_ORDER_TOL = 1e-12

# The phase indices are taken this many samples at a time, so their
# temporaries do not grow with the run's duration.
_SAMPLE_BLOCK = 1024


def _unit_phasors(theta) -> np.ndarray:
    """exp(1j * theta), exponentiated in place in the one complex buffer 1j * theta makes."""
    z = 1j * theta
    return np.exp(z, out=z)


class PhasorMean:
    """Per-node time mean of unit phasors, fed one block of samples at a time.

    numpy sums a C-contiguous (samples, n) array over axis 0 one row after
    another (for n >= 2), and add adds the running total into each block's
    first row in place before summing the block, so the samples join it in
    that order.  So however the samples are split into blocks, mean() equals
    np.exp(1j * theta).mean(axis=0) over all of them, bit for bit.
    """

    def __init__(self):
        self.total: np.ndarray | None = None
        self.samples = 0

    def add(self, theta: np.ndarray) -> None:
        """Add the unit phasors of the (rows, n) angles theta."""
        if len(theta) == 0:
            return
        z = _unit_phasors(theta)
        if self.total is not None:
            z[0] += self.total
        self.total = z.sum(axis=0)
        self.samples += len(theta)

    def mean(self) -> np.ndarray:
        return self.total / self.samples


def _sample_blocks(num_samples: int):
    """Consecutive slices of at most _SAMPLE_BLOCK samples that cover range(num_samples)."""
    for first in range(0, num_samples, _SAMPLE_BLOCK):
        yield slice(first, min(first + _SAMPLE_BLOCK, num_samples))


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
    """Every synchronization quantity computed from one trajectory.

    eta_series is None when the trajectory records positions only.  The
    report keeps the phases, and the dyadic matrix is computed from them
    when first read.
    """

    rho_k: np.ndarray
    rho_g_series: np.ndarray
    rho_g_mean: float
    rho_g_std: float
    eta_series: np.ndarray | None
    phases: PhaseSeries
    rho_e_k: np.ndarray | None = None
    rho_e: float | None = None
    indeterminate_samples: int = 0

    @functools.cached_property
    def dyadic(self) -> np.ndarray:
        return dyadic_matrix(self.phases)


def agent_relative_phase(phases: PhaseSeries) -> RelativePhase:
    """Phase of each node relative to the group, averaged as a unit phasor.

    The group (cluster) phase at a sample is the angle of the mean unit
    phasor over the nodes.  When the phasors cancel almost exactly that
    angle is meaningless: the sample is indeterminate, its group angle is
    taken as 0, and it is excluded from the phasor average and counted in
    the result.  Raises DegenerateSignalError when every sample is
    indeterminate.
    """
    series = np.empty_like(phases.phases)
    phasors = PhasorMean()
    excluded = 0
    for rows in _sample_blocks(phases.num_samples):
        block = phases.phases[rows]
        order = _unit_phasors(block).mean(axis=1)
        indeterminate = np.abs(order) < INDETERMINATE_ORDER_TOL
        group_angle = np.where(indeterminate, 0.0, np.angle(order))
        rel = series[rows] = wrap_phase(block - group_angle[:, None])
        phasors.add(rel[~indeterminate] if indeterminate.any() else rel)
        excluded += int(indeterminate.sum())
    if not phasors.samples:
        raise DegenerateSignalError(
            "the nodes' phases cancel at every sample, so the cluster phase is never defined"
        )
    mean_phasor = phasors.mean()
    return RelativePhase(series, mean_phasor, wrap_phase(np.angle(mean_phasor)), excluded)


def agent_sync_degree(mean_phasor) -> np.ndarray:
    """Per-node degree of synchronization with the group trend, in [0, 1]."""
    return np.abs(mean_phasor)


def group_sync_series(rel_phases, mean_phase) -> np.ndarray:
    """Instantaneous group synchronization index in [0, 1]."""
    rel_phases = np.asarray(rel_phases, dtype=float)
    mean_phase = np.asarray(mean_phase, dtype=float)[None, :]
    series = np.empty(len(rel_phases))
    for rows in _sample_blocks(len(rel_phases)):
        series[rows] = np.abs(_unit_phasors(rel_phases[rows] - mean_phase).mean(axis=1))
    return series


def group_sync_summary(series) -> tuple[float, float]:
    """Time mean of the group index and its population standard deviation."""
    s = np.asarray(series, dtype=float)
    if s.size == 0:
        raise ValueError("series must be non-empty")
    return float(s.mean()), float(s.std())


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
    phasors = PhasorMean()
    for rows in _sample_blocks(phases.num_samples):
        times = np.arange(rows.start, rows.stop) * phases.dt
        reference = wrap_phase(entrainment.frequency * times - 0.5 * np.pi)
        phasors.add(phases.phases[rows] - reference[:, None])
    per_node = np.abs(phasors.mean())
    return per_node, float(per_node.mean())


def tracking_error_norm(traj: Trajectory) -> np.ndarray:
    """Euclidean norm of the stacked deviations from the average trajectory."""
    traj.require_velocities("tracking_error_norm")
    if traj.n_nodes < 2:
        raise ValueError("tracking error needs at least two nodes")
    deviation = traj.states - traj.states.mean(axis=1, keepdims=True)
    np.multiply(deviation, deviation, out=deviation)
    return np.sqrt(deviation.sum(axis=(1, 2)))


def compute_sync_report(traj: Trajectory, entrainment: Entrainment = Entrainment()) -> SyncReport:
    """Run the whole metric suite on one trajectory.

    Entrainment indices are filled in only when the signal is active, and
    eta only when the trajectory records velocities.
    """
    # The phases come first: taken after eta's temporaries are freed, they
    # lowered the traced peak but raised a run's peak RSS by about 0.4 MiB.
    phases = phases_from_trajectory(traj)
    eta = tracking_error_norm(traj) if traj.has_velocities else None
    # Nothing below reads the trajectory, so the report keeps no reference to
    # it: a caller that keeps none either frees the states here.
    del traj
    rel = agent_relative_phase(phases)
    series = group_sync_series(rel.series, rel.mean_phase)
    rho_e_k, rho_e = entrainment_index(phases, entrainment) if entrainment.active else (None, None)
    mean, std = group_sync_summary(series)
    return SyncReport(
        rho_k=agent_sync_degree(rel.mean_phasor),
        rho_g_series=series,
        rho_g_mean=mean,
        rho_g_std=std,
        eta_series=eta,
        phases=phases,
        rho_e_k=rho_e_k,
        rho_e=rho_e,
        indeterminate_samples=rel.excluded_samples,
    )
