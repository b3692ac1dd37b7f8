"""Instantaneous phase extraction through the analytic signal.

The analytic signal is built from a one-sided spectrum: mean-center the
series, transform with numpy's FFT after zero-padding to the next power of
two, keep the DC and Nyquist bins, double the positive frequencies, zero
the negative ones, invert, and truncate back to the original length.  The
real part of the result reproduces the centered input; the phase is the
four-quadrant angle of the complex series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SignalTooShortError(ValueError):
    """The series is too short for phase extraction."""


class DegenerateSignalError(ValueError):
    """The series has no variation, so its phase is undefined."""


def wrap_phase(theta):
    """Wrap angles to the half-open interval (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(theta, dtype=float), 2.0 * np.pi)


def analytic_signal(samples) -> np.ndarray:
    """Complex series whose angle is the instantaneous phase of the input.

    The input is mean-centered first, so a constant series maps to zeros.
    Needs at least 4 samples.
    """
    s = np.asarray(samples, dtype=float)
    if s.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    m = s.shape[0]
    if m < 4:
        raise SignalTooShortError(f"need at least 4 samples, got {m}")
    if not np.all(np.isfinite(s)):
        raise ValueError("samples must be finite")
    centered = s - s.mean()
    padded_len = 1 << (m - 1).bit_length()
    padded = np.zeros(padded_len)
    padded[:m] = centered
    spec = np.fft.fft(padded)
    gain = np.zeros(padded_len)
    gain[0] = 1.0
    gain[padded_len // 2] = 1.0
    gain[1 : padded_len // 2] = 2.0
    return np.fft.ifft(spec * gain)[:m]


def instantaneous_phase(samples) -> np.ndarray:
    """Per-sample phase of the analytic signal, wrapped to (-pi, pi].

    Scaling the input by any positive constant leaves the result unchanged.
    Raises DegenerateSignalError on a constant (zero-variance) series.
    """
    s = np.asarray(samples, dtype=float)
    if s.size > 0 and np.ptp(s) == 0.0:
        raise DegenerateSignalError("constant series has no phase")
    return wrap_phase(np.angle(analytic_signal(s)))


@dataclass(frozen=True, eq=False)
class PhaseSeries:
    """Per-node instantaneous phases on a uniform time grid.

    phases[j, k] is the phase of node k at time j * dt, in (-pi, pi].
    """

    dt: float
    phases: np.ndarray

    def __post_init__(self):
        phases = np.asarray(self.phases, dtype=float)
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if phases.ndim != 2:
            raise ValueError("phases must have shape (num_samples, n)")
        if not np.all(np.isfinite(phases)):
            raise ValueError("phases must be finite")
        if phases.size and (phases.min() <= -np.pi or phases.max() > np.pi):
            raise ValueError("phases must lie in (-pi, pi]")
        object.__setattr__(self, "phases", phases)

    @property
    def n_nodes(self) -> int:
        return self.phases.shape[1]

    @property
    def num_samples(self) -> int:
        return self.phases.shape[0]

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.num_samples) * self.dt


def phases_from_trajectory(traj) -> PhaseSeries:
    """Extract every node's phase from its position series."""
    columns = []
    for k in range(traj.n_nodes):
        try:
            columns.append(instantaneous_phase(traj.states[:, k, 0]))
        except DegenerateSignalError:
            raise DegenerateSignalError(f"node {k + 1} never moves, so it has no phase") from None
    return PhaseSeries(dt=traj.dt, phases=np.column_stack(columns))
