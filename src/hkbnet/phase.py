"""Instantaneous phase extraction through the analytic signal.

The analytic signal is built from a one-sided spectrum: mean-center the
series, transform with numpy's FFT after zero-padding to the next power of
two, keep the DC and Nyquist bins, double the positive frequencies, zero
the negative ones, invert, and truncate back to the original length.  The
real part of the result reproduces the centered input; the phase is the
four-quadrant angle of the complex series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DegenerateSignalError(ValueError):
    """A phase the analysis needs is undefined for this run.

    Either a node's series has no variation, or the nodes' unit phasors
    cancel at every sample, so the cluster phase is never defined.
    """


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
        raise ValueError(f"need at least 4 samples, got {m}")
    if not np.all(np.isfinite(s)):
        raise ValueError("samples must be finite")
    padded_len = 1 << (m - 1).bit_length()
    # one complex buffer, transformed in place both ways (fft's out= needs
    # numpy 2.0): numpy's fft would copy a real input into a complex one,
    # with the same values
    spec = np.zeros(padded_len, dtype=complex)
    np.subtract(s, s.mean(), out=spec.real[:m])
    np.fft.fft(spec, out=spec)
    half = padded_len // 2
    spec[1:half] *= 2.0
    spec[half + 1 :] = 0.0
    return np.fft.ifft(spec, out=spec)[:m]


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
        if not 0.0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if phases.ndim != 2:
            raise ValueError("phases must have shape (num_samples, n)")
        if phases.shape[0] < 1:
            raise ValueError("phases must hold at least one sample")
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


def phases_from_trajectory(traj, out=None) -> PhaseSeries:
    """Extract every node's phase from its position series.

    The phases go into out, a (num_samples, n) float64 array, when one is
    given.  Each node's positions are copied into its transform buffer
    before its column of out is written, so out may be the trajectory's own
    positions, traj.states[:, :, 0], and the phases are bitwise as with a
    fresh array.  A node without a phase raises with the earlier nodes'
    columns already overwritten.
    """
    phases = np.empty((traj.num_samples, traj.n_nodes)) if out is None else out
    for k in range(traj.n_nodes):
        try:
            phases[:, k] = instantaneous_phase(traj.states[:, k, 0])
        except DegenerateSignalError:
            raise DegenerateSignalError(f"node {k + 1} never moves, so it has no phase") from None
    return PhaseSeries(dt=traj.dt, phases=phases)
