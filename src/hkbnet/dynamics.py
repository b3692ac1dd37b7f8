"""HKB node dynamics, interaction protocols, and fixed-step network integration.

Each node is a second-order nonlinear oscillator with state (pos, vel):

    d pos / dt = vel
    d vel / dt = -(alpha * pos^2 + beta * vel^2 - gamma) * vel - omega^2 * pos

Nodes interact through one of three diffusive protocols, optionally driven by
a shared external sinusoid added to every acceleration.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .graph import Topology, laplacian

# Integration aborts once any state component leaves this box.
STATE_MAGNITUDE_LIMIT = 1e6


class DivergenceError(RuntimeError):
    """Integration left the trusted state region (NaN, Inf, or runaway growth)."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class OscillatorParams:
    """Per-node HKB parameters.

    alpha and beta shape the limit-cycle amplitude, a positive gamma makes
    the oscillation persistent, and omega is the natural angular frequency
    in rad/s.
    """

    alpha: float
    beta: float
    gamma: float
    omega: float

    def __post_init__(self):
        # written as "not (0 <= x < inf)" so that nan fails too
        if not (0.0 <= self.alpha < math.inf and 0.0 <= self.beta < math.inf):
            raise ValueError("alpha and beta must be nonnegative and finite")
        if not math.isfinite(self.gamma):
            raise ValueError("gamma must be finite")
        if not 0.0 < self.omega < math.inf:
            raise ValueError("omega must be positive and finite")


def _strength():
    """Field marker for a coupling strength: nonnegative, and zero switches the coupling off."""
    return dataclasses.field(metadata={"strength": True})


def strength_fields(protocol) -> tuple[str, ...]:
    """Names of the protocol's coupling-strength fields."""
    return tuple(f.name for f in dataclasses.fields(protocol) if f.metadata.get("strength"))


class _Protocol:
    """Base of the coupling protocols; rejects a negative strength and any non-finite field.

    Each protocol's add_coupling(field, x, lap, weights, counts) adds its
    interaction to the (n, 2) network field in place, given the states x,
    the graph Laplacian, the weight matrix and the neighbor counts.  The
    average mismatch is taken over the neighbor count, not the weighted
    degree, so every protocol is diffusive: it adds nothing when all nodes
    share one state.
    """

    def __post_init__(self):
        for name in strength_fields(self):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"coupling strength {name} must be nonnegative and finite")
        for f in dataclasses.fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")


@dataclass(frozen=True)
class NoCoupling(_Protocol):
    """Isolated nodes: every interaction term is zero."""

    def add_coupling(self, field, x, lap, weights, counts) -> None:
        pass


@dataclass(frozen=True)
class FullState(_Protocol):
    """Diffusive coupling of strength c acting on position and velocity."""

    c: float = _strength()

    def add_coupling(self, field, x, lap, weights, counts) -> None:
        field -= (self.c / counts)[:, None] * (lap @ x)


@dataclass(frozen=True)
class PartialState(_Protocol):
    """Acceleration-only coupling from position (c1) and velocity (c2) mismatch."""

    c1: float = _strength()
    c2: float = _strength()

    def add_coupling(self, field, x, lap, weights, counts) -> None:
        field[:, 1] -= (self.c1 * (lap @ x[:, 0]) + self.c2 * (lap @ x[:, 1])) / counts


@dataclass(frozen=True)
class HkbCoupling(_Protocol):
    """Nonlinear dyadic interaction [a + b * dpos^2] * dvel scaled by c."""

    a: float
    b: float
    c: float = _strength()

    def add_coupling(self, field, x, lap, weights, counts) -> None:
        pos = x[:, 0]
        vel = x[:, 1]
        dp = pos[:, None] - pos[None, :]
        dv = vel[:, None] - vel[None, :]
        total = (weights * (self.a + self.b * dp * dp) * dv).sum(axis=1)
        field[:, 1] += (self.c / counts) * total


CouplingProtocol = Union[NoCoupling, FullState, PartialState, HkbCoupling]

# The config file's [protocol] kind for each protocol class.
PROTOCOL_KINDS: dict[str, type] = {
    "none": NoCoupling,
    "full_state": FullState,
    "partial_state": PartialState,
    "hkb": HkbCoupling,
}


@dataclass(frozen=True)
class Entrainment:
    """External sinusoid amplitude * sin(frequency * t) added to every acceleration."""

    amplitude: float = 0.0
    frequency: float = 1.0
    enabled: bool = False

    def __post_init__(self):
        if not 0.0 <= self.amplitude < math.inf:
            raise ValueError("amplitude must be nonnegative and finite")
        if not 0.0 < self.frequency < math.inf:
            raise ValueError("frequency must be positive and finite")

    @property
    def active(self) -> bool:
        """Whether the drive changes anything: enabled with a nonzero amplitude."""
        return self.enabled and self.amplitude > 0.0


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniformly sampled network states.

    states[j, i] holds (pos, vel) of node i at times[j]; times is the uniform
    grid k * dt for k = 0 .. num_steps.
    """

    dt: float
    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if states.ndim != 3 or states.shape[2] != 2 or states.shape[0] != times.shape[0]:
            raise ValueError("states must have shape (num_samples, n, 2) matching times")
        if times.shape[0] < 1:
            raise ValueError("trajectory must hold at least one sample")
        if times.shape[0] > 1 and np.abs(np.diff(times) - self.dt).max() > 1e-9 * max(1.0, self.dt):
            raise ValueError("times must be uniform with step dt")
        if not (np.all(np.isfinite(states)) and np.all(np.isfinite(times))):
            raise ValueError("trajectory entries must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    @property
    def n_nodes(self) -> int:
        return self.states.shape[1]

    @property
    def num_samples(self) -> int:
        return self.states.shape[0]


@dataclass(frozen=True)
class StateExtrema:
    """Suprema of |pos| and |vel| over every sample and node."""

    pos_max: float
    vel_max: float


def network_field(
    params: Sequence[OscillatorParams],
    topology: Topology,
    protocol: CouplingProtocol,
    entrainment: Entrainment,
) -> Callable[[float, np.ndarray], np.ndarray]:
    """Build the network field rhs(t, x) on (n, 2) states, the one the integrator steps.

    Row i of rhs(t, x) is node i's uncoupled HKB field plus its coupling and
    the entrainment signal on the acceleration.
    """
    n = topology.n
    if len(params) != n:
        raise ValueError(f"got {len(params)} parameter sets for {n} nodes")
    alpha = np.array([p.alpha for p in params])
    beta = np.array([p.beta for p in params])
    gamma = np.array([p.gamma for p in params])
    omega_sq = np.array([p.omega for p in params]) ** 2
    counts = topology.neighbor_counts.astype(float)
    if not isinstance(protocol, NoCoupling) and np.any(counts == 0.0):
        raise ValueError("coupled dynamics need every node to have a neighbor")
    lap = laplacian(topology)
    weights = topology.weights
    add_coupling = protocol.add_coupling
    driven = entrainment.active

    def rhs(t: float, x: np.ndarray) -> np.ndarray:
        pos = x[:, 0]
        vel = x[:, 1]
        out = np.empty_like(x)
        out[:, 0] = vel
        out[:, 1] = -(alpha * pos * pos + beta * vel * vel - gamma) * vel - omega_sq * pos
        add_coupling(out, x, lap, weights, counts)
        if driven:
            out[:, 1] += entrainment.amplitude * math.sin(entrainment.frequency * t)
        return out

    return rhs


def step_count(duration: float, dt: float) -> int:
    """Number of steps of size dt that span duration exactly.

    Raises ValueError unless 0 < dt <= duration < inf and dt divides the
    duration to within 1e-6 of a step.
    """
    if not (0.0 < dt <= duration and math.isfinite(duration)):
        raise ValueError(f"need 0 < dt <= duration < inf, got dt={dt} and duration={duration}")
    steps = duration / dt
    if not math.isfinite(steps):
        raise ValueError(f"dt={dt} is too small for duration={duration}")
    if abs(steps - round(steps)) > 1e-6:
        raise ValueError(f"dt={dt} does not divide duration={duration}")
    return int(round(steps))


def integrate(
    params: Sequence[OscillatorParams],
    topology: Topology,
    protocol: CouplingProtocol,
    x0: Sequence[float],
    duration: float,
    dt: float,
    entrainment: Entrainment | None = None,
) -> Trajectory:
    """Classical fixed-step 4th-order Runge-Kutta integration of the network.

    dt must divide the duration (see step_count).  Every step is stored, so
    the sampling interval of the returned trajectory equals dt.
    Deterministic: identical inputs yield identical trajectories.
    Raises DivergenceError (with the offending step index)
    when the state stops being finite or exceeds STATE_MAGNITUDE_LIMIT.
    """
    steps = step_count(duration, dt)
    ent = entrainment if entrainment is not None else Entrainment()
    n = topology.n
    x = np.array(x0, dtype=float).reshape(n, 2)
    if not np.all(np.isfinite(x)):
        raise ValueError("initial state must be finite")
    rhs = network_field(params, topology, protocol, ent)
    states = np.empty((steps + 1, n, 2))
    states[0] = x
    half = 0.5 * dt
    sixth = dt / 6.0
    for k in range(1, steps + 1):
        t = (k - 1) * dt
        k1 = rhs(t, x)
        k2 = rhs(t + half, x + half * k1)
        k3 = rhs(t + half, x + half * k2)
        k4 = rhs(t + dt, x + dt * k3)
        x = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        # NaN compares false, so this catches it along with inf and runaway growth
        if not np.abs(x).max() <= STATE_MAGNITUDE_LIMIT:
            raise DivergenceError(f"state left trusted region at step {k}", step=k)
        states[k] = x
    return Trajectory(dt=dt, times=np.arange(steps + 1) * dt, states=states)


def state_extrema(traj: Trajectory) -> StateExtrema:
    """Suprema of |pos| and |vel| over every sample and node."""
    return StateExtrema(
        pos_max=float(np.abs(traj.states[:, :, 0]).max()),
        vel_max=float(np.abs(traj.states[:, :, 1]).max()),
    )
