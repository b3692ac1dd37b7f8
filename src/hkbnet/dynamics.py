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

# integrate steps this many rows into one reused block, checks the box once
# per block and reports the first step outside it; a per-step check cost one
# numpy reduction a step.
_CHECK_BLOCK = 256


class DivergenceError(RuntimeError):
    """Integration left the trusted state region (NaN, Inf, or runaway growth)."""

    def __init__(self, message: str, step: int):
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


def _columns(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, pos view, vel view) of an (n, 2) array: the form the in-place field and couplings take."""
    return a, a[:, 0], a[:, 1]


class _Protocol:
    """Base of the coupling protocols; rejects a negative strength and any non-finite field.

    Each protocol's bind(lap, weights, counts) takes the graph Laplacian, the
    weight matrix and the neighbor counts, and returns couple(field, x): it
    adds the interaction at the states x to the (n, 2) network field in
    place, both given as _columns triples.  couple computes its constants
    once and owns its scratch buffers; NoCoupling binds to None.  The
    average mismatch is taken over the neighbor count, not the weighted
    degree, so every protocol is diffusive: it adds nothing when all nodes
    share one state.

    Each numpy call in couple takes operands of its output's shape or 0-d
    arrays, never an (n, 1) or (1, n) operand that broadcasts nor a Python
    float: at n = 6 a call is mostly dispatch, about 0.3 us on that fast
    path against 0.5-0.9 us off it.  The one broadcast left is HkbCoupling's:
    it copies the states into an (n, 2) buffer it owns and takes both outer
    differences, of positions and of velocities, in one subtract of its
    (2, n, 1) and (2, 1, n) views into a (2, n, n) buffer.  The views are
    bound once: building them on each call cost most of what the one call
    saves.
    """

    def __post_init__(self):
        for name in strength_fields(self):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"coupling strength {name} must be nonnegative and finite")
        for f in dataclasses.fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")

    def add_coupling(self, field, x, lap, weights, counts) -> None:
        """Add the interaction at the (n, 2) states x to field in place."""
        couple = self.bind(lap, weights, counts)
        if couple is not None:
            couple(_columns(field), _columns(x))


@dataclass(frozen=True)
class NoCoupling(_Protocol):
    """Isolated nodes: every interaction term is zero."""

    def bind(self, lap, weights, counts) -> None:
        return None


@dataclass(frozen=True)
class FullState(_Protocol):
    """Diffusive coupling of strength c acting on position and velocity."""

    c: float = _strength()

    def bind(self, lap, weights, counts):
        # field -= (c / counts)[:, None] * (lap @ x); the scale is bound as
        # (n, 2), the same values repeated, since an (n, 1) operand broadcasts
        scale = np.repeat((self.c / counts)[:, None], 2, axis=1)
        mismatch = np.empty((lap.shape[0], 2))
        dot = lap.dot  # the BLAS product of np.matmul, without its ufunc dispatch

        def couple(field, x):
            dot(x[0], mismatch)
            np.multiply(scale, mismatch, mismatch)
            np.subtract(field[0], mismatch, field[0])

        return couple


@dataclass(frozen=True)
class PartialState(_Protocol):
    """Acceleration-only coupling from position (c1) and velocity (c2) mismatch."""

    c1: float = _strength()
    c2: float = _strength()

    def bind(self, lap, weights, counts):
        # field[:, 1] -= (c1 * (lap @ pos) + c2 * (lap @ vel)) / counts; both
        # products go into the rows of one (2, n) buffer, so one multiply by
        # the full-shape strengths scales them
        n = lap.shape[0]
        strengths = np.repeat([[self.c1], [self.c2]], n, axis=1)
        products = np.empty((2, n))
        from_pos, from_vel = products
        dot = lap.dot  # as in FullState

        def couple(field, x):
            _, pos, vel = x
            dot(pos, from_pos)
            dot(vel, from_vel)
            np.multiply(strengths, products, products)
            np.add(from_pos, from_vel, from_pos)
            np.divide(from_pos, counts, from_pos)
            np.subtract(field[2], from_pos, field[2])

        return couple


@dataclass(frozen=True)
class HkbCoupling(_Protocol):
    """Nonlinear dyadic interaction [a + b * dpos^2] * dvel scaled by c."""

    a: float
    b: float
    c: float = _strength()

    def bind(self, lap, weights, counts):
        # field[:, 1] += (c / counts) * (weights * (a + b * dpos * dpos) * dvel).sum(axis=1)
        a, b = np.array(self.a), np.array(self.b)  # 0-d arrays, as in integrate
        scale = self.c / counts
        n = lap.shape[0]
        own = np.empty((n, 2))  # diffs[k, i, j] = own[i, k] - own[j, k]
        rows, cols = own.T[:, :, None], own.T[:, None, :]
        diffs = np.empty((2, n, n))
        dpos, dvel = diffs
        term = np.empty((n, n))
        total = np.empty(n)

        def couple(field, x):
            np.copyto(own, x[0])
            np.subtract(rows, cols, diffs)
            np.multiply(b, dpos, term)
            np.multiply(term, dpos, term)
            np.add(a, term, term)
            np.multiply(weights, term, term)
            np.multiply(term, dvel, term)
            np.add.reduce(term, axis=1, out=total)
            np.multiply(scale, total, total)
            np.add(field[2], total, field[2])

        return couple


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

    states[j, i] holds (pos, vel) of node i at times[j], or (pos,) alone in a
    positions recording; times is the uniform grid k * dt for k = 0 .. num_steps.
    """

    dt: float
    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        if not 0.0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if states.ndim != 3 or states.shape[2] not in (1, 2) or states.shape[0] != times.shape[0]:
            raise ValueError("states must have shape (num_samples, n, 2) or (num_samples, n, 1) matching times")
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

    @property
    def has_velocities(self) -> bool:
        """Whether states holds each node's (pos, vel), not its position alone."""
        return self.states.shape[2] == 2

    def require_velocities(self, reader: str) -> None:
        """Raise ValueError naming reader when this is a positions recording."""
        if not self.has_velocities:
            raise ValueError(f"{reader} needs velocities, but the trajectory records positions only")


@dataclass(frozen=True)
class StateExtrema:
    """Suprema of |pos| and |vel| over every sample and node."""

    pos_max: float
    vel_max: float


def _network_field_into(
    params: Sequence[OscillatorParams],
    topology: Topology,
    protocol: CouplingProtocol,
    entrainment: Entrainment,
) -> Callable[[float, tuple, tuple], None]:
    """Build field(t, x, out), which writes the network field at (t, x) into out.

    x and out are _columns triples of distinct (n, 2) arrays.  field owns
    scratch buffers, so one field must not run in two threads at once.
    """
    n = topology.n
    if len(params) != n:
        raise ValueError(f"got {len(params)} parameter sets for {n} nodes")
    # one multiply by [[alpha, beta]] then one by x gives alpha*pos*pos and beta*vel*vel
    alpha_beta = np.array([[p.alpha, p.beta] for p in params])
    gamma = np.array([p.gamma for p in params])
    neg_omega_sq = -(np.array([p.omega for p in params]) ** 2)
    counts = topology.neighbor_counts.astype(float)
    if not isinstance(protocol, NoCoupling) and np.any(counts == 0.0):
        raise ValueError("coupled dynamics need every node to have a neighbor")
    couple = protocol.bind(laplacian(topology), topology.weights, counts)
    driven = entrainment.active
    amplitude, frequency = entrainment.amplitude, entrainment.frequency
    squares, squares_pos, squares_vel = _columns(np.empty((n, 2)))
    spring = np.empty(n)
    drive = np.empty(())
    # local names and a positional out (the last argument): at n = 6 a ufunc
    # call is mostly dispatch, so name lookups and keyword parsing show.
    # Every operand has the output's shape or is 0-d, which keeps a call on
    # numpy's fast path: at n = 6 such a call costs about 0.3 us, while an
    # (n, 1) operand that broadcasts costs about 0.9 us and a Python float
    # about 0.5-0.9 us.
    multiply, add, subtract, sin = np.multiply, np.add, np.subtract, math.sin

    def field(t: float, x: tuple, out: tuple) -> None:
        # acc = -(alpha * pos * pos + beta * vel * vel - gamma) * vel - omega_sq * pos,
        # one operation at a time in that order, but ending in
        # (-omega_sq * pos) - (... - gamma) * vel: rounding is symmetric in
        # sign and addition commutes, signed zeros included, so this is the
        # same float (a NaN's sign bit aside) with one call fewer
        state, pos, vel = x
        _, dpos, acc = out
        dpos[:] = vel
        multiply(alpha_beta, state, squares)
        multiply(squares, state, squares)
        add(squares_pos, squares_vel, acc)
        subtract(acc, gamma, acc)
        multiply(acc, vel, acc)
        multiply(neg_omega_sq, pos, spring)
        subtract(spring, acc, acc)
        if couple is not None:
            couple(out, x)
        if driven:
            drive.fill(amplitude * sin(frequency * t))
            add(acc, drive, acc)

    return field


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


def check_drive(entrainment: Entrainment, steps: int, dt: float) -> None:
    """Raise ValueError if an active drive's frequency * t is not finite on a grid of steps of dt.

    integrate evaluates the drive at t up to the last stage time
    (steps - 1) * dt + dt, and frequency * t never falls as t grows, so
    that one product decides; math.sin raises on an infinite one.
    """
    t_last = (steps - 1) * dt + dt
    if entrainment.active and not math.isfinite(entrainment.frequency * t_last):
        raise ValueError(f"frequency={entrainment.frequency:g} overflows frequency * t at t={t_last:g}")


def integrate(
    params: Sequence[OscillatorParams],
    topology: Topology,
    protocol: CouplingProtocol,
    x0: np.ndarray,
    duration: float,
    dt: float,
    entrainment: Entrainment = Entrainment(),
    positions_only: bool = False,
) -> Trajectory:
    """Classical fixed-step 4th-order Runge-Kutta integration of the network.

    x0 holds node i's initial (pos, vel) in row i, shape (n, 2).  dt must
    divide the duration (see step_count), and an active drive must keep
    frequency * t finite (see check_drive).  Every step is stored, so the
    sampling interval of the returned trajectory equals dt.  With
    positions_only the trajectory records (samples, n, 1) positions, bitwise
    the full states' [:, :, :1], and the velocities are never stored.
    Deterministic: identical inputs yield identical trajectories.
    Raises DivergenceError (with the offending step index)
    when the state stops being finite or exceeds STATE_MAGNITUDE_LIMIT.
    """
    steps = step_count(duration, dt)
    check_drive(entrainment, steps, dt)
    n = topology.n
    x = np.array(x0, dtype=float)  # a copy: x0 is often a RunConfig's initial_states
    if x.shape != (n, 2):
        raise ValueError(f"initial state has shape {x.shape}, not ({n}, 2)")
    if not np.all(np.isfinite(x)):
        raise ValueError("initial state must be finite")
    field = _network_field_into(params, topology, protocol, entrainment)
    kept = 1 if positions_only else 2
    states = np.empty((steps + 1, n, kept))
    states[0] = x[:, :kept]
    block = np.empty((_CHECK_BLOCK, n, 2))  # checked whole, then copied into the recording
    half = 0.5 * dt
    # the RK4 weights as 0-d arrays, which numpy multiplies by faster than by
    # Python floats, with the same result
    w_half, w_dt, w_two, w_sixth = (np.array(w) for w in (half, dt, 2.0, dt / 6.0))
    k1, k2, k3, k4, y = (np.empty((n, 2)) for _ in range(5))
    x_cols, k1_cols, k2_cols, k3_cols, k4_cols, y_cols = map(_columns, (x, k1, k2, k3, k4, y))
    multiply, add = np.multiply, np.add
    # past a divergence up to _CHECK_BLOCK - 1 more steps run on inf and nan
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(1, steps + 1, _CHECK_BLOCK):
            stop = min(start + _CHECK_BLOCK, steps + 1)
            for k in range(start, stop):
                t = (k - 1) * dt
                field(t, x_cols, k1_cols)
                multiply(w_half, k1, y)
                add(x, y, y)
                field(t + half, y_cols, k2_cols)
                multiply(w_half, k2, y)
                add(x, y, y)
                field(t + half, y_cols, k3_cols)
                multiply(w_dt, k3, y)
                add(x, y, y)
                field(t + dt, y_cols, k4_cols)
                # x + sixth * (k1 + 2 * (k2 + k3) + k4), one operation at a time
                add(k2, k3, k2)
                multiply(w_two, k2, k2)
                add(k1, k2, k1)
                add(k1, k4, k1)
                multiply(w_sixth, k1, k1)
                add(x, k1, x)
                block[k - start] = x
            rows = block[: stop - start]
            _check_rows(rows, start)
            states[start:stop] = rows[:, :, :kept]
    return Trajectory(dt=dt, times=np.arange(steps + 1) * dt, states=states)


def _check_rows(rows: np.ndarray, start: int) -> None:
    """Raise DivergenceError at the first of rows, the states of steps start onward, outside the trusted box."""
    # NaN compares false, so this catches it along with inf and runaway growth
    inside = np.abs(rows).max(axis=(1, 2)) <= STATE_MAGNITUDE_LIMIT
    if not inside.all():
        k = start + int(np.argmin(inside))
        raise DivergenceError(f"state left trusted region at step {k}", step=k)


def state_extrema(traj: Trajectory) -> StateExtrema:
    """Suprema of |pos| and |vel| over every sample and node."""
    traj.require_velocities("state_extrema")
    return StateExtrema(
        pos_max=float(np.abs(traj.states[:, :, 0]).max()),
        vel_max=float(np.abs(traj.states[:, :, 1]).max()),
    )
