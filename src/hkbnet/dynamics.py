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


class _Protocol:
    """Base of the coupling protocols; rejects a negative strength and any non-finite field.

    Each protocol's bind(lap, weights, counts, x, field) takes the graph
    Laplacian, the weight matrix, the neighbor counts and one RK4 stage's
    (n, 2) states x and (n, 2) network field.  It computes its constants,
    its scratch buffers and the views of x and field it needs in one call,
    and returns couple(), which adds the interaction at x to field in place;
    NoCoupling binds to None.  integrate binds once per stage, so each stage
    owns its scratch and no call builds a view.  The average mismatch is
    taken over the neighbor count, not the weighted degree, so every
    protocol is diffusive: it adds nothing when all nodes share one state.

    Each numpy call in couple takes operands of its output's shape or 0-d
    arrays, never an (n, 1) or (1, n) operand that broadcasts nor a Python
    float: at n = 6 a call is mostly dispatch, about 0.3 us on that fast
    path against 0.5-0.9 us off it.  The one broadcast left is HkbCoupling's:
    it takes both outer differences, of positions and of velocities, in one
    subtract of (2, n, 1) and (2, 1, n) views of the stage's own states into
    a (2, n, n) buffer, with no copy of the states.

    The node field takes -omega**2 * pos and (... - gamma) * vel in one
    multiply of the states by an (n, 2) buffer [-omega**2, bracket].  An RK4
    step then makes, per protocol, this many calls of np.add (its reduce
    included), np.subtract, np.multiply, np.divide and np.copyto:
    NoCoupling 34, FullState 42, PartialState 50, HkbCoupling 70; a drive
    adds 4, one per stage.  The Laplacian products (lap.dot) and the copies
    by assignment are not counted.
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
        couple = self.bind(lap, weights, counts, x, field)
        if couple is not None:
            couple()


@dataclass(frozen=True)
class NoCoupling(_Protocol):
    """Isolated nodes: every interaction term is zero."""

    def bind(self, lap, weights, counts, x, field) -> None:
        return None


@dataclass(frozen=True)
class FullState(_Protocol):
    """Diffusive coupling of strength c acting on position and velocity."""

    c: float = _strength()

    def bind(self, lap, weights, counts, x, field):
        # field -= (c / counts)[:, None] * (lap @ x); the scale is bound as
        # (n, 2), the same values repeated, since an (n, 1) operand broadcasts
        scale = np.repeat((self.c / counts)[:, None], 2, axis=1)
        mismatch = np.empty((lap.shape[0], 2))
        dot = lap.dot  # the BLAS product of np.matmul, without its ufunc dispatch
        multiply, subtract = np.multiply, np.subtract

        def couple():
            dot(x, mismatch)
            multiply(scale, mismatch, mismatch)
            subtract(field, mismatch, field)

        return couple


@dataclass(frozen=True)
class PartialState(_Protocol):
    """Acceleration-only coupling from position (c1) and velocity (c2) mismatch."""

    c1: float = _strength()
    c2: float = _strength()

    def bind(self, lap, weights, counts, x, field):
        # field[:, 1] -= (c1 * (lap @ pos) + c2 * (lap @ vel)) / counts; both
        # products go into the rows of one (2, n) buffer, so one multiply by
        # the full-shape strengths scales them
        n = lap.shape[0]
        strengths = np.repeat([[self.c1], [self.c2]], n, axis=1)
        products = np.empty((2, n))
        from_pos, from_vel = products
        dot = lap.dot  # as in FullState
        pos, vel, acc = x[:, 0], x[:, 1], field[:, 1]
        multiply, add, divide, subtract = np.multiply, np.add, np.divide, np.subtract

        def couple():
            dot(pos, from_pos)
            dot(vel, from_vel)
            multiply(strengths, products, products)
            add(from_pos, from_vel, from_pos)
            divide(from_pos, counts, from_pos)
            subtract(acc, from_pos, acc)

        return couple


@dataclass(frozen=True)
class HkbCoupling(_Protocol):
    """Nonlinear dyadic interaction [a + b * dpos^2] * dvel scaled by c."""

    a: float
    b: float
    c: float = _strength()

    def bind(self, lap, weights, counts, x, field):
        # field[:, 1] += (c / counts) * (weights * (a + b * dpos * dpos) * dvel).sum(axis=1)
        a, b = np.array(self.a), np.array(self.b)  # 0-d arrays, as in integrate
        scale = self.c / counts
        n = lap.shape[0]
        diffs = np.empty((2, n, n))
        dpos, dvel = diffs
        term = np.empty((n, n))
        total = np.empty(n)
        rows, cols = x.T[:, :, None], x.T[:, None, :]  # diffs[k, i, j] = x[i, k] - x[j, k]
        acc = field[:, 1]
        multiply, add, subtract, row_sum = np.multiply, np.add, np.subtract, np.add.reduce

        def couple():
            subtract(rows, cols, diffs)
            multiply(b, dpos, term)
            multiply(term, dpos, term)
            add(a, term, term)
            multiply(weights, term, term)
            multiply(term, dvel, term)
            row_sum(term, axis=1, out=total)
            multiply(scale, total, total)
            add(acc, total, acc)

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
        if times.ndim != 1:
            raise ValueError("times must be one-dimensional")
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
    x: np.ndarray,
    out: np.ndarray,
) -> Callable[[np.ndarray], None]:
    """Build field(drive) for one RK4 stage's pair of (n, 2) arrays.

    field writes the network field at the states x into out, a distinct
    array, and adds the 0-d drive to every acceleration when the entrainment
    is active.  Each field owns its scratch buffers, so fields built for
    different stages share none.
    """
    n = topology.n
    # one multiply by [[alpha, beta]] then one by x gives alpha*pos*pos and beta*vel*vel
    alpha_beta = np.array([[p.alpha, p.beta] for p in params])
    gamma = np.array([p.gamma for p in params])
    # column 0 holds -omega**2 and column 1 the bracket (alpha*pos*pos +
    # beta*vel*vel - gamma), so one multiply by x gives the spring and bracket * vel
    factors = np.empty((n, 2))
    factors[:, 0] = -(np.array([p.omega for p in params]) ** 2)
    bracket = factors[:, 1]
    counts = topology.neighbor_counts.astype(float)
    couple = protocol.bind(laplacian(topology), topology.weights, counts, x, out)
    driven = entrainment.active
    squares = np.empty((n, 2))
    squares_pos, squares_vel = squares[:, 0], squares[:, 1]
    # local names and a positional out (the last argument): at n = 6 a ufunc
    # call is mostly dispatch, so name lookups and keyword parsing show.
    # Every operand has the output's shape or is 0-d, which keeps a call on
    # numpy's fast path: at n = 6 such a call costs about 0.3 us, while an
    # (n, 1) operand that broadcasts costs about 0.9 us and a Python float
    # about 0.5-0.9 us.
    vel, dpos, acc = x[:, 1], out[:, 0], out[:, 1]
    multiply, add, subtract = np.multiply, np.add, np.subtract

    def field(drive: np.ndarray) -> None:
        # acc = -(alpha * pos * pos + beta * vel * vel - gamma) * vel - omega_sq * pos,
        # one operation at a time in that order, but ending in
        # (-omega_sq * pos) - (... - gamma) * vel: rounding is symmetric in
        # sign and addition commutes, signed zeros included, so this is the
        # same float (a NaN's sign bit aside) with no negation, and both
        # products come from one multiply of [-omega_sq, bracket] by x
        dpos[...] = vel  # [...] is the cheapest setitem: no slice object to parse
        multiply(alpha_beta, x, squares)
        multiply(squares, x, squares)
        add(squares_pos, squares_vel, bracket)
        subtract(bracket, gamma, bracket)
        multiply(factors, x, squares)
        subtract(squares_pos, squares_vel, acc)
        if couple is not None:
            couple()
        if driven:
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

    x0 holds node i's initial (pos, vel) in row i, shape (n, 2), and
    params[i] node i's parameters; a coupled protocol needs every node to
    have a neighbor.  dt must divide the duration (see step_count), and an
    active drive must keep frequency * t finite (see check_drive).  Every
    step is stored, so the sampling interval of the returned trajectory
    equals dt.  With positions_only the trajectory records (samples, n, 1)
    positions, bitwise the full states' [:, :, :1], and the velocities are
    never stored.
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
    if len(params) != n:
        raise ValueError(f"got {len(params)} parameter sets for {n} nodes")
    if not isinstance(protocol, NoCoupling) and np.any(topology.neighbor_counts == 0):
        raise ValueError("coupled dynamics need every node to have a neighbor")
    kept = 1 if positions_only else 2
    states = np.empty((steps + 1, n, kept))
    states[0] = x[:, :kept]
    block = np.empty((_CHECK_BLOCK, n, 2))  # checked whole, then copied into the recording
    half = 0.5 * dt
    # the RK4 weights as 0-d arrays, which numpy multiplies by faster than by
    # Python floats, with the same result; [2, dt] is full-shape, as in couple
    w_half, w_sixth = np.array(half), np.array(dt / 6.0)
    two_dt = np.empty((2, n, 2))
    two_dt[0], two_dt[1] = 2.0, dt
    # the tail pairs its operands in (2, n, 2) buffers: [k1, x], [k2, k3]
    # (k2 becomes k2 + k3 in place) and [k1 + 2 * (k2 + k3), x + dt * k3]
    k1_x, k2_k3, sum_y4 = (np.empty((2, n, 2)) for _ in range(3))
    k1_x[1] = x
    k1, x = k1_x
    k2, k3 = k2_k3
    total, y4 = sum_y4
    y, k4 = np.empty((n, 2)), np.empty((n, 2))
    # each stage builds its own field, with its own scratch, bound to its input and output buffers
    field1, field2, field3, field4 = (_network_field_into(params, topology, protocol, entrainment, *stage)
                                      for stage in ((x, k1), (y, k2), (y, k3), (y4, k4)))
    # a block's stage drives, at t, t + dt / 2 (shared by k2 and k3) and
    # t + dt of each step, filled once per block; each step's row of the
    # block goes with 0-d views of its three drives.  An inactive drive
    # stays zero and is never added
    drives = np.zeros((min(steps, _CHECK_BLOCK), 3))
    rows_drives = [(row, d[0, ...], d[1, ...], d[2, ...]) for row, d in zip(block, drives)]
    driven = entrainment.active
    amplitude, frequency, sin = entrainment.amplitude, entrainment.frequency, math.sin
    multiply, add = np.multiply, np.add
    # past a divergence up to _CHECK_BLOCK - 1 more steps run on inf and nan
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(1, steps + 1, _CHECK_BLOCK):
            stop = min(start + _CHECK_BLOCK, steps + 1)
            if driven:
                drives[: stop - start] = [
                    (amplitude * sin(frequency * t), amplitude * sin(frequency * (t + half)),
                     amplitude * sin(frequency * (t + dt)))
                    for t in [(k - 1) * dt for k in range(start, stop)]
                ]
            for row, drive1, drive2, drive4 in rows_drives[: stop - start]:
                field1(drive1)
                multiply(w_half, k1, y)
                add(x, y, y)
                field2(drive2)
                multiply(w_half, k2, y)
                add(x, y, y)
                field3(drive2)
                # x + sixth * (k1 + 2 * (k2 + k3) + k4), one operation at a
                # time, with k1 + 2 * (k2 + k3) and the k4 input x + dt * k3
                # taken in pairs
                add(k2, k3, k2)
                multiply(two_dt, k2_k3, k2_k3)
                add(k1_x, k2_k3, sum_y4)
                field4(drive4)
                add(total, k4, total)
                multiply(w_sixth, total, total)
                add(x, total, x)
                row[...] = x
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
