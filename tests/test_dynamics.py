"""Unit tests for the node field, coupling protocols, and RK4 integration."""

import collections
import dataclasses
import functools
import math
import re
import warnings

import numpy as np
import pytest

from hkbnet import config, dynamics, metrics, runner
from hkbnet.dynamics import (
    STATE_MAGNITUDE_LIMIT,
    DivergenceError,
    Entrainment,
    FullState,
    HkbCoupling,
    NoCoupling,
    OscillatorParams,
    PartialState,
    Trajectory,
    integrate,
    state_extrema,
    step_count,
)
from hkbnet.graph import Topology, complete_graph, laplacian, random_weighted_graph
from hkbnet.presets import ROCKING6_INITIAL, ROCKING6_PARAMS

NODE1 = OscillatorParams(0.46, 1.16, 0.58, 0.31)

ALL_PROTOCOLS = [
    NoCoupling(),
    FullState(0.15),
    PartialState(0.15, 0.15),
    HkbCoupling(-1.0, -1.0, 0.15),
]


def node_field(state, params):
    """Reference oracle: one node's uncoupled field, in scalar arithmetic."""
    pos, vel = float(state[0]), float(state[1])
    acc = -(params.alpha * pos * pos + params.beta * vel * vel - params.gamma) * vel
    acc -= params.omega * params.omega * pos
    return np.array([vel, acc])


def per_node_coupling(i, states, topology, protocol):
    """Reference oracle: node i's interaction increment, summed neighbor by neighbor."""
    if isinstance(protocol, NoCoupling):
        return np.zeros(2)
    x = np.asarray(states, dtype=float)
    w = topology.weights[i]
    neighbors = np.flatnonzero(w > 0.0)
    xi = x[i]
    if isinstance(protocol, FullState):
        acc = np.zeros(2)
        for j in neighbors:
            acc += w[j] * (xi - x[j])
        return -(protocol.c / neighbors.size) * acc
    if isinstance(protocol, PartialState):
        total = 0.0
        for j in neighbors:
            total += w[j] * (
                protocol.c1 * (xi[0] - x[j, 0]) + protocol.c2 * (xi[1] - x[j, 1])
            )
        return np.array([0.0, -total / neighbors.size])
    total = 0.0
    for j in neighbors:
        dpos = xi[0] - x[j, 0]
        dvel = xi[1] - x[j, 1]
        total += w[j] * (protocol.a + protocol.b * dpos * dpos) * dvel
    return np.array([0.0, (protocol.c / neighbors.size) * total])


def fresh_rhs(params, topology, protocol, entrainment):
    """rhs(t, x): the in-place network field written into a fresh (n, 2) array on each call."""
    def rhs(t, x):
        out = np.empty_like(x)
        evaluate = dynamics._network_field_into(params, topology, protocol, entrainment, x, out)
        evaluate(np.array(entrainment.amplitude * math.sin(entrainment.frequency * t)))
        return out

    return rhs


def field(states, params, topology, protocol, entrainment=Entrainment(), t=0.0):
    """The network field evaluated once on (n, 2) states."""
    return fresh_rhs(params, topology, protocol, entrainment)(t, np.asarray(states, dtype=float))


def uncoupled_field(state, params):
    """A node's own field: node 0 of a 2-node graph without coupling."""
    return field([state, [0.0, 0.0]], [params, params], complete_graph(2), NoCoupling())[0]


def coupling_row(i, states, topology, protocol):
    """Node i's coupling increment: row i of add_coupling on a zero field."""
    x = np.asarray(states, dtype=float)
    out = np.zeros_like(x)
    counts = topology.neighbor_counts.astype(float)
    protocol.add_coupling(out, x, laplacian(topology), topology.weights, counts)
    return out[i]


def oracle_field(params, topology, protocol, entrainment):
    """Reference oracle: rhs(t, x), the network field as allocating numpy expressions in the documented order.

    The node part, then the protocol's coupling as its bind comment states,
    with the Laplacian products taken by laplacian(topology).dot on the
    column views the package passes, then the drive when it is active.
    """
    alpha, beta, gamma, omega = (np.array([getattr(p, name) for p in params])
                                 for name in ("alpha", "beta", "gamma", "omega"))
    lap = laplacian(topology)
    counts = topology.neighbor_counts.astype(float)

    def rhs(t, x):
        pos, vel = x[:, 0], x[:, 1]
        acc = -((alpha * pos) * pos + (beta * vel) * vel - gamma) * vel - omega**2 * pos
        out = np.stack([vel, acc], axis=1)
        if isinstance(protocol, FullState):
            out = out - (protocol.c / counts)[:, None] * lap.dot(x)
        elif isinstance(protocol, PartialState):
            out[:, 1] = out[:, 1] - (protocol.c1 * lap.dot(pos) + protocol.c2 * lap.dot(vel)) / counts
        elif isinstance(protocol, HkbCoupling):
            dpos, dvel = pos[:, None] - pos, vel[:, None] - vel
            total = (topology.weights * (protocol.a + protocol.b * dpos * dpos) * dvel).sum(axis=1)
            out[:, 1] = out[:, 1] + (protocol.c / counts) * total
        if entrainment.active:
            out[:, 1] = out[:, 1] + entrainment.amplitude * math.sin(entrainment.frequency * t)
        return out

    return rhs


def same_bits(a, b):
    """Whether a and b hold the same float64 bit patterns, any NaN matching any NaN.

    np.array_equal takes -0.0 == 0.0, so it cannot see a flipped signed zero.
    """
    return bool(np.all((a.view(np.uint64) == b.view(np.uint64)) | (np.isnan(a) & np.isnan(b))))


def reference_integrate(params, topology, protocol, x0, duration, dt, entrainment=Entrainment(),
                        make_rhs=fresh_rhs):
    """Reference oracle: RK4 on fresh arrays, a fresh field per stage and a check every step."""
    steps = step_count(duration, dt)
    rhs = make_rhs(params, topology, protocol, entrainment)
    x = np.array(x0, dtype=float)
    states = np.empty((steps + 1, topology.n, 2))
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
        if not np.abs(x).max() <= STATE_MAGNITUDE_LIMIT:
            raise DivergenceError(f"state left trusted region at step {k}", step=k)
        states[k] = x
    return states


def oracle_integrate(params, topology, protocol, x0, duration, dt, entrainment=Entrainment()):
    """Reference oracle: RK4 on fresh arrays over oracle_field, so no package code computes the field."""
    return reference_integrate(params, topology, protocol, x0, duration, dt, entrainment, make_rhs=oracle_field)


def divergence_step(integrator, gamma):
    """Step at which two uncoupled nodes with undamped growth rate gamma leave the box."""
    unstable = OscillatorParams(0.0, 0.0, gamma, 0.1)
    with pytest.raises(DivergenceError) as err:
        integrator([unstable, unstable], complete_graph(2), NoCoupling(), [[0.1, 0.0], [0.1, 0.0]], 10.0, 0.01)
    assert str(err.value) == f"state left trusted region at step {err.value.step}"
    return err.value.step


def irregular_graph():
    """Seeded random weighted graph whose nodes have different neighbor counts."""
    top = random_weighted_graph(6, 0.5, 0.2, 2.0, seed=4)
    assert np.unique(top.neighbor_counts).size > 1
    return top


class TestOscillatorParams:
    def test_rejects_negative_damping_shape(self):
        with pytest.raises(ValueError):
            OscillatorParams(-0.1, 1.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            OscillatorParams(0.1, -1.0, 0.5, 1.0)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            OscillatorParams(0.1, 1.0, 0.5, 0.0)

    def test_gamma_may_be_negative(self):
        # negative gamma = decaying oscillation, still a valid node
        OscillatorParams(0.1, 1.0, -0.5, 1.0)


class TestNonFiniteValues:
    def test_constructors_reject_nan_and_inf(self):
        # nan fails every comparison, so each check is written to reject it
        nan, inf = float("nan"), float("inf")
        for args in ((nan, 1.0, 0.5, 1.0), (0.1, nan, 0.5, 1.0), (0.1, 1.0, nan, 1.0),
                     (0.1, 1.0, 0.5, nan), (0.1, 1.0, 0.5, inf), (inf, 1.0, 1.0, 1.0),
                     (1.0, inf, 1.0, 1.0)):
            with pytest.raises(ValueError):
                OscillatorParams(*args)
        for make in (lambda: FullState(nan), lambda: PartialState(0.1, inf),
                     lambda: HkbCoupling(-1.0, -1.0, nan), lambda: HkbCoupling(nan, -1.0, 0.1),
                     lambda: HkbCoupling(-1.0, inf, 0.1), lambda: Entrainment(amplitude=nan),
                     lambda: Entrainment(frequency=nan), lambda: Entrainment(frequency=inf),
                     lambda: runner.BoundsOptions(p11=inf), lambda: runner.BoundsOptions(z1_max=inf)):
            with pytest.raises(ValueError):
                make()

    @pytest.mark.parametrize("dt", [0.0, -1.0, float("nan"), float("inf")])
    def test_trajectory_rejects_a_step_that_is_not_positive_and_finite(self, dt):
        # a nan step would also pass the uniform-times check, which compares false
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            Trajectory(dt=dt, times=np.arange(3) * 0.1, states=np.zeros((3, 2, 2)))


class TestHkbField:
    def test_origin_is_equilibrium(self):
        assert np.array_equal(uncoupled_field([0.0, 0.0], NODE1), np.zeros(2))

    def test_zero_velocity_leaves_restoring_force(self):
        deriv = uncoupled_field([1.0, 0.0], NODE1)
        assert deriv[0] == 0.0
        assert abs(deriv[1] + NODE1.omega**2) < 1e-15

    def test_hand_evaluated_point(self):
        # independent arithmetic: -(0.46*0.25 + 1.16*0.04 - 0.58)*0.2 - 0.0961*0.5
        deriv = uncoupled_field([0.5, 0.2], NODE1)
        expected_acc = -(0.46 * 0.25 + 1.16 * 0.04 - 0.58) * 0.2 - 0.0961 * 0.5
        assert deriv[0] == 0.2
        assert abs(deriv[1] - expected_acc) < 1e-15
        assert abs(deriv[1] - 0.03567) < 1e-12


class TestCouplingTerm:
    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_vanishes_on_common_state(self, protocol):
        top = complete_graph(4, 1.3)
        states = np.tile([0.7, -0.4], (4, 1))
        for i in range(4):
            assert np.abs(coupling_row(i, states, top, protocol)).max() < 1e-15

    def test_two_node_full_state(self):
        top = complete_graph(2, 1.0)
        states = np.array([[1.0, 0.0], [0.0, 0.0]])
        inc = coupling_row(0, states, top, FullState(1.0))
        assert np.array_equal(inc, np.array([-1.0, 0.0]))

    def test_two_node_hkb(self):
        # [a + b * dpos^2] * dvel = (-1 + -1 * 1) * 1 = -2 on the acceleration
        top = complete_graph(2, 1.0)
        states = np.array([[1.0, 1.0], [0.0, 0.0]])
        inc = coupling_row(0, states, top, HkbCoupling(-1.0, -1.0, 1.0))
        assert inc[0] == 0.0
        assert abs(inc[1] + 2.0) < 1e-15

    def test_two_node_partial_state(self):
        top = complete_graph(2, 1.0)
        states = np.array([[1.0, 0.5], [0.0, 0.0]])
        inc = coupling_row(0, states, top, PartialState(0.3, 0.7))
        assert inc[0] == 0.0
        assert abs(inc[1] + (0.3 * 1.0 + 0.7 * 0.5)) < 1e-15

    def test_average_uses_neighbor_count_not_degree(self):
        # one neighbor with weight 3: the mismatch is averaged over 1, not 3
        top = Topology(np.array([[0.0, 3.0], [3.0, 0.0]]))
        states = np.array([[1.0, 0.0], [0.0, 0.0]])
        inc = coupling_row(0, states, top, FullState(1.0))
        assert abs(inc[0] + 3.0) < 1e-15

    def test_no_coupling_is_zero(self):
        top = complete_graph(3, 1.0)
        states = np.arange(6.0).reshape(3, 2)
        assert np.array_equal(coupling_row(1, states, top, NoCoupling()), np.zeros(2))


class TestNetworkRhs:
    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_matches_per_node_composition(self, protocol):
        rng = np.random.default_rng(11)
        for top in (complete_graph(6, 1.0), irregular_graph()):
            for _ in range(5):
                states = rng.normal(size=(6, 2))
                whole = field(states, ROCKING6_PARAMS, top, protocol)
                couplings = [per_node_coupling(i, states, top, protocol) for i in range(6)]
                per_node = np.array(
                    [node_field(states[i], ROCKING6_PARAMS[i]) + couplings[i] for i in range(6)]
                )
                assert np.abs(whole - per_node).max() < 1e-12
                for i in range(6):
                    row = coupling_row(i, states, top, protocol)
                    assert np.abs(row - couplings[i]).max() < 1e-12

    def test_table_initial_conditions_full_state(self):
        top = complete_graph(6, 1.0)
        whole = field(ROCKING6_INITIAL, ROCKING6_PARAMS, top, FullState(0.15))
        per_node = np.array(
            [
                node_field(ROCKING6_INITIAL[i], ROCKING6_PARAMS[i])
                + per_node_coupling(i, ROCKING6_INITIAL, top, FullState(0.15))
                for i in range(6)
            ]
        )
        assert np.abs(whole - per_node).max() < 1e-12

    def test_entrainment_adds_to_acceleration_only(self):
        top = complete_graph(3, 1.0)
        params = ROCKING6_PARAMS[:3]
        state = np.array([[0.3, -0.2], [0.5, 0.1], [-0.4, 0.2]])
        ent = Entrainment(amplitude=0.4, frequency=0.5, enabled=True)
        t = 1.7
        plain = field(state, params, top, NoCoupling(), t=t)
        driven = field(state, params, top, NoCoupling(), ent, t=t)
        delta = driven - plain
        assert np.abs(delta[:, 0]).max() == 0.0
        assert np.abs(delta[:, 1] - 0.4 * np.sin(0.5 * t)).max() < 1e-15

    def test_matches_dedicated_two_node_implementation(self):
        # independent closed-form two-node diffusive system
        def two_node(state, p1, p2, c):
            x1, v1, x2, v2 = state
            d1 = -(p1.alpha * x1**2 + p1.beta * v1**2 - p1.gamma) * v1 - p1.omega**2 * x1
            d2 = -(p2.alpha * x2**2 + p2.beta * v2**2 - p2.gamma) * v2 - p2.omega**2 * x2
            return np.array(
                [
                    v1 - c * (x1 - x2),
                    d1 - c * (v1 - v2),
                    v2 - c * (x2 - x1),
                    d2 - c * (v2 - v1),
                ]
            )

        rng = np.random.default_rng(5)
        top = complete_graph(2, 1.0)
        p1, p2 = ROCKING6_PARAMS[0], ROCKING6_PARAMS[4]
        for _ in range(10):
            state = rng.normal(size=4)
            mine = field(state.reshape(2, 2), (p1, p2), top, FullState(0.2)).reshape(-1)
            ref = two_node(state, p1, p2, 0.2)
            assert np.abs(mine - ref).max() < 1e-14


class TestIntegrate:
    def test_zero_state_stays_zero(self):
        top = complete_graph(3, 1.0)
        traj = integrate(ROCKING6_PARAMS[:3], top, FullState(0.15), np.zeros((3, 2)), 5.0, 0.01)
        assert np.abs(traj.states).max() == 0.0

    def test_sample_grid(self):
        top = complete_graph(2, 1.0)
        traj = integrate(ROCKING6_PARAMS[:2], top, NoCoupling(), np.zeros((2, 2)), 2.0, 0.01)
        assert traj.num_samples == 201
        assert traj.times[0] == 0.0
        assert abs(traj.times[-1] - 2.0) < 1e-9

    def test_single_node_limit_cycle_is_bounded_and_stationary(self):
        # uncoupled nodes are independent, so node 0 is a single-oscillator run
        top = complete_graph(2, 1.0)
        x0 = np.array([[-1.4, 0.3], [0.1, 0.0]])
        traj = integrate([NODE1, NODE1], top, NoCoupling(), x0, 100.0, 0.01)
        pos = np.abs(traj.states[:, 0, 0])
        vel = np.abs(traj.states[:, 0, 1])
        assert pos.max() < 10.0 and vel.max() < 10.0
        quarter = traj.num_samples // 4
        last, prev = pos[-quarter:].max(), pos[-2 * quarter : -quarter].max()
        assert abs(last - prev) < 0.02 * max(last, prev)

    def test_richardson_halving_shows_fourth_order(self):
        cfg = runner.preset_config("rocking6-fsc")
        runs = {}
        for dt in (0.02, 0.01, 0.005):
            runs[dt] = integrate(
                cfg.params, cfg.topology, cfg.protocol, cfg.initial_states, 20.0, dt
            ).states
        err_coarse = np.abs(runs[0.02] - runs[0.01][::2]).max()
        err_fine = np.abs(runs[0.01] - runs[0.005][::2]).max()
        ratio = err_coarse / err_fine
        assert 8.0 < ratio < 32.0, f"expected ~16x error drop, got {ratio:.2f}"

    def test_global_error_slope_on_linear_system(self):
        # alpha = beta = gamma = 0 gives the harmonic oscillator with closed form
        p = OscillatorParams(0.0, 0.0, 0.0, 1.0)
        top = complete_graph(2, 1.0)
        dts = [0.2, 0.1, 0.05, 0.025]
        errs = []
        for dt in dts:
            traj = integrate([p, p], top, NoCoupling(), [[1.0, 0.0], [1.0, 0.0]], 10.0, dt)
            errs.append(np.abs(traj.states[:, 0, 0] - np.cos(traj.times)).max())
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert 3.7 < slope < 4.3, f"convergence slope {slope:.3f} outside [3.7, 4.3]"

    def test_divergence_reports_step(self):
        # positive gamma with no amplitude limiting grows without bound
        unstable = OscillatorParams(0.0, 0.0, 6.0, 0.1)
        top = complete_graph(2, 1.0)
        x0 = [[0.1, 0.0], [0.1, 0.0]]
        with pytest.raises(DivergenceError) as err:
            integrate([unstable, unstable], top, NoCoupling(), x0, 10.0, 0.01)
        step = err.value.step
        assert step is not None
        assert f"at step {step}" in str(err.value)
        # the step before it is the last one inside the limit
        traj = integrate([unstable, unstable], top, NoCoupling(), x0, (step - 1) * 0.01, 0.01)
        assert np.abs(traj.states).max() <= STATE_MAGNITUDE_LIMIT
        # a first step that overflows to nan is caught at step 1
        huge = OscillatorParams(1e308, 1e308, 0.0, 1.0)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
            integrate([huge, huge], top, NoCoupling(), [[1e3, 1e3], [1e3, 1e3]], 1.0, 0.01)
        assert err.value.step == 1

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS[1:])
    def test_synchronization_manifold_is_invariant(self, protocol):
        # identical nodes from identical states must stay identical
        top = complete_graph(3, 1.0)
        x0 = np.tile([-1.4, 0.3], (3, 1))
        traj = integrate([NODE1] * 3, top, protocol, x0, 50.0, 0.01)
        spread = np.abs(traj.states - traj.states[:, :1, :]).max()
        assert spread < 1e-9

    def test_entrainment_amplitude_zero_is_bitwise_identical(self):
        top = complete_graph(3, 1.0)
        params = ROCKING6_PARAMS[:3]
        x0 = ROCKING6_INITIAL[:3]
        plain = integrate(params, top, FullState(0.15), x0, 10.0, 0.01)
        driven = integrate(
            params, top, FullState(0.15), x0, 10.0, 0.01,
            entrainment=Entrainment(amplitude=0.0, frequency=0.5, enabled=True),
        )
        assert np.array_equal(plain.states, driven.states)

    def test_entrainment_active_needs_enabled_and_amplitude(self):
        assert Entrainment(amplitude=0.2, enabled=True).active
        assert not Entrainment(amplitude=0.0, enabled=True).active
        assert not Entrainment(amplitude=0.2, enabled=False).active

    def test_rejects_bad_steps(self):
        top = complete_graph(2, 1.0)
        with pytest.raises(ValueError):
            integrate(ROCKING6_PARAMS[:2], top, NoCoupling(), np.zeros((2, 2)), 0.0, 0.01)
        with pytest.raises(ValueError):
            integrate(ROCKING6_PARAMS[:2], top, NoCoupling(), np.zeros((2, 2)), 1.0, 2.0)

    def test_rejects_initial_state_of_another_shape(self):
        # a transposed or flat x0 would otherwise scramble which node starts where
        top = complete_graph(3, 1.0)
        for x0, shape in (([[1.0, 2.0, 3.0], [0.1, 0.2, 0.3]], r"\(2, 3\)"), (np.arange(6.0), r"\(6,\)")):
            with pytest.raises(ValueError, match=rf"initial state has shape {shape}, not \(3, 2\)"):
                integrate(ROCKING6_PARAMS[:3], top, NoCoupling(), x0, 1.0, 0.01)

    def test_rejects_a_parameter_set_count_other_than_the_node_count(self):
        top = complete_graph(3, 1.0)
        with pytest.raises(ValueError, match=r"got 2 parameter sets for 3 nodes"):
            integrate(ROCKING6_PARAMS[:2], top, NoCoupling(), np.zeros((3, 2)), 1.0, 0.01)

    def test_isolated_node_is_rejected_only_under_coupling(self):
        # node 3 has no neighbor: coupling divides by its count, the uncoupled field does not
        top = Topology(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        x0 = ROCKING6_INITIAL[:3]
        for protocol in ALL_PROTOCOLS[1:]:
            with pytest.raises(ValueError, match="coupled dynamics need every node to have a neighbor"):
                integrate(ROCKING6_PARAMS[:3], top, protocol, x0, 1.0, 0.01)
        assert integrate(ROCKING6_PARAMS[:3], top, NoCoupling(), x0, 1.0, 0.01).num_samples == 101

    def test_rejects_a_drive_phase_that_overflows(self):
        # frequency * t is finite up to t = 1 and overflows at the last stage time t = 2
        top = complete_graph(2, 1.0)
        x0 = ROCKING6_INITIAL[:2]
        drive = Entrainment(amplitude=0.3, frequency=1e308, enabled=True)
        with pytest.raises(ValueError, match=r"frequency=1e\+308 overflows frequency \* t at t=2"):
            integrate(ROCKING6_PARAMS[:2], top, NoCoupling(), x0, 2.0, 0.5, drive)
        assert integrate(ROCKING6_PARAMS[:2], top, NoCoupling(), x0, 1.0, 0.5, drive).num_samples == 3
        # an inactive drive is never evaluated, so its frequency cannot overflow
        off = dataclasses.replace(drive, amplitude=0.0)
        assert integrate(ROCKING6_PARAMS[:2], top, NoCoupling(), x0, 2.0, 0.5, off).num_samples == 5

    def test_step_count(self):
        assert step_count(200.0, 0.01) == 20000
        assert step_count(1.0, 1.0) == 1
        assert step_count(10.0, 0.025) == 400
        for duration, dt in ((1.0, 0.03), (1.0, 0.3), (1.0, 0.0), (-1.0, 0.01), (1.0, 2.0),
                             (float("inf"), 0.01), (1.0, float("nan")), (1.0, 5e-324)):
            with pytest.raises(ValueError):
                step_count(duration, dt)


class TestInPlaceStep:
    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    # id None: no drive, the default
    @pytest.mark.parametrize("drive", [pytest.param(Entrainment(), id="None"),
                                       Entrainment(amplitude=0.3, frequency=0.5, enabled=True)])
    def test_matches_reference_bitwise(self, protocol, drive):
        # no digest pins PSC or HKB with a drive on an irregular graph; both
        # recordings are checked in each case, so the case ids stay as they were
        for top in (complete_graph(6), irregular_graph()):
            args = (ROCKING6_PARAMS, top, protocol, ROCKING6_INITIAL, 20.0, 0.01, drive)
            reference = reference_integrate(*args)
            assert np.array_equal(integrate(*args).states, reference)
            positions = integrate(*args, positions_only=True).states
            assert positions.shape == reference.shape[:2] + (1,)
            assert np.array_equal(positions[:, :, 0], reference[:, :, 0])

    def test_divergence_step_matches_reference(self):
        # 4.34 diverges on the last row of a check block and 4.33 on the first row
        # of the next; the others fall inside a block
        steps = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for gamma in (3.0, 4.33, 4.34, 5.0, 6.0):
                step = divergence_step(integrate, gamma)
                assert step == divergence_step(reference_integrate, gamma), gamma
                assert step == divergence_step(functools.partial(integrate, positions_only=True), gamma), gamma
                steps.append(step)
        offsets = {step % dynamics._CHECK_BLOCK for step in steps}
        assert 0 in offsets and 1 in offsets and offsets - {0, 1}

    def test_steps_past_divergence_raise_no_warning(self):
        # the first step overflows to inf and nan, and the rest of its check
        # block runs on them before the check reports step 1
        huge = OscillatorParams(1e308, 1e308, 0.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for protocol in ALL_PROTOCOLS:
                for positions_only in (False, True):
                    with pytest.raises(DivergenceError) as err:
                        integrate([huge, huge], complete_graph(2), protocol, [[1e3, 1e3], [1e3, -1e3]], 10.0, 0.01,
                                  positions_only=positions_only)
                    assert err.value.step == 1


class TestFieldBitPatterns:
    # reference_integrate steps the package's own field, so TestInPlaceStep
    # cannot see a change in the field's arithmetic; this compares it with an
    # independent oracle, bit for bit, signed zeros and overflow included
    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS, ids=lambda p: type(p).__name__)
    @pytest.mark.parametrize("drive", [pytest.param(Entrainment(), id="undriven"),
                                       pytest.param(Entrainment(amplitude=0.3, frequency=0.5, enabled=True),
                                                    id="driven")])
    def test_field_matches_oracle_bitwise(self, protocol, drive):
        rng = np.random.default_rng(26)
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 1.0, 1e300])
        states = [rng.normal(size=(6, 2)) for _ in range(5)] + [rng.choice(special, (6, 2)) for _ in range(20)]
        seen = {"negative zero": 0, "inf": 0, "nan": 0}
        with np.errstate(all="ignore"):
            for top in (complete_graph(6), irregular_graph()):
                for gamma in (0.0, -0.0, 0.7):
                    params = [dataclasses.replace(p, gamma=gamma) for p in ROCKING6_PARAMS]
                    mine = fresh_rhs(params, top, protocol, drive)
                    oracle = oracle_field(params, top, protocol, drive)
                    for t in (0.0, 1.7):
                        for x in states:
                            got = mine(t, x)
                            assert same_bits(got, oracle(t, x)), (top.weights, gamma, t, x)
                            seen["negative zero"] += np.any((got == 0.0) & np.signbit(got))
                            seen["inf"] += np.any(np.isinf(got))
                            seen["nan"] += np.any(np.isnan(got))
        assert min(seen.values()) > 0, f"a special value never reached the output; the cases are void: {seen}"

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS, ids=lambda p: type(p).__name__)
    @pytest.mark.parametrize("drive", [pytest.param(Entrainment(), id="undriven"),
                                       pytest.param(Entrainment(amplitude=0.3, frequency=0.5, enabled=True),
                                                    id="driven")])
    @pytest.mark.parametrize("n", [2, 9, 16, 24])
    def test_weighted_graph_field_matches_oracle_bitwise(self, n, protocol, drive):
        # two nodes give the smallest (n, n) differences; at nine each HKB row
        # reduce sums eight terms after the first, where numpy's pairwise sum
        # switches to its unrolled path; from 16 nodes on, OpenBLAS 0.3.31's
        # SkylakeX kernels give a transposed product x.T.dot(lap.T) other bits
        # than lap.dot(x), which they match below 16
        rng = np.random.default_rng(100 + n)
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 1.0, 1e300])
        states = [rng.normal(size=(n, 2)) for _ in range(5)] + [rng.choice(special, (n, 2)) for _ in range(40)]
        table = rng.uniform([0.2, 0.3, 0.5, 0.2], [0.8, 1.8, 1.9, 0.9], (n, 4))
        seen = {"negative zero": 0, "inf": 0, "nan": 0}
        with np.errstate(all="ignore"):
            for seed in (1, 2):
                top = random_weighted_graph(n, 0.6, 0.2, 2.0, seed=seed)
                for gamma in (0.0, -0.0, 0.7):
                    params = [OscillatorParams(a, b, gamma, w) for a, b, _, w in table]
                    mine = fresh_rhs(params, top, protocol, drive)
                    oracle = oracle_field(params, top, protocol, drive)
                    for t in (0.0, 1.7):
                        for x in states:
                            got = mine(t, x)
                            assert same_bits(got, oracle(t, x)), (top.weights, gamma, t, x)
                            seen["negative zero"] += np.any((got == 0.0) & np.signbit(got))
                            seen["inf"] += np.any(np.isinf(got))
                            seen["nan"] += np.any(np.isnan(got))
        assert min(seen.values()) > 0, f"a special value never reached the output; the cases are void: {seen}"


class TestOracleTrajectories:
    # bitwise state claims hold per BLAS kernel, so these compare two runs in
    # one process and pin no state hash
    @pytest.mark.parametrize("name", config.PRESET_NAMES)
    def test_preset_states_match_oracle_bitwise(self, name):
        cfg = runner.preset_config(name)
        args = (cfg.params, cfg.topology, cfg.protocol, cfg.initial_states, 20.0, cfg.dt, cfg.entrainment)
        assert same_bits(integrate(*args).states, oracle_integrate(*args))

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS, ids=lambda p: type(p).__name__)
    @pytest.mark.parametrize("drive", [pytest.param(Entrainment(), id="undriven"),
                                       pytest.param(Entrainment(amplitude=0.3, frequency=0.5, enabled=True),
                                                    id="driven")])
    def test_twenty_node_states_match_oracle_bitwise(self, protocol, drive):
        # a graph large enough that a transposed Laplacian product changes bits
        # (see test_weighted_graph_field_matches_oracle_bitwise)
        rng = np.random.default_rng(20)
        top = random_weighted_graph(20, 0.6, 0.2, 2.0, seed=20)
        params = [OscillatorParams(*row) for row in rng.uniform([0.2, 0.3, 0.5, 0.2], [0.8, 1.8, 1.9, 0.9], (20, 4))]
        args = (params, top, protocol, rng.normal(0.0, 1.0, (20, 2)), 2.0, 0.01, drive)
        reference = oracle_integrate(*args)
        assert same_bits(integrate(*args).states, reference)
        assert same_bits(integrate(*args, positions_only=True).states[:, :, 0], reference[:, :, 0])

    def test_benchmark_sweep_cells_match_oracle_bitwise(self, entrainment_sweep_path):
        cells = config._sweep_grid(config.load_config(entrainment_sweep_path))
        assert len(cells) == 4
        for _, _, cell in cells:
            assert cell.entrainment.active
            args = (cell.params, cell.topology, cell.protocol, cell.initial_states, 20.0, cell.dt, cell.entrainment)
            positions = integrate(*args, positions_only=True).states
            assert same_bits(positions[:, :, 0], oracle_integrate(*args)[:, :, 0])


class TestCallBudget:
    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS, ids=lambda p: type(p).__name__)
    @pytest.mark.parametrize("drive", [pytest.param(Entrainment(), id="undriven"),
                                       pytest.param(Entrainment(amplitude=0.3, frequency=0.5, enabled=True),
                                                    id="driven")])
    def test_step_makes_the_documented_numpy_calls(self, monkeypatch, protocol, drive):
        # at n = 6 a numpy call costs mostly dispatch, so the step's cost is
        # close to its call count; this holds integrate to the count the
        # _Protocol docstring states, and nothing outside the steps may call
        counts = collections.Counter()

        class Counting:
            def __init__(self, name, func):
                self.name, self.func = name, func
                if hasattr(func, "reduce"):
                    self.reduce = Counting(f"{name}.reduce", func.reduce)

            def __call__(self, *args, **kwargs):
                counts[self.name] += 1
                return self.func(*args, **kwargs)

        for name in ("add", "subtract", "multiply", "divide", "copyto"):
            monkeypatch.setattr(np, name, Counting(name, getattr(np, name)))
        integrate(ROCKING6_PARAMS, complete_graph(6), protocol, ROCKING6_INITIAL, 5.12, 0.01, drive)
        doc = dynamics._Protocol.__doc__
        per_step = int(re.search(rf"\b{type(protocol).__name__}\s+(\d+)", doc).group(1))
        if drive.active:
            per_step += int(re.search(r"a drive\s+adds\s+(\d+)", doc).group(1))
        assert sum(counts.values()) == 512 * per_step, dict(counts)


class TestUncoupledSeparability:
    def test_each_node_runs_alone_bitwise(self):
        # under NoCoupling the field is elementwise over the nodes, so a node's
        # states do not depend on the nodes beside it, to the last bit
        cfg = runner.preset_config("rocking6-nc")
        whole = integrate(cfg.params, cfg.topology, cfg.protocol, cfg.initial_states, 20.0, cfg.dt).states
        for k in range(6):
            pair = [k, (k + 1) % 6]
            alone = integrate([cfg.params[i] for i in pair], complete_graph(2), cfg.protocol,
                              cfg.initial_states[pair], 20.0, cfg.dt).states
            assert np.array_equal(alone, whole[:, pair]), k


class TestRelabelling:
    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS, ids=lambda p: type(p).__name__)
    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_permuted_network_gives_permuted_states_and_metrics(self, n, protocol):
        # the model names no node: relabelling the nodes (weights, parameters and
        # initial states) relabels the states and the per-node metrics, and leaves
        # the group metrics alone, to within rounding
        rng = np.random.default_rng(n)
        top = random_weighted_graph(n, 0.6, 0.2, 2.0, seed=n)
        params = [OscillatorParams(*row) for row in rng.uniform([0.2, 0.3, 0.5, 0.2], [0.8, 1.8, 1.9, 0.9], (n, 4))]
        x0 = rng.normal(0.0, 1.0, (n, 2))
        perm = rng.permutation(n)
        assert not np.array_equal(perm, np.arange(n)), "the seeded draw is the identity; the test is void"
        drive = Entrainment(amplitude=0.2, frequency=0.4, enabled=True)

        def simulate(weights, params, x0):
            traj = integrate(params, Topology(weights), protocol, x0, 20.0, 0.01, entrainment=drive)
            return traj.states, metrics.compute_sync_report(traj, entrainment=drive)

        states, report = simulate(top.weights, params, x0)
        states_p, report_p = simulate(top.weights[np.ix_(perm, perm)], [params[i] for i in perm], x0[perm])
        assert np.abs(states_p - states[:, perm]).max() < 1e-12
        assert np.abs(report_p.rho_k - report.rho_k[perm]).max() < 1e-12
        assert np.abs(report_p.dyadic - report.dyadic[np.ix_(perm, perm)]).max() < 1e-12
        assert np.abs(report_p.rho_e_k - report.rho_e_k[perm]).max() < 1e-12
        assert abs(report_p.rho_g_mean - report.rho_g_mean) < 1e-12
        assert abs(report_p.rho_e - report.rho_e) < 1e-12


class TestBoundedness:
    def test_preset_runs_stay_in_band(self, rocking6_nc, rocking6_fsc, rocking6_psc, rocking6_hkb):
        for result in (rocking6_nc, rocking6_fsc, rocking6_psc, rocking6_hkb):
            assert np.abs(result.trajectory.states).max() < 10.0


class TestPositionsRecording:
    @pytest.mark.parametrize("reader", [
        pytest.param(state_extrema, id="state_extrema"),
        pytest.param(metrics.tracking_error_norm, id="tracking_error_norm"),
        # the check comes before the bundle is unpacked, so no file is needed
        pytest.param(lambda traj: runner.write_outputs(runner.RunResult(traj, None, ()), [None] * 6),
                     id="write_outputs"),
    ])
    def test_velocity_readers_reject_positions(self, reader):
        # without the check, two of them would fail on an index and eta would come from positions alone
        traj = integrate(ROCKING6_PARAMS[:3], complete_graph(3), FullState(0.15), ROCKING6_INITIAL[:3], 1.0, 0.01,
                         positions_only=True)
        assert not traj.has_velocities
        with pytest.raises(ValueError, match=r"needs velocities, but the trajectory records positions only"):
            reader(traj)


class TestStateExtrema:
    def test_zero_trajectory(self):
        traj = Trajectory(dt=0.1, times=np.arange(5) * 0.1, states=np.zeros((5, 2, 2)))
        ex = state_extrema(traj)
        assert ex.pos_max == 0.0 and ex.vel_max == 0.0

    def test_recorded_sinusoid(self):
        t = np.arange(0.0, 50.0, 0.01)
        states = np.zeros((t.size, 1, 2))
        states[:, 0, 0] = np.sin(t)
        states[:, 0, 1] = np.cos(t)
        ex = state_extrema(Trajectory(dt=0.01, times=t, states=states))
        assert abs(ex.pos_max - 1.0) < 1e-3
        assert abs(ex.vel_max - 1.0) < 1e-3

    def test_validation_run_extrema_scale(self, validation5_low):
        # the bundled fixture graph lands near the reference magnitudes
        ex = state_extrema(validation5_low.trajectory)
        assert 2.1 < ex.pos_max < 3.2
        assert 0.6 < ex.vel_max < 1.5
