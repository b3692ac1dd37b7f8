"""Unit tests for the contraction and Lyapunov synchronization certificates."""

import dataclasses

import numpy as np
import pytest

from hkbnet import bounds as bounds_mod
from hkbnet import runner
from hkbnet.bounds import (
    BoundsOptions,
    common_gamma,
    contraction_window,
    is_complete_unweighted,
    m_bar,
    quad_cbar_direct,
    quad_certificate,
    quad_epsilon_direct,
    quad_hypotheses,
)
from hkbnet.config import validate_config
from hkbnet.dynamics import FullState, OscillatorParams, integrate, state_extrema
from hkbnet.graph import Topology, complete_graph, neighbor_lambda2, random_weighted_graph
from hkbnet.metrics import tracking_error_norm
from hkbnet.presets import ROCKING6_PARAMS, VALIDATION5_PARAMS


def identical_nodes(n, alpha, beta, gamma, omega):
    return [OscillatorParams(alpha, beta, gamma, omega)] * n


class TestContractionWindow:
    def test_componentwise_means(self):
        # the virtual system takes the node means of alpha, gamma and omega
        alpha = (0.46 + 0.37 + 0.34 + 0.17 + 0.76 + 0.25) / 6
        gamma = (0.58 + 1.84 + 0.62 + 1.86 + 1.40 + 0.56) / 6
        omega = (0.31 + 0.52 + 0.37 + 0.41 + 0.85 + 0.62) / 6
        at_rest = contraction_window(ROCKING6_PARAMS, 0.0, 1.0)
        assert at_rest.c_lo == pytest.approx(5.0 / 6.0 * (omega**2 + gamma))
        moving = contraction_window(ROCKING6_PARAMS, 1.0, 1.0)
        assert moving.c_lo == pytest.approx(5.0 / 6.0 * (2.0 * alpha + omega**2 + gamma))

    def test_hand_evaluated_window(self):
        win = contraction_window(identical_nodes(6, 0.0, 1.0, 0.05, 0.1), 1.0, 1.0)
        assert win.c_lo == pytest.approx(5.0 / 6.0 * 0.06)
        assert win.c_hi == pytest.approx(5.0 / 6.0)
        assert win.feasible

    def test_table_averages_are_infeasible(self):
        # the sufficient condition fails for the six-node scenario; that is a
        # reported outcome, not an error (simulation still synchronizes)
        win = contraction_window(ROCKING6_PARAMS, 1.0, 1.0)
        assert win.c_lo > win.c_hi
        assert not win.feasible

    def test_upper_edge_below_one(self):
        for n in (2, 3, 10, 100):
            assert contraction_window(identical_nodes(n, 0.0, 1.0, 0.01, 0.05), 0.5, 0.5).c_hi < 1.0

    def test_nonpositive_state_bound_raises(self):
        # a zero bound (a network at rest) is a state bound like any other, as in m_bar
        params = identical_nodes(4, 0.1, 1.0, 0.2, 0.3)
        assert contraction_window(params, 0.0, 1.0).c_lo == pytest.approx(0.75 * (0.09 + 0.2))
        assert contraction_window(params, 0.0, 0.0).c_lo == pytest.approx(0.75 * (0.09 + 0.2))
        with pytest.raises(ValueError, match="state bounds must be nonnegative"):
            contraction_window(params, -1e-12, 1.0)
        with pytest.raises(ValueError, match="state bounds must be nonnegative"):
            contraction_window(params, 1.0, -2.0)

    def test_complete_unweighted_hypothesis(self):
        assert is_complete_unweighted(complete_graph(6))
        assert not is_complete_unweighted(complete_graph(6, 0.5))
        path = np.diag(np.ones(3), 1)
        assert not is_complete_unweighted(Topology(path + path.T))
        assert is_complete_unweighted(Topology(np.array([[0.0, 1.0], [1.0, 0.0]])))


class TestMBar:
    def test_validation_table_value(self):
        # largest params: alpha 0.76, beta 1.73, omega 0.27; hand arithmetic
        value = m_bar(VALIDATION5_PARAMS, 2.6, 0.96)
        expected = (1.0 + 0.76 * 2.6**2 + 1.73 * 0.96**2) * 0.96 + 0.27**2 * 2.6
        assert value == pytest.approx(expected)
        assert abs(value - 7.6) < 0.05

    def test_zero_params_collapse_to_velocity_bound(self):
        params = [OscillatorParams(0.0, 0.0, 0.0, 1e-9)]
        assert m_bar(params, 0.5, 2.0) == pytest.approx(2.0, abs=1e-12)

    def test_zero_bounds_give_zero(self):
        assert m_bar(VALIDATION5_PARAMS, 0.0, 0.0) == 0.0

    def test_negative_bound_raises(self):
        with pytest.raises(ValueError, match="state bounds must be nonnegative"):
            m_bar(VALIDATION5_PARAMS, -1.0, 1.0)


class TestQuadCbar:
    def test_published_operating_point(self):
        value = quad_cbar_direct(0.4112, 0.58, (0.077, 0.077), 0.001, (1.0, 1.0), w22=0.045)
        assert abs(value - 1.4211) < 0.0005

    def test_default_w22_is_gamma_times_p22(self):
        value = quad_cbar_direct(0.4112, 0.58, (0.077, 0.077), 0.001, (1.0, 1.0))
        assert value == pytest.approx(0.58 * 0.077 / (0.4112 * 0.077))

    def test_minimized_mode_limit(self):
        # w11 -> 0 with p = I approaches gamma / lambda2
        lam2, gamma = 0.4112, 0.58
        direct = quad_cbar_direct(lam2, gamma, (1.0, 1.0), 1e-12, (1.0, 1.0))
        assert direct == pytest.approx(gamma / lam2)

    def test_invariant_under_uniform_scaling(self):
        base = quad_cbar_direct(0.5, 0.58, (0.3, 0.2), 0.01, (1.0, 2.0))
        for scale in (0.1, 3.0, 40.0):
            scaled = quad_cbar_direct(0.5, 0.58, (0.3 * scale, 0.2 * scale), 0.01 * scale, (1.0, 2.0))
            assert scaled == pytest.approx(base)

    def test_topology_route_matches_direct(self):
        # lambda2 of the neighbor-normalized K5 Laplacian is 5/4; gamma is 0.58 on every node
        lam2 = neighbor_lambda2(complete_graph(5, 1.0))
        assert lam2 == pytest.approx(1.25)
        cert = quad_certificate(lam2, VALIDATION5_PARAMS, BoundsOptions(p11=1.0, p22=1.0, w11=0.001), None, 0.0)
        assert cert.c_bar == pytest.approx(quad_cbar_direct(1.25, 0.58, (1.0, 1.0), 0.001))

    def test_disconnected_topology_raises(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        options = BoundsOptions(p11=1.0, p22=1.0, w11=0.001)
        with pytest.raises(ValueError, match="lambda2 is zero"):
            quad_certificate(neighbor_lambda2(Topology(w)), VALIDATION5_PARAMS[:4], options, None, 0.0)


class TestQuadEpsilon:
    def test_monotone_decreasing_in_coupling(self):
        args = dict(lambda2=0.4112, gamma_avg=0.58, p=(0.077, 0.077), w11=0.001,
                    coupling_shape=(1.0, 1.0), m_bound=7.6, n_nodes=5, w22=0.045)
        values = [quad_epsilon_direct(c, **args) for c in (1.45, 2.0, 5.0, 50.0)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1.0

    def test_linear_in_remainder_bound(self):
        args = dict(lambda2=0.4112, gamma_avg=0.58, p=(0.077, 0.077), w11=0.001,
                    coupling_shape=(1.0, 1.0), n_nodes=5, w22=0.045)
        one = quad_epsilon_direct(1.45, m_bound=7.6, **args)
        two = quad_epsilon_direct(1.45, m_bound=15.2, **args)
        assert two == pytest.approx(2.0 * one)

    def test_side_condition_violation_raises(self):
        # the certificate is silent below the side condition: a value, not an error
        for c in (0.07, 1.42):  # c_bar = 0.045 / (0.4112 * 0.077) = 1.4212
            assert quad_epsilon_direct(
                c, 0.4112, 0.58, (0.077, 0.077), 0.001, (1.0, 1.0), 7.6, 5, w22=0.045
            ) is None

    def test_no_spectral_gap_raises(self):
        # no gap, no certificate: however large c is, the side condition says nothing
        with pytest.raises(ValueError, match="lambda2 is zero"):
            quad_epsilon_direct(1e12, 1e-9, 0.58, (0.077, 0.077), 0.001, (1.0, 1.0), 7.6, 5)

    def test_hand_evaluated_value(self):
        gap = 1.45 * 0.4112 * 0.077 - 0.045
        expected = np.sqrt(5.0) * 7.6 * 0.077 / gap
        value = quad_epsilon_direct(
            1.45, 0.4112, 0.58, (0.077, 0.077), 0.001, (1.0, 1.0), 7.6, 5, w22=0.045
        )
        assert value == pytest.approx(expected)


class TestQuadCertificate:
    def test_heterogeneous_gamma_rejected(self):
        with pytest.raises(ValueError, match="identical gamma"):
            quad_certificate(
                neighbor_lambda2(complete_graph(6, 1.0)), ROCKING6_PARAMS, BoundsOptions(), None, 0.0
            )

    def test_certificate_fields(self):
        options = BoundsOptions(p11=0.077, p22=0.077, w11=0.001)
        lam2 = neighbor_lambda2(complete_graph(5, 1.0))
        cert = quad_certificate(lam2, VALIDATION5_PARAMS, options, 2.0, m_bar(VALIDATION5_PARAMS, 2.6, 0.96))
        # lambda2 = 5/4 for K5, and w22 defaults to gamma * p22 = 0.58 * 0.077
        assert cert.c_bar == pytest.approx(0.58 * 0.077 / (1.25 * 0.077))
        gap = 2.0 * 1.25 * 0.077 - 0.58 * 0.077
        assert cert.epsilon == pytest.approx(np.sqrt(5.0) * m_bar(VALIDATION5_PARAMS, 2.6, 0.96) * 0.077 / gap)

    def test_epsilon_absent_below_side_condition(self):
        options = BoundsOptions(p11=0.077, p22=0.077, w11=0.001)
        lam2 = neighbor_lambda2(complete_graph(5, 1.0))
        cert = quad_certificate(lam2, VALIDATION5_PARAMS, options, 0.01, m_bar(VALIDATION5_PARAMS, 2.6, 0.96))
        assert cert.epsilon is None

    @pytest.mark.parametrize("delta, shared", [(1.5e-9, True), (2.5e-9, False)])
    def test_one_gamma_verdict_everywhere(self, delta, shared):
        # at gamma = 2 the shared-gamma tolerance is GAMMA_RTOL * 2 = 2e-9
        params = (OscillatorParams(0.3, 1.0, 2.0, 0.5), OscillatorParams(0.4, 1.1, 2.0 + delta, 0.6))
        config = runner.RunConfig(
            label="pair",
            topology=complete_graph(2, 1.0),
            params=params,
            initial_states=np.array([[1.0, 0.0], [-1.0, 0.0]]),
            protocol=FullState(0.5),
            duration=1.0,
            bounds=runner.BoundsOptions(quad=True),
        )
        assert (common_gamma(params) is not None) == shared
        assert (validate_config(config) == []) == shared
        rows = dict(runner.bounds_rows(config, runner._integrate(config)))
        assert rows["quad_applicable"] == float(shared)
        if shared:
            assert quad_certificate(rows["lambda2"], params, BoundsOptions(), None, 0.0).c_bar == rows["c_bar"]
        else:
            with pytest.raises(ValueError, match="identical gamma"):
                quad_certificate(rows["lambda2"], params, BoundsOptions(), None, 0.0)

    def test_hypotheses_fail_in_order(self):
        # a 1e-10 bridge keeps the path connected but leaves lambda2 below tolerance
        bridge = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1e-10], [0.0, 1e-10, 0.0]])
        lam2, failures = quad_hypotheses(Topology(bridge), ROCKING6_PARAMS[:3])
        assert failures == ["gamma differs across nodes", f"lambda2 = {lam2:.3g} leaves no spectral gap"]
        lam2, failures = quad_hypotheses(complete_graph(5, 1.0), VALIDATION5_PARAMS)
        assert lam2 == pytest.approx(1.25) and failures == []

    def test_disconnected_graph_has_no_lambda2(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = w[2, 3] = w[3, 2] = 1.0
        assert quad_hypotheses(Topology(w), VALIDATION5_PARAMS[:4]) == (None, [])
        assert quad_hypotheses(Topology(w), ROCKING6_PARAMS[:4]) == (None, ["gamma differs across nodes"])

    def test_m_bar_once_per_bounds_rows(self, monkeypatch):
        calls = []
        monkeypatch.setattr(bounds_mod, "m_bar", lambda *args: calls.append(args) or m_bar(*args))
        config = dataclasses.replace(runner.preset_config("validation5"), duration=5.0)
        rows = dict(runner.bounds_rows(config, runner._integrate(config)))
        assert len(calls) == 1
        assert rows["m_bar"] == m_bar(*calls[0]) and rows["epsilon_applicable"] == 0.0


class TestEmpiricalSoundness:
    """When a sufficient condition holds, the simulated error obeys its bound.

    Only this conservative direction is asserted; the converse is false by
    design (the scenarios synchronize far below the bounds).
    """

    def test_contraction_window_run_settles(self):
        rng = np.random.default_rng(123)
        n = 4
        params = [
            OscillatorParams(0.0, float(b), float(g), float(w))
            for b, g, w in zip(
                rng.uniform(0.5, 1.0, n), rng.uniform(0.05, 0.15, n), rng.uniform(0.25, 0.35, n)
            )
        ]
        top = complete_graph(n, 1.0)
        x0 = rng.uniform(-0.5, 0.5, size=(n, 2))
        pilot = integrate(params, top, FullState(0.5), x0, 100.0, 0.01)
        extrema = state_extrema(pilot)
        win = contraction_window(params, extrema.pos_max, extrema.vel_max)
        assert win.feasible
        c = 0.5 * (win.c_lo + win.c_hi)
        traj = integrate(params, top, FullState(c), x0, 100.0, 0.01)
        eta = tracking_error_norm(traj)
        assert eta[int(0.75 * eta.size):].max() < 0.5

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_quad_bound_dominates_simulated_error(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(3, 6))
        top = random_weighted_graph(n, 0.7, 0.2, 2.0, seed=seed)
        params = [
            OscillatorParams(float(a), float(b), 0.58, float(w))
            for a, b, w in zip(
                rng.uniform(0.1, 0.8, n), rng.uniform(0.3, 1.8, n), rng.uniform(0.15, 0.3, n)
            )
        ]
        x0 = rng.uniform(-1.5, 1.5, size=(n, 2))
        lam2 = neighbor_lambda2(top)
        options = BoundsOptions(p11=1.0, p22=1.0, w11=1e-6)
        c_bar = quad_certificate(lam2, params, options, None, 0.0).c_bar
        c = 2.0 * c_bar
        traj = integrate(params, top, FullState(c), x0, 200.0, 0.01)
        extrema = state_extrema(traj)
        cert = quad_certificate(lam2, params, options, c, m_bar(params, extrema.pos_max, extrema.vel_max))
        eta = tracking_error_norm(traj)
        assert cert.epsilon is not None
        assert eta[int(0.75 * eta.size):].max() < cert.epsilon
