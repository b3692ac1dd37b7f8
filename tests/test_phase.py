"""Unit tests for analytic-signal phase extraction."""

import numpy as np
import pytest

from hkbnet.dynamics import NoCoupling, OscillatorParams, integrate
from hkbnet.graph import complete_graph
from hkbnet.phase import (
    DegenerateSignalError,
    PhaseSeries,
    analytic_signal,
    instantaneous_phase,
    phases_from_trajectory,
    wrap_phase,
)


class TestAnalyticSignal:
    def test_cosine_becomes_unit_phasor(self):
        m, dt = 4000, 0.01
        omega = 2 * np.pi * 30 / (m * dt)  # 30 whole periods
        t = np.arange(m) * dt
        z = analytic_signal(np.cos(omega * t))
        lo, hi = m // 10, 9 * m // 10
        assert np.abs(np.abs(z[lo:hi]) - 1.0).max() < 0.02
        assert np.abs(z[lo:hi] - np.exp(1j * omega * t[lo:hi])).max() < 0.05

    def test_constant_series_maps_to_zero(self):
        z = analytic_signal(np.full(64, 3.7))
        assert np.abs(z).max() < 1e-12

    def test_real_part_reproduces_centered_input(self):
        t = np.arange(3000) * 0.01
        x = 1.5 + np.cos(2.0 * t) + 0.4 * np.sin(5.0 * t)
        z = analytic_signal(x)
        assert np.abs(z.real - (x - x.mean())).max() < 1e-9

    def test_random_series_real_part_identity(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=777)
        z = analytic_signal(x)
        assert np.abs(z.real - (x - x.mean())).max() < 1e-9

    def test_too_short_raises(self):
        with pytest.raises(ValueError, match="need at least 4 samples, got 3"):
            analytic_signal([1.0, 2.0, 3.0])


class TestInstantaneousPhase:
    def test_cosine_slope(self):
        m, dt = 4000, 0.01
        omega = 2 * np.pi * 30 / (m * dt)
        t = np.arange(m) * dt
        ph = instantaneous_phase(np.cos(omega * t))
        lo, hi = m // 10, 9 * m // 10
        slope = np.diff(np.unwrap(ph[lo:hi])).mean() / dt
        assert abs(slope - omega) < 0.01 * omega

    def test_sine_lags_by_quarter_period(self):
        m, dt = 4000, 0.01
        omega = 2 * np.pi * 30 / (m * dt)
        t = np.arange(m) * dt
        ph = instantaneous_phase(np.sin(omega * t))
        lo, hi = m // 10, 9 * m // 10
        mismatch = wrap_phase(ph[lo:hi] - (omega * t[lo:hi] - np.pi / 2))
        assert np.abs(mismatch).max() < 0.06

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=512)
        assert np.array_equal(instantaneous_phase(x), instantaneous_phase(x.copy()))

    def test_amplitude_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=512)
        base = instantaneous_phase(x)
        for scale in (2.0, 7.3, 0.04):
            assert np.abs(instantaneous_phase(scale * x) - base).max() < 1e-9

    def test_zero_variance_raises(self):
        with pytest.raises(DegenerateSignalError):
            instantaneous_phase(np.zeros(100))

    def test_range(self):
        rng = np.random.default_rng(8)
        ph = instantaneous_phase(rng.normal(size=1024))
        assert ph.min() > -np.pi
        assert ph.max() <= np.pi

    def test_simulated_oscillator_frequency_is_steady(self):
        # a node on its limit cycle has near-constant instantaneous frequency
        # (strongly anharmonic parameter sets modulate more within a cycle)
        node = OscillatorParams(0.25, 0.86, 0.56, 0.62)
        top = complete_graph(2, 1.0)
        traj = integrate([node, node], top, NoCoupling(), [[-0.8, -0.1], [0.5, 0.0]], 200.0, 0.01)
        ph = instantaneous_phase(traj.states[:, 0, 0])
        freq = np.diff(np.unwrap(ph)) / traj.dt
        # last half of the run, away from the series edge (Hilbert artifacts)
        interior = freq[freq.size // 2 : int(0.95 * freq.size)]
        assert interior.mean() > 0.0
        assert interior.std() / abs(interior.mean()) < 0.10


class TestWrapPhase:
    def test_interval_is_half_open(self):
        assert wrap_phase(np.pi) == np.pi
        assert wrap_phase(-np.pi) == np.pi
        assert abs(wrap_phase(3 * np.pi / 2) + np.pi / 2) < 1e-12
        assert wrap_phase(0.0) == 0.0

    def test_idempotent_inside_interval(self):
        theta = np.linspace(-3.1, 3.1, 101)
        assert np.abs(wrap_phase(theta) - theta).max() < 1e-12


class TestPhaseSeries:
    def test_from_trajectory_shape(self):
        node = OscillatorParams(0.46, 1.16, 0.58, 0.31)
        top = complete_graph(2, 1.0)
        traj = integrate([node, node], top, NoCoupling(), [[-1.0, 0.0], [0.5, 0.1]], 10.0, 0.01)
        ps = phases_from_trajectory(traj)
        assert ps.phases.shape == (traj.num_samples, 2)
        assert ps.dt == traj.dt

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            PhaseSeries(dt=0.1, phases=np.full((4, 1), 4.0))

    def test_rejects_zero_samples(self):
        # the metrics average over samples; with none they failed with a TypeError
        with pytest.raises(ValueError, match="at least one sample"):
            PhaseSeries(dt=0.01, phases=np.zeros((0, 2)))

    @pytest.mark.parametrize("dt", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_a_step_that_is_not_positive_and_finite(self, dt):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            PhaseSeries(dt=dt, phases=np.zeros((4, 2)))
