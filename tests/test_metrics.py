"""Unit tests for the synchronization metrics, with hand-derived oracles."""

import dataclasses
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from hkbnet import metrics, runner
from hkbnet.dynamics import Entrainment, FullState, OscillatorParams, Trajectory, integrate
from hkbnet.graph import complete_graph
from hkbnet.metrics import (
    agent_relative_phase,
    agent_sync_degree,
    compute_sync_report,
    dyadic_matrix,
    entrainment_index,
    group_sync_series,
    group_sync_summary,
    tracking_error_norm,
)
from hkbnet.phase import DegenerateSignalError, PhaseSeries, wrap_phase


def phase_series(phases, dt=0.01):
    return PhaseSeries(dt=dt, phases=wrap_phase(np.asarray(phases, dtype=float)))


class TestClusterPhase:
    """The group angle at each sample, seen through agent_relative_phase."""

    def test_coherent_snapshot(self):
        # every node at 0.8: the group angle is 0.8, so each relative phase is 0
        rel = agent_relative_phase(phase_series(np.full((3, 5), 0.8)))
        assert np.abs(rel.series).max() < 1e-12
        assert rel.excluded_samples == 0

    def test_antipodal_pair_is_indeterminate(self):
        # the antipodal sample's angle is taken as 0 and the sample is excluded
        rel = agent_relative_phase(phase_series([[0.0, np.pi], [0.3, 0.3]]))
        assert rel.excluded_samples == 1
        assert np.array_equal(rel.series[0], [0.0, np.pi])

    def test_indeterminate_at_every_sample_raises(self):
        # two antipodal nodes at every sample leave no sample with a group angle
        with pytest.raises(DegenerateSignalError, match="every sample"):
            agent_relative_phase(phase_series([[0.0, np.pi], [0.3, 0.3 - np.pi]]))

    def test_three_phase_hand_value(self):
        # (e^{i0} + e^{i pi/2} + e^{i pi}) / 3 = i / 3, whose angle is pi/2
        rel = agent_relative_phase(phase_series([[0.0, np.pi / 2, np.pi]]))
        assert rel.excluded_samples == 0
        assert np.abs(rel.series[0] - [-np.pi / 2, 0.0, np.pi / 2]).max() < 1e-12


class TestAgentRelativePhase:
    def test_identical_series(self):
        theta = np.linspace(-3.0, 3.0, 200)
        ps = phase_series(np.column_stack([theta, theta, theta]))
        rel = agent_relative_phase(ps)
        assert np.abs(rel.series).max() < 1e-12
        assert np.abs(rel.mean_phasor - 1.0).max() < 1e-12
        assert rel.excluded_samples == 0

    def test_constant_offset_node(self):
        # n-1 coherent nodes at drifting theta, one offset by delta: the group
        # angle shifts by atan2(sin d, (n-1) + cos d), so the offset node sits
        # at delta - that shift, which approaches delta * (n-1) / n.
        n, delta = 12, 0.3
        theta = np.linspace(0.0, 2.0, 400)
        cols = [theta] * (n - 1) + [theta + delta]
        rel = agent_relative_phase(phase_series(np.column_stack(cols)))
        exact = delta - np.arctan2(np.sin(delta), (n - 1) + np.cos(delta))
        assert abs(rel.mean_phase[-1] - exact) < 1e-9
        assert abs(rel.mean_phase[-1] - delta * (n - 1) / n) < 1e-2

    def test_determinism(self):
        rng = np.random.default_rng(0)
        ps = phase_series(rng.uniform(-np.pi, np.pi, size=(100, 4)))
        a = agent_relative_phase(ps)
        b = agent_relative_phase(ps)
        assert np.array_equal(a.series, b.series)
        assert np.array_equal(a.mean_phasor, b.mean_phasor)

    def test_indeterminate_samples_are_excluded_and_counted(self):
        # one antipodal sample among coherent ones
        phases = np.zeros((5, 2))
        phases[2] = [0.0, np.pi]
        rel = agent_relative_phase(phase_series(phases))
        assert rel.excluded_samples == 1
        # remaining samples are fully coherent for node 0
        assert abs(rel.mean_phasor[0] - 1.0) < 1e-12


class TestGroupSync:
    def test_identical_phases_give_one(self):
        theta = np.linspace(0.0, 5.0, 300)
        ps = phase_series(np.column_stack([theta] * 4))
        rel = agent_relative_phase(ps)
        series = group_sync_series(rel.series, rel.mean_phase)
        assert np.abs(series - 1.0).max() < 1e-12

    def test_two_node_cosine_identity(self):
        # |e^{ia} + e^{ib}| / 2 = |cos((a - b) / 2)|
        rng = np.random.default_rng(4)
        rel = rng.uniform(-np.pi, np.pi, size=(50, 2))
        series = group_sync_series(rel, np.zeros(2))
        expected = np.abs(np.cos(0.5 * (rel[:, 0] - rel[:, 1])))
        assert np.abs(series - expected).max() < 1e-12

    def test_antipodal_deviations_cancel(self):
        rel = np.column_stack([np.full(10, 1.0), np.full(10, 1.0 - np.pi)])
        series = group_sync_series(rel, np.zeros(2))
        assert np.abs(series).max() < 1e-12

    def test_summary_of_constant_series(self):
        mean, std = group_sync_summary(np.full(50, 0.37))
        assert mean == pytest.approx(0.37)
        assert std < 1e-12

    def test_summary_population_normalization(self):
        series = np.array([0.0, 1.0])
        mean, std = group_sync_summary(series)
        assert mean == 0.5
        assert std == 0.5  # population, not sample, deviation


class TestDyadicSync:
    def test_identical_series(self):
        theta = np.linspace(0.0, 3.0, 100)
        ps = phase_series(np.column_stack([theta, theta]))
        assert dyadic_matrix(ps)[0, 1] == pytest.approx(1.0)

    def test_whole_beat_periods_average_out(self):
        # phase difference advancing by k whole turns sums to exactly zero
        n_samples, k = 400, 3
        base = np.linspace(0.0, 1.0, n_samples)
        diff = 2 * np.pi * k * np.arange(n_samples) / n_samples
        ps = phase_series(np.column_stack([base, base + diff]))
        assert dyadic_matrix(ps)[0, 1] < 1e-9

    def test_symmetry(self):
        # swapping the nodes' columns gives the same pair value
        rng = np.random.default_rng(2)
        raw = rng.uniform(-np.pi, np.pi, size=(64, 3))
        d = dyadic_matrix(phase_series(raw))
        swapped = dyadic_matrix(phase_series(raw[:, ::-1]))
        assert d[0, 2] == pytest.approx(swapped[0, 2])

    def test_matches_pairwise_mean(self):
        # each entry against the per-pair mean phasor it stands for
        rng = np.random.default_rng(5)
        ps = phase_series(rng.uniform(-np.pi, np.pi, size=(64, 4)))
        d = dyadic_matrix(ps)
        for k in range(4):
            for kp in range(4):
                if k != kp:
                    pair = np.abs(np.exp(1j * (ps.phases[:, k] - ps.phases[:, kp])).mean())
                    assert abs(d[k, kp] - pair) < 1e-12

    def test_matrix_is_symmetric(self):
        rng = np.random.default_rng(3)
        ps = phase_series(rng.uniform(-np.pi, np.pi, size=(64, 4)))
        d = dyadic_matrix(ps)
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 1.0)


class TestEntrainmentIndex:
    def test_perfect_tracking(self):
        ent = Entrainment(amplitude=0.2, frequency=0.5, enabled=True)
        t = np.arange(500) * 0.01
        theta = wrap_phase(0.5 * t - np.pi / 2)
        ps = PhaseSeries(dt=0.01, phases=theta[:, None])
        per_node, overall = entrainment_index(ps, ent)
        assert per_node[0] == pytest.approx(1.0)
        assert overall == pytest.approx(1.0)

    def test_uniform_rotation_averages_out(self):
        ent = Entrainment(amplitude=0.2, frequency=0.5, enabled=True)
        n_samples, k = 600, 2
        t = np.arange(n_samples) * 0.01
        drift = 2 * np.pi * k * np.arange(n_samples) / n_samples
        ps = PhaseSeries(dt=0.01, phases=wrap_phase(0.5 * t - np.pi / 2 + drift)[:, None])
        _, overall = entrainment_index(ps, ent)
        assert overall < 1e-9

    def test_inactive_signal_raises(self):
        ps = PhaseSeries(dt=0.01, phases=np.zeros((10, 2)))
        with pytest.raises(ValueError, match="no entrainment signal was active"):
            entrainment_index(ps, Entrainment())
        with pytest.raises(ValueError, match="no entrainment signal was active"):
            entrainment_index(ps, Entrainment(amplitude=0.0, frequency=0.5, enabled=True))


class TestTrackingErrorNorm:
    def _trajectory(self, states, dt=0.1):
        states = np.asarray(states, dtype=float)
        return Trajectory(dt=dt, times=np.arange(states.shape[0]) * dt, states=states)

    def test_identical_trajectories(self):
        states = np.tile(np.array([[0.3, -0.1]]), (20, 3, 1))
        assert np.abs(tracking_error_norm(self._trajectory(states))).max() < 1e-12

    def test_antisymmetric_pair(self):
        rng = np.random.default_rng(1)
        x1 = rng.normal(size=(30, 2))
        states = np.stack([x1, -x1], axis=1)
        eta = tracking_error_norm(self._trajectory(states))
        expected = np.sqrt(2.0) * np.sqrt((x1 * x1).sum(axis=1))
        assert np.abs(eta - expected).max() < 1e-12

    def test_deviations_sum_to_zero(self):
        rng = np.random.default_rng(2)
        states = rng.normal(size=(25, 4, 2))
        mean = states.mean(axis=1, keepdims=True)
        assert np.abs((states - mean).sum(axis=1)).max() < 1e-12

    def test_invariant_under_relabeling(self):
        rng = np.random.default_rng(3)
        states = rng.normal(size=(25, 5, 2))
        eta = tracking_error_norm(self._trajectory(states))
        perm = rng.permutation(5)
        eta_perm = tracking_error_norm(self._trajectory(states[:, perm, :]))
        assert np.abs(eta - eta_perm).max() < 1e-12

    def test_needs_two_nodes(self):
        states = np.zeros((10, 1, 2))
        with pytest.raises(ValueError):
            tracking_error_norm(self._trajectory(states))


class TestRangesAndInvariances:
    @pytest.mark.parametrize("seed", range(10))
    def test_all_indices_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        ps = phase_series(rng.uniform(-np.pi, np.pi, size=(200, 5)))
        rel = agent_relative_phase(ps)
        rho_k = agent_sync_degree(rel.mean_phasor)
        assert np.all((0.0 <= rho_k) & (rho_k <= 1.0))
        series = group_sync_series(rel.series, rel.mean_phase)
        assert np.all((0.0 <= series) & (series <= 1.0 + 1e-12))
        mean, std = group_sync_summary(series)
        assert 0.0 <= mean <= 1.0
        assert std >= 0.0
        d = dyadic_matrix(ps)
        assert np.all((0.0 <= d) & (d <= 1.0 + 1e-12))
        ent = Entrainment(amplitude=0.1, frequency=0.7, enabled=True)
        _, rho_e = entrainment_index(ps, ent)
        assert 0.0 <= rho_e <= 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_global_phase_shift_invariance(self, seed):
        rng = np.random.default_rng(50 + seed)
        raw = rng.uniform(-np.pi, np.pi, size=(150, 4))
        shift = rng.uniform(-np.pi, np.pi)
        a = phase_series(raw)
        b = phase_series(raw + shift)
        rel_a, rel_b = agent_relative_phase(a), agent_relative_phase(b)
        assert np.abs(
            agent_sync_degree(rel_a.mean_phasor) - agent_sync_degree(rel_b.mean_phasor)
        ).max() < 1e-9
        series_a = group_sync_series(rel_a.series, rel_a.mean_phase)
        series_b = group_sync_series(rel_b.series, rel_b.mean_phase)
        assert np.abs(series_a - series_b).max() < 1e-9
        assert np.abs(dyadic_matrix(a) - dyadic_matrix(b)).max() < 1e-9


class TestStrongCouplingLimit:
    def test_identical_oscillators_fully_synchronize(self):
        node = OscillatorParams(0.46, 1.16, 0.58, 0.31)
        top = complete_graph(3, 1.0)
        x0 = [[1.0, 0.0], [-0.5, 0.3], [0.2, -0.4]]
        traj = integrate([node] * 3, top, FullState(5.0), x0, 200.0, 0.01)
        report = compute_sync_report(traj)
        half = report.rho_g_series.size // 2
        assert report.rho_g_series[half:].min() > 0.999
        assert report.eta_series[-1] < 1e-3


class TestComputeSyncReport:
    def test_report_shapes_and_entrainment_fields(self):
        node = OscillatorParams(0.46, 1.16, 0.58, 0.31)
        other = OscillatorParams(0.25, 0.86, 0.56, 0.62)
        top = complete_graph(2, 1.0)
        ent = Entrainment(amplitude=0.2, frequency=0.5, enabled=True)
        traj = integrate([node, other], top, FullState(0.2), [[1.0, 0.0], [-1.0, 0.1]], 50.0, 0.01, ent)
        report = compute_sync_report(traj, entrainment=ent)
        assert report.rho_k.shape == (2,)
        assert report.dyadic.shape == (2, 2)
        assert report.rho_e_k is not None and report.rho_e is not None
        plain = compute_sync_report(traj)
        assert plain.rho_e_k is None and plain.rho_e is None

    def test_peak_memory_under_five_phase_arrays(self, rocking6_fsc):
        # one complex phasor buffer at a time, and the small results before the
        # relative phases, keep the traced peak under five (samples, n) float arrays
        traj, ph = rocking6_fsc.trajectory, rocking6_fsc.phases
        tracemalloc.start()
        try:
            compute_sync_report(traj, phases=ph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * ph.phases.nbytes

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="before CPython 3.11 the caller's stack holds "
                        "a call's arguments until the call returns")
    def test_trajectory_freed_before_the_phasor_buffers(self, monkeypatch):
        # a caller that keeps no reference to the trajectory hands its states
        # over, and the report lets them go once eta and the phases are taken
        node = OscillatorParams(0.46, 1.16, 0.58, 0.31)
        x0 = [[1.0, 0.0], [-1.0, 0.1]]
        alive = []

        def unkept_trajectory():
            traj = integrate([node] * 2, complete_graph(2, 1.0), FullState(0.2), x0, 20.0, 0.01)
            alive.append(weakref.ref(traj))
            return traj

        freed_at_dyadic = []
        dyadic = metrics.dyadic_matrix

        def recording(phases):
            freed_at_dyadic.append(alive[0]() is None)
            return dyadic(phases)

        monkeypatch.setattr(metrics, "dyadic_matrix", recording)
        compute_sync_report(unkept_trajectory())
        assert freed_at_dyadic == [True]


class TestDiscretizationError:
    def test_metrics_converge_at_first_order_in_dt(self):
        # the reported metrics are sample means over the grid, so each change
        # halves when dt halves; measured at T = 50 s the ratios are 0.49-0.50
        # and the largest change from dt = 0.01 to 0.005 is 3.9e-5
        fsc = dataclasses.replace(runner.preset_config("rocking6-fsc"), duration=50.0)
        driven = dataclasses.replace(fsc, entrainment=Entrainment(amplitude=0.196, frequency=0.169, enabled=True))
        fsc_cells, driven_cells = (
            [runner._cell_report(dataclasses.replace(cfg, dt=dt)) for dt in (0.02, 0.01, 0.005)]
            for cfg in (fsc, driven)
        )
        for cells, name in ((fsc_cells, "rho_g_mean"), (driven_cells, "rho_g_mean"), (driven_cells, "rho_e")):
            coarse, mid, fine = (getattr(cell, name) for cell in cells)
            first, second = mid - coarse, fine - mid
            assert 0.4 <= second / first <= 0.6, name
            assert abs(second) < 1e-4, name
