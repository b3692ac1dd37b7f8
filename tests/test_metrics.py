"""Unit tests for the synchronization metrics, with hand-derived oracles."""

import dataclasses
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from hkbnet import config, metrics, runner
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

    def test_peak_memory_under_five_phase_arrays(self, rocking6_fsc, monkeypatch):
        # one complex phasor buffer at a time, and the small results before the
        # relative phases, keep the traced peak under five (samples, n) float arrays
        traj, ph = rocking6_fsc.trajectory, rocking6_fsc.report.phases
        monkeypatch.setattr(metrics, "phases_from_trajectory", lambda _: ph)
        tracemalloc.start()
        try:
            compute_sync_report(traj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * ph.phases.nbytes

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="before CPython 3.11 the caller's stack holds "
                        "a call's arguments until the call returns")
    def test_trajectory_freed_before_the_phasor_buffers(self, monkeypatch):
        # a caller that keeps no reference to the trajectory hands its states
        # over, and the report lets them go once eta and the phases are taken,
        # before the relative phasors
        node = OscillatorParams(0.46, 1.16, 0.58, 0.31)
        x0 = [[1.0, 0.0], [-1.0, 0.1]]
        alive = []

        def unkept_trajectory():
            traj = integrate([node] * 2, complete_graph(2, 1.0), FullState(0.2), x0, 20.0, 0.01)
            alive.append(weakref.ref(traj))
            return traj

        freed = []
        relative = metrics.agent_relative_phase

        def recording(phases):
            freed.append(alive[0]() is None)
            return relative(phases)

        monkeypatch.setattr(metrics, "agent_relative_phase", recording)
        compute_sync_report(unkept_trajectory())
        assert freed == [True]

    def test_positions_recording_reports_the_same_indices(self, monkeypatch):
        # a positions recording has no eta, and no report builds the dyadic matrix until it is read
        node, other = OscillatorParams(0.46, 1.16, 0.58, 0.31), OscillatorParams(0.25, 0.86, 0.56, 0.62)
        ent = Entrainment(amplitude=0.2, frequency=0.5, enabled=True)
        args = ([node, other, node], complete_graph(3, 1.0), FullState(0.2), [[1.0, 0.0], [-1.0, 0.1], [0.3, 0.0]],
                20.0, 0.01, ent)
        built = []
        dyadic = metrics.dyadic_matrix
        monkeypatch.setattr(metrics, "dyadic_matrix", lambda phases: built.append(1) or dyadic(phases))
        full = compute_sync_report(integrate(*args), entrainment=ent)
        positions = compute_sync_report(integrate(*args, positions_only=True), entrainment=ent)
        assert full.eta_series.shape == (2001,) and positions.eta_series is None
        assert built == []
        for name in ("rho_k", "rho_g_series", "rho_g_mean", "rho_g_std", "rho_e_k", "rho_e", "dyadic"):
            assert np.array_equal(getattr(full, name), getattr(positions, name)), name
        assert full.dyadic is full.dyadic and len(built) == 2  # built once per report


class TestReusePositions:
    """A sweep cell's phases written over its own positions recording."""

    def test_benchmark_sweep_cells_match_a_full_state_report_bitwise(self, entrainment_sweep_path):
        cells = config._sweep_grid(config.load_config(entrainment_sweep_path))
        assert len(cells) == 4
        for _, _, cell in cells:
            full = compute_sync_report(runner._integrate(cell), entrainment=cell.entrainment)
            positions = runner._integrate(cell, positions_only=True)
            report = compute_sync_report(positions, entrainment=cell.entrainment, reuse_positions=True)
            assert np.shares_memory(report.phases.phases, positions.states)
            assert np.array_equal(report.phases.phases, full.phases.phases)
            assert (report.rho_g_mean, report.rho_g_std, report.rho_e) == (full.rho_g_mean, full.rho_g_std, full.rho_e)

    def test_full_state_recording_raises_and_keeps_its_states(self):
        # eta reads the positions after the phases, so they may not be overwritten
        node, other = OscillatorParams(0.46, 1.16, 0.58, 0.31), OscillatorParams(0.25, 0.86, 0.56, 0.62)
        traj = integrate([node, other], complete_graph(2, 1.0), FullState(0.2), [[1.0, 0.0], [-1.0, 0.1]], 5.0, 0.01)
        before = traj.states.copy()
        with pytest.raises(ValueError, match="positions recording"):
            compute_sync_report(traj, reuse_positions=True)
        assert np.array_equal(traj.states, before)


def _with_antipodal_rows(phases, rows):
    """phases with each given row replaced by two antipodal pairs, whose phasors cancel."""
    phases = phases.copy()
    for row in rows:
        a, b = phases[row, 0], phases[row, 2]
        phases[row] = [a, a + np.pi, b, b + np.pi]
    return wrap_phase(phases)


def reference_relative_phase(phases):
    """Relative phases, mean phasor and excluded count in whole-array numpy: the bitwise oracle."""
    order = np.exp(1j * phases).mean(axis=1)
    indeterminate = np.abs(order) < metrics.INDETERMINATE_ORDER_TOL
    rel = wrap_phase(phases - np.where(indeterminate, 0.0, np.angle(order))[:, None])
    return rel, np.exp(1j * rel[~indeterminate]).mean(axis=0), int(indeterminate.sum())


def reference_group_series(rel, mean_phase):
    """The group index at every sample in whole-array numpy."""
    return np.abs(np.exp(1j * (rel - mean_phase[None, :])).mean(axis=1))


def reference_entrainment(phases, dt, entrainment):
    """Per-node phase locking onto the drive in whole-array numpy."""
    reference = wrap_phase(entrainment.frequency * (np.arange(len(phases)) * dt) - 0.5 * np.pi)
    return np.abs(np.exp(1j * (phases - reference[:, None])).mean(axis=0))


class TestSampleBlocks:
    """The metrics, taken _SAMPLE_BLOCK samples at a time, against whole-array numpy, bit for bit."""

    @pytest.mark.parametrize("samples", [15, 16, 17])  # one below, at and one above two blocks of 8
    @pytest.mark.parametrize("indeterminate", [
        pytest.param((), id="none"),
        pytest.param((6, 7, 8, 9), id="both-sides-of-an-edge"),
        pytest.param(tuple(range(8)), id="whole-first-block"),
    ])
    @pytest.mark.parametrize("drive", [pytest.param(Entrainment(), id="off"),
                                       pytest.param(Entrainment(amplitude=0.2, frequency=0.7, enabled=True), id="on")])
    def test_blocks_match_the_whole_series(self, samples, indeterminate, drive, monkeypatch):
        monkeypatch.setattr(metrics, "_SAMPLE_BLOCK", 8)
        rng = np.random.default_rng(samples)
        ps = PhaseSeries(dt=0.05, phases=_with_antipodal_rows(rng.uniform(-np.pi, np.pi, (samples, 4)), indeterminate))
        rel_ref, phasor_ref, excluded_ref = reference_relative_phase(ps.phases)
        mean_phase_ref = wrap_phase(np.angle(phasor_ref))
        series_ref = reference_group_series(rel_ref, mean_phase_ref)
        assert excluded_ref == len(indeterminate)

        rel = agent_relative_phase(ps)
        assert np.array_equal(rel.series, rel_ref) and np.array_equal(rel.mean_phasor, phasor_ref)
        assert np.array_equal(rel.mean_phase, mean_phase_ref) and rel.excluded_samples == excluded_ref
        assert np.array_equal(group_sync_series(rel.series, rel.mean_phase), series_ref)

        monkeypatch.setattr(metrics, "phases_from_trajectory", lambda _: ps)
        positions = Trajectory(dt=0.05, times=np.arange(samples) * 0.05, states=np.zeros((samples, 4, 1)))
        report = compute_sync_report(positions, entrainment=drive)
        assert report.phases is ps and report.indeterminate_samples == excluded_ref
        assert np.array_equal(report.rho_k, agent_sync_degree(phasor_ref))
        assert np.array_equal(report.rho_g_series, series_ref)
        assert (report.rho_g_mean, report.rho_g_std) == group_sync_summary(series_ref)
        if drive.active:
            per_node_ref = reference_entrainment(ps.phases, ps.dt, drive)
            per_node, overall = entrainment_index(ps, drive)
            assert np.array_equal(per_node, per_node_ref) and overall == float(per_node_ref.mean())
            assert np.array_equal(report.rho_e_k, per_node_ref) and report.rho_e == overall
        else:
            assert report.rho_e_k is None and report.rho_e is None

    def test_indeterminate_at_every_sample_raises_after_the_last_block(self, monkeypatch):
        monkeypatch.setattr(metrics, "_SAMPLE_BLOCK", 8)
        ps = PhaseSeries(dt=0.05, phases=_with_antipodal_rows(np.zeros((17, 4)), range(17)))
        with pytest.raises(DegenerateSignalError, match="every sample"):
            agent_relative_phase(ps)
        monkeypatch.setattr(metrics, "phases_from_trajectory", lambda _: ps)
        positions = Trajectory(dt=0.05, times=np.arange(17) * 0.05, states=np.zeros((17, 4, 1)))
        with pytest.raises(DegenerateSignalError, match="every sample"):
            compute_sync_report(positions)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_running_phasor_mean_is_numpy_mean(self, n):
        # numpy sums over axis 0 row after row for two or more columns, so any split gives its mean
        theta = np.random.default_rng(n).uniform(-np.pi, np.pi, (2049, n))
        whole = np.exp(1j * theta).mean(axis=0)
        for size in (1, 7, 1024, 2049):
            running = metrics.PhasorMean()
            for first in range(0, len(theta), size):
                running.add(theta[first : first + size])
            assert np.array_equal(running.mean(), whole), size


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
