"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Simulation-based criteria use the bundled presets at T = 200 s,
dt = 0.01 s; the heavy preset runs are shared via session fixtures.
"""

import dataclasses

import numpy as np
import pytest

from hkbnet import runner
from hkbnet.bounds import m_bar, quad_cbar_direct, quad_epsilon_direct
from hkbnet.dynamics import (
    FullState,
    HkbCoupling,
    NoCoupling,
    OscillatorParams,
    PartialState,
    integrate,
    state_extrema,
)
from hkbnet.graph import complete_graph, laplacian, random_weighted_graph, spectrum
from hkbnet.metrics import agent_relative_phase, compute_sync_report, dyadic_matrix, group_sync_series
from hkbnet.phase import instantaneous_phase, wrap_phase
from hkbnet.presets import VALIDATION5_P, VALIDATION5_PARAMS, VALIDATION5_W11, VALIDATION5_W22


def _criterion(num, name, ok, detail=""):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _spearman(x, y):
    def ranks(v):
        order = np.argsort(v)
        r = np.empty(len(v))
        r[order] = np.arange(len(v))
        return r

    rx, ry = ranks(np.asarray(x)), ranks(np.asarray(y))
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx * ry).sum() / np.sqrt((rx * rx).sum() * (ry * ry).sum()))


def _late(series, fraction=0.25):
    s = np.asarray(series)
    return s[int((1.0 - fraction) * s.size):]


def _oscillation_amplitude(series):
    half = np.asarray(series)[len(series) // 2:]
    return float(half.max() - half.min())


class TestCriterion1Uncoupled:
    def test_baseline_level_and_oscillation(self, rocking6_nc, rocking6_fsc):
        mean = rocking6_nc.report.rho_g_mean
        _criterion(1, "uncoupled mean in band", 0.25 <= mean <= 0.55, f"rho_g_mean={mean:.3f}")
        amp_nc = _oscillation_amplitude(rocking6_nc.report.rho_g_series)
        amp_fsc = _oscillation_amplitude(rocking6_fsc.report.rho_g_series)
        _criterion(
            1,
            "uncoupled oscillates more",
            amp_nc > amp_fsc,
            f"amplitude nc={amp_nc:.3f} vs fsc={amp_fsc:.3f}",
        )


class TestCriterion2Coupled:
    def test_all_protocols_synchronize(self, rocking6_fsc, rocking6_psc, rocking6_hkb):
        values = {
            "fsc": rocking6_fsc.report.rho_g_mean,
            "psc": rocking6_psc.report.rho_g_mean,
            "hkb": rocking6_hkb.report.rho_g_mean,
        }
        ok = all(0.80 <= v <= 1.0 for v in values.values())
        _criterion(2, "coupled protocols reach high sync", ok, str({k: round(v, 3) for k, v in values.items()}))


class TestCriterion3Straggler:
    def test_node5_lags(self, rocking6_fsc):
        rho_k = rocking6_fsc.report.rho_k
        others = np.delete(rho_k, 4)
        ok = (
            rho_k[4] == rho_k.min()
            and rho_k[4] < 0.6
            and int((others > 0.85).sum()) >= 4
        )
        _criterion(3, "node 5 is the straggler", ok, f"rho_k={np.round(rho_k, 3)}")


class TestCriterion4DyadicPattern:
    def test_pairs_with_node5_are_lowest(self, rocking6_fsc):
        d = rocking6_fsc.report.dyadic
        with5, without5 = [], []
        for k in range(5):
            for kp in range(k + 1, 6):
                (with5 if 4 in (k, kp) else without5).append(d[k, kp])
        ok = max(with5) < min(without5)
        _criterion(
            4,
            "node-5 pairs below all others",
            ok,
            f"max with5={max(with5):.3f} < min without5={min(without5):.3f}",
        )


class TestCriterion5Sweeps:
    def test_full_state_sweep_trend(self):
        cs = (0.01, 0.03, 0.05, 0.08, 0.1, 0.12, 0.15, 0.2, 0.25, 0.3)
        cfg = dataclasses.replace(
            runner.preset_config("rocking6-fsc"),
            sweep=runner.SweepSpec(field="protocol.c", values=cs),
        )
        cells = runner.run_sweep(cfg)
        means = [c.report.rho_g_mean for c in cells]
        rho = _spearman(cs, means)
        at_015 = means[cs.index(0.15)]
        ok = rho > 0.9 and at_015 >= 0.85
        _criterion(5, "full-state sweep monotone", ok, f"spearman={rho:.3f}, rho_g(0.15)={at_015:.3f}")

    def test_velocity_coupling_dominates(self):
        values = (0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5)
        base = runner.preset_config("rocking6-psc")

        def crossing(field, zero_field):
            proto = PartialState(**{field: values[0], zero_field: 0.0})
            cfg = dataclasses.replace(
                base,
                protocol=proto,
                sweep=runner.SweepSpec(field=f"protocol.{field}", values=values),
            )
            for cell in runner.run_sweep(cfg):
                if cell.report.rho_g_mean >= 0.8:
                    return cell.value1
            return np.inf

        c1_cross = crossing("c1", "c2")
        c2_cross = crossing("c2", "c1")
        ok = c2_cross < c1_cross
        _criterion(
            5,
            "velocity sweep crosses 0.8 first",
            ok,
            f"c2-only at {c2_cross}, c1-only at {c1_cross}",
        )


ENTRAINMENT_FREQS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
ENTRAINMENT_AMPS = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3)


@pytest.fixture(scope="module")
def entrainment_grid():
    cfg = dataclasses.replace(
        runner.preset_config("rocking6-fsc"),
        sweep=runner.SweepSpec(
            field="entrainment.frequency",
            values=ENTRAINMENT_FREQS,
            field2="entrainment.amplitude",
            values2=ENTRAINMENT_AMPS,
        ),
    )
    return {(c.value1, c.value2): c.report for c in runner.run_sweep(cfg)}


class TestCriterion6Entrainment:

    def test_peak_frequency_near_mean_natural_frequency(self, entrainment_grid):
        top_amp = max(ENTRAINMENT_AMPS)
        rho_e = {f: entrainment_grid[(f, top_amp)].rho_e for f in ENTRAINMENT_FREQS}
        best = max(rho_e, key=rho_e.get)
        ok = abs(best - 0.5) <= 0.15
        _criterion(6, "entrainment peak near 0.5", ok, f"argmax omega={best}, rho_E={rho_e[best]:.3f}")

    def test_entrainment_helps_only_near_resonance(self, entrainment_grid, rocking6_fsc):
        baseline = rocking6_fsc.report.rho_g_mean
        strong = entrainment_grid[(0.5, 0.3)].rho_g_mean
        weak = entrainment_grid[(0.1, 0.1)].rho_g_mean
        ok = strong > baseline and weak < baseline
        _criterion(
            6,
            "resonant signal helps, detuned hurts",
            ok,
            f"rho_g: strong={strong:.3f} > base={baseline:.3f} > weak={weak:.3f}",
        )


class TestCriterion7BoundArithmetic:
    def test_remainder_bound(self):
        value = m_bar(VALIDATION5_PARAMS, 2.6, 0.96)
        ok = abs(value - 7.6) <= 0.05
        _criterion(7, "remainder bound arithmetic", ok, f"m_bar={value:.4f}")

    def test_minimum_coupling(self):
        value = quad_cbar_direct(
            0.4112, 0.58, VALIDATION5_P, VALIDATION5_W11, (1.0, 1.0), w22=VALIDATION5_W22
        )
        ok = abs(value - 1.4211) <= 0.0005
        _criterion(7, "minimum coupling arithmetic", ok, f"c_bar={value:.5f}")


class TestCriterion8BoundSoundness:
    def test_above_bound_error_within_prediction(self, validation5_high):
        extrema = state_extrema(validation5_high.trajectory)
        remainder = m_bar(VALIDATION5_PARAMS, extrema.pos_max, extrema.vel_max)
        epsilon = quad_epsilon_direct(
            1.45, 0.4112, 0.58, VALIDATION5_P, VALIDATION5_W11, (1.0, 1.0),
            remainder, 5, w22=VALIDATION5_W22,
        )
        eta_late = _late(validation5_high.report.eta_series).max()
        ok = eta_late < epsilon
        _criterion(8, "c=1.45 error below prediction", ok, f"eta_late={eta_late:.3f} < eps={epsilon:.1f}")

    def test_below_bound_error_still_small(self, validation5_low):
        eta_late = _late(validation5_low.report.eta_series).max()
        ok = eta_late <= 2.5
        _criterion(8, "c=0.07 error within observed band", ok, f"eta_late={eta_late:.3f} <= 2.5")


class TestCriterion9Properties:
    def test_metric_ranges_on_random_inputs(self):
        from hkbnet.phase import PhaseSeries

        ok = True
        for seed in range(6):
            rng = np.random.default_rng(seed)
            ps = PhaseSeries(dt=0.01, phases=rng.uniform(-np.pi * 0.999, np.pi, size=(150, 5)))
            rel = agent_relative_phase(ps)
            series = group_sync_series(rel.series, rel.mean_phase)
            d = dyadic_matrix(ps)
            ok &= bool(np.all((np.abs(rel.mean_phasor) >= 0)
                              & (np.abs(rel.mean_phasor) <= 1)))
            ok &= bool(np.all((series >= 0) & (series <= 1 + 1e-12)))
            ok &= bool(np.all((d >= 0) & (d <= 1 + 1e-12)))
        _criterion(9, "metric ranges", ok)

    def test_diffusive_couplings_vanish_on_diagonal(self):
        top = complete_graph(5, 1.0)
        states = np.tile([0.9, -0.7], (5, 1))
        ok = True
        for protocol in (FullState(0.3), PartialState(0.2, 0.4), HkbCoupling(-1, -1, 0.5)):
            # every node's coupling increment: add_coupling on a zero field
            increments = np.zeros_like(states)
            counts = top.neighbor_counts.astype(float)
            protocol.add_coupling(increments, states, laplacian(top), top.weights, counts)
            ok &= bool(np.abs(increments).max() < 1e-15)
        _criterion(9, "diffusive couplings vanish on common state", ok)

    def test_laplacian_spectral_properties(self):
        ok = True
        for seed in range(6):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 8))
            top = random_weighted_graph(n, 0.7, 0.2, 2.0, seed=seed)
            lap = laplacian(top)
            eigs = spectrum(lap).eigenvalues
            ok &= bool(np.abs(lap.sum(axis=1)).max() < 1e-12)
            ok &= bool(eigs[0] >= -1e-10)
            ok &= (int((np.abs(eigs) < 1e-8).sum()) == 1) == top.is_connected()
        _criterion(9, "laplacian row sums, PSD, connectivity", ok)

    def test_rk4_convergence_slope(self):
        p = OscillatorParams(0.0, 0.0, 0.0, 1.0)
        top = complete_graph(2, 1.0)
        dts = [0.2, 0.1, 0.05, 0.025]
        errs = []
        for dt in dts:
            traj = integrate([p, p], top, NoCoupling(), [[1.0, 0.0], [1.0, 0.0]], 10.0, dt)
            errs.append(np.abs(traj.states[:, 0, 0] - np.cos(traj.times)).max())
        slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
        ok = 3.7 <= slope <= 4.3
        _criterion(9, "integrator order", ok, f"slope={slope:.3f}")

    def test_pure_tone_phase_slope(self):
        m, dt = 4000, 0.01
        omega = 2 * np.pi * 30 / (m * dt)
        t = np.arange(m) * dt
        ph = instantaneous_phase(np.cos(omega * t))
        interior = slice(m // 10, 9 * m // 10)
        slope = float(np.diff(np.unwrap(ph[interior])).mean() / dt)
        ok = abs(slope - omega) < 0.01 * omega
        _criterion(9, "pure tone phase slope", ok, f"rel err={abs(slope - omega) / omega:.2e}")

    def test_strong_coupling_identical_nodes(self):
        node = OscillatorParams(0.46, 1.16, 0.58, 0.31)
        top = complete_graph(3, 1.0)
        traj = integrate(
            [node] * 3, top, FullState(5.0), [[1.0, 0.0], [-0.5, 0.3], [0.2, -0.4]], 200.0, 0.01
        )
        report = compute_sync_report(traj)
        half = report.rho_g_series.size // 2
        ok = report.rho_g_series[half:].min() > 0.999 and report.eta_series[-1] < 1e-3
        _criterion(
            9,
            "strong-coupling limit",
            ok,
            f"rho_g min={report.rho_g_series[half:].min():.5f}, eta(T)={report.eta_series[-1]:.2e}",
        )

    def test_byte_identical_reruns(self, tmp_path):
        cfg = dataclasses.replace(runner.preset_config("validation5"), duration=3.0)
        a = runner.run(dataclasses.replace(cfg, out_dir=str(tmp_path / "a")))
        b = runner.run(dataclasses.replace(cfg, out_dir=str(tmp_path / "b")))
        ok = all(pa.read_bytes() == pb.read_bytes() for pa, pb in zip(a.written, b.written))
        _criterion(9, "byte-identical reruns", ok)
