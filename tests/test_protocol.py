import importlib.util
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from qndsim.device import DeviceParams
from qndsim.protocol import (
    DetectionProbs,
    ProtocolConfig,
    _click_probs,
    fidelity_metrics,
    internal_fidelity,
    loss_deconvolution,
    optimal_window,
    ramsey_coherence,
    readout_composition,
    theta_sweep,
    window_sweep,
)

PARAMS = DeviceParams()
CFG = ProtocolConfig()
RATE = 2 * math.pi * 1.77

# The paper point at Tw = 250 ns, recomposed from the three error sources:
# Ramsey contrast, line loss 0.25 and the envelope captured after t0 = 20 ns
COHERENCE = math.exp(-0.25 / 1.8)
P_INT = 0.75 * (1 - math.exp(-RATE * 0.23))
P_E1 = P_INT * (1 + COHERENCE) / 2 + (1 - P_INT) * (1 - COHERENCE) / 2
P_E0 = (1 - COHERENCE) / 2


def envelope(t, cfg):
    """Emitted wave-packet amplitude xi(t) = sqrt(G) exp(-G (t - t0) / 2) from
    the delay t0, G = 2 pi gamma_photon, and 0 before it."""
    rate = 2 * math.pi * cfg.gamma_photon
    return np.where(t >= cfg.t0, np.sqrt(rate) * np.exp(-rate * (t - cfg.t0) / 2), 0.0)


def captured(p_e1, p_e0, params):
    """The envelope fraction inside the window, p_int / (1 - L), recovered
    from the click probabilities: P(e|1) - P(e|0) = p_int C, C = 1 - 2 P(e|0)."""
    return (p_e1 - p_e0) / ((1 - 2 * p_e0) * (1 - params.loss_L))


def _design_devices(count: int) -> list[dict]:
    """The first count sampled configs of perfbench's design workload, seed 0."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    dont_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(workloads)
    finally:
        sys.dont_write_bytecode = dont_write_bytecode
    return [workloads.design_config(0, index) for index in range(count)]


DESIGN_DEVICES = _design_devices(5)


class TestProtocolConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"Tw": 0.0},
            {"theta": -0.1},
            {"theta": 4.0},
            {"gamma_photon": 0.0},
            {"ramsey_law": "algebraic"},
            # the packet must start inside the window
            {"t0": -0.01},
            {"t0": -0.01, "Tw": 0.0},
        ],
    )
    def test_invariants(self, kwargs):
        with pytest.raises(ValueError):
            ProtocolConfig(**kwargs)

    def test_list_window_rejected(self):
        # a configuration holds one window; arrays go to window_sweep
        for windows in ([0.1, 0.2], np.array([0.1, 0.2])):
            with pytest.raises(TypeError):
                ProtocolConfig(Tw=windows)


class TestPhotonEnvelope:
    def test_unit_norm(self):
        # quadrature over [t0, inf); start exactly at the emission edge so
        # the trapezoid never straddles the discontinuity
        t = np.linspace(CFG.t0, CFG.t0 + 30.0 / RATE, 200_001)
        norm = np.trapezoid(envelope(t, CFG) ** 2, t)
        assert norm == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("tw", [0.021, 0.1, 0.25, 0.6])
    def test_capture_is_the_envelope_inside_the_window(self, tw):
        t = np.linspace(CFG.t0, tw, 200_001)
        inside = np.trapezoid(envelope(t, CFG) ** 2, t)
        assert captured(*_click_probs(tw, CFG, PARAMS), PARAMS) == pytest.approx(
            inside, abs=1e-8
        )

    def test_initial_amplitude(self):
        # the captured fraction grows at |xi(t0)|^2 = G just past the emission
        dt = 1e-7
        rate = captured(*_click_probs(CFG.t0 + dt, CFG, PARAMS), PARAMS) / dt
        assert rate == pytest.approx(RATE, rel=1e-5)
        assert math.sqrt(rate) == pytest.approx(3.335, abs=1e-3)

    def test_causal(self):
        # nothing arrives before the emission delay
        assert captured(*_click_probs(CFG.t0, CFG, PARAMS), PARAMS) == 0.0


class TestCaptureFraction:
    def test_quarter_microsecond(self):
        fraction = captured(*_click_probs(CFG.Tw, CFG, PARAMS), PARAMS)
        assert fraction == pytest.approx(1 - math.exp(-RATE * 0.23), rel=1e-12)
        assert fraction == pytest.approx(0.9226, abs=1e-4)

    def test_long_window_saturates(self):
        probs = fidelity_metrics(CFG.with_window(5.0), PARAMS)
        assert captured(probs.p_e_given_1, probs.p_e_given_0, PARAMS) == pytest.approx(1.0)

    @pytest.mark.parametrize("law", ["exponential", "gaussian"])
    @pytest.mark.parametrize("t0", [0.0, 0.02, 0.3, 2.0])
    def test_window_closing_by_the_emission_captures_nothing(self, t0, law):
        # the envelope starts at t0: a window that closes by then clicks at
        # the dark count, for every loss and coherence
        cfg = replace(CFG, t0=t0, ramsey_law=law)
        windows = np.linspace(0.0, t0, 101)
        for params in (PARAMS, DeviceParams(loss_L=0.0, T1=50.0, T2_star=50.0)):
            sweep = window_sweep(cfg, params, windows)
            np.testing.assert_array_equal(sweep.p_e_given_1, sweep.p_e_given_0)
            np.testing.assert_array_equal(sweep.fidelity, np.zeros_like(windows))
        if t0 > 0:
            point = fidelity_metrics(cfg.with_window(t0), PARAMS)
            assert point.p_e_given_1 == point.p_e_given_0
            assert point.fidelity == 0.0
            assert point.ratio == 1.0

    def test_one_window_per_config(self):
        with pytest.raises(TypeError):
            CFG.with_window(np.array([0.01, 0.25]))

    def test_array_of_windows(self):
        sweep = window_sweep(CFG, PARAMS, np.array([CFG.t0 + 1e-3, 0.25]))
        expected = [1 - math.exp(-RATE * 1e-3), 1 - math.exp(-RATE * 0.23)]
        values = captured(sweep.p_e_given_1, sweep.p_e_given_0, PARAMS)
        np.testing.assert_allclose(values, expected, rtol=1e-12, atol=0)


class TestRamseyCoherence:
    def test_values(self):
        assert ramsey_coherence(0.0, 1.8, "exponential") == 1.0
        assert ramsey_coherence(0.25, 1.8, "exponential") == pytest.approx(
            math.exp(-0.25 / 1.8), rel=1e-12
        )
        assert ramsey_coherence(0.25, 1.8, "exponential") == pytest.approx(0.8703, abs=1e-4)
        assert ramsey_coherence(1.8, 1.8, "exponential") == pytest.approx(
            math.exp(-1.0), rel=1e-12
        )

    def test_gaussian_law(self):
        assert ramsey_coherence(0.9, 1.8, "gaussian") == pytest.approx(
            math.exp(-0.25), rel=1e-12
        )

    def test_unknown_law(self):
        with pytest.raises(ValueError):
            ramsey_coherence(0.1, 1.8, "linear")


class TestDarkCount:
    def test_quarter_microsecond(self):
        dark = fidelity_metrics(CFG, PARAMS).p_e_given_0
        assert dark == pytest.approx(P_E0, rel=1e-12)
        assert dark == pytest.approx(0.0649, abs=1e-4)

    def test_limits(self):
        assert _click_probs(0.0, replace(CFG, t0=0.0), PARAMS)[1] == 0.0
        (dark,) = window_sweep(CFG, PARAMS, np.array([10 * 1.8])).p_e_given_0
        assert dark == pytest.approx(0.49998, abs=1e-5)

    def test_monotone(self):
        windows = np.linspace(0.0, 3.0, 301)[1:]
        darks = window_sweep(replace(CFG, t0=0.0), PARAMS, windows).p_e_given_0
        assert np.all(np.diff(darks) >= 0)


class TestDetectionEfficiency:
    def test_paper_point(self):
        value = fidelity_metrics(CFG, PARAMS).p_e_given_1
        assert value == pytest.approx(P_E1, rel=1e-12)
        assert value == pytest.approx(0.667, abs=5e-4)

    def test_total_loss_reduces_to_dark_count(self):
        probs = fidelity_metrics(CFG, DeviceParams(loss_L=0.99999999))
        assert probs.p_e_given_1 == pytest.approx(probs.p_e_given_0, abs=1e-7)

    def test_ideal_detector_limit(self):
        ideal = DeviceParams(loss_L=0.0, T1=1e6, T2_star=1e6)
        probs = fidelity_metrics(ProtocolConfig(Tw=2.0), ideal)
        assert probs.p_e_given_1 > 0.999
        assert probs.p_e_given_0 < 1e-6


class TestFidelityMetrics:
    def test_paper_point(self):
        probs = fidelity_metrics(CFG, PARAMS)
        assert probs.fidelity == pytest.approx(0.602, abs=1e-3)
        assert probs.fidelity == pytest.approx(probs.p_e_given_1 - probs.p_e_given_0)

    def test_ratio_at_short_window(self):
        probs = fidelity_metrics(CFG.with_window(0.1), PARAMS)
        assert probs.ratio == pytest.approx(16.5, abs=0.1)

    def test_ratio_sentinel(self):
        probs = DetectionProbs.from_probs(0.5, 0.0)
        assert probs.ratio == math.inf
        arrays = DetectionProbs.from_probs(np.array([0.5, 0.5]), np.array([0.0, 0.25]))
        np.testing.assert_array_equal(arrays.ratio, [math.inf, 2.0])


class TestThetaSweep:
    def test_endpoints(self):
        p_e = theta_sweep(CFG, PARAMS, np.array([0.0, math.pi]))
        assert p_e[0] == pytest.approx(P_E0, rel=1e-12)
        assert p_e[1] == pytest.approx(P_E1, rel=1e-12)

    def test_midpoint(self):
        (p_mid,) = theta_sweep(CFG, PARAMS, np.array([math.pi / 2]))
        probs = fidelity_metrics(CFG, PARAMS)
        assert p_mid == pytest.approx(probs.p_e_given_0 + probs.fidelity / 2, rel=1e-12)
        assert p_mid == pytest.approx(0.366, abs=1e-3)

    def test_monotone_in_angle(self):
        thetas = np.linspace(0.0, math.pi, 65)
        assert np.all(np.diff(theta_sweep(CFG, PARAMS, thetas)) >= 0)

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            theta_sweep(CFG, PARAMS, np.array([3.5]))


class TestWindowSweep:
    @pytest.mark.parametrize("law", ["exponential", "gaussian"])
    def test_matches_pointwise_fidelity_metrics(self, law):
        cfg = ProtocolConfig(ramsey_law=law)
        windows = np.linspace(0.05, 0.6, 111)
        sweep = window_sweep(cfg, PARAMS, windows)
        for i, tw in enumerate(windows):
            point = fidelity_metrics(cfg.with_window(float(tw)), PARAMS)
            for name in ("p_e_given_1", "p_e_given_0", "fidelity", "ratio"):
                assert getattr(sweep, name)[i] == pytest.approx(
                    getattr(point, name), rel=1e-14, abs=0
                )

    @pytest.mark.parametrize("t0", [0.02, 0.3])
    def test_continuous_across_the_emission_delay(self, t0):
        # every figure closes its gap across t0 in proportion to the distance
        # from it; the steepest, the ratio, rises at about 1,500 per us just
        # after a 20 ns emission
        cfg = replace(CFG, t0=t0)
        at = window_sweep(cfg, PARAMS, np.array([t0]))
        for h in (1e-3, 1e-6, 1e-9):
            sweep = window_sweep(cfg, PARAMS, np.array([t0 - h, t0 + h]))
            for name in ("p_e_given_1", "p_e_given_0", "fidelity", "ratio"):
                before, after = getattr(sweep, name)
                (value,) = getattr(at, name)
                assert abs(before - value) <= 1.0 * h, name
                assert abs(after - value) <= 2e3 * h, name


class TestWindowOptimum:
    def test_efficiency_peak_is_unique_and_interior(self):
        windows = np.linspace(0.03, 1.5, 2001)
        values = window_sweep(CFG, PARAMS, windows).p_e_given_1
        interior = np.flatnonzero(
            (values[1:-1] > values[:-2]) & (values[1:-1] > values[2:])
        )
        assert interior.size == 1

    def test_efficiency_peak_location_vs_independent_optimizer(self):
        peak = optimal_window(CFG, PARAMS, "efficiency")
        ref = minimize_scalar(
            lambda tw: -fidelity_metrics(CFG.with_window(tw), PARAMS).p_e_given_1,
            bounds=(0.03, 1.5),
            method="bounded",
            options={"xatol": 1e-10},
        ).x
        assert peak == pytest.approx(ref, abs=1e-6)
        # the stated error model places the efficiency optimum at 393 ns
        assert peak == pytest.approx(0.3926, abs=2e-3)

    def test_fidelity_peak_location(self):
        # the fidelity optimum sits at the measured ~300 ns operating point
        peak = optimal_window(CFG, PARAMS, "fidelity")
        assert peak == pytest.approx(0.2938, abs=2e-3)

    def test_ratio_monotone_after_early_peak(self):
        # the ratio turns over at ~70 ns and is monotone decreasing beyond
        windows = np.arange(0.08, 0.5001, 0.002)
        ratios = window_sweep(CFG, PARAMS, windows).ratio
        assert np.all(np.diff(ratios) < 0)

    def test_exponential_law_optima_match_closed_forms(self):
        # F = a (1 - exp(-G s)) exp(-Tw/T2*) with s = Tw - t0, a = 1 - L and
        # G = 2 pi gamma_photon peaks at s = ln(1 + G T2*) / G; P(e|1) =
        # (1 - C)/2 + p_int C peaks at s = ln(a (1 + G T2*) / (a - 1/2)) / G
        rng = np.random.default_rng(6)
        for _ in range(6):
            params = replace(
                PARAMS, T2_star=rng.uniform(1.0, 3.0), loss_L=rng.uniform(0.05, 0.45)
            )
            cfg = replace(CFG, t0=rng.uniform(0.01, 0.04), gamma_photon=rng.uniform(1.0, 3.0))
            rate = 2 * math.pi * cfg.gamma_photon
            a = 1.0 - params.loss_L
            growth = 1.0 + rate * params.T2_star
            fidelity_peak = cfg.t0 + math.log(growth) / rate
            efficiency_peak = cfg.t0 + math.log(a * growth / (a - 0.5)) / rate
            assert optimal_window(cfg, params, "fidelity") == pytest.approx(fidelity_peak, abs=1e-7)
            assert optimal_window(cfg, params, "efficiency") == pytest.approx(
                efficiency_peak, abs=1e-7
            )

    def test_optima_past_a_late_emission(self):
        # windows that close by the emission at t0 = 0.6 us give F = 0, and
        # the optima keep their closed forms after it
        cfg = replace(CFG, t0=0.6, Tw=0.9)
        growth = 1.0 + RATE * PARAMS.T2_star
        a = 1.0 - PARAMS.loss_L
        fidelity_peak = cfg.t0 + math.log(growth) / RATE
        efficiency_peak = cfg.t0 + math.log(a * growth / (0.5 - PARAMS.loss_L)) / RATE
        assert fidelity_peak == pytest.approx(0.8738, abs=1e-4)
        assert efficiency_peak == pytest.approx(0.9726, abs=1e-4)
        assert optimal_window(cfg, PARAMS, "fidelity") == pytest.approx(fidelity_peak, abs=1e-6)
        assert optimal_window(cfg, PARAMS, "efficiency") == pytest.approx(
            efficiency_peak, abs=1e-6
        )

    @pytest.mark.parametrize("t0", [0.02, 0.6])
    @pytest.mark.parametrize("law", ["exponential", "gaussian"])
    @pytest.mark.parametrize("index", range(len(DESIGN_DEVICES)))
    def test_optimum_is_the_per_window_maximum(self, index, law, t0):
        # on perfbench's sampled devices, each optimum is the largest of the
        # public per-window figures, one ProtocolConfig per window, on a grid
        # of +-1 ns around it
        sampled = DESIGN_DEVICES[index]
        params = DeviceParams(**sampled["device"])
        cfg = ProtocolConfig(
            **{**sampled["protocol"], "t0": t0, "Tw": t0 + 0.3, "ramsey_law": law}
        )
        for objective, name in (("efficiency", "p_e_given_1"), ("fidelity", "fidelity")):
            peak = optimal_window(cfg, params, objective)
            values = [
                getattr(fidelity_metrics(cfg.with_window(peak + step), params), name)
                for step in np.linspace(-1e-3, 1e-3, 201)
            ]
            assert values[100] >= max(values) - 1e-15, (objective, values.index(max(values)))

    @pytest.mark.parametrize("law", ["exponential", "gaussian"])
    def test_optima_past_one_and_a_half_microseconds(self, law):
        # a slow photon puts the optima far past the paper's 300 ns; the
        # exponential law's closed forms give 1.6427 and 10.385 us
        cfg = replace(CFG, gamma_photon=0.02, ramsey_law=law)
        fidelity_peak = optimal_window(cfg, PARAMS, "fidelity")
        efficiency_peak = optimal_window(cfg, PARAMS, "efficiency")
        assert 1.0 < fidelity_peak < efficiency_peak
        assert efficiency_peak > 1.5
        if law == "exponential":
            assert fidelity_peak == pytest.approx(1.6427088687, abs=1e-9)
            assert efficiency_peak == pytest.approx(10.3851876829, abs=1e-9)

    @pytest.mark.parametrize("law", ["exponential", "gaussian"])
    def test_emission_after_one_and_a_half_microseconds(self, law):
        # the optima follow the emission delay wherever it lies
        cfg = replace(CFG, t0=2.0, Tw=2.5, ramsey_law=law)
        for objective in ("efficiency", "fidelity"):
            assert 2.0 < optimal_window(cfg, PARAMS, objective) < 2.5
        if law == "exponential":
            shifted = replace(cfg, t0=CFG.t0)
            assert optimal_window(cfg, PARAMS, "fidelity") == pytest.approx(
                optimal_window(shifted, PARAMS, "fidelity") + 2.0 - CFG.t0, abs=1e-12
            )

    @pytest.mark.parametrize("law", ["exponential", "gaussian"])
    @pytest.mark.parametrize("loss", [0.5, 0.6, 0.999])
    def test_no_efficiency_optimum_from_half_the_photons_lost(self, law, loss):
        # P(e|1) = 1/2 + C ((1 - L)(1 - x) - 1/2) rises toward 1/2 for every
        # window once L >= 1/2; the fidelity keeps its optimum
        params = replace(PARAMS, loss_L=loss)
        cfg = replace(CFG, ramsey_law=law)
        assert optimal_window(cfg, params, "efficiency") is None
        assert optimal_window(cfg, params, "fidelity") == optimal_window(cfg, PARAMS, "fidelity")
        p_e1 = window_sweep(cfg, params, np.linspace(0.0, 20.0, 2001)).p_e_given_1
        assert np.all(np.diff(p_e1) >= -1e-15)
        assert np.all(p_e1 <= 0.5)
        just_below = replace(PARAMS, loss_L=math.nextafter(0.5, 0.0))
        assert math.isfinite(optimal_window(cfg, just_below, "efficiency"))

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError, match="objective"):
            optimal_window(CFG, PARAMS, "ratio")


class TestReadoutComposition:
    def test_paper_point(self):
        p = readout_composition(0.658, 0.063, 0.022)
        assert p == pytest.approx(0.624, abs=5e-4)
        assert 1 - p == pytest.approx(0.37, abs=0.02)

    def test_identity_without_errors(self):
        assert readout_composition(0.658, 0.0, 0.0) == 0.658

    def test_pure_false_positive(self):
        assert readout_composition(0.0, 0.063, 0.022) == 0.022

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            readout_composition(1.5, 0.0, 0.0)


class TestLossDeconvolution:
    def test_paper_point(self):
        assert loss_deconvolution(0.37, 0.25) == pytest.approx(0.16, abs=1e-12)

    def test_no_loss_identity(self):
        assert loss_deconvolution(0.37, 0.0) == 0.37

    def test_all_misses_from_loss(self):
        assert loss_deconvolution(0.25, 0.25) == 0.0

    def test_clamped_with_warning(self):
        with pytest.warns(UserWarning, match="clamping"):
            assert loss_deconvolution(0.2, 0.25) == 0.0

    def test_total_loss_rejected(self):
        with pytest.raises(ValueError):
            loss_deconvolution(0.37, 1.0)


class TestInternalFidelity:
    def test_values(self):
        assert internal_fidelity(0.16, 0.13) == pytest.approx(0.71, rel=1e-12)
        assert internal_fidelity(0.0, 0.0) == 1.0
        assert internal_fidelity(0.16, 0.134) == pytest.approx(0.706, rel=1e-12)

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            internal_fidelity(-0.1, 0.0)
