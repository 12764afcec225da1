import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import norm

from qndsim.config import ReadoutRunConfig
from qndsim.readout import (
    GaussianMixture,
    assigned_fraction,
    assignment_fidelity,
    fit_double_gaussian,
    histogram_shots,
    midpoint_threshold,
    overlap_error,
    preselect_threshold,
    sample_shots,
)

RO = ReadoutRunConfig()
MIX = GaussianMixture(0.0, RO.snr, 1.0, 0.5)
N = RO.n_shots


class TestSampling:
    def test_pure_ground_component(self):
        shots = sample_shots(replace(MIX, w_e=0.0), 100_000, seed=7)
        assert abs(shots.mean() - MIX.mu_g) < 4 * MIX.sigma / math.sqrt(100_000)

    def test_pure_excited_component(self):
        shots = sample_shots(replace(MIX, w_e=1.0), 100_000, seed=8)
        assert abs(shots.mean() - MIX.mu_e) < 4 * MIX.sigma / math.sqrt(100_000)

    def test_balanced_mixture_splits_at_midpoint(self):
        shots = sample_shots(MIX, N, seed=9)
        frac = assigned_fraction(shots, midpoint_threshold(MIX))
        assert abs(frac - 0.5) <= 3 * math.sqrt(0.25 / N)

    def test_reproducible_bitwise(self):
        a = sample_shots(replace(MIX, w_e=0.3), 5000, seed=42)
        b = sample_shots(replace(MIX, w_e=0.3), 5000, seed=42)
        np.testing.assert_array_equal(a, b)
        c = sample_shots(replace(MIX, w_e=0.3), 5000, seed=43)
        assert not np.array_equal(a, c)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            sample_shots(MIX, 0, seed=1)
        with pytest.raises(ValueError):
            sample_shots(replace(MIX, w_e=1.5), 10, seed=1)


class TestAssignment:
    def test_all_below_threshold(self):
        assert assigned_fraction(np.array([-1.0, 0.2, 0.5]), 2.0) == 0.0

    def test_misassignment_at_device_snr(self):
        # sample the two components separately so the truth is known
        g = sample_shots(GaussianMixture(0.0, 5.75, 1.0, 0.0), N, seed=11)
        e = sample_shots(GaussianMixture(0.0, 5.75, 1.0, 1.0), N, seed=12)
        thr = midpoint_threshold(MIX)
        wrong = assigned_fraction(g, thr) + (1.0 - assigned_fraction(e, thr))
        misassignment = wrong / 2
        assert misassignment <= 0.002 + 3 * math.sqrt(0.002 / N)

    def test_monotone_in_threshold(self):
        shots = sample_shots(MIX, N, seed=13)
        qs = np.linspace(-3.0, 9.0, 25)
        fracs = [assigned_fraction(shots, q) for q in qs]
        assert np.all(np.diff(fracs) <= 0)


class TestPreselect:
    def test_thermal_discard_fraction(self):
        mix = GaussianMixture(0.0, 5.75, 1.0, 0.06)
        shots = sample_shots(mix, N, seed=21)
        discard = assigned_fraction(shots, preselect_threshold(mix, RO.preselect_sigmas))
        assert abs(discard - 0.06) <= 3 * math.sqrt(0.06 * 0.94 / N)

    def test_ground_only_population(self):
        mix = GaussianMixture(0.0, 5.75, 1.0, 0.0)
        shots = sample_shots(mix, N, seed=22)
        discard = assigned_fraction(shots, preselect_threshold(mix, RO.preselect_sigmas))
        # only the 3-sigma tail of the ground Gaussian is lost
        assert discard <= 0.00135 + 3 * math.sqrt(0.00135 / N)

    def test_retained_all_ground_assigned(self):
        shots = sample_shots(MIX, 2000, seed=23)
        thr = preselect_threshold(MIX, RO.preselect_sigmas)
        # the kept shots are exactly those at or below the threshold
        discard = assigned_fraction(shots, thr)
        assert discard == (shots.size - np.count_nonzero(shots <= thr)) / shots.size


class TestDoubleGaussianFit:
    def test_roundtrip_single_seed(self):
        shots = sample_shots(GaussianMixture(0.0, 6.0, 1.0, 0.5), N, seed=31)
        fit = fit_double_gaussian(*histogram_shots(shots, RO.n_bins))
        truth = {"mu_g": 0.0, "mu_e": 6.0, "sigma": 1.0, "w_e": 0.5}
        for key, val in truth.items():
            assert abs(getattr(fit.mixture, key) - val) <= 3 * fit.stderr[key]

    def test_roundtrip_twenty_seeds(self):
        truth = GaussianMixture(0.0, 6.0, 1.0, 0.5)
        bad = 0
        for seed in range(20):
            shots = sample_shots(truth, N, seed=seed)
            fit = fit_double_gaussian(*histogram_shots(shots, RO.n_bins))
            for key in ("mu_g", "mu_e", "sigma", "w_e"):
                if abs(getattr(fit.mixture, key) - getattr(truth, key)) > 3 * fit.stderr[key]:
                    bad += 1
                    break
        assert bad <= 1  # one 3-sigma outlier in 20 draws is expected coverage

    def test_single_component_data(self):
        shots = sample_shots(GaussianMixture(0.0, 6.0, 1.0, 0.0), N, seed=32)
        fit = fit_double_gaussian(*histogram_shots(shots, RO.n_bins))
        assert fit.mixture.w_e < 0.01

    def test_protocol_weight_recovered(self):
        # excited weight of the photon-detection histogram after readout errors
        w_e = 0.624
        shots = sample_shots(GaussianMixture(0.0, 6.0, 1.0, w_e), N, seed=33)
        fit = fit_double_gaussian(*histogram_shots(shots, RO.n_bins))
        assert abs(fit.mixture.w_e - w_e) <= 3 * math.sqrt(w_e * (1 - w_e) / N)

    def test_preconditions(self):
        with pytest.raises(ValueError, match="bins"):
            fit_double_gaussian(np.linspace(0, 1, 10), np.full(10, 100.0))
        with pytest.raises(ValueError, match="counts"):
            fit_double_gaussian(np.linspace(0, 1, 30), np.full(30, 1.0))


class TestOverlapError:
    def test_device_separation(self):
        # independent oracle: each component loses the tail beyond the midpoint
        value = overlap_error(MIX)
        assert value == pytest.approx(norm.cdf(-5.75 / 2), rel=1e-9)
        assert value == pytest.approx(0.002, rel=0.1)

    def test_degenerate_and_separated_limits(self):
        assert overlap_error(GaussianMixture(0.0, 1e-12, 1.0, 0.5)) == pytest.approx(0.5)
        assert overlap_error(GaussianMixture(0.0, 20.0, 1.0, 0.5)) < 1e-20

    def test_strictly_decreasing_in_separation(self):
        seps = np.linspace(0.5, 10.0, 40)
        vals = [overlap_error(GaussianMixture(0.0, d, 1.0, 0.5)) for d in seps]
        assert np.all(np.diff(vals) < 0)


class TestAssignmentFidelity:
    def test_device_point(self):
        assert assignment_fidelity(0.063, 0.022) == pytest.approx(0.915, abs=1e-12)

    def test_limits(self):
        assert assignment_fidelity(0.0, 0.0) == 1.0
        assert assignment_fidelity(0.5, 0.5) == 0.0

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            assignment_fidelity(1.2, 0.0)


def test_mixture_invariants():
    with pytest.raises(ValueError):
        GaussianMixture(0.0, 5.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        GaussianMixture(1.0, 1.0, 1.0, 0.5)
    with pytest.raises(ValueError, match="above the ground mean"):
        GaussianMixture(5.75, 0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        GaussianMixture(0.0, 5.0, 1.0, 1.5)


def test_threshold_invariants():
    mix = GaussianMixture(1.0, 6.0, 0.5, 0.5)
    assert midpoint_threshold(mix) == 3.5
    assert preselect_threshold(mix, RO.preselect_sigmas) == 2.5
    assert preselect_threshold(mix, 1.0) == 1.5
