import math

import numpy as np
import pytest

from qndsim.moments import (
    expected_moments,
    qnd_check,
    qnd_monte_carlo,
    simulate_moment_estimates,
)


def assert_physical(n_avg, re_a):
    """A valid mode moment pair: n >= 0 and |<a>|^2 <= <a^dag a>."""
    assert np.all(n_avg >= 0)
    assert np.all(np.abs(re_a) <= np.sqrt(n_avg) + 1e-9)


class TestExpectedMoments:
    def test_full_photon_on(self):
        n_avg, re_a = expected_moments(math.pi, "on", 1.0)
        assert (n_avg, re_a) == (1.0, 0.0)

    def test_half_photon_off(self):
        n_avg, re_a = expected_moments(math.pi / 2, "off", 1.0)
        assert n_avg == pytest.approx(0.5)
        assert re_a == pytest.approx(0.5)

    @pytest.mark.parametrize("mode", ["on", "off"])
    def test_vacuum(self, mode):
        n_avg, re_a = expected_moments(0.0, mode)
        assert (n_avg, re_a) == (0.0, 0.0)

    def test_power_conserved_for_all_angles(self):
        thetas = np.linspace(0.0, math.pi, 41)
        n_on, _ = expected_moments(thetas, "on", 0.75)
        n_off, _ = expected_moments(thetas, "off", 0.75)
        np.testing.assert_array_equal(n_on, n_off)

    def test_coherence_erased_on(self):
        _, re_a = expected_moments(np.linspace(0, math.pi, 17), "on")
        assert np.all(re_a == 0.0)

    def test_off_coherence_peaks_at_half_angle(self):
        h = 1e-4
        _, re_a = expected_moments(np.array([math.pi / 2 - h, math.pi / 2, math.pi / 2 + h]), "off")
        assert re_a[1] > re_a[0] and re_a[1] > re_a[2]

    def test_input_validation(self):
        with pytest.raises(ValueError):
            expected_moments(4.0, "on")
        with pytest.raises(ValueError):
            expected_moments(np.array([0.0, -0.1]), "on")
        with pytest.raises(ValueError):
            expected_moments(1.0, "on", 0.0)
        with pytest.raises(ValueError):
            expected_moments(1.0, "sideways")


class TestQndCheck:
    def test_identical_inputs_pass(self):
        moments = expected_moments(np.linspace(0, math.pi, 9), "off")
        result = qnd_check(moments, moments)
        assert result.max_deviation == 0.0 and result.passed

    def test_scaled_power_fails(self):
        n_off, re_off = expected_moments(np.linspace(0, math.pi, 9), "off")
        result = qnd_check((1.05 * n_off, np.zeros_like(n_off)), (n_off, re_off))
        assert result.max_deviation == pytest.approx(0.05, rel=1e-9)
        assert not result.passed

    def test_passed_is_a_python_bool(self):
        # the CSV emitter spells Python bools as true/false
        moments = expected_moments(np.linspace(0, math.pi, 9), "off")
        assert type(qnd_check(moments, moments).passed) is bool

    def test_mismatched_grids_rejected(self):
        with pytest.raises(ValueError):
            qnd_check((np.array([1.0]), np.array([0.0])), (np.array([]), np.array([])))


class TestMonteCarlo:
    def test_estimates_track_expectation(self, rng):
        thetas = np.array([0.0, math.pi / 2, math.pi])
        for mode in ("on", "off"):
            n_avg, re_a = simulate_moment_estimates(thetas, mode, rng)
            n_ideal, re_ideal = expected_moments(thetas, mode)
            assert np.all(np.abs(n_avg - n_ideal) < 0.05)
            assert np.all(np.abs(re_a - re_ideal) < 0.05)

    def test_deviation_gate_holds_across_seeds(self):
        thetas = np.linspace(0.0, math.pi, 9)
        results = qnd_monte_carlo(thetas, seeds=list(range(100)))
        assert sum(r.passed for r in results) >= 95

    def test_coherence_offset_knob(self):
        # a spurious coherent amplitude shows up in the ON-mode quadrature
        # even at theta = 0, as an offset of the erased-coherence baseline
        thetas = np.array([0.0])
        _, clean = simulate_moment_estimates(thetas, "on", np.random.default_rng(0))
        _, shifted = simulate_moment_estimates(
            thetas, "on", np.random.default_rng(0), coherence_offset=0.1
        )
        assert abs(clean[0]) < 0.01
        assert shifted[0] == pytest.approx(0.1, abs=0.02)


def test_moment_invariants():
    thetas = np.linspace(0.0, math.pi, 33)
    for mode in ("on", "off"):
        assert_physical(*expected_moments(thetas, mode, 0.75))
        # near vacuum the raw estimates go negative or exceed the bound;
        # the estimator clips them back into the physical region
        for seed in range(5):
            rng = np.random.default_rng(seed)
            assert_physical(*simulate_moment_estimates(thetas, mode, rng, 0.75, n_shots=200))
