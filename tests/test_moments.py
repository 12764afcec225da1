import math

import numpy as np
import pytest
from scipy import stats

from qndsim.config import QndRunConfig
from qndsim.moments import (
    expected_moments,
    max_power_deviation,
    qnd_monte_carlo,
    simulate_moment_estimates,
)

QND = QndRunConfig()


def simulate(
    theta_grid,
    mode,
    rng,
    scale=QND.scale,
    n_shots=QND.n_shots,
    coherence_offset=QND.coherence_offset,
):
    """simulate_moment_estimates with the configured values, unless given."""
    return simulate_moment_estimates(
        theta_grid, mode, rng, scale, n_shots, QND.noise_var, coherence_offset
    )


def assert_physical(n_avg, re_a):
    """A valid mode moment pair: n >= 0 and |<a>|^2 <= <a^dag a>."""
    assert np.all(n_avg >= 0)
    assert np.all(np.abs(re_a) <= np.sqrt(n_avg) + 1e-9)


def per_shot_reference(
    theta_grid,
    mode,
    rng,
    scale=QND.scale,
    n_shots=QND.n_shots,
    noise_var=QND.noise_var,
    coherence_offset=QND.coherence_offset,
):
    """The moment estimator computed from every single shot: the slow
    reference whose law simulate_moment_estimates draws from sufficient
    statistics. One row of n_shots shots per angle."""
    n_ideal, _ = expected_moments(theta_grid, mode, scale)
    amp = (np.sqrt(n_ideal) * np.exp(0.5j * theta_grid))[:, np.newaxis]
    shape = (len(theta_grid), n_shots)
    if mode == "on":
        signal = amp * (rng.integers(0, 2, shape) * 2 - 1) + coherence_offset
    else:
        signal = np.broadcast_to(amp, shape)
    noise = np.sqrt(noise_var) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    shots = signal + noise
    n_avg = np.maximum(np.mean(np.abs(shots) ** 2, axis=1) - 2 * noise_var, 0.0)
    re_a = np.mean(shots.real, axis=1)
    return n_avg, np.clip(re_a, -np.sqrt(n_avg), np.sqrt(n_avg))


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
        n_avg, re_a = expected_moments(0.0, mode, QND.scale)
        assert (n_avg, re_a) == (0.0, 0.0)

    def test_power_conserved_for_all_angles(self):
        thetas = np.linspace(0.0, math.pi, 41)
        n_on, _ = expected_moments(thetas, "on", 0.75)
        n_off, _ = expected_moments(thetas, "off", 0.75)
        np.testing.assert_array_equal(n_on, n_off)

    def test_coherence_erased_on(self):
        _, re_a = expected_moments(np.linspace(0, math.pi, 17), "on", QND.scale)
        assert np.all(re_a == 0.0)

    def test_off_coherence_peaks_at_half_angle(self):
        h = 1e-4
        thetas = np.array([math.pi / 2 - h, math.pi / 2, math.pi / 2 + h])
        _, re_a = expected_moments(thetas, "off", QND.scale)
        assert re_a[1] > re_a[0] and re_a[1] > re_a[2]

    def test_input_validation(self):
        with pytest.raises(ValueError):
            expected_moments(4.0, "on", QND.scale)
        with pytest.raises(ValueError):
            expected_moments(np.array([0.0, -0.1]), "on", QND.scale)
        with pytest.raises(ValueError):
            expected_moments(1.0, "on", 0.0)
        with pytest.raises(ValueError):
            expected_moments(1.0, "sideways", QND.scale)


class TestMaxPowerDeviation:
    def test_identical_inputs_pass(self):
        moments = expected_moments(np.linspace(0, math.pi, 9), "off", QND.scale)
        deviation = max_power_deviation(moments, moments, QND.floor)
        assert deviation == 0.0 and deviation <= QND.gate

    def test_scaled_power_fails(self):
        n_off, re_off = expected_moments(np.linspace(0, math.pi, 9), "off", QND.scale)
        scaled = (1.05 * n_off, np.zeros_like(n_off))
        deviation = max_power_deviation(scaled, (n_off, re_off), QND.floor)
        assert deviation == pytest.approx(0.05, rel=1e-9)
        assert not deviation <= QND.gate

    def test_mismatched_grids_rejected(self):
        with pytest.raises(ValueError):
            max_power_deviation(
                (np.array([1.0]), np.array([0.0])), (np.array([]), np.array([])), QND.floor
            )


class TestMonteCarlo:
    def test_estimates_track_expectation(self, rng):
        thetas = np.array([0.0, math.pi / 2, math.pi])
        for mode in ("on", "off"):
            n_avg, re_a = simulate(thetas, mode, rng)
            n_ideal, re_ideal = expected_moments(thetas, mode, QND.scale)
            assert np.all(np.abs(n_avg - n_ideal) < 0.05)
            assert np.all(np.abs(re_a - re_ideal) < 0.05)

    def test_deviation_gate_holds_across_seeds(self):
        thetas = np.linspace(0.0, math.pi, 9)
        deviations = qnd_monte_carlo(
            thetas,
            list(range(100)),
            QND.scale,
            QND.n_shots,
            QND.noise_var,
            QND.floor,
            QND.coherence_offset,
        )
        assert deviations.shape == (100,)
        assert np.count_nonzero(deviations <= QND.gate) >= 95

    def test_coherence_offset_knob(self):
        # a spurious coherent amplitude shows up in the ON-mode quadrature
        # even at theta = 0, as an offset of the erased-coherence baseline
        thetas = np.array([0.0])
        _, clean = simulate(thetas, "on", np.random.default_rng(0))
        _, shifted = simulate(thetas, "on", np.random.default_rng(0), coherence_offset=0.1)
        assert abs(clean[0]) < 0.01
        assert shifted[0] == pytest.approx(0.1, abs=0.02)

    def test_input_validation(self, rng):
        thetas = np.array([0.0, math.pi])
        with pytest.raises(ValueError):
            simulate(thetas, "sideways", rng)
        with pytest.raises(ValueError):
            simulate(thetas, "on", rng, n_shots=0)
        with pytest.raises(ValueError):
            simulate_moment_estimates(thetas, "off", rng, QND.scale, QND.n_shots, -0.01, 0.0)


class TestExactLaw:
    """simulate_moment_estimates has exactly the law of the per-shot
    estimator, checked against the per-shot reference and against the
    closed-form law of the photon-number estimate."""

    THETAS = np.array([0.0, math.pi / 2, math.pi])
    REPS = 4000
    # Each KS comparison must clear this p-value. Over the 48 comparisons
    # below, the chance that a correct law fails any of them stays under
    # 1e-3, and wrong laws still fail: no sign randomization, a χ² that
    # ignores empty sign groups or is off by 2 degrees of freedom, its mean
    # in place of a draw, per-group means with the spread of all N shots,
    # and the two sums drawn independently.
    P_FLOOR = 1e-5

    @pytest.mark.parametrize("n_shots", [2, 40])
    @pytest.mark.parametrize("mode, offset", [("on", 0.0), ("off", 0.0), ("on", 0.1)])
    def test_matches_per_shot_reference(self, mode, offset, n_shots):
        # two-sample KS per angle and statistic. theta = 0 exercises the
        # clips; N = 2 leaves a sign group empty half the time; the offset
        # makes re_a depend on the sign split, so a law that drew the two
        # sums independently fails here
        grid = np.repeat(self.THETAS, self.REPS)
        fast = simulate(
            grid, mode, np.random.default_rng(0), n_shots=n_shots, coherence_offset=offset
        )
        slow = per_shot_reference(
            grid, mode, np.random.default_rng(1), n_shots=n_shots, coherence_offset=offset
        )
        shape = (len(self.THETAS), self.REPS)
        for fast_stat, slow_stat in zip(fast, slow):
            for theta, a, b in zip(self.THETAS, fast_stat.reshape(shape), slow_stat.reshape(shape)):
                assert stats.ks_2samp(a, b).pvalue > self.P_FLOOR, f"theta = {theta:.3f}"

    @pytest.mark.parametrize("n_shots", [1, 2, 40])
    @pytest.mark.parametrize("mode", ["on", "off"])
    def test_photon_number_is_noncentral_chi2(self, mode, n_shots):
        # Σ|a|²/σ² is noncentral χ² with 2N degrees of freedom and
        # noncentrality N·n/σ² in both modes; the random sign leaves it
        # unchanged. At these angles the clip at 0 lies over 5 standard
        # deviations below n, so n_avg is the unclipped estimate. N = 1 puts
        # the residual χ² at 0 degrees of freedom.
        var = QND.noise_var
        rng = np.random.default_rng(2)
        for theta in (2 * math.pi / 3, math.pi):
            n_avg, _ = simulate(np.full(self.REPS, theta), mode, rng, n_shots=n_shots)
            law = stats.ncx2(2 * n_shots, n_shots * math.sin(theta / 2) ** 2 / var)
            pvalue = stats.kstest(n_avg, lambda x: law.cdf((x + 2 * var) * n_shots / var)).pvalue
            assert pvalue > self.P_FLOOR, f"theta = {theta:.3f}"

    @pytest.mark.parametrize("n_shots", [1, 2, 3])
    @pytest.mark.parametrize("mode, offset", [("on", 0.0), ("off", 0.0), ("on", 0.1)])
    def test_few_shots_finite_and_physical(self, mode, offset, n_shots):
        # ON with N = 1 always leaves one sign group empty, and 0 degrees of
        # freedom for the residual χ²; N = 2 and 3 leave one empty often
        grid = np.repeat(np.linspace(0.0, math.pi, 9), 500)
        n_avg, re_a = simulate(
            grid, mode, np.random.default_rng(3), n_shots=n_shots, coherence_offset=offset
        )
        assert np.all(np.isfinite(n_avg)) and np.all(np.isfinite(re_a))
        assert_physical(n_avg, re_a)


def test_moment_invariants():
    thetas = np.linspace(0.0, math.pi, 33)
    for mode in ("on", "off"):
        assert_physical(*expected_moments(thetas, mode, 0.75))
        # near vacuum the raw estimates go negative or exceed the bound;
        # the estimator clips them back into the physical region
        for seed in range(5):
            rng = np.random.default_rng(seed)
            assert_physical(*simulate(thetas, mode, rng, 0.75, n_shots=200))
