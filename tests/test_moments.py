import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from test_domains import DETERMINISTIC

from qndsim.config import QndRunConfig
from qndsim.moments import (
    MODES,
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
    """The photon-number estimator computed from every single shot: the
    slow reference whose law simulate_moment_estimates draws in closed
    form. One row of n_shots shots per angle."""
    n_ideal, _ = expected_moments(theta_grid, mode, scale)
    amp = (np.sqrt(n_ideal) * np.exp(0.5j * theta_grid))[:, np.newaxis]
    shape = (len(theta_grid), n_shots)
    if mode == "on":
        signal = amp * (rng.integers(0, 2, shape) * 2 - 1) + coherence_offset
    else:
        signal = np.broadcast_to(amp, shape)
    noise = np.sqrt(noise_var) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    shots = signal + noise
    return np.maximum(np.mean(np.abs(shots) ** 2, axis=1) - 2 * noise_var, 0.0)


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
        n_off, _ = expected_moments(np.linspace(0, math.pi, 9), "off", QND.scale)
        deviation = max_power_deviation(n_off, n_off, QND.floor)
        assert deviation == 0.0 and deviation <= QND.gate

    def test_scaled_power_fails(self):
        n_off, _ = expected_moments(np.linspace(0, math.pi, 9), "off", QND.scale)
        deviation = max_power_deviation(1.05 * n_off, n_off, QND.floor)
        assert deviation == pytest.approx(0.05, rel=1e-9)
        assert not deviation <= QND.gate

    def test_mismatched_grids_rejected(self):
        with pytest.raises(ValueError):
            max_power_deviation(np.array([1.0]), np.array([]), QND.floor)


class TestMonteCarlo:
    def test_estimates_track_expectation(self, rng):
        thetas = np.array([0.0, math.pi / 2, math.pi])
        for mode in ("on", "off"):
            n_avg = simulate(thetas, mode, rng)
            n_ideal, _ = expected_moments(thetas, mode, QND.scale)
            assert np.all(np.abs(n_avg - n_ideal) < 0.05)

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
        # a spurious coherent amplitude c adds the power c^2 to the ON mode
        # even at theta = 0, where no photon is prepared; OFF ignores it
        thetas = np.array([0.0])
        clean = simulate(thetas, "on", np.random.default_rng(0))
        shifted = simulate(thetas, "on", np.random.default_rng(0), coherence_offset=0.1)
        assert clean[0] < 0.002
        assert shifted[0] == pytest.approx(0.01, abs=0.002)
        off = [
            simulate(thetas, "off", np.random.default_rng(0), coherence_offset=c)
            for c in (0.0, 0.1)
        ]
        np.testing.assert_array_equal(*off)

    def test_input_validation(self, rng):
        thetas = np.array([0.0, math.pi])
        with pytest.raises(ValueError):
            simulate(thetas, "sideways", rng)
        with pytest.raises(ValueError):
            simulate(thetas, "on", rng, n_shots=0)
        for noise_var in (-0.01, 0.0):
            with pytest.raises(ValueError):
                simulate_moment_estimates(
                    thetas, "off", rng, QND.scale, QND.n_shots, noise_var, 0.0
                )


class TestExactLaw:
    """simulate_moment_estimates has exactly the law of the per-shot
    estimator, checked against the per-shot reference and against the
    closed-form law of the photon-number estimate."""

    THETAS = np.array([0.0, math.pi / 2, math.pi])
    REPS = 4000
    # Each KS comparison must clear this p-value. Over the 36 comparisons
    # below, the chance that a correct law fails any of them stays under
    # 1e-3, and wrong laws still fail: no sign randomization, the sign
    # split replaced by its mean N/2, degrees of freedom off by 2, the
    # noncentrality without the offset's power, and the law's mean in
    # place of a draw.
    P_FLOOR = 1e-5

    @pytest.mark.parametrize("n_shots", [2, 40])
    @pytest.mark.parametrize(
        "mode, offset", [("on", 0.0), ("off", 0.0), ("on", 0.1), ("on", 0.3)]
    )
    def test_matches_per_shot_reference(self, mode, offset, n_shots):
        # two-sample KS per angle. theta = 0 exercises the clip; the offset
        # makes the power depend on the sign split, at 0.3 enough for a law
        # that replaced the split by its mean to fail here
        grid = np.repeat(self.THETAS, self.REPS)
        fast = simulate(
            grid, mode, np.random.default_rng(0), n_shots=n_shots, coherence_offset=offset
        )
        slow = per_shot_reference(
            grid, mode, np.random.default_rng(1), n_shots=n_shots, coherence_offset=offset
        )
        shape = (len(self.THETAS), self.REPS)
        for theta, a, b in zip(self.THETAS, fast.reshape(shape), slow.reshape(shape)):
            assert stats.ks_2samp(a, b).pvalue > self.P_FLOOR, f"theta = {theta:.3f}"

    @pytest.mark.parametrize("n_shots", [1, 2, 40])
    @pytest.mark.parametrize("mode", ["on", "off"])
    def test_photon_number_is_noncentral_chi2(self, mode, n_shots):
        # Σ|a|²/σ² is noncentral χ² with 2N degrees of freedom and
        # noncentrality N·n/σ² in both modes; the random sign leaves it
        # unchanged. At these angles the clip at 0 lies over 5 standard
        # deviations below n, so n_avg is the unclipped estimate.
        var = QND.noise_var
        rng = np.random.default_rng(2)
        for theta in (2 * math.pi / 3, math.pi):
            n_avg = simulate(np.full(self.REPS, theta), mode, rng, n_shots=n_shots)
            law = stats.ncx2(2 * n_shots, n_shots * math.sin(theta / 2) ** 2 / var)
            pvalue = stats.kstest(n_avg, lambda x: law.cdf((x + 2 * var) * n_shots / var)).pvalue
            assert pvalue > self.P_FLOOR, f"theta = {theta:.3f}"

    @pytest.mark.parametrize("n_shots", [1, 2, 3])
    @pytest.mark.parametrize("mode, offset", [("on", 0.0), ("off", 0.0), ("on", 0.1)])
    def test_few_shots_finite_and_physical(self, mode, offset, n_shots):
        # N = 1 gives the law its fewest degrees of freedom, 2, and the ON
        # sign split its fewest outcomes
        grid = np.repeat(np.linspace(0.0, math.pi, 9), 500)
        n_avg = simulate(
            grid, mode, np.random.default_rng(3), n_shots=n_shots, coherence_offset=offset
        )
        assert np.all(np.isfinite(n_avg)) and np.all(n_avg >= 0)

    @settings(max_examples=60, **DETERMINISTIC)
    @given(
        mode=st.sampled_from(MODES),
        theta=st.floats(math.pi / 3, math.pi),
        n_shots=st.integers(1, 10_000),
        noise_var=st.floats(1e-4, 0.02),
        offset=st.floats(-0.5, 0.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mean_estimate_is_the_prepared_power(
        self, mode, theta, n_shots, noise_var, offset, seed
    ):
        # Σ|a|²/N - 2σ² is unbiased for the power: n, plus the offset's c²
        # in ON. Its variance is 4σ²(σ² + n + c²)/N, plus 4c²·(Re amp)²/N in
        # ON from the binomial sign split. From theta = pi/3, n >= 1/4, and
        # with σ² <= 0.02 the clip at 0 biases the mean of the draws by less
        # than 0.1 standard errors.
        draws = 400
        n = QND.scale * math.sin(theta / 2) ** 2
        c2 = offset**2 if mode == "on" else 0.0
        var = 4 * noise_var * (noise_var + n + c2) / n_shots
        if mode == "on":
            var += 4 * c2 * n * math.cos(theta / 2) ** 2 / n_shots
        n_avg = simulate_moment_estimates(
            np.full(draws, theta),
            mode,
            np.random.default_rng(seed),
            QND.scale,
            n_shots,
            noise_var,
            offset,
        )
        assert abs(n_avg.mean() - (n + c2)) <= 5 * math.sqrt(var / draws)


def test_moment_invariants():
    thetas = np.linspace(0.0, math.pi, 33)
    for mode in ("on", "off"):
        assert_physical(*expected_moments(thetas, mode, 0.75))
        # near vacuum the raw estimates go negative; the estimator clips
        # them back to n >= 0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            assert np.all(simulate(thetas, mode, rng, 0.75, n_shots=200) >= 0)
