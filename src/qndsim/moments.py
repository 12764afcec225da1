"""Reflected-field moment analysis: expected detector-ON and detector-OFF
moments, and the ON/OFF power deviation.

A nondemolition detector conserves the photon number of the reflected mode
while erasing its phase; both statements become closed-form curves vs the
preparation angle, plus a Monte Carlo of the moment estimation at finite
shot count. Moments travel as a pair of arrays over the angle grid: the
mean photon number n_avg and the optimized-quadrature amplitude re_a.

The Monte Carlo reports power only: each angle's summed power Σ|a|² over
the shots is drawn from its exact law, a scaled noncentral χ², instead of
drawing every shot. The estimates therefore have exactly the distribution of
the per-shot photon-number estimator; this is not an approximation. The
coherence ⟨a⟩ is reported from the expected moments alone.
"""

from __future__ import annotations

import numpy as np

MODES = ("on", "off")

# Criterion 7's gate, its divisor floor and its sample size: fixed reference
# values of the acceptance check, not properties of the measurement.
# Relative ON/OFF power deviation allowed per seed; at 1 or more the gate
# would pass an erased or a doubled photon.
POWER_GATE = 0.02
# Photons; keeps the relative deviation finite near vacuum. expected_moments
# puts the OFF power at scale * sin^2(theta/2) <= 1 photon, so a floor of 1
# or more would replace it as the divisor.
POWER_FLOOR = 0.25
# Independent Monte Carlo runs the gate is counted over.
MC_SEEDS = 100


def expected_moments(
    theta: float | np.ndarray, mode: str, scale: float
) -> tuple[np.ndarray, np.ndarray]:
    """Ideal detector response (n_avg, re_a) at preparation angles theta.

    Both modes carry the photon number scale*sin^2(theta/2); the OFF mode
    keeps the input coherence sqrt(scale)*sin(theta)/2 while the ON mode
    erases it. scale is the separately calibrated transmission of the line.
    """
    theta = np.asarray(theta, dtype=float)
    if np.any((theta < 0) | (theta > np.pi)):
        raise ValueError("theta must lie in [0, pi]")
    if not 0 < scale <= 1:
        raise ValueError("scale must lie in (0, 1]")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    n_avg = scale * np.sin(theta / 2) ** 2
    re_a = np.zeros_like(n_avg) if mode == "on" else np.sqrt(scale) * np.sin(theta) / 2
    return n_avg, re_a


def max_power_deviation(n_on: np.ndarray, n_off: np.ndarray) -> float:
    """Largest relative ON/OFF power deviation over a shared angle grid,
    relative to the OFF power but never to less than POWER_FLOOR photons."""
    n_on, n_off = np.asarray(n_on), np.asarray(n_off)
    if n_on.shape != n_off.shape:
        raise ValueError("photon-number arrays must share one angle grid")
    return float(np.max(np.abs(n_on - n_off) / np.maximum(n_off, POWER_FLOOR)))


def simulate_moment_estimates(
    theta_grid: np.ndarray,
    mode: str,
    rng: np.random.Generator,
    scale: float,
    n_shots: int,
    noise_var: float,
    coherence_offset: float,
) -> np.ndarray:
    """Photon-number estimates n_avg from n_shots simulated single shots.

    Each shot is the matched-filter output a = s + nu: the signal s has the
    modulus sqrt(n) with the mode's phase statistics (ON randomizes the sign,
    OFF keeps the fixed phase theta/2), and nu is complex amplifier noise
    with the per-quadrature variance σ² = noise_var. coherence_offset adds a
    constant spurious coherent amplitude c to the ON-mode field; OFF ignores
    it. The estimate is n_avg = Σ|a|²/N - 2σ², clipped at 0, over the
    N = n_shots shots.

    Σ|a|² is drawn per angle from its exact law, σ²·χ'²(2N, S/σ²), where S is
    the summed signal power: OFF has S = N·n; ON first draws the number k of
    + signs from Binomial(N, 1/2), and then S = k|amp + c|² + (N - k)|amp - c|².
    The draw is σ²·χ²(2N - 1) + (σZ + √S)², with Z standard normal: the same
    law without the division by σ², which overflows for σ² near the float
    floor.
    """
    theta_grid = np.asarray(theta_grid, dtype=float)
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if n_shots < 1 or not noise_var > 0:
        raise ValueError("n_shots must be at least 1 and noise_var positive")
    n_ideal, _ = expected_moments(theta_grid, mode, scale)
    if mode == "on":
        # field amplitude sqrt(n) exp(i theta/2): its real part is the
        # prepared coherence sqrt(scale) sin(theta)/2
        amp = np.sqrt(n_ideal) * np.exp(0.5j * theta_grid)
        n_plus = rng.binomial(n_shots, 0.5, theta_grid.shape)
        signal = (
            n_plus * np.abs(amp + coherence_offset) ** 2
            + (n_shots - n_plus) * np.abs(amp - coherence_offset) ** 2
        )
    else:
        signal = n_shots * n_ideal
    power = noise_var * rng.chisquare(2 * n_shots - 1, signal.shape)
    power += (np.sqrt(noise_var) * rng.standard_normal(signal.shape) + np.sqrt(signal)) ** 2
    return np.maximum(power / n_shots - 2 * noise_var, 0.0)


def qnd_monte_carlo(
    theta_grid: np.ndarray,
    seeds: list[int],
    scale: float,
    n_shots: int,
    noise_var: float,
    coherence_offset: float,
) -> np.ndarray:
    """max_power_deviation of independently simulated ON/OFF photon-number
    estimates, one per seed."""
    shot_args = (scale, n_shots, noise_var, coherence_offset)
    deviations = np.empty(len(seeds))
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        on = simulate_moment_estimates(theta_grid, "on", rng, *shot_args)
        off = simulate_moment_estimates(theta_grid, "off", rng, *shot_args)
        deviations[i] = max_power_deviation(on, off)
    return deviations
