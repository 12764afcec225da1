"""Reflected-field moment analysis: expected detector-ON and detector-OFF
moments, and the ON/OFF power deviation.

A nondemolition detector conserves the photon number of the reflected mode
while erasing its phase; both statements become closed-form curves vs the
preparation angle, plus a Monte Carlo of the moment estimation at finite
shot count. Moments travel as a pair of arrays over the angle grid: the
mean photon number n_avg and the optimized-quadrature amplitude re_a.

The Monte Carlo draws the estimator's sufficient statistics, Σ Re a and
Σ|a|² over the shots, from their exact joint law instead of drawing every
shot: the shots split into groups of equal signal (ON: the two signs, OFF:
one group), each group's quadrature means are Gaussian, and the spread of
the shots about their group means is an independent σ²·χ². The estimates
therefore have exactly the distribution of the per-shot estimator; this is
not an approximation.
"""

from __future__ import annotations

import numpy as np

MODES = ("on", "off")


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


def max_power_deviation(
    on: tuple[np.ndarray, np.ndarray],
    off: tuple[np.ndarray, np.ndarray],
    floor: float,
) -> float:
    """Largest relative ON/OFF power deviation over a shared angle grid,
    relative to the OFF power but never to less than floor photons."""
    n_on, n_off = np.asarray(on[0]), np.asarray(off[0])
    if n_on.shape != n_off.shape:
        raise ValueError("moment arrays must share one angle grid")
    return float(np.max(np.abs(n_on - n_off) / np.maximum(n_off, floor)))


def simulate_moment_estimates(
    theta_grid: np.ndarray,
    mode: str,
    rng: np.random.Generator,
    scale: float,
    n_shots: int,
    noise_var: float,
    coherence_offset: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Moment estimates (n_avg, re_a) from n_shots simulated single shots.

    Each shot is the matched-filter output a = s + nu: the signal s has the
    modulus sqrt(n) with the mode's phase statistics (ON randomizes the sign,
    OFF keeps the fixed phase theta/2), and nu is complex amplifier noise
    with the per-quadrature variance σ² = noise_var. coherence_offset adds a
    constant spurious coherent amplitude to the ON-mode field; OFF ignores it.
    The estimates are n_avg = mean|a|² - 2σ², clipped at 0, and
    re_a = mean Re a, clipped to |re_a| <= sqrt(n_avg).

    The sums over the N = n_shots shots are drawn from their exact joint
    law, per angle, rather than shot by shot: ON draws
    the number k of + signs from Binomial(N, 1/2), giving groups of k and
    N - k shots with mean signal ±amp + coherence_offset; OFF has one group
    of N shots with mean amp. A non-empty group of m shots has Gaussian
    quadrature means x̄ ~ N(μ, σ²/m), so Σ Re a = Σ m·Re x̄ and
    Σ|a|² = Σ m·|x̄|² + σ²·χ²(2N - 2G), with G the number of non-empty
    groups. The estimates are distributed exactly as the per-shot ones.
    """
    theta_grid = np.asarray(theta_grid, dtype=float)
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if n_shots < 1 or not noise_var >= 0:
        raise ValueError("n_shots must be at least 1 and noise_var non-negative")
    n_ideal, _ = expected_moments(theta_grid, mode, scale)
    # field amplitude sqrt(n) exp(i theta/2): its real part is the prepared
    # coherence sqrt(scale) sin(theta)/2
    amp = np.sqrt(n_ideal) * np.exp(0.5j * theta_grid)
    if mode == "on":
        n_plus = rng.binomial(n_shots, 0.5, theta_grid.shape)
        sizes = np.stack([n_plus, n_shots - n_plus])
        means = np.stack([amp, -amp]) + coherence_offset
    else:
        sizes = np.full((1,) + theta_grid.shape, n_shots)
        means = amp[np.newaxis]
    # an empty group draws a mean too, but its weight m = 0 drops it
    spread = np.sqrt(noise_var / np.maximum(sizes, 1))
    mean_re = means.real + spread * rng.standard_normal(sizes.shape)
    mean_im = means.imag + spread * rng.standard_normal(sizes.shape)
    dof = 2 * n_shots - 2 * np.count_nonzero(sizes, axis=0)
    chi2 = rng.gamma(dof / 2, 2.0)  # χ²(dof); gamma returns 0 at dof = 0
    power = np.sum(sizes * (mean_re**2 + mean_im**2), axis=0) + noise_var * chi2
    n_avg = np.maximum(power / n_shots - 2 * noise_var, 0.0)
    re_a = np.sum(sizes * mean_re, axis=0) / n_shots
    return n_avg, np.clip(re_a, -np.sqrt(n_avg), np.sqrt(n_avg))


def qnd_monte_carlo(
    theta_grid: np.ndarray,
    seeds: list[int],
    scale: float,
    n_shots: int,
    noise_var: float,
    floor: float,
    coherence_offset: float,
) -> np.ndarray:
    """max_power_deviation of independently simulated ON/OFF estimates,
    one per seed."""
    shot_args = (scale, n_shots, noise_var, coherence_offset)
    deviations = np.empty(len(seeds))
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        on = simulate_moment_estimates(theta_grid, "on", rng, *shot_args)
        off = simulate_moment_estimates(theta_grid, "off", rng, *shot_args)
        deviations[i] = max_power_deviation(on, off, floor)
    return deviations
