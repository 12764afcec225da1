"""Reflected-field moment analysis: expected detector-ON and detector-OFF
moments, and the power-conservation check.

A nondemolition detector conserves the photon number of the reflected mode
while erasing its phase; both statements become closed-form curves vs the
preparation angle, plus a Monte Carlo of the moment estimation at finite
shot count. Moments travel as a pair of arrays over the angle grid: the
mean photon number n_avg and the optimized-quadrature amplitude re_a.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MODES = ("on", "off")

# Per-quadrature variance of the additive measurement noise, referenced to
# the photon mode. The value is calibrated so that a 12,500-shot moment
# estimate carries ~0.5% standard error at one photon: the 2% ON/OFF power
# gate compared across a 9-point angle grid needs per-point noise well
# below half the gate to pass in 95% of runs.
DEFAULT_NOISE_VAR = 0.016
DEFAULT_SHOTS = 12_500
POWER_GATE = 0.02
POWER_FLOOR = 0.25  # photons; keeps the relative deviation finite near vacuum


def expected_moments(
    theta: float | np.ndarray, mode: str, scale: float = 1.0
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


@dataclass
class QndCheckResult:
    max_deviation: float
    passed: bool


def qnd_check(
    on: tuple[np.ndarray, np.ndarray],
    off: tuple[np.ndarray, np.ndarray],
    gate: float = POWER_GATE,
    floor: float = POWER_FLOOR,
) -> QndCheckResult:
    """Largest relative ON/OFF power deviation over a shared angle grid."""
    n_on, n_off = np.asarray(on[0]), np.asarray(off[0])
    if n_on.shape != n_off.shape:
        raise ValueError("moment arrays must share one angle grid")
    max_dev = float(np.max(np.abs(n_on - n_off) / np.maximum(n_off, floor)))
    return QndCheckResult(max_dev, max_dev <= gate)


def simulate_moment_estimates(
    theta_grid: np.ndarray,
    mode: str,
    rng: np.random.Generator,
    scale: float = 1.0,
    n_shots: int = DEFAULT_SHOTS,
    noise_var: float = DEFAULT_NOISE_VAR,
    coherence_offset: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Moment estimates (n_avg, re_a) from simulated single-shot mode amplitudes.

    Each shot is the matched-filter output a = s + nu: the signal s has the
    modulus sqrt(n) with the mode's phase statistics (ON randomizes the sign,
    OFF keeps the fixed phase theta/2), and nu is complex amplifier noise
    with the calibrated per-quadrature variance. The photon-number estimator
    subtracts the known noise power and is clipped at 0, and the amplitude
    is clipped to |re_a| <= sqrt(n_avg). coherence_offset adds a constant
    spurious coherent amplitude to the ON-mode field (default off).
    """
    theta_grid = np.asarray(theta_grid, dtype=float)
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    n_ideal, _ = expected_moments(theta_grid, mode, scale)
    n_avg = np.empty_like(theta_grid)
    re_a = np.empty_like(theta_grid)
    for i, theta in enumerate(theta_grid):
        # field amplitude sqrt(n) exp(i theta/2): its real part is the
        # prepared coherence sqrt(scale) sin(theta)/2
        amp = np.sqrt(n_ideal[i]) * np.exp(1j * theta / 2)
        if mode == "on":
            signs = rng.integers(0, 2, n_shots) * 2 - 1
            signal = amp * signs + coherence_offset
        else:
            signal = np.full(n_shots, amp)
        noise = np.sqrt(noise_var) * (
            rng.standard_normal(n_shots) + 1j * rng.standard_normal(n_shots)
        )
        shots = signal + noise
        n_avg[i] = np.mean(np.abs(shots) ** 2) - 2 * noise_var
        re_a[i] = np.mean(shots.real)
    n_avg = np.maximum(n_avg, 0.0)
    return n_avg, np.clip(re_a, -np.sqrt(n_avg), np.sqrt(n_avg))


def qnd_monte_carlo(
    theta_grid: np.ndarray,
    seeds: list[int],
    scale: float = 1.0,
    n_shots: int = DEFAULT_SHOTS,
    noise_var: float = DEFAULT_NOISE_VAR,
    gate: float = POWER_GATE,
    floor: float = POWER_FLOOR,
    coherence_offset: float = 0.0,
) -> list[QndCheckResult]:
    """qnd_check on independently simulated ON/OFF estimates, one per seed."""
    results = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        on = simulate_moment_estimates(
            theta_grid, "on", rng, scale, n_shots, noise_var, coherence_offset
        )
        off = simulate_moment_estimates(theta_grid, "off", rng, scale, n_shots, noise_var)
        results.append(qnd_check(on, off, gate, floor))
    return results
