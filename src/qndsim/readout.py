"""Single-shot readout statistics: Gaussian-mixture shots, thresholding,
preselection, and double-Gaussian histogram fits.

Quadrature amplitudes are in units of the per-component standard deviation
(the runners use sigma = 1); the absolute scale of the measurement chain
drops out of every figure of merit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError
from .fitting import _lsq

# histogram_shots bins the shots over their mean +- this many standard
# deviations
SPAN_SIGMAS = 6.0


@dataclass
class GaussianMixture:
    """Two common-width Gaussian components on the quadrature axis, with the
    excited mean above the ground mean."""

    mu_g: float
    mu_e: float
    sigma: float
    w_e: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if not self.mu_e > self.mu_g:
            raise ValueError("the excited mean must lie above the ground mean")
        if not 0 <= self.w_e <= 1:
            raise ValueError("w_e must lie in [0, 1]")


@dataclass
class DoubleGaussianFit:
    mixture: GaussianMixture
    stderr: dict[str, float]
    rss: float


def sample_shots(mix: GaussianMixture, n: int, seed: int) -> np.ndarray:
    """Draw n shots, each from the e component with probability mix.w_e."""
    if n < 1:
        raise ValueError("need at least one shot")
    rng = np.random.default_rng(seed)
    excited = rng.random(n) < mix.w_e
    means = np.where(excited, mix.mu_e, mix.mu_g)
    return means + mix.sigma * rng.standard_normal(n)


def midpoint_threshold(mix: GaussianMixture) -> float:
    return (mix.mu_g + mix.mu_e) / 2


def preselect_threshold(mix: GaussianMixture, n_sigmas: float) -> float:
    """Conservative boundary n_sigmas above the ground mean."""
    return mix.mu_g + n_sigmas * mix.sigma


def assigned_fraction(shots: np.ndarray, q_star: float) -> float:
    """Fraction of shots above q_star: those assigned to the excited state,
    or, at a preselection threshold, those the heralding cut discards."""
    return float(np.mean(shots > q_star))


def histogram_shots(shots: np.ndarray, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """(bin_centers, counts): n_bins uniform bins over mean +- SPAN_SIGMAS
    standard deviations."""
    center = shots.mean()
    half = SPAN_SIGMAS * shots.std()
    edges = np.linspace(center - half, center + half, n_bins + 1)
    counts, _ = np.histogram(shots, bins=edges)
    return (edges[:-1] + edges[1:]) / 2, counts.astype(float)


def _mixture_counts(q, total, bin_width, mu_g, mu_e, sigma, w_e):
    norm = total * bin_width / (sigma * np.sqrt(2 * np.pi))
    g = np.exp(-((q - mu_g) ** 2) / (2 * sigma**2))
    e = np.exp(-((q - mu_e) ** 2) / (2 * sigma**2))
    return norm * ((1 - w_e) * g + w_e * e)


def _mixture_jac(q, total, bin_width, mu_g, mu_e, sigma, w_e):
    """Derivatives of _mixture_counts in (mu_g, mu_e, sigma, w_e), one
    column each, for sigma > 0."""
    norm = total * bin_width / (sigma * np.sqrt(2 * np.pi))
    zg = (q - mu_g) / sigma
    ze = (q - mu_e) / sigma
    g = norm * np.exp(-(zg**2) / 2)
    e = norm * np.exp(-(ze**2) / 2)
    gw = (1 - w_e) * g
    ew = w_e * e
    return np.column_stack(
        [gw * zg / sigma, ew * ze / sigma, (gw * (zg**2 - 1) + ew * (ze**2 - 1)) / sigma, e - g]
    )


def _initial_guess(q: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Peak-seeking start values (mu_g, mu_e, sigma, w_e).

    The main peak's half-maximum width estimates the component sigma; a
    second peak is searched outside a 3-sigma exclusion zone. Without
    evidence for one, the start weight is ~0 so single-component data
    converges to a vanishing excited fraction instead of a split weight.
    """
    i1 = int(np.argmax(counts))
    half = counts[i1] / 2
    left = i1
    while left > 0 and counts[left] > half:
        left -= 1
    right = i1
    while right < len(q) - 1 and counts[right] > half:
        right += 1
    fwhm = max(q[right] - q[left], 2 * (q[1] - q[0]))
    sigma0 = fwhm / 2.355
    outside = np.abs(q - q[i1]) > 3 * sigma0
    if np.any(outside) and counts[outside].max() > 0.05 * counts[i1]:
        i2 = np.flatnonzero(outside)[np.argmax(counts[outside])]
        mu_a, mu_b = q[i1], q[i2]
        near_b = np.abs(q - mu_b) <= 3 * sigma0
        w_b = min(max(counts[near_b].sum() / counts.sum(), 0.01), 0.99)
        if mu_a <= mu_b:
            return np.array([mu_a, mu_b, sigma0, w_b])
        return np.array([mu_b, mu_a, sigma0, 1.0 - w_b])
    return np.array([q[i1], q[i1] + 6 * sigma0, sigma0, 1e-3])


def fit_double_gaussian(q: np.ndarray, counts: np.ndarray) -> DoubleGaussianFit:
    """Common-width double-Gaussian least-squares fit to counts binned on the
    uniform bin centers q.

    Residuals are scaled by the Poisson noise of each bin so the parameter
    standard errors are calibrated.
    """
    if len(q) < 20:
        raise ValueError("need at least 20 bins")
    total = float(counts.sum())
    if total < 100:
        raise ValueError("need at least 100 counts")
    width = float(q[1] - q[0])
    weights = counts / total
    mean = float(np.sum(weights * q))
    std = float(np.sqrt(np.sum(weights * (q - mean) ** 2)))
    noise = np.sqrt(counts + 1.0)

    def residuals(p):
        return (_mixture_counts(q, total, width, *p) - counts) / noise

    def jac(p):
        return _mixture_jac(q, total, width, *p) / noise[:, None]

    x0 = _initial_guess(q, counts)
    lower = [q[0] - std, q[0] - std, 1e-6 * std, 0.0]
    upper = [q[-1] + std, q[-1] + std, 2 * std + 1e-9, 1.0]
    result = _lsq(residuals, x0, jac, bounds=(lower, upper), max_nfev=2000)
    if not result.success:
        raise FitError(f"double-Gaussian fit failed (final cost {result.cost:.3e})")
    mu_g, mu_e, sigma, w_e = result.x
    model = _mixture_counts(q, total, width, mu_g, mu_e, sigma, w_e)
    rss = float(np.sum((model - counts) ** 2))
    try:
        cov = np.linalg.inv(result.jac.T @ result.jac)
        err = np.sqrt(np.maximum(np.diag(cov), 0.0))
    except np.linalg.LinAlgError:
        err = np.full(4, np.nan)
    stderr = dict(zip(("mu_g", "mu_e", "sigma", "w_e"), err.tolist()))
    if mu_e < mu_g:  # enforce the g-below-e labeling
        mu_g, mu_e, w_e = mu_e, mu_g, 1.0 - w_e
        stderr["mu_g"], stderr["mu_e"] = stderr["mu_e"], stderr["mu_g"]
    mixture = GaussianMixture(float(mu_g), float(mu_e), float(sigma), float(w_e))
    return DoubleGaussianFit(mixture, stderr, rss)


def overlap_error(mix: GaussianMixture) -> float:
    """Misassignment probability of the midpoint threshold at equal weights.

    erfc(d / (2 sqrt(2) sigma)) / 2 with d the separation of the means.
    """
    d = mix.mu_e - mix.mu_g
    return 0.5 * math.erfc(d / (2 * math.sqrt(2) * mix.sigma))


def assignment_fidelity(eps_ge: float, eps_eg: float) -> float:
    """Readout fidelity 1 - P(g|e) - P(e|g)."""
    for x in (eps_ge, eps_eg):
        if not 0 <= x <= 1:
            raise ValueError("error rates must lie in [0, 1]")
    return 1.0 - eps_ge - eps_eg
