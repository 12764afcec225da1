"""Phenomenological error model of the Ramsey-based photon detection protocol.

Three independently characterized error sources enter: the finite Ramsey
coherence of the detection qubit, the photon loss between source and
detector, and the part of the photon envelope cut off by the closing pulse.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .device import DeviceParams
from .domain import Checked, number

TWO_PI = 2.0 * math.pi

RAMSEY_LAWS = ("exponential", "gaussian")

# optimal_window searches window lengths in this range, in microseconds
WINDOW_BOUNDS_US = (0.03, 1.5)


@dataclass
class ProtocolConfig(Checked):
    """Detection window, photon preparation angle and emission parameters.

    Tw and t0 in microseconds, theta in radians, gamma_photon in MHz.
    """

    Tw: float = number(0.250, gt=0)
    theta: float = number(math.pi, ge=0, le=math.pi)
    t0: float = number(0.020, ge=0)  # _click_probs assumes the packet starts inside the window
    gamma_photon: float = number(1.77, gt=0)
    ramsey_law: str = "exponential"

    def __post_init__(self):
        super().__post_init__()
        if self.ramsey_law not in RAMSEY_LAWS:
            raise ValueError(f"ramsey_law must be one of {RAMSEY_LAWS}")

    def with_window(self, window_us: float) -> "ProtocolConfig":
        return replace(self, Tw=window_us)


@dataclass
class DetectionProbs:
    """Detection efficiency, dark count, and the derived figures of merit;
    scalars for one window, arrays over a grid of windows."""

    p_e_given_1: float | np.ndarray
    p_e_given_0: float | np.ndarray
    fidelity: float | np.ndarray
    ratio: float | np.ndarray

    @classmethod
    def from_probs(cls, p_e_given_1, p_e_given_0) -> "DetectionProbs":
        p1, p0 = np.asarray(p_e_given_1), np.asarray(p_e_given_0)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(p0 > 0, p1 / p0, math.inf)[()]
        return cls(p_e_given_1, p_e_given_0, p_e_given_1 - p_e_given_0, ratio)


def ramsey_coherence(Tw: float | np.ndarray, T2_star: float, law: str) -> float | np.ndarray:
    """Remaining Ramsey fringe contrast after a free evolution of Tw."""
    Tw = np.asarray(Tw, dtype=float)
    if np.any(Tw < 0):
        raise ValueError("window length must be non-negative")
    if law == "exponential":
        return np.exp(-Tw / T2_star)
    if law == "gaussian":
        return np.exp(-((Tw / T2_star) ** 2))
    raise ValueError(f"unknown ramsey law {law!r}")


def _click_probs(
    tw: float | np.ndarray, cfg: ProtocolConfig, params: DeviceParams
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """(P(e|1), P(e|0)) at window length tw, with cfg's other parameters.

    A captured photon (probability p_int = (1-L) * capture) flips the Ramsey
    phase, succeeding with the coherence-limited probability (1+C)/2; a lost
    or uncaptured photon leaves the interferometer undisturbed and the
    outcome reverts to dark-count statistics, P(e|0) = (1 - C) / 2. The
    envelope starts at t0, so a window that closes by then captures nothing
    and clicks at the dark count.
    """
    tw = np.asarray(tw, dtype=float)
    rate = TWO_PI * cfg.gamma_photon
    capture = 1.0 - np.exp(-rate * np.maximum(tw - cfg.t0, 0.0))
    p_int = (1.0 - params.loss_L) * capture
    c = ramsey_coherence(tw, params.T2_star, cfg.ramsey_law)
    p_dark = (1.0 - c) / 2.0
    return p_int * (1.0 + c) / 2.0 + (1.0 - p_int) * p_dark, p_dark


def fidelity_metrics(cfg: ProtocolConfig, params: DeviceParams) -> DetectionProbs:
    """Efficiency, dark count, fidelity F = P(e|1) - P(e|0) and their ratio."""
    return DetectionProbs.from_probs(*_click_probs(cfg.Tw, cfg, params))


def theta_sweep(
    cfg: ProtocolConfig, params: DeviceParams, theta_grid: np.ndarray
) -> np.ndarray:
    """Average click probability at each preparation angle of theta_grid.

    P_e(theta) = P(e|0) + (P(e|1) - P(e|0)) sin^2(theta/2), tracking the
    mean photon number of the prepared superposition.
    """
    theta_grid = np.asarray(theta_grid, dtype=float)
    if np.any((theta_grid < 0) | (theta_grid > math.pi)):
        raise ValueError("theta grid must lie in [0, pi]")
    probs = fidelity_metrics(cfg, params)
    return probs.p_e_given_0 + probs.fidelity * np.sin(theta_grid / 2) ** 2


def window_sweep(
    cfg: ProtocolConfig, params: DeviceParams, windows: np.ndarray
) -> DetectionProbs:
    """fidelity_metrics' figures across a grid of window lengths, as arrays."""
    windows = np.asarray(windows, dtype=float)
    return DetectionProbs.from_probs(*_click_probs(windows, cfg, params))


def optimal_window(cfg: ProtocolConfig, params: DeviceParams, objective: str) -> float:
    """Window length in WINDOW_BOUNDS_US maximizing P(e|1) (objective
    "efficiency") or F ("fidelity"), by golden-section search. A window that
    closes by the emission delay t0 has F = 0 and P(e|1) at the dark count,
    so the search climbs out of that flat stretch; with t0 at or past the top
    of the range, F vanishes on all of it and there is no optimum."""
    if objective not in ("efficiency", "fidelity"):
        raise ValueError("objective must be 'efficiency' or 'fidelity'")
    if cfg.t0 >= WINDOW_BOUNDS_US[1]:
        raise ValueError(
            f"emission delay t0 = {cfg.t0:g} us leaves no window in the search "
            f"range {WINDOW_BOUNDS_US} us"
        )

    def score(tw: float) -> float:
        p1, p0 = _click_probs(tw, cfg, params)
        return p1 if objective == "efficiency" else p1 - p0

    return _golden_section_max(score, *WINDOW_BOUNDS_US)


def _golden_section_max(func, lo: float, hi: float, tol: float = 1e-9) -> float:
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = func(c), func(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = func(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = func(d)
    return (a + b) / 2.0


def readout_composition(p_true: float, eps_ge: float, eps_eg: float) -> float:
    """Measured excited fraction after asymmetric assignment errors."""
    for x in (p_true, eps_ge, eps_eg):
        if not 0 <= x <= 1:
            raise ValueError("probabilities must lie in [0, 1]")
    return p_true * (1.0 - eps_ge) + (1.0 - p_true) * eps_eg


def loss_deconvolution(p_g_given_1: float, loss: float) -> float:
    """Internal miss probability once line losses are accounted for.

    P_in(g|1) = (P(g|1) - L) / (1 - L), clamped at 0 when the raw miss
    probability is entirely explained by loss.
    """
    if not 0 <= loss < 1:
        raise ValueError("loss must lie in [0, 1)")
    if not 0 <= p_g_given_1 <= 1:
        raise ValueError("probability must lie in [0, 1]")
    if p_g_given_1 < loss:
        warnings.warn("miss probability below the loss floor; clamping to 0")
        return 0.0
    return (p_g_given_1 - loss) / (1.0 - loss)


def internal_fidelity(p_in_g_given_1: float, p_e_given_0: float) -> float:
    """Loss-corrected detector figure of merit: 1 - P_in(g|1) - P(e|0)."""
    for x in (p_in_g_given_1, p_e_given_0):
        if not 0 <= x <= 1:
            raise ValueError("probabilities must lie in [0, 1]")
    return 1.0 - p_in_g_given_1 - p_e_given_0
