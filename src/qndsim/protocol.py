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
from .domain import Checked, DomainError, number

TWO_PI = 2.0 * math.pi

RAMSEY_LAWS = ("exponential", "gaussian")


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
            raise DomainError(
                "ramsey_law", f"must be one of {RAMSEY_LAWS}, got {self.ramsey_law!r}"
            )

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
        # a ratio past the float range squares to inf, and C to its limit 0
        with np.errstate(over="ignore"):
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


def optimal_window(cfg: ProtocolConfig, params: DeviceParams, objective: str) -> float | None:
    """Window length maximizing P(e|1) (objective "efficiency") or F
    ("fidelity"); None where P(e|1) has no maximum, at loss_L >= 1/2.

    Write G = 2 pi gamma_photon, T2 = T2_star, L = loss_L, s = T - t0 and
    x = exp(-G s) for a window T past the emission, so that F = (1-L)(1-x)C
    and P(e|1) = (1-C)/2 + (1-L)(1-x)C. Up to t0, F = 0 and P(e|1) = (1-C)/2
    rises, so each maximum lies after t0.

    Exponential law, C = exp(-T/T2): d ln F/dT = G x/(1-x) - 1/T2 vanishes
    at x = 1/(1 + G T2), and dP(e|1)/dT at x* = (1/2 - L)/((1-L)(1 + G T2)),
    so T_F = t0 + ln(1 + G T2)/G and T_E = t0 - ln(x*)/G = T_c + T_F - t0,
    with T_c below.

    Gaussian law, C = exp(-(T/T2)^2), by bisection on the derivative's sign:
    - fidelity: d ln F/dT = G x/(1-x) - 2T/T2^2. The first term falls from
      +inf and the second rises, so there is one root. As e^y - 1 >= y, the
      first term is at most 1/s, which puts the root in
      (t0, (t0 + sqrt(t0^2 + 2 T2^2))/2].
    - efficiency: dP(e|1)/dT = C h with h = (1-L) G x + (T/T2^2) m and
      m = 1 - 2(1-L)(1-x), which falls monotonically from 1 to 2L - 1. So
      h > 0 until x_c = 1 - 1/(2(1-L)), and after that both terms of h fall
      strictly, to -inf when L < 1/2: one root, past T_c = t0 - ln(x_c)/G.
      The bracket's top doubles from T_c until h < 0.

    Where L >= 1/2, m >= 0 under either law, so h > 0 and P(e|1) rises toward
    1/2 with no maximum. Products with G multiply by gamma_photon first,
    each delay divides by G in two steps and ln G is a sum of logs, so that
    none passes the float range before the result does; an optimum past that
    range reads inf."""
    if objective not in ("efficiency", "fidelity"):
        raise ValueError("objective must be 'efficiency' or 'fidelity'")
    loss, t2, t0, gamma = params.loss_L, params.T2_star, cfg.t0, cfg.gamma_photon
    if objective == "efficiency":
        if loss >= 0.5:
            return None
        t_c = t0 + math.log((1.0 - loss) / (0.5 - loss)) / TWO_PI / gamma
    log_rate = math.log(TWO_PI) + math.log(gamma)
    if cfg.ramsey_law == "exponential":
        # ln(1 + y)/G as T2 ln(1 + y)/y with y = G T2, or from logs where y
        # passes the float range
        y = TWO_PI * (gamma * t2)
        if math.isinf(y):
            delay = (log_rate + math.log(t2)) / TWO_PI / gamma
        else:
            delay = t2 * (math.log1p(y) / y) if y > 0 else t2
        return t0 + delay if objective == "fidelity" else t_c + delay
    log_t2 = math.log(t2)

    if objective == "fidelity":

        def rising(t: float) -> bool:
            # ln(G x/(1-x)) against ln(2T/T2^2); G x/(1-x) -> 1/s where G s
            # underflows
            u = TWO_PI * (gamma * (t - t0))
            captured = -math.expm1(-u)
            if captured > 0.0:
                log_capture_rate = log_rate - u - math.log(captured)
            else:
                log_capture_rate = -math.log(t - t0)
            return log_capture_rate > math.log(2.0 * t) - 2 * log_t2

        return _bisect(rising, t0, t0 / 2 + math.hypot(t0 / 2, t2 / math.sqrt(2.0)))

    def rising(t: float) -> bool:
        # h > 0, as ln((1-L) G x T2^2) against ln(T (-m)) where m < 0;
        # -m = (1 - 2L) - 2(1-L)x keeps the digits of L near 1/2
        u = TWO_PI * (gamma * (t - t0))
        minus_m = (1.0 - 2.0 * loss) - 2.0 * (1.0 - loss) * math.exp(-u)
        if minus_m <= 0.0:
            return True
        return math.log(1.0 - loss) + log_rate - u + 2 * log_t2 > math.log(t) + math.log(minus_m)

    top = 2.0 * t_c
    while math.isfinite(top) and rising(top):
        top *= 2.0
    return _bisect(rising, t_c, top) if math.isfinite(top) else math.inf


def _bisect(rising, lo: float, hi: float) -> float:
    """The point of [lo, hi] where rising turns from True to False, halved
    until the midpoint equals an end: the float where the sign changes, with
    no tolerance to choose."""
    while True:
        mid = lo + (hi - lo) / 2.0
        if mid in (lo, hi):
            return mid
        if rising(mid):
            lo = mid
        else:
            hi = mid


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
