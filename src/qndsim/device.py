"""Static device physics: parameters, dispersive shift, dressed frequencies,
and the state-dependent reflection spectrum realizing the controlled phase.

All frequencies are linear (MHz); angular factors of 2*pi are applied
internally where rates combine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import Checked, number

TWO_PI = 2.0 * np.pi

# A config spelling out nu_ef in decimal can miss the binary sum
# nu_ge + alpha by an ulp; anything further off is a contradiction.
NU_EF_RTOL = 1e-12

# Half-width, in MHz, of the band around nu_ef that phase_difference_spectrum
# accepts; the config checks sweeps.nu_mhz against it at load time.
SPECTRUM_HALF_SPAN_MHZ = 500.0


@dataclass
class DeviceParams(Checked):
    """Measured device frequencies, rates and error parameters.

    Frequencies and rates in MHz, times in microseconds, the rest are
    dimensionless fractions.
    """

    nu_ge: float = number(6475.0)
    nu_ef: float | None = number(None)  # derived as nu_ge + alpha when omitted
    alpha: float = number(-340.0)
    g0: float = number(40.0, ge=0)
    kappa: float = number(19.0, gt=0)
    gamma_source: float = number(1.77, gt=0)  # calibration.steady_population divides by it
    T1: float = number(3.0, gt=0)
    T2_star: float = number(1.8, gt=0)
    loss_L: float = number(0.25, ge=0, lt=1)  # loss_deconvolution divides by 1 - L
    eps_ge: float = number(0.063, ge=0, le=1)
    eps_eg: float = number(0.022, ge=0, le=1)
    p_thermal: float = number(0.06, ge=0, le=1)  # the readout mixture's excited weight
    delta_qc: float = number(-676.0)

    def __post_init__(self):
        super().__post_init__()
        nu_ef = self.nu_ge + self.alpha
        if self.nu_ef is None:
            self.nu_ef = nu_ef
        elif not math.isclose(self.nu_ef, nu_ef, rel_tol=NU_EF_RTOL):
            raise ValueError(f"nu_ef must equal nu_ge + alpha = {nu_ef!r}")
        if not self.eps_ge + self.eps_eg < 1:
            raise ValueError("readout error rates must sum below 1")
        if self.T2_star > 2 * self.T1:
            raise ValueError("T2_star cannot exceed 2*T1")


def dispersive_shift(alpha: float, g: float, delta: float) -> float:
    """Transmon dispersive pull chi = alpha g^2 / (delta (delta - alpha)), MHz."""
    if delta == 0 or delta == alpha:
        raise ValueError(
            "dispersive formula invalid at delta=0 or delta=alpha (resonant)"
        )
    return alpha * g**2 / (delta * (delta - alpha))


def dressed_frequencies(params: DeviceParams, n: int) -> tuple[float, float]:
    """Split resonances of the n-photon manifold: nu_ef -/+ sqrt(n)*sqrt(2)*g0."""
    if n < 1:
        raise ValueError("manifold index must be a positive integer")
    split = np.sqrt(n) * np.sqrt(2.0) * params.g0
    return params.nu_ef - split, params.nu_ef + split


def reflection_coefficient(
    params: DeviceParams,
    nu: float | np.ndarray,
    qubit_state: str,
    gamma_atom: float,
) -> complex | np.ndarray:
    """Single-port reflection r(nu) = 1 - kappa*D_a / (D_c*D_a + g_eff^2).

    D_c = i(nu_c - nu) + kappa/2 and D_a = i(nu_a - nu) + gamma_atom/2 in
    angular units, with nu_a = nu_c = nu_ef. Qubit in g leaves a bare
    cavity (g_eff = 0); qubit in e couples the e-f transition with
    g_eff = sqrt(2)*g0.
    """
    if qubit_state not in ("g", "e"):
        raise ValueError("qubit_state must be 'g' or 'e'")
    if gamma_atom < 0:
        raise ValueError("gamma_atom must be non-negative")
    scalar = np.ndim(nu) == 0
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    det = TWO_PI * (params.nu_ef - nu)
    d_cav = 1j * det + TWO_PI * params.kappa / 2
    g_eff_sq = 2 * (TWO_PI * params.g0) ** 2 if qubit_state == "e" else 0.0
    if g_eff_sq == 0:
        # bare cavity, also where the coupling underflows: the atomic factor
        # cancels (removable 0/0 on resonance)
        r = 1 - TWO_PI * params.kappa / d_cav
    else:
        d_atom = 1j * det + TWO_PI * gamma_atom / 2
        r = 1 - TWO_PI * params.kappa * d_atom / (d_cav * d_atom + g_eff_sq)
    return complex(r[0]) if scalar else r


def wrap_phase(phi: float | np.ndarray) -> float | np.ndarray:
    """Wrap angles to (-pi, pi], with the branch point mapped to +pi."""
    w = np.mod(np.asarray(phi) + np.pi, 2 * np.pi) - np.pi
    w = np.where(w == -np.pi, np.pi, w)
    return float(w) if w.ndim == 0 else w


def phase_difference_spectrum(
    params: DeviceParams,
    grid: np.ndarray,
    gamma_atom: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reflection coefficients r_g, r_e and the conditional-phase contrast
    delta_phi = |arg r_g - arg r_e| across a frequency grid.

    The signed wrapped difference is odd about the cavity frequency (the two
    reflection responses conjugate under nu -> 2*nu_ef - nu), so delta_phi
    is its magnitude, in [0, pi]; the full signed information stays
    available in r_g and r_e.
    """
    grid = np.asarray(grid, dtype=float)
    if np.any(np.abs(grid - params.nu_ef) > SPECTRUM_HALF_SPAN_MHZ):
        raise ValueError(f"grid must stay within +-{SPECTRUM_HALF_SPAN_MHZ:g} MHz of nu_ef")
    r_g = reflection_coefficient(params, grid, "g", gamma_atom)
    r_e = reflection_coefficient(params, grid, "e", gamma_atom)
    delta_phi = np.abs(wrap_phase(np.angle(r_g) - np.angle(r_e)))
    return r_g, r_e, delta_phi


def count_pi_crossings(r_g: np.ndarray, r_e: np.ndarray) -> int:
    """Number of grid intervals where the conditional phase passes through pi.

    The continuous phase difference equals pi exactly where the product
    r_g * conj(r_e) crosses the negative real axis, so crossings are sign
    changes of its imaginary part with a negative real part.
    """
    ratio = np.asarray(r_g) * np.conj(r_e)
    im_neg = ratio.imag < 0
    flips = im_neg[:-1] != im_neg[1:]
    on_negative_axis = (ratio.real[:-1] < 0) & (ratio.real[1:] < 0)
    return int(np.sum(flips & on_negative_axis))
