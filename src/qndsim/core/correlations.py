"""Two-time correlators via the quantum regression theorem, and their spectra."""

from __future__ import annotations

import numpy as np

from ..errors import TruncationError
from .dynamics import LindbladModel, _evolve_matrix, lindblad_rhs
from .operators import check_states

STATIONARITY_TOL = 1e-8
DECAY_FRACTION = 1e-4


def two_time_correlation(
    model: LindbladModel,
    rho_ss: np.ndarray,
    a_op: np.ndarray,
    b_op: np.ndarray,
    tau_grid: np.ndarray,
    require_stationary: bool = True,
) -> np.ndarray:
    """Stationary correlator <A(tau) B(0)> on tau_grid, one value per lag.

    Regression: propagate B rho under the Liouvillian and trace against A at
    each lag. With require_stationary=False the initial state may be any
    valid density matrix, giving the transient correlator seeded by it.
    """
    d = model.dim
    if np.shape(a_op) != (d, d) or np.shape(b_op) != (d, d):
        raise ValueError("operator shape does not match the model")
    rho_ss = check_states(rho_ss, d)
    if require_stationary:
        residual = np.max(np.abs(lindblad_rhs(model, rho_ss)))
        if residual > STATIONARITY_TOL:
            raise ValueError(
                f"state is not stationary (rhs max {residual:.3e} > {STATIONARITY_TOL})"
            )
    tau_grid = np.asarray(tau_grid, dtype=float)
    seeded = _evolve_matrix(model, b_op @ rho_ss, tau_grid)
    return np.einsum("ij,tji->t", a_op, seeded)


def psd(corr: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """(freqs, spectrum): one-sided symmetrized power spectral density of a
    decayed correlator sampled at lags 0, dt, 2 dt, ...

    S(delta) = 2 Re integral_0^inf corr(tau) exp(-i 2 pi delta tau) dtau
    with delta in MHz, so a correlator rotating as exp(+i 2 pi f tau) peaks
    at +f and the integral of S over delta equals the tau=0 value of the
    correlator (discrete Parseval holds exactly).
    """
    values = np.asarray(corr, dtype=complex)
    peak = np.abs(values[0])
    if peak > 0 and np.abs(values[-1]) > DECAY_FRACTION * peak:
        raise TruncationError(
            "correlator has not decayed to 1e-4 of its initial value at the "
            "grid end; extend the tau grid"
        )
    n = len(values)
    # Trapezoid endpoint correction: the half-weight at tau=0 keeps the
    # transform of a sampled decaying exponential non-negative.
    transform = np.fft.fft(values) - values[0] / 2
    spectrum = np.fft.fftshift(2.0 * dt * transform.real)
    freqs = np.fft.fftshift(np.fft.fftfreq(n, d=dt))
    return freqs, spectrum
