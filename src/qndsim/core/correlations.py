"""Two-time correlators via the quantum regression theorem, and their spectra."""

from __future__ import annotations

import numpy as np

from ..errors import TruncationError
from .dynamics import LindbladModel, _evolve_matrix, _mm
from .operators import check_states

DECAY_FRACTION = 1e-4


def two_time_correlation(
    model: LindbladModel,
    rho0: np.ndarray,
    a_op: np.ndarray,
    b_op: np.ndarray,
    tau_grid: np.ndarray,
) -> np.ndarray:
    """Correlator <A(tau) B(0)> seeded by the state rho0, one value per lag
    of tau_grid.

    Regression: propagate B rho0 under the Liouvillian and trace against A
    at each lag. rho0 may be any valid density matrix: the steady state
    gives the stationary correlator, any other state the transient one.
    """
    d = model.dim
    if np.shape(a_op) != (d, d) or np.shape(b_op) != (d, d):
        raise ValueError("operator shape does not match the model")
    rho0 = check_states(rho0, d)
    tau_grid = np.asarray(tau_grid, dtype=float)
    seeded = _evolve_matrix(model, _mm(b_op, rho0), tau_grid)
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
