"""Power and loss calibration: driven-atom fluorescence spectra as a
calibrated flux source, AC-Stark photon-number calibration of the detector
cavity, and the loss budget connecting the two.

Powers are carried as photon fluxes (photons/us).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core._smallmat import lu_solve
from .core.dynamics import LindbladModel, liouvillian_matrix, steady_state
from .core.operators import destroy, pauli
from .device import DeviceParams, dispersive_shift
from .errors import FitError
from .fitting import _lsq

TWO_PI = 2.0 * math.pi


@dataclass
class LossBudget:
    total_additive: float
    total_multiplicative: float


def driven_atom_model(omega_ang: float, gamma_ang: float) -> LindbladModel:
    """Resonantly driven two-level emitter in the frame of the drive.

    H = (Omega/2) sigma_x with radiative decay at Gamma; rates in rad/us.
    """
    return LindbladModel(omega_ang / 2 * pauli("x"), [math.sqrt(gamma_ang) * destroy(2)])


def steady_population(omega: float, gamma: float) -> float:
    """Excited-state population of the driven emitter at resonance.

    n_q = Omega^2 / (2 Omega^2 + Gamma^2); any consistent rate units.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return omega**2 / (2 * omega**2 + gamma**2)


def mollow_spectrum(omega_ratio: float, gamma: float, grid: np.ndarray) -> np.ndarray:
    """Inelastic fluorescence flux density vs detuning (MHz) at drive
    Omega = omega_ratio * Gamma, evaluated exactly at each grid point.

    The stationary spectrum from the Liouvillian's resolvent at w = 2 pi delta,
    scaled by Gamma to photons/us per MHz:

        S(delta) = Gamma 2 Re Tr[sigma+ (iw - L + |rho_ss><1|)^-1 X],
        X = sigma- rho_ss - <sigma-> rho_ss,

    where subtracting <sigma-> rho_ss removes the coherent (elastic) part.
    The rank-one term |rho_ss><1| (<1| the trace) keeps w = 0 solvable and
    leaves every solution on the traceless X unchanged. One 4 x 4 system per
    detuning, solved by the stack LU of core._smallmat.
    """
    if omega_ratio <= 0:
        raise ValueError("drive ratio must be positive")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    grid = np.asarray(grid, dtype=float)
    omega_mhz = omega_ratio * gamma
    if grid.max() < 2 * omega_mhz or grid.min() > -2 * omega_mhz:
        raise ValueError("detuning grid must span at least +-2 Omega")
    gamma_ang = TWO_PI * gamma
    model = driven_atom_model(omega_ratio * gamma_ang, gamma_ang)
    rho_ss = steady_state(model)
    sm = destroy(2)
    sm_rho = np.einsum("ij,jk->ik", sm, rho_ss)
    seed = (sm_rho - np.trace(sm_rho) * rho_ss).reshape(-1)
    # vec(sigma-) is the row that traces a row-major vec(Z) against sigma+
    weight = sm.reshape(-1)
    base = np.outer(rho_ss.reshape(-1), np.eye(2).reshape(-1)) - liouvillian_matrix(model)
    n, delta = base.shape[0], grid.ravel()
    stack = np.repeat(base[:, :, None], delta.size, axis=2)
    stack[np.arange(n), np.arange(n)] += 1j * TWO_PI * delta
    z = lu_solve(stack, np.broadcast_to(seed[:, None], (n, delta.size)))
    return 2.0 * gamma_ang * np.einsum("k,kw->w", weight, z).real.reshape(grid.shape)


def inelastic_spectrum_model(
    omega_mhz: float | np.ndarray, gamma_mhz: float, grid: np.ndarray
) -> np.ndarray:
    """Closed-form inelastic spectrum of the resonantly driven emitter, used
    as the fit model (Mollow, Phys. Rev. 188, 1969 (1969)).

    2 Gamma Re Tr[sigma+ (iw - L)^-1 (sigma- rho_ss - <sigma-> rho_ss)] at
    w = 2 pi f reduces, with y = Omega^2/Gamma^2, x = w^2/Gamma^2 and
    s = 1 + 2y, to S = 8 y^2 (2 + y + 2x) / [s (1 + 4x) (4x^2 + (5 - 8y) x + s^2)].
    Its poles are the non-zero Liouvillian eigenvalues, -Gamma/2 and
    -3Gamma/4 +- sqrt(Gamma^2/16 - Omega^2), and it is regular at
    Omega = Gamma/4. mollow_spectrum evaluates the same resolvent; what
    stays independent is the route: there a Liouvillian built from
    operators, here a closed form derived by hand, which criterion 8 and
    the tests compare.

    omega_mhz broadcasts against grid: a column of drives and a stack of
    grids give one spectrum per row.
    """
    y = (omega_mhz / gamma_mhz) ** 2
    x = (np.asarray(grid, dtype=float) / gamma_mhz) ** 2
    s = 1.0 + 2.0 * y
    return 8.0 * y * y * (2.0 + y + 2.0 * x) / (
        s * (1.0 + 4.0 * x) * (4.0 * x * x + (5.0 - 8.0 * y) * x + s * s)
    )


def _inelastic_spectrum_derivs(omega_mhz, gamma_mhz, grid):
    """(S, dS/dOmega, dS/dGamma) of inelastic_spectrum_model, from the
    log-derivatives y dlnS/dy and x dlnS/dx of its closed form."""
    y = (omega_mhz / gamma_mhz) ** 2
    x = (np.asarray(grid, dtype=float) / gamma_mhz) ** 2
    s = 1.0 + 2.0 * y
    p = 2.0 + y + 2.0 * x
    q = 4.0 * x * x + (5.0 - 8.0 * y) * x + s * s
    spec = 8.0 * y * y * p / (s * (1.0 + 4.0 * x) * q)
    ly = 2.0 + y / p - 2.0 * y / s - y * (4.0 * s - 8.0 * x) / q
    lx = 2.0 * x / p - 4.0 * x / (1.0 + 4.0 * x) - x * (8.0 * x + 5.0 - 8.0 * y) / q
    return spec, 2.0 * ly * spec / omega_mhz, -2.0 * (ly + lx) * spec / gamma_mhz


@dataclass
class MollowFit:
    gain: float
    gamma: float
    omegas: list[float]


def _fluorescence_fit(grids, spectra, gamma_init, omegas0):
    """Least squares of gain * inelastic_spectrum_model over the stacked
    (ratio, detuning) arrays grids and spectra, with (gain, Gamma) shared and
    one Omega per row.

    The fit starts from the gain projecting the start-value model onto the
    data, with each rate bounded to [0.2, 5] times its start value and the
    gain to at least 1e-6 times its start value."""
    rows = np.arange(len(grids))
    targets = spectra.ravel()

    def residuals(p):
        return p[0] * inelastic_spectrum_model(p[2:, None], p[1], grids).ravel() - targets

    def jac(p):
        spec, d_omega, d_gamma = _inelastic_spectrum_derivs(p[2:, None], p[1], grids)
        out = np.zeros((*grids.shape, p.size))
        out[..., 0] = spec
        out[..., 1] = p[0] * d_gamma
        out[rows, :, 2 + rows] = p[0] * d_omega
        return out.reshape(targets.size, p.size)

    base = inelastic_spectrum_model(np.asarray(omegas0)[:, None], gamma_init, grids).ravel()
    gain0 = float(base @ targets / (base @ base))
    if not gain0 > 0:
        raise FitError(f"fluorescence data project onto a non-positive gain ({gain0:.3e})")
    x0 = np.array([gain0, gamma_init, *omegas0])
    lower = np.array([1e-6 * gain0, 0.2 * gamma_init, *(0.2 * om for om in omegas0)])
    upper = np.array([np.inf, 5.0 * gamma_init, *(5.0 * om for om in omegas0)])
    return _lsq(residuals, x0, jac, bounds=(lower, upper), x_scale=np.abs(x0))


def fit_mollow(
    drive_ratios: list[float], grids: np.ndarray, spectra: np.ndarray, gamma_init: float
) -> MollowFit:
    """Joint fit of the (ratio, detuning) arrays grids and spectra, one row
    per drive ratio, sharing (gain, Gamma) with one Omega each."""
    if len(spectra) < 3:
        raise ValueError("need at least three spectra for the joint fit")
    if len(drive_ratios) != len(spectra):
        raise ValueError("one spectrum per drive ratio required")
    if np.shape(grids) != np.shape(spectra):
        raise ValueError("grids and spectra must have the same shape")
    result = _fluorescence_fit(grids, spectra, gamma_init, [r * gamma_init for r in drive_ratios])
    if not result.success:
        raise FitError(f"joint fluorescence fit failed (final cost {result.cost:.3e})")
    return MollowFit(
        gain=float(result.x[0]),
        gamma=float(result.x[1]),
        omegas=[float(v) for v in result.x[2:]],
    )


def true_mollow_spectrum(
    ratio: float, gamma: float, span: float, points: int
) -> tuple[np.ndarray, np.ndarray]:
    """(grid, spectrum): the inelastic spectrum on the symmetric grid of
    points detunings over +-span*Omega."""
    half = span * ratio * gamma
    grid = np.linspace(-half, half, points)
    return grid, mollow_spectrum(ratio, gamma, grid)


def synthetic_mollow_dataset(
    spectra: np.ndarray, gain: float, noise_frac: float, seed: int
) -> np.ndarray:
    """Measured-looking spectra, one row per true spectrum: scaled by a chain
    gain with multiplicative Gaussian noise, clipped at zero."""
    rng = np.random.default_rng(seed)
    measured = gain * spectra * (1.0 + noise_frac * rng.standard_normal(spectra.shape))
    return np.maximum(measured, 0.0)


def fit_satellite_drive(
    grid: np.ndarray, spectrum: np.ndarray, gamma_init: float, omega_init: float
) -> float:
    """Drive rate (MHz) setting the satellite detunings, by a resonance fit.

    The apparent satellite maxima of the summed spectrum are pulled toward
    the carrier by the overlapping central peak, so the satellite location
    is extracted the way spectroscopy does it: fitting the full inelastic
    lineshape with (gain, Gamma, Omega) free.
    """
    result = _fluorescence_fit(
        np.atleast_2d(grid), np.atleast_2d(spectrum), gamma_init, [omega_init]
    )
    if not result.success:
        raise FitError("single-spectrum resonance fit failed")
    return float(result.x[2])


def fit_lorentzian(axis: np.ndarray, values: np.ndarray) -> tuple[float, float, float]:
    """(center, fwhm, height) of a single-peak spectrum by least squares."""
    i0 = int(np.argmax(values))
    height0 = values[i0]
    above = values > height0 / 2
    fwhm0 = max(
        float(axis[above][-1] - axis[above][0]), 2 * float(axis[1] - axis[0])
    )

    def residuals(p):
        center, fwhm, height = p
        return height * (fwhm / 2) ** 2 / ((axis - center) ** 2 + (fwhm / 2) ** 2) - values

    def jac(p):
        center, fwhm, height = p
        offset = axis - center
        den = offset**2 + (fwhm / 2) ** 2
        shape = (fwhm / 2) ** 2 / den
        return np.column_stack(
            [2 * height * shape * offset / den, height * (fwhm / 2) * offset**2 / den**2, shape]
        )

    result = _lsq(residuals, np.array([axis[i0], fwhm0, height0]), jac)
    if not result.success:
        raise FitError("Lorentzian fit failed")
    center, fwhm, height = result.x
    return float(center), float(abs(fwhm)), float(height)


@dataclass
class StarkFit:
    slope: float  # MHz per power unit
    intercept: float  # zero-power qubit frequency, MHz
    slope_err: float

    def photons_at(self, p_in: float | np.ndarray, chi: float) -> float | np.ndarray:
        """Photon number inferred from the fitted shift: (nu_q - nu_q0)/(2 chi)."""
        return self.slope * p_in / (2.0 * chi)


def stark_fit(p_in: np.ndarray, nu_q: np.ndarray) -> StarkFit:
    """Ordinary least-squares line through the power-shift data."""
    if len(p_in) < 3:
        raise ValueError("need at least three calibration points")
    if np.ptp(p_in) == 0:
        raise ValueError("all input powers equal; the line is undetermined")
    x = np.column_stack([p_in, np.ones_like(p_in)])
    coef, *_ = np.linalg.lstsq(x, nu_q, rcond=None)
    resid = nu_q - x @ coef
    sigma2 = float(resid @ resid) / (len(p_in) - 2)
    cov = sigma2 * np.linalg.inv(x.T @ x)
    return StarkFit(
        slope=float(coef[0]), intercept=float(coef[1]), slope_err=float(np.sqrt(cov[0, 0]))
    )


def synthetic_stark_dataset(
    chi: float,
    nu_q0: float,
    photons_per_unit: float,
    p_max: float,
    n_points: int,
    noise_mhz: float,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(p_in, nu_q): linear Stark data nu_q = nu_q0 + 2 chi n_p with
    n_p = c * P_in."""
    rng = np.random.default_rng(seed)
    p_in = np.linspace(0.0, p_max, n_points)
    nu_q = nu_q0 + 2.0 * chi * photons_per_unit * p_in
    return p_in, nu_q + noise_mhz * rng.standard_normal(n_points)


def extract_loss(g_s: float, g_d: float) -> float:
    """Line loss between source and detector: L = 1 - G_s / G_d."""
    if g_d <= 0:
        raise ValueError("detector-chain gain must be positive")
    if g_s > g_d:
        warnings.warn("source gain exceeds detector gain; negative loss is unphysical")
    return 1.0 - g_s / g_d


def loss_budget(components: dict[str, float]) -> LossBudget:
    """Additive and multiplicative totals of the itemized losses, by name."""
    for name, frac in components.items():
        if not 0 <= frac < 1:
            raise ValueError(f"loss fraction for {name!r} must lie in [0, 1)")
    additive = float(sum(components.values()))
    transmitted = 1.0
    for f in components.values():
        transmitted *= 1.0 - f
    return LossBudget(additive, 1.0 - transmitted)


def loss_calibration_roundtrip(
    params: DeviceParams,
    drive_ratios: list[float],
    grids: np.ndarray,
    spectra: np.ndarray,
    detector_gain: float,
    noise_frac: float,
    seed: int,
    photons_per_unit: float,
    p_max: float,
    n_stark_points: int,
) -> dict[str, float]:
    """End-to-end synthetic extraction of the line loss params.loss_L from
    the source's true spectra on their grids, one row of each per drive ratio.

    The source side is calibrated by the joint fluorescence fit (recovering
    G_s = (1-L) G_d); the detector side by the Stark photon-number meter
    plus the known cavity linewidth (recovering G_d); the loss follows from
    the gain ratio.
    """
    g_d_true = detector_gain
    g_s_true = (1.0 - params.loss_L) * g_d_true
    dataset = synthetic_mollow_dataset(spectra, g_s_true, noise_frac, seed)
    g_s_est = fit_mollow(drive_ratios, grids, dataset, params.gamma_source).gain

    chi = dispersive_shift(params.alpha, params.g0, params.delta_qc)
    rng = np.random.default_rng(seed + 1)
    p_in, nu_q = synthetic_stark_dataset(
        chi,
        params.nu_ge,
        photons_per_unit,
        p_max,
        n_stark_points,
        noise_mhz=noise_frac * abs(2 * chi * photons_per_unit * p_max),
        seed=seed + 2,
    )
    fit = stark_fit(p_in, nu_q)
    p_in = p_in[1:]  # zero-power point carries no gain information
    n_p_true = photons_per_unit * p_in
    n_p_est = fit.photons_at(p_in, chi)
    measured = g_d_true * TWO_PI * params.kappa * n_p_true
    measured = measured * (1.0 + noise_frac * rng.standard_normal(measured.size))
    expected = TWO_PI * params.kappa * n_p_est
    g_d_est = float(measured @ expected / (expected @ expected))
    loss_est = extract_loss(g_s_est, g_d_est)
    return {
        "g_s_true": g_s_true,
        "g_s_est": g_s_est,
        "g_d_true": g_d_true,
        "g_d_est": g_d_est,
        "loss_true": params.loss_L,
        "loss_est": loss_est,
    }
