import ast
import inspect
import math
import textwrap

import numpy as np
import pytest
from scipy.integrate import quad

from qndsim.calibration import (
    driven_atom_model,
    extract_loss,
    fit_mollow,
    fit_satellite_drive,
    inelastic_spectrum_model,
    loss_budget,
    loss_calibration_roundtrip,
    mollow_spectrum,
    stark_fit,
    steady_population,
    synthetic_mollow_dataset,
    synthetic_stark_dataset,
    true_mollow_spectrum,
)
from qndsim.config import LossRunConfig, MollowRunConfig, StarkRunConfig
from qndsim.core import destroy, liouvillian_matrix, steady_state
from qndsim.device import DeviceParams, dispersive_shift
from qndsim.errors import FitError

GAMMA_MHZ = 1.77
GAMMA = 2 * math.pi * GAMMA_MHZ
PARAMS = DeviceParams()
RATIOS = [2.0, 4.0, 6.0]
MOLLOW = MollowRunConfig()
STARK = StarkRunConfig()


def true_spectrum(ratio):
    """The source's true spectrum on the configured mollow grid."""
    return true_mollow_spectrum(ratio, GAMMA_MHZ, MOLLOW.span, MOLLOW.points)


TRUE_GRIDS, TRUE_SPECTRA = map(np.array, zip(*(true_spectrum(r) for r in RATIOS)))


class TestMollowSpectrum:
    @pytest.mark.parametrize("ratio", [4.0, 6.0])
    def test_resolved_satellite_maxima(self, ratio):
        # satellites resolved from the carrier peak at -+Omega; at moderate
        # drive the carrier's tails pull them in, see the resonance fit
        nominal = ratio * GAMMA_MHZ
        grid, v = true_spectrum(ratio)
        interior = (v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])
        peaks = np.flatnonzero(interior) + 1
        for sign in (-1.0, 1.0):
            offset = sign * grid[peaks] / nominal
            side = peaks[(offset >= 0.3) & (offset <= 1.8)]
            assert side.size > 0, "no resolved satellite in the search window"
            satellite = sign * grid[side[np.argmax(v[side])]]
            assert abs(satellite - nominal) / nominal < 0.05

    @pytest.mark.parametrize("ratio", RATIOS)
    def test_satellites_by_resonance_fit(self, ratio):
        grid, spec = true_spectrum(ratio)
        nominal = ratio * GAMMA_MHZ
        fitted = fit_satellite_drive(grid, spec, GAMMA_MHZ, nominal)
        assert abs(fitted - nominal) / nominal < 0.05

    def test_weak_drive_single_peak(self):
        grid = np.linspace(-8.0, 8.0, 1601)
        v = mollow_spectrum(0.1, GAMMA_MHZ, grid)
        interior = (v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])
        peaks = np.flatnonzero(interior) + 1
        heights = sorted(v[peaks], reverse=True)
        assert len(heights) >= 1
        if len(heights) > 1:
            assert heights[1] < 0.05 * heights[0]

    def test_strong_drive_height_ratio(self):
        # three-peak structure: the carrier is three times the satellites
        grid, v = true_spectrum(5.0)
        interior = (v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])
        peaks = np.flatnonzero(interior) + 1
        central = v[np.argmin(np.abs(grid))]
        satellite = v[peaks[grid[peaks] >= 0.3 * 5.0 * GAMMA_MHZ]].max()
        assert central / satellite == pytest.approx(3.0, rel=0.15)

    def test_symmetric_in_detuning(self):
        _, spec = true_spectrum(4.0)
        assert np.max(np.abs(spec - spec[::-1])) < 0.02 * spec.max()

    def test_inelastic_flux_integral(self):
        ratio = 6.0
        grid, spec = true_mollow_spectrum(ratio, GAMMA_MHZ, span=4.0, points=2001)
        integral = np.trapezoid(spec, grid)
        model = driven_atom_model(ratio * GAMMA, GAMMA)
        rho = steady_state(model)
        n_q = rho[1, 1].real
        coherent = abs(np.trace(destroy(2) @ rho)) ** 2
        assert integral == pytest.approx(GAMMA * (n_q - coherent), rel=0.01)
        # at strong drive the coherent part is small: flux ~ n_q Gamma
        assert integral == pytest.approx(n_q * GAMMA, rel=0.05)

    def test_grid_span_precondition(self):
        with pytest.raises(ValueError, match="2 Omega"):
            mollow_spectrum(4.0, GAMMA_MHZ, np.linspace(-5.0, 5.0, 101))

    def test_routes_agree(self):
        # the engine's resolvent vs the closed form derived from it by hand
        grid, spec = true_spectrum(4.0)
        resolvent = inelastic_spectrum_model(4.0 * GAMMA_MHZ, GAMMA_MHZ, grid)
        assert np.max(np.abs(resolvent - spec)) <= 1e-12 * spec.max()

    def test_no_blas_and_no_time_domain_route(self):
        # the solve stays in elementwise numpy: no np.linalg, no @, and
        # neither the correlator nor the PSD
        tree = ast.parse(textwrap.dedent(inspect.getsource(mollow_spectrum)))
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        attrs = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        assert not any(isinstance(n, ast.MatMult) for n in ast.walk(tree))
        assert "linalg" not in attrs
        assert not {"two_time_correlation", "psd", "interp"} & (names | attrs)

    @pytest.mark.parametrize("ratio", [0.25, 2.0, 4.0, 6.0, 8.0])
    def test_exact_on_the_requested_grid(self, ratio):
        # every detuning, the carrier at 0 (off the even grid, so appended)
        # and the exceptional point Omega = Gamma/4 included
        omega = ratio * GAMMA_MHZ
        grid = np.append(np.linspace(-2.5, 2.5, 800) * omega, 0.0)
        spec = mollow_spectrum(ratio, GAMMA_MHZ, grid)
        closed = inelastic_spectrum_model(omega, GAMMA_MHZ, grid)
        assert np.max(np.abs(spec - closed)) <= 1e-12 * closed.max()


def _resolvent_terms(omega_mhz, gamma_mhz):
    """Liouvillian, steady state, sigma+ weight and the elastic-free seed
    sigma- rho_ss - <sigma-> rho_ss, all on row-major vec(rho)."""
    model = driven_atom_model(2 * math.pi * omega_mhz, 2 * math.pi * gamma_mhz)
    sup = liouvillian_matrix(model)
    rho = steady_state(model)
    sm = destroy(2)
    seed = sm @ rho - np.trace(sm @ rho) * rho
    return sup, rho.reshape(-1), np.conj(sm).reshape(-1), seed.reshape(-1)


def _eig_resolvent(omega_mhz, gamma_mhz, grid):
    """2 Gamma Re w (iw - L)^-1 q from the eigendecomposition of L."""
    sup, _, weight, seed = _resolvent_terms(omega_mhz, gamma_mhz)
    vals, vecs = np.linalg.eig(sup)
    coeffs = (weight @ vecs) * np.linalg.solve(vecs, seed)
    keep = np.abs(vals) > 1e-9 * np.abs(vals).max()  # stationary mode: no weight
    u = 2j * math.pi * np.asarray(grid)
    terms = coeffs[keep, None] / (u[None, :] - vals[keep, None])
    return 4 * math.pi * gamma_mhz * np.sum(terms, axis=0).real


def _solve_resolvent(omega_mhz, gamma_mhz, grid):
    """The same by one batched solve of (iw - L + |rho_ss><vec 1|) z = q; the
    rank-one term keeps w = 0 regular and is inert on the traceless seed."""
    sup, rho, weight, seed = _resolvent_terms(omega_mhz, gamma_mhz)
    u = 2j * math.pi * np.asarray(grid)
    mats = u[:, None, None] * np.eye(4) - sup + np.outer(rho, np.eye(2).reshape(-1))
    z = np.linalg.solve(mats, np.broadcast_to(seed, (u.size, 4))[..., None])[..., 0]
    return 4 * math.pi * gamma_mhz * (z @ weight).real


class TestInelasticSpectrumModel:
    @pytest.mark.parametrize("ratio", [0.05, 0.25, 1.0, 2.0, 4.0, 8.0, 10.0])
    def test_matches_reference_resolvent(self, ratio):
        omega = ratio * GAMMA_MHZ
        grid = np.linspace(-5.0 * omega - 5.0 * GAMMA_MHZ, 5.0 * omega + 5.0 * GAMMA_MHZ, 801)
        model = inelastic_spectrum_model(omega, GAMMA_MHZ, grid)
        references = [_solve_resolvent(omega, GAMMA_MHZ, grid)]
        if ratio != 0.25:
            # at the exceptional point Omega = Gamma/4 the eigenvectors
            # coalesce and the eig route loses about 1e-9 of the peak
            references.append(_eig_resolvent(omega, GAMMA_MHZ, grid))
        for reference in references:
            assert np.max(np.abs(model - reference)) <= 1e-12 * reference.max()

    @pytest.mark.parametrize("ratio", [0.05, 0.25, 1.0, 4.0, 10.0])
    def test_sum_rule(self, ratio):
        # total inelastic flux 2 Gamma Omega^4 / (Gamma^2 + 2 Omega^2)^2
        gamma, omega = GAMMA, ratio * GAMMA
        integral, _ = quad(
            lambda f: inelastic_spectrum_model(ratio * GAMMA_MHZ, GAMMA_MHZ, f),
            -np.inf,
            np.inf,
            epsabs=0.0,
            epsrel=1e-12,
            limit=200,
        )
        expected = 2 * gamma * omega**4 / (gamma**2 + 2 * omega**2) ** 2
        assert integral == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("ratio", [0.05, 0.25, 4.0])
    def test_even_finite_and_positive(self, ratio):
        grid = np.linspace(0.0, 30.0, 301)
        values = inelastic_spectrum_model(ratio * GAMMA_MHZ, GAMMA_MHZ, grid)
        mirrored = inelastic_spectrum_model(ratio * GAMMA_MHZ, GAMMA_MHZ, -grid)
        assert np.array_equal(mirrored, values)
        assert np.all(np.isfinite(values)) and np.all(values > 0)


class TestSteadyPopulation:
    def test_limits(self):
        assert steady_population(0.0, GAMMA) == 0.0
        assert steady_population(100 * GAMMA, GAMMA) == pytest.approx(0.5, abs=1e-3)
        assert steady_population(GAMMA, GAMMA) == pytest.approx(1.0 / 3.0, rel=1e-12)

    @pytest.mark.parametrize("ratio", [0.1, 1.0, 5.0, 100.0])
    def test_matches_engine(self, ratio):
        numeric = steady_state(driven_atom_model(ratio * GAMMA, GAMMA))[1, 1].real
        assert abs(steady_population(ratio * GAMMA, GAMMA) - numeric) < 1e-6

    def test_gamma_positive(self):
        with pytest.raises(ValueError):
            steady_population(1.0, 0.0)


class TestFitMollow:
    def test_exact_self_fit(self):
        # data generated from the fit model itself: residuals at machine level
        gamma = GAMMA_MHZ
        omegas = np.array(RATIOS)[:, None] * gamma
        grids = np.linspace(-2.5, 2.5, 401) * omegas
        spectra = 0.8 * inelastic_spectrum_model(omegas, gamma, grids)
        fit = fit_mollow(RATIOS, grids, spectra, gamma)
        residuals = (
            fit.gain * inelastic_spectrum_model(np.array(fit.omegas)[:, None], fit.gamma, grids)
            - spectra
        )
        rms = math.sqrt(np.mean(residuals**2))
        assert rms < 1e-6 * spectra.max()
        assert fit.gain == pytest.approx(0.8, rel=1e-6)

    def test_noiseless_default_spectra_recover_gain_and_gamma(self):
        # exact spectra leave the fit no bias to absorb
        fit = fit_mollow(RATIOS, TRUE_GRIDS, 0.8 * TRUE_SPECTRA, GAMMA_MHZ)
        assert abs(fit.gain - 0.8) <= 1e-9 * 0.8
        assert abs(fit.gamma - GAMMA_MHZ) <= 1e-9 * GAMMA_MHZ

    def test_gain_recovery_with_noise(self):
        data = synthetic_mollow_dataset(TRUE_SPECTRA, 0.8, 0.01, seed=5)
        fit = fit_mollow(RATIOS, TRUE_GRIDS, data, GAMMA_MHZ)
        assert abs(fit.gain - 0.8) / 0.8 < 0.02

    def test_gain_recovery_twenty_seeds(self):
        for seed in range(20):
            data = synthetic_mollow_dataset(TRUE_SPECTRA, 0.8, 0.01, seed=seed)
            fit = fit_mollow(RATIOS, TRUE_GRIDS, data, GAMMA_MHZ)
            assert abs(fit.gain - 0.8) / 0.8 < 0.02
            assert abs(fit.gamma - GAMMA_MHZ) / GAMMA_MHZ < 0.02

    def test_needs_three_spectra(self):
        data = synthetic_mollow_dataset(TRUE_SPECTRA, 0.8, 0.01, seed=5)
        with pytest.raises(ValueError, match="three spectra"):
            fit_mollow(RATIOS[:2], TRUE_GRIDS[:2], data[:2], GAMMA_MHZ)
        with pytest.raises(ValueError, match="one spectrum per drive ratio"):
            fit_mollow(RATIOS[:2], TRUE_GRIDS, data, GAMMA_MHZ)

    def test_grids_and_spectra_of_one_shape(self):
        data = synthetic_mollow_dataset(TRUE_SPECTRA, 0.8, 0.01, seed=5)
        with pytest.raises(ValueError, match="same shape"):
            fit_mollow(RATIOS, TRUE_GRIDS[:, :-1], data, GAMMA_MHZ)
        with pytest.raises(ValueError, match="same shape"):
            fit_mollow(RATIOS, TRUE_GRIDS[0], data, GAMMA_MHZ)

    def test_non_positive_start_gain_rejected(self):
        # all-zero data project onto gain 0, which no gain bound can contain
        with pytest.raises(FitError, match="non-positive gain"):
            fit_mollow(RATIOS, TRUE_GRIDS, np.zeros_like(TRUE_SPECTRA), GAMMA_MHZ)
        grid = TRUE_GRIDS[0]
        with pytest.raises(FitError, match="non-positive gain"):
            fit_satellite_drive(grid, np.zeros_like(grid), GAMMA_MHZ, RATIOS[0] * GAMMA_MHZ)

    def test_noise_is_multiplicative_and_clipped(self):
        data = synthetic_mollow_dataset(TRUE_SPECTRA, 0.8, 0.01, seed=5)
        assert data.shape == TRUE_SPECTRA.shape
        for true, noisy in zip(TRUE_SPECTRA, data):
            assert noisy.min() >= 0.0
            assert np.max(np.abs(noisy / 0.8 - true)) < 0.06 * true.max()

    def test_stacked_noise_is_the_per_row_draws(self):
        # one draw over the (3, 801) stack gives the numbers of three
        # consecutive per-row draws from one generator, row-major
        assert TRUE_SPECTRA.shape == (3, 801)
        data = synthetic_mollow_dataset(TRUE_SPECTRA, 0.8, 0.01, seed=5)
        rng = np.random.default_rng(5)
        rows = [
            np.maximum(0.8 * true * (1.0 + 0.01 * rng.standard_normal(true.size)), 0.0)
            for true in TRUE_SPECTRA
        ]
        np.testing.assert_array_equal(data, np.array(rows))


class TestStark:
    def test_noiseless_recovery(self):
        chi = dispersive_shift(PARAMS.alpha, PARAMS.g0, PARAMS.delta_qc)
        fit = stark_fit(*synthetic_stark_dataset(chi, PARAMS.nu_ge, 1.0, 4.0, 9, 0.0, seed=0))
        assert fit.slope == pytest.approx(2 * chi, rel=1e-9)
        assert fit.slope == pytest.approx(-4.8, abs=0.02)
        assert fit.intercept == pytest.approx(PARAMS.nu_ge, rel=1e-12)

    def test_zero_power_point_is_intercept(self):
        chi = -2.4
        p_in, nu_q = synthetic_stark_dataset(chi, 6475.0, 1.0, 4.0, 9, 0.0, seed=0)
        assert nu_q[p_in == 0.0][0] == pytest.approx(6475.0)

    def test_photon_number_inverse_in_chi(self):
        fit = stark_fit(*synthetic_stark_dataset(-2.4, 6475.0, 1.0, 4.0, 9, 0.0, 0))
        assert fit.photons_at(2.0, -4.8) == pytest.approx(fit.photons_at(2.0, -2.4) / 2)

    def test_noisy_recovery_within_errors(self):
        chi = dispersive_shift(PARAMS.alpha, PARAMS.g0, PARAMS.delta_qc)
        slope_true = 2 * chi
        noise = 0.01 * abs(slope_true) * 4.0
        bad = 0
        for seed in range(20):
            fit = stark_fit(*synthetic_stark_dataset(chi, PARAMS.nu_ge, 1.0, 4.0, 9, noise, seed))
            if abs(fit.slope - slope_true) > 3 * fit.slope_err:
                bad += 1
        assert bad <= 1

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError, match="undetermined"):
            stark_fit(np.full(5, 2.0), np.linspace(0, 1, 5))

    def test_needs_three_points(self):
        with pytest.raises(ValueError, match="three calibration points"):
            stark_fit(np.array([1.0, 2.0]), np.array([1.0, 2.0]))


class TestLoss:
    def test_device_point(self):
        assert extract_loss(0.75, 1.0) == pytest.approx(0.25, rel=1e-12)
        assert extract_loss(1.0, 1.0) == 0.0

    def test_exact_identity(self, rng):
        for _ in range(50):
            g = 10 ** rng.uniform(-2, 2)
            loss = rng.uniform(0.0, 0.99)
            assert extract_loss(g * (1 - loss), g) == pytest.approx(loss, abs=1e-12)

    def test_negative_loss_warns(self):
        with pytest.warns(UserWarning, match="unphysical"):
            assert extract_loss(1.2, 1.0) < 0

    def test_gain_positive(self):
        with pytest.raises(ValueError):
            extract_loss(1.0, 0.0)

    def test_budget_totals(self):
        budget = loss_budget(LossRunConfig().components)
        assert budget.total_additive == pytest.approx(0.20, abs=1e-12)
        assert budget.total_multiplicative == pytest.approx(
            1 - 0.92 * 0.95 * 0.95 * 0.98, rel=1e-12
        )
        assert budget.total_multiplicative == pytest.approx(0.186, abs=5e-4)

    def test_budget_empty(self):
        budget = loss_budget({})
        assert budget.total_additive == 0.0
        assert budget.total_multiplicative == 0.0

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            loss_budget({"bad": 1.0})

    @pytest.mark.parametrize("seed", [0, 7])
    def test_pipeline_roundtrip(self, seed):
        result = loss_calibration_roundtrip(
            PARAMS,
            RATIOS,
            TRUE_GRIDS,
            TRUE_SPECTRA,
            detector_gain=1.6,
            noise_frac=0.01,
            seed=seed,
            photons_per_unit=STARK.photons_per_unit,
            p_max=STARK.p_max,
            n_stark_points=STARK.n_points,
        )
        assert result["loss_true"] == PARAMS.loss_L == 0.25
        assert abs(result["loss_est"] - 0.25) <= 0.02
