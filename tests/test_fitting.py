"""The in-house bounded least-squares solver against a tight-tolerance
scipy.optimize.least_squares, on the problems the package's fits pose, plus
its failure paths."""

import math

import numpy as np
import pytest
from scipy.optimize import least_squares

from qndsim import calibration, cli, fitting, readout
from qndsim.calibration import (
    _inelastic_spectrum_derivs,
    inelastic_spectrum_model,
    synthetic_mollow_dataset,
    true_mollow_spectrum,
)
from qndsim.config import MollowRunConfig, ReadoutRunConfig
from qndsim.core.correlations import psd, two_time_correlation
from qndsim.core.dynamics import LindbladModel
from qndsim.core.operators import destroy
from qndsim.errors import FitError
from qndsim.fitting import LsqResult, _lsq

MOLLOW = MollowRunConfig()
RO = ReadoutRunConfig()
TIGHT = dict(xtol=1e-14, ftol=1e-14, gtol=1e-14)
WEIGHTS = [0.0, 1e-3, 0.022, 0.06, 0.5]
SEEDS = range(20)
# seeds, out of SEEDS, at which _lsq and the reference end in different
# local minima; _lsq's cost must be no higher there
DIFFERENT_MINIMA = {w: 0 for w in WEIGHTS}


@pytest.fixture()
def captured(monkeypatch):
    """Every _lsq call the fits make: (fun, x0, jac, options, result)."""
    calls = []

    def spy(fun, x0, jac, **options):
        result = _lsq(fun, x0, jac, **options)
        calls.append((fun, np.array(x0, dtype=float), jac, options, result))
        return result

    monkeypatch.setattr(readout, "_lsq", spy)
    monkeypatch.setattr(calibration, "_lsq", spy)
    return calls


def reference(fun, x0, jac, options):
    return least_squares(
        fun,
        x0,
        jac=jac,
        bounds=options.get("bounds", (-np.inf, np.inf)),
        x_scale=options.get("x_scale", 1.0),
        max_nfev=options.get("max_nfev"),
        **TIGHT,
    )


def stderr(jac):
    try:
        cov = np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError:
        return np.zeros(jac.shape[1])
    return np.nan_to_num(np.sqrt(np.maximum(np.diag(cov), 0.0)))


def compare(call):
    """True when _lsq's solution agrees with the reference to 1e-6 relative
    or 1e-3 of the reference standard error, whichever is larger; otherwise
    the two ended in different minima and _lsq's cost must be no higher."""
    fun, x0, jac, options, result = call
    assert result.success
    lower, upper = options.get("bounds", (-np.inf, np.inf))
    assert np.all(result.x >= lower) and np.all(result.x <= upper)
    ref = reference(fun, x0, jac, options)
    assert ref.success
    tol = np.maximum(1e-6 * np.abs(ref.x), 1e-3 * stderr(ref.jac))
    if np.all(np.abs(result.x - ref.x) <= tol):
        return True
    assert result.cost <= ref.cost * (1 + 1e-12), (result.x, ref.x, result.cost, ref.cost)
    return False


@pytest.mark.parametrize("w_e", WEIGHTS)
def test_double_gaussian_matches_reference(captured, w_e):
    mix = readout.GaussianMixture(0.0, 5.75, 1.0, w_e)
    for seed in SEEDS:
        shots = readout.sample_shots(mix, 12_500, 1000 + seed)
        fit = readout.fit_double_gaussian(*readout.histogram_shots(shots, 101))
        assert 0.0 <= fit.mixture.w_e <= 1.0
    assert len(captured) == len(SEEDS)
    if w_e == 0.022:
        # the e peak is ~2% tall: every fit starts from the single-component guess
        assert all(x0[3] == 1e-3 for _, x0, *_ in captured)
    different = sum(not compare(call) for call in captured)
    assert different <= DIFFERENT_MINIMA[w_e]


def test_start_outside_the_bounds_still_fits():
    """At this seed the single-component start puts mu_e above its upper
    bound; the solver moves it inside instead of refusing the fit."""
    shots = readout.sample_shots(readout.GaussianMixture(0.0, 5.75, 1.0, 0.0), 12_500, 136)
    q, counts = readout.histogram_shots(shots, 101)
    weights = counts / counts.sum()
    std = math.sqrt(np.sum(weights * (q - np.sum(weights * q)) ** 2))
    assert readout._initial_guess(q, counts)[1] > q[-1] + std
    fit = readout.fit_double_gaussian(q, counts)
    assert fit.mixture.sigma == pytest.approx(1.0, abs=0.05)
    assert fit.mixture.w_e < 1e-3


def test_lorentzian_matches_reference(captured):
    """Criterion 10's linewidth fits."""
    sm = destroy(2)
    excited = np.diag([0.0, 1.0]).astype(complex)
    for gamma_mhz in (1.0, 1.77, 3.0):
        g_ang = 2 * math.pi * gamma_mhz
        model = LindbladModel(np.zeros((2, 2)), [math.sqrt(g_ang) * sm])
        taus = np.linspace(0.0, 48.0 / g_ang, 8192)
        corr = two_time_correlation(model, excited, sm.conj().T, sm, taus)
        _, fwhm, _ = calibration.fit_lorentzian(*psd(corr, taus[1] - taus[0]))
        assert fwhm == pytest.approx(gamma_mhz, rel=0.02)
    assert all(compare(call) for call in captured)


def test_default_mollow_fit_matches_reference(captured, cfg):
    ratios = cfg.sweeps.drive_ratios
    grids, spectra = cli._true_spectra(cfg)
    data = synthetic_mollow_dataset(spectra, cfg.mollow.gain_truth, cfg.mollow.noise_frac, 0)
    calibration.fit_mollow(ratios, grids, data, cfg.device.gamma_source)
    assert len(captured) == 1 and captured[0][1].size == 2 + len(ratios)
    assert compare(captured[0])


def test_weak_drive_single_spectrum_matches_reference(captured):
    gamma = 1.77
    grid, spectrum = true_mollow_spectrum(0.25, gamma, MOLLOW.span, MOLLOW.points)
    values = synthetic_mollow_dataset(spectrum, 0.8, 0.01, 3)
    calibration.fit_satellite_drive(grid, values, gamma, 0.25 * gamma)
    assert compare(captured[0])


@pytest.mark.parametrize("ratio", [0.1, 0.25, 1.0, 4.0])
def test_mollow_jacobian_matches_central_differences(ratio):
    gamma = 1.77
    omega = ratio * gamma
    grid = np.linspace(-3 * (omega + gamma), 3 * (omega + gamma), 61)
    spec, d_omega, d_gamma = _inelastic_spectrum_derivs(omega, gamma, grid)
    np.testing.assert_allclose(spec, inelastic_spectrum_model(omega, gamma, grid), rtol=1e-13)
    h = 1e-6
    for value, analytic, model in [
        (omega, d_omega, lambda o: inelastic_spectrum_model(o, gamma, grid)),
        (gamma, d_gamma, lambda g: inelastic_spectrum_model(omega, g, grid)),
    ]:
        central = (model(value * (1 + h)) - model(value * (1 - h))) / (2 * h * value)
        np.testing.assert_allclose(analytic, central, rtol=0, atol=1e-8 * np.abs(central).max())


def test_stacked_model_matches_per_row_calls(cfg):
    """The fluorescence fit evaluates every ratio in one broadcast call. Row
    by row it squares a scalar Omega/Gamma through libm's pow, which may
    differ from the array square in the last bit."""
    grids, _ = cli._true_spectra(cfg)
    omegas = np.array([1.3, 6.1, 11.7])
    stacked = _inelastic_spectrum_derivs(omegas[:, None], 1.83, grids)
    rows = [_inelastic_spectrum_derivs(om, 1.83, grid) for om, grid in zip(omegas, grids)]
    for k, value in enumerate(stacked):
        np.testing.assert_allclose(value, [row[k] for row in rows], rtol=1e-14, atol=0)
    np.testing.assert_array_equal(
        inelastic_spectrum_model(omegas[:, None], 1.83, grids), stacked[0]
    )


def test_fit_jacobians_match_central_differences(captured, cfg):
    """The Jacobians the three fits hand to _lsq, at points off the optimum."""
    shots = readout.sample_shots(readout.GaussianMixture(0.0, 5.75, 1.0, 0.3), 12_500, 7)
    readout.fit_double_gaussian(*readout.histogram_shots(shots, RO.n_bins))
    axis = np.linspace(-5.0, 5.0, 201)
    calibration.fit_lorentzian(axis, 2.0 / (1.0 + (axis - 0.3) ** 2))
    grids, spectra = cli._true_spectra(cfg)
    data = synthetic_mollow_dataset(spectra, 0.8, 0.01, 0)
    calibration.fit_mollow(cfg.sweeps.drive_ratios, grids, data, cfg.device.gamma_source)
    assert len(captured) == 3
    for fun, x0, jac, _, _ in captured:
        x = x0 * 1.01 + 0.01
        h = 1e-6 * np.maximum(1.0, np.abs(x))
        central = np.column_stack(
            [(fun(x + h[k] * e) - fun(x - h[k] * e)) / (2 * h[k]) for k, e in enumerate(np.eye(x.size))]
        )
        np.testing.assert_allclose(jac(x), central, rtol=0, atol=1e-7 * np.abs(central).max())


def rosenbrock(p):
    return np.array([10.0 * (p[1] - p[0] ** 2), 1.0 - p[0]])


def rosenbrock_jac(p):
    return np.array([[-20.0 * p[0], 10.0], [-1.0, 0.0]])


class TestLsq:
    def test_unbounded_minimum(self):
        result = _lsq(rosenbrock, [-1.2, 1.0], rosenbrock_jac)
        assert result.success and result.status > 0
        np.testing.assert_allclose(result.x, [1.0, 1.0], rtol=1e-10)
        assert result.cost < 1e-20
        np.testing.assert_array_equal(result.jac, rosenbrock_jac(result.x))

    def test_minimum_on_a_bound(self):
        result = _lsq(rosenbrock, [-1.2, 0.2], rosenbrock_jac, bounds=([-2.0, -2.0], [2.0, 0.25]))
        assert result.success
        assert 0.25 - 1e-9 < result.x[1] <= 0.25
        ref = least_squares(rosenbrock, [-1.2, 0.2], jac=rosenbrock_jac,
                            bounds=([-2.0, -2.0], [2.0, 0.25]), **TIGHT)
        np.testing.assert_allclose(result.x, ref.x, rtol=1e-6)

    def test_start_outside_the_box_moves_inside(self):
        result = _lsq(rosenbrock, [3.0, 3.0], rosenbrock_jac, bounds=([-2.0, -2.0], [2.0, 2.0]))
        assert result.success
        np.testing.assert_allclose(result.x, [1.0, 1.0], rtol=1e-8)

    def test_evaluation_cap(self):
        result = _lsq(rosenbrock, [-1.2, 1.0], rosenbrock_jac, max_nfev=3)
        assert not result.success and result.status == 0
        assert result.nfev == 3

    def test_non_finite_start(self):
        result = _lsq(lambda p: np.full(3, np.nan), [1.0, 2.0], lambda p: np.zeros((3, 2)))
        assert not result.success and result.status == -1 and result.nfev == 1

    def test_non_finite_away_from_start(self):
        x0 = np.array([-1.2, 1.0])

        def fun(p):
            return rosenbrock(p) if np.array_equal(p, x0) else np.array([np.inf, np.nan])

        result = _lsq(fun, x0, rosenbrock_jac, max_nfev=10_000)
        assert not result.success and result.status == -1
        assert result.nfev < 200
        np.testing.assert_array_equal(result.x, x0)

    def test_non_finite_jacobian(self):
        result = _lsq(rosenbrock, [-1.2, 1.0], lambda p: np.full((2, 2), np.nan))
        assert not result.success and result.status == -1


def failed(fun, x0, jac, **options):
    return LsqResult(np.asarray(x0, dtype=float), jac(x0), 1.0, 7, 0, False)


class TestFitFailures:
    def test_double_gaussian(self, monkeypatch):
        monkeypatch.setattr(readout, "_lsq", failed)
        shots = readout.sample_shots(readout.GaussianMixture(0.0, RO.snr, 1.0, 0.5), 2000, 0)
        with pytest.raises(FitError, match="double-Gaussian fit failed"):
            readout.fit_double_gaussian(*readout.histogram_shots(shots, RO.n_bins))

    def test_fluorescence(self, monkeypatch, cfg):
        monkeypatch.setattr(calibration, "_lsq", failed)
        ratios, gamma = cfg.sweeps.drive_ratios, cfg.device.gamma_source
        grids, spectra = cli._true_spectra(cfg)
        with pytest.raises(FitError, match="joint fluorescence fit failed"):
            calibration.fit_mollow(ratios, grids, spectra, gamma)
        with pytest.raises(FitError, match="single-spectrum resonance fit failed"):
            calibration.fit_satellite_drive(grids[0], spectra[0], gamma, ratios[0] * gamma)

    def test_lorentzian(self, monkeypatch):
        monkeypatch.setattr(calibration, "_lsq", failed)
        axis = np.linspace(-5.0, 5.0, 101)
        with pytest.raises(FitError, match="Lorentzian fit failed"):
            calibration.fit_lorentzian(axis, 1.0 / (1.0 + axis**2))

    @pytest.mark.parametrize("subcommand, module", [("readout", readout), ("mollow", calibration)])
    def test_cli_exit_code(self, monkeypatch, tmp_path, capsys, subcommand, module):
        monkeypatch.setattr(module, "_lsq", failed)
        assert cli.main([subcommand, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "fit failed" in err and "Traceback" not in err


def test_every_fit_uses_the_one_solver():
    assert readout._lsq is fitting._lsq and calibration._lsq is fitting._lsq
