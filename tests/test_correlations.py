import math

import numpy as np
import pytest

from qndsim.calibration import driven_atom_model, fit_lorentzian
from qndsim.core import (
    LindbladModel,
    destroy,
    pauli,
    psd,
    steady_state,
    two_time_correlation,
)
from qndsim.errors import TruncationError

GAMMA = 2 * math.pi * 1.77
SM = destroy(2)
SP = SM.conj().T
EXCITED = np.diag([0.0, 1.0]).astype(complex)


def decay_model(gamma=GAMMA, delta=0.0):
    return LindbladModel(delta / 2 * pauli("z"), [math.sqrt(gamma) * SM])


class TestTwoTimeCorrelation:
    def test_tau_zero_equals_static_expectation(self):
        model = driven_atom_model(3 * GAMMA, GAMMA)
        rho_ss = steady_state(model)
        taus = np.linspace(0.0, 24.0 / GAMMA, 512)
        corr = two_time_correlation(model, rho_ss, SP, SM, taus)
        static = np.trace(SP @ SM @ rho_ss)
        assert abs(corr[0] - static) < 1e-9

    def test_identity_operators_give_unit_trace(self):
        model = driven_atom_model(2 * GAMMA, GAMMA)
        rho_ss = steady_state(model)
        eye = np.eye(2)
        taus = np.linspace(0.0, 1.0, 64)
        corr = two_time_correlation(model, rho_ss, eye, eye, taus)
        np.testing.assert_allclose(corr, 1.0, atol=1e-9)

    def test_decaying_atom_shape(self):
        # transient correlator seeded by the excited state: the coherence
        # rotates at the detuning and damps at Gamma/2
        delta = 2 * math.pi * 4.0
        model = decay_model(delta=delta)
        taus = np.linspace(0.0, 18.0 / GAMMA, 2048)
        corr = two_time_correlation(model, EXCITED, SP, SM, taus)
        np.testing.assert_allclose(np.abs(corr), np.exp(-GAMMA * taus / 2), atol=1e-7)
        phase_step = np.angle(corr[1] / corr[0])
        assert phase_step == pytest.approx(-delta * (taus[1] - taus[0]), rel=1e-6)

    @pytest.mark.parametrize(
        "seed, match",
        [
            (np.diag([0.5, 0.4]), "trace"),
            (np.array([[0.5, 0.1], [0.3, 0.5]]), "Hermitian"),
            (np.diag([1.2, -0.2]), "negative eigenvalue"),
            (np.eye(3) / 3, "shape"),
        ],
    )
    def test_invalid_transient_seed_rejected(self, seed, match):
        with pytest.raises(ValueError, match=match):
            two_time_correlation(decay_model(), seed, SP, SM, np.linspace(0, 1, 16))

    @pytest.mark.parametrize("which", [0, 1])
    def test_operator_shape_mismatch_rejected(self, which):
        ops = [SP, SM]
        ops[which] = destroy(3)
        with pytest.raises(ValueError, match="operator shape"):
            two_time_correlation(decay_model(), EXCITED, *ops, np.linspace(0, 1, 16))

    def test_strong_drive_oscillates_at_rabi_rate(self):
        omega = 5 * GAMMA
        model = driven_atom_model(omega, GAMMA)
        rho_ss = steady_state(model)
        taus = np.linspace(0.0, 24.0 / GAMMA, 4096)
        corr = two_time_correlation(model, rho_ss, SP, SM, taus)
        inelastic = corr - np.trace(SP @ rho_ss) * np.trace(SM @ rho_ss)
        spec = np.abs(np.fft.fft(inelastic))
        freqs = 2 * math.pi * np.fft.fftfreq(len(taus), taus[1] - taus[0])
        # look above the radiative linewidth to skip the non-oscillating line
        window = np.abs(freqs) > 2 * GAMMA
        dominant = abs(freqs[window][np.argmax(spec[window])])
        assert dominant == pytest.approx(omega, rel=0.05)


class TestPsd:
    def test_lorentzian_pair(self):
        gamma = 2 * math.pi * 2.0
        taus = np.linspace(0.0, 48.0 / gamma, 8192)
        freqs, spec = psd(np.exp(-gamma * taus / 2), taus[1] - taus[0])
        center, fwhm, _ = fit_lorentzian(freqs, spec)
        assert center == pytest.approx(0.0, abs=2 * (freqs[1] - freqs[0]))
        assert fwhm == pytest.approx(gamma / (2 * math.pi), rel=0.02)

    def test_shift_theorem(self):
        gamma = 2 * math.pi * 2.0
        delta0 = 2 * math.pi * 5.0
        taus = np.linspace(0.0, 48.0 / gamma, 8192)
        corr = np.exp((1j * delta0 - gamma / 2) * taus)
        center, fwhm, _ = fit_lorentzian(*psd(corr, taus[1] - taus[0]))
        assert center == pytest.approx(delta0 / (2 * math.pi), rel=1e-3)
        assert fwhm == pytest.approx(gamma / (2 * math.pi), rel=0.02)

    def test_parseval(self):
        gamma = 2 * math.pi * 1.0
        taus = np.linspace(0.0, 48.0 / gamma, 4096)
        freqs, spec = psd(0.7 * np.exp(-gamma * taus / 2), taus[1] - taus[0])
        integral = np.trapezoid(spec, freqs)
        assert integral == pytest.approx(0.7, rel=0.01)

    def test_nonnegative(self):
        gamma = 2 * math.pi * 1.0
        taus = np.linspace(0.0, 48.0 / gamma, 4096)
        _, spec = psd(np.exp(-gamma * taus / 2), taus[1] - taus[0])
        assert spec.min() > -1e-6

    def test_insufficient_decay_rejected(self):
        taus = np.linspace(0.0, 1.0, 256)
        with pytest.raises(TruncationError, match="tau grid"):
            psd(np.exp(-0.5 * taus), taus[1] - taus[0])


@pytest.mark.parametrize("gamma_mhz", [1.0, 1.77, 3.0])
def test_regression_linewidth_consistency(gamma_mhz):
    # psd(two_time_correlation) of the decaying atom must reproduce the
    # analytic Lorentzian of FWHM Gamma/(2 pi) MHz
    gamma = 2 * math.pi * gamma_mhz
    model = decay_model(gamma)
    taus = np.linspace(0.0, 48.0 / gamma, 8192)
    corr = two_time_correlation(model, EXCITED, SP, SM, taus)
    _, fwhm, _ = fit_lorentzian(*psd(corr, taus[1] - taus[0]))
    assert fwhm == pytest.approx(gamma_mhz, rel=0.02)
