import math

import numpy as np
import pytest

from qndsim.config import SpectroscopyConfig, config_digest, default_config, from_dict
from qndsim.core import destroy, embed
from qndsim.device import (
    DeviceParams,
    count_pi_crossings,
    dispersive_shift,
    dressed_frequencies,
    phase_difference_spectrum,
    reflection_coefficient,
    wrap_phase,
)
from qndsim.errors import NumericsError

PARAMS = DeviceParams()
GAMMA_ATOM = SpectroscopyConfig().gamma_atom_mhz
SQRT2_G0 = math.sqrt(2) * PARAMS.g0


def jc_manifold_splitting(g_eff, n, n_fock):
    """Splitting (MHz) of the n-excitation manifold of the resonant
    Jaynes-Cummings ladder, by full diagonalization.

    In the frame of the shared e-f/cavity resonance the Hamiltonian is the
    exchange term alone, 2 pi g_eff (a^dag sigma_- + sigma_+ a); eigenvectors
    are sorted into manifolds by the conserved excitation number.
    """
    dims = (2, n_fock)
    sm, a = embed(dims, 0, destroy(2)), embed(dims, 1, destroy(n_fock))
    h = 2 * math.pi * g_eff * (a.conj().T @ sm + sm.conj().T @ a)
    n_op = embed(dims, 0, np.diag([0.0, 1.0])) + embed(dims, 1, np.diag(np.arange(n_fock)))
    vals, vecs = np.linalg.eigh(h)
    excitation = np.einsum("in,ij,jn->n", vecs.conj(), n_op, vecs).real
    manifold = np.sort(vals[np.abs(excitation - n) < 1e-6])
    assert manifold.size == 2
    return (manifold[-1] - manifold[0]) / (2 * math.pi)


class TestDeviceParams:
    def test_defaults_consistent(self):
        assert PARAMS.nu_ef == PARAMS.nu_ge + PARAMS.alpha

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"nu_ef": 6000.0},
            {"loss_L": 1.0},
            {"eps_ge": 0.6, "eps_eg": 0.5},
            {"kappa": 0.0},
            {"T2_star": 7.0},
        ],
    )
    def test_invariants_enforced(self, kwargs):
        with pytest.raises(ValueError):
            DeviceParams(**kwargs)

    def test_nu_ef_derived_when_omitted(self):
        assert DeviceParams(nu_ge=6500.0).nu_ef == 6160.0
        cfg = from_dict({"device": {"nu_ge": 6500.0}})
        assert cfg.device.nu_ef == 6500.0 + cfg.device.alpha
        # spelling out the derived value resolves to the same configuration
        assert config_digest(from_dict({"device": {}})) == config_digest(default_config())
        assert config_digest(from_dict({"device": {"nu_ef": 6135.0}})) == config_digest(
            default_config()
        )

    def test_nu_ef_compared_with_relative_tolerance(self):
        # 6475.1 + (-340.2) is 6134.900000000001 in binary floating point
        assert 6475.1 + -340.2 != 6134.9
        params = DeviceParams(nu_ge=6475.1, alpha=-340.2, nu_ef=6134.9)
        assert params.nu_ef == 6134.9
        cfg = from_dict({"device": {"nu_ge": 6475.1, "alpha": -340.2, "nu_ef": 6134.9}})
        assert cfg.device.nu_ef == 6134.9
        with pytest.raises(ValueError, match="nu_ge \\+ alpha"):
            DeviceParams(nu_ge=6475.1, alpha=-340.2, nu_ef=6134.9 * (1 + 1e-9))


class TestDispersiveShift:
    def test_device_point(self):
        chi = dispersive_shift(-340.0, 40.0, -676.0)
        assert chi == pytest.approx(-544000.0 / 227136.0, rel=1e-12)
        assert chi == pytest.approx(-2.40, abs=0.01)

    def test_no_coupling(self):
        assert dispersive_shift(-340.0, 0.0, -676.0) == 0.0

    def test_positive_detuning_branch(self):
        assert dispersive_shift(-340.0, 40.0, 340.0) == pytest.approx(-2.35294, abs=1e-4)

    @pytest.mark.parametrize("delta", [0.0, -340.0])
    def test_singularities_rejected(self, delta):
        with pytest.raises(ValueError, match="resonant"):
            dispersive_shift(-340.0, 40.0, delta)

    @pytest.mark.parametrize("c", [0.5, 2.0, 7.0])
    def test_quadratic_coupling_scaling(self, c):
        base = dispersive_shift(-340.0, 40.0, -676.0)
        assert dispersive_shift(-340.0, c * 40.0, -676.0) == pytest.approx(
            c**2 * base, rel=1e-12
        )

    @pytest.mark.parametrize(
        "g, delta",
        [
            (1.0e200, -676.0),  # g**2 overflows Python float arithmetic
            (1.0e154, -676.0),  # g**2 holds, alpha g**2 does not
            (1.0e150, 1.0e-160),  # a finite numerator over a vanishing detuning
        ],
    )
    def test_past_the_float_range_names_the_shift_and_g(self, g, delta):
        with pytest.raises(NumericsError) as exc:
            dispersive_shift(-340.0, g, delta)
        assert str(exc.value) == f"dispersive shift chi passes the float range at g = {g!r} MHz"


class TestDressedFrequencies:
    def test_single_photon_manifold(self):
        lo, hi = dressed_frequencies(PARAMS, 1)
        assert lo == pytest.approx(6135.0 - SQRT2_G0, abs=1e-9)
        assert hi == pytest.approx(6135.0 + SQRT2_G0, abs=1e-9)
        assert hi == pytest.approx(6135.0 + 56.57, abs=5e-3)

    def test_no_coupling_degenerate(self):
        params = DeviceParams(g0=0.0)
        assert dressed_frequencies(params, 1) == (6135.0, 6135.0)

    def test_fourth_manifold(self):
        lo, hi = dressed_frequencies(PARAMS, 4)
        assert hi - lo == pytest.approx(2 * 2 * SQRT2_G0, rel=1e-12)

    def test_zero_manifold_rejected(self):
        with pytest.raises(ValueError):
            dressed_frequencies(PARAMS, 0)

    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize("n_fock", [5, 7])
    def test_matches_numerical_ladder(self, n, n_fock):
        # full diagonalization of the coupled ladder vs the closed form;
        # identical at both truncations since the manifolds decouple
        splitting = jc_manifold_splitting(SQRT2_G0, n, n_fock)
        lo, hi = dressed_frequencies(PARAMS, n)
        assert splitting == pytest.approx(hi - lo, rel=1e-9)


class TestReflection:
    def test_cavity_resonance_pi_phase(self):
        r = reflection_coefficient(PARAMS, 6135.0, "g", GAMMA_ATOM)
        assert r == pytest.approx(-1.0, abs=1e-12)

    def test_excited_qubit_transparent_at_resonance(self):
        r = reflection_coefficient(PARAMS, 6135.0, "e", gamma_atom=0.0)
        assert r == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("state", ["g", "e"])
    def test_far_detuned_full_reflection(self, state):
        nu = 6135.0 + 100 * PARAMS.kappa
        r = reflection_coefficient(PARAMS, nu, state, GAMMA_ATOM)
        assert abs(np.angle(r)) < 0.02

    @pytest.mark.parametrize("state", ["g", "e"])
    def test_unitary_without_atomic_loss(self, state):
        grid = np.linspace(6135.0 - 200.0, 6135.0 + 200.0, 801)
        r = reflection_coefficient(PARAMS, grid, state, gamma_atom=0.0)
        np.testing.assert_allclose(np.abs(r), 1.0, atol=1e-9)

    def test_modulus_bounded_with_loss(self):
        grid = np.linspace(6135.0 - 200.0, 6135.0 + 200.0, 801)
        r = reflection_coefficient(PARAMS, grid, "e", gamma_atom=0.1)
        assert np.max(np.abs(r)) <= 1 + 1e-9

    @pytest.mark.parametrize("g0", [0.0, 1e-200])
    def test_uncoupled_excited_qubit_is_a_bare_cavity(self, g0):
        # without atomic loss, on resonance, the e branch is 0/0 once the
        # coupling is zero or underflows; its limit is the bare cavity
        params = DeviceParams(g0=g0)
        assert reflection_coefficient(params, 6135.0, "e", gamma_atom=0.0) == (
            reflection_coefficient(params, 6135.0, "g", gamma_atom=0.0)
        )

    def test_bad_state_rejected(self):
        with pytest.raises(ValueError):
            reflection_coefficient(PARAMS, 6135.0, "f", GAMMA_ATOM)


@pytest.fixture(scope="module")
def spectrum():
    span = 2 * SQRT2_G0
    grid = np.linspace(6135.0 - span, 6135.0 + span, int(round(2 * span / 0.1)) + 1)
    return (grid, *phase_difference_spectrum(PARAMS, grid, GAMMA_ATOM))


class TestPhaseSpectrum:
    def test_arrays_match_reflection_coefficient(self, spectrum):
        grid, r_g, r_e, dphi = spectrum
        np.testing.assert_array_equal(r_g, reflection_coefficient(PARAMS, grid, "g", GAMMA_ATOM))
        np.testing.assert_array_equal(r_e, reflection_coefficient(PARAMS, grid, "e", GAMMA_ATOM))
        np.testing.assert_array_equal(dphi, np.abs(wrap_phase(np.angle(r_g) - np.angle(r_e))))
        assert np.max(np.abs(r_g)) <= 1 + 1e-9 and np.max(np.abs(r_e)) <= 1 + 1e-9
        assert np.all((dphi >= 0) & (dphi <= math.pi))

    def test_pi_at_cavity_frequency(self):
        _, _, dphi = phase_difference_spectrum(PARAMS, np.array([6135.0]), GAMMA_ATOM)
        assert dphi[0] == pytest.approx(math.pi, abs=1e-6)

    def test_pi_attained_near_dressed_frequencies(self, spectrum):
        nus, _, _, dphi = spectrum
        for nu_d in (6135.0 - SQRT2_G0, 6135.0 + SQRT2_G0):
            window = np.abs(nus - nu_d) <= 2.0
            assert np.min(np.abs(dphi[window] - math.pi)) < 0.05

    def test_exactly_three_pi_crossings(self, spectrum):
        _, r_g, r_e, _ = spectrum
        assert count_pi_crossings(r_g, r_e) == 3

    def test_symmetric_about_cavity(self):
        offsets = np.linspace(0.3, 250.0, 713)
        _, _, du = phase_difference_spectrum(PARAMS, 6135.0 + offsets, GAMMA_ATOM)
        _, _, dl = phase_difference_spectrum(PARAMS, 6135.0 - offsets, GAMMA_ATOM)
        np.testing.assert_allclose(du, dl, atol=1e-9)

    def test_small_contrast_far_detuned(self):
        far = np.array([6135.0 - 300.0, 6135.0 + 300.0])
        _, _, dphi = phase_difference_spectrum(PARAMS, far, GAMMA_ATOM)
        assert np.all(np.abs(dphi) < 0.1)

    def test_grid_range_enforced(self):
        with pytest.raises(ValueError, match="500"):
            phase_difference_spectrum(PARAMS, np.array([6135.0, 6700.0]), GAMMA_ATOM)


def test_wrap_phase_branch_convention():
    assert wrap_phase(math.pi) == pytest.approx(math.pi)
    assert wrap_phase(-math.pi) == pytest.approx(math.pi)
    assert wrap_phase(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
