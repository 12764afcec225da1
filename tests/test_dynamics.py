import math

import numpy as np
import pytest
from scipy.linalg import expm

from qndsim.calibration import driven_atom_model, steady_population
from qndsim.core import (
    LindbladModel,
    destroy,
    embed,
    evolve,
    lindblad_rhs,
    liouvillian_matrix,
    pauli,
    steady_state,
)
from qndsim.core import correlations, dynamics, two_time_correlation
from qndsim.core.dynamics import _evolve_matrix, _expm
from qndsim.errors import NonUniqueSteadyStateError

GAMMA = 2 * math.pi * 1.77  # 1/us

SM = destroy(2)
H_ZERO = np.zeros((2, 2))
EXCITED = np.diag([0.0, 1.0]).astype(complex)
GROUND = np.diag([1.0, 0.0]).astype(complex)


def decay_model(gamma=GAMMA):
    return LindbladModel(H_ZERO, [math.sqrt(gamma) * SM])


def two_site_model():
    """A driven emitter coupled to a decaying cavity mode, each truncated to
    two levels: a 16 x 16 Liouvillian built from embed."""
    sm, a = embed((2, 2), 0, destroy(2)), embed((2, 2), 1, destroy(2))
    sp, ad = sm.conj().T, a.conj().T
    h = 0.7 * GAMMA * (sm + sp) + 2.3 * GAMMA * (ad @ sm + sp @ a) + 0.4 * GAMMA * (ad @ a)
    return LindbladModel(h, [math.sqrt(GAMMA) * sm, math.sqrt(3 * GAMMA) * a])


def kron_liouvillian_reference(model):
    """The superoperator spelled out with np.kron, which liouvillian_matrix
    must match bit for bit."""
    eye = np.eye(model.dim, dtype=complex)
    h = model.hamiltonian
    sup = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for l in model.collapse_ops:
        ldl = l.conj().T @ l
        sup += np.kron(l, l.conj()) - 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T))
    return sup


def random_model(rng, dim, n_collapse):
    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    ops = [
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        for _ in range(n_collapse)
    ]
    return LindbladModel((h + h.conj().T) / 2, ops)


def bits(mat):
    return np.ascontiguousarray(mat).view(np.uint64)


# Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005), Table 2.3: the largest
# 1-norm for each Pade degree
THETAS = {
    3: 1.495585217958292e-2,
    5: 2.539398330063230e-1,
    7: 9.504178996162932e-1,
    9: 2.097847961257068e0,
    13: 5.371920351148152e0,
}
# 1-norms just below and just above each theta, then well above theta_13,
# where the argument is scaled by 2^s and the result squared s times
PADE_NORMS = [f * theta for theta in THETAS.values() for f in (0.99, 1.01)]
PADE_NORMS += [10 * THETAS[13], 100 * THETAS[13]]


def scaled_to_norm(mat, norm):
    return mat * (norm / np.abs(mat).sum(axis=0).max())


def assert_matches_scipy_expm(a):
    want = expm(a)
    got = _expm(a)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestRhs:
    def test_pure_decay_rate(self):
        rhs = lindblad_rhs(decay_model(), EXCITED)
        assert rhs[1, 1].real == pytest.approx(-GAMMA, rel=1e-12)

    def test_trace_free(self, rng):
        dim = 3
        h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = (h + h.conj().T) / 2
        l = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        model = LindbladModel(h, [l])
        rho = np.diag([0.2, 0.5, 0.3]).astype(complex)
        assert abs(np.trace(lindblad_rhs(model, rho))) < 1e-12

    def test_vanishes_at_steady_state(self):
        model = driven_atom_model(3 * GAMMA, GAMMA)
        rho_ss = steady_state(model)
        assert np.max(np.abs(lindblad_rhs(model, rho_ss))) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lindblad_rhs(decay_model(), np.eye(3))

    def test_nonhermitian_hamiltonian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            LindbladModel(destroy(2), [])
        h = np.array([[0.0, 1.1e-12], [0.0, 0.0]])
        with pytest.raises(ValueError, match="Hermitian"):
            LindbladModel(h, [])
        LindbladModel(np.array([[0.0, 0.9e-12], [0.0, 0.0]]), [])

    @pytest.mark.parametrize("h", [np.zeros((2, 3)), np.zeros(2), np.zeros((2, 2, 2))])
    def test_non_square_hamiltonian_rejected(self, h):
        with pytest.raises(ValueError, match="square"):
            LindbladModel(h, [])

    @pytest.mark.parametrize("op", [destroy(3), np.zeros((2, 3)), np.zeros(4)])
    def test_collapse_shape_mismatch_rejected(self, op):
        with pytest.raises(ValueError, match="collapse operator shape"):
            LindbladModel(H_ZERO, [SM, op])

    def test_model_holds_complex_arrays(self):
        model = LindbladModel(np.eye(3), [np.ones((3, 3))])
        assert model.dim == 3
        assert model.hamiltonian.dtype == complex
        assert [op.dtype for op in model.collapse_ops] == [complex]


class TestEvolve:
    def test_two_level_decay_matches_exponential(self):
        times = np.linspace(0.0, 1.0, 101)
        states = evolve(decay_model(), EXCITED, times)
        assert isinstance(states, np.ndarray) and states.shape == (101, 2, 2)
        np.testing.assert_allclose(states[:, 1, 1].real, np.exp(-GAMMA * times), atol=1e-6)

    def test_resonant_rabi(self):
        omega = 2 * math.pi * 7.0
        model = LindbladModel(omega / 2 * pauli("x"), [])
        times = np.linspace(0.0, 2 * (2 * math.pi / omega), 121)
        pops = evolve(model, GROUND, times)[:, 1, 1].real
        np.testing.assert_allclose(pops, np.sin(omega * times / 2) ** 2, atol=1e-6)

    def test_ramsey_dephasing_envelope(self):
        # pure dephasing at rate 1/T2 on a superposition; analytic Bloch
        # solution: coherence = exp(-t/T2)/2 with a detuning rotation
        t2 = 1.8
        delta = 2 * math.pi * 3.0
        model = LindbladModel(delta / 2 * pauli("z"), [math.sqrt(1.0 / (2 * t2)) * pauli("z")])
        plus = np.full((2, 2), 0.5)
        times = np.linspace(0.0, 3.0, 91)
        envelope = 2 * np.abs(evolve(model, plus, times)[:, 0, 1])
        np.testing.assert_allclose(envelope, np.exp(-times / t2), atol=1e-4)

    def test_trace_hermiticity_positivity_preserved(self):
        times = np.linspace(0.0, 2.0, 10_000)
        model = driven_atom_model(2 * GAMMA, GAMMA)
        states = evolve(model, EXCITED, times)
        traces = np.abs(np.trace(states, axis1=1, axis2=2) - 1.0)
        herm = np.max(np.abs(states - states.conj().transpose(0, 2, 1)))
        eigmin = np.min(np.linalg.eigvalsh(states))
        assert traces.max() < 1e-7
        assert herm < 1e-8
        assert eigmin > -1e-7

    def test_exceptional_point_matches_per_time_expm(self):
        # Omega = Gamma/4 makes the Liouvillian defective (coalescing
        # eigenvalues -3 Gamma/4), where an eigenbasis propagator would fail
        model = driven_atom_model(GAMMA / 4, GAMMA)
        times = np.linspace(0.0, 3.0, 301)
        states = evolve(model, EXCITED, times)
        sup = liouvillian_matrix(model)
        vec0 = EXCITED.reshape(-1)
        for t, state in zip(times, states):
            want = (expm(sup * t) @ vec0).reshape(2, 2)
            np.testing.assert_allclose(state, want, rtol=0, atol=1e-12)

    def test_non_uniform_grid_rejected(self):
        with pytest.raises(ValueError, match="uniform"):
            evolve(decay_model(), EXCITED, np.array([0.0, 0.1, 0.3]))

    @pytest.mark.parametrize(
        "rho0, match",
        [
            (np.diag([0.5, 0.4]), "trace"),
            (np.array([[0.5, 0.1], [0.3, 0.5]]), "Hermitian"),
            (np.diag([1.2, -0.2]), "negative eigenvalue"),
            (np.eye(3) / 3, "shape"),
        ],
    )
    def test_invalid_rho0_rejected(self, rho0, match):
        with pytest.raises(ValueError, match=match):
            evolve(decay_model(), rho0, np.linspace(0.0, 1.0, 11))

    @pytest.mark.parametrize("index", [1, 6, 10])
    def test_invalid_output_state_rejected(self, monkeypatch, index):
        # a propagator fault that corrupts one state of the stack is caught
        def corrupted(model, m0, times):
            mats = _evolve_matrix(model, m0, times)
            mats[index, 1, 1] += 1e-6
            return mats

        monkeypatch.setattr(dynamics, "_evolve_matrix", corrupted)
        with pytest.raises(ValueError, match="trace"):
            evolve(decay_model(), EXCITED, np.linspace(0.0, 1.0, 11))

    @pytest.mark.parametrize("ratio", [0.25, 2.0])
    def test_long_grid_meets_density_matrix_defaults(self, ratio):
        # evolve checks the whole stack itself; asserted here independently
        times = np.linspace(0.0, 20.0, 100_000)
        mats = evolve(driven_atom_model(ratio * GAMMA, GAMMA), EXCITED, times)
        assert np.max(np.abs(np.trace(mats, axis1=1, axis2=2) - 1.0)) < 1e-9
        assert np.max(np.abs(mats - mats.conj().transpose(0, 2, 1))) < 1e-9
        assert np.min(np.linalg.eigvalsh(mats)) > -1e-9


def test_engine_states_pass_through_check_states(monkeypatch):
    # the evolve input and output stack, the steady state, and the seed of a
    # correlator are each checked once, as one array
    seen, check = [], dynamics.check_states

    def spy(rho, dim):
        seen.append(np.shape(rho))
        return check(rho, dim)

    monkeypatch.setattr(dynamics, "check_states", spy)
    monkeypatch.setattr(correlations, "check_states", spy)
    model = driven_atom_model(2 * GAMMA, GAMMA)
    evolve(model, EXCITED, np.linspace(0.0, 1.0, 7))
    assert seen == [(2, 2), (7, 2, 2)]
    rho_ss = steady_state(model)
    assert seen[2:] == [(2, 2)]
    two_time_correlation(model, rho_ss, SM.conj().T, SM, np.linspace(0.0, 1.0, 5))
    assert seen[3:] == [(2, 2)]


class TestLiouvillian:
    @pytest.mark.parametrize("ratio", [0.1, 0.25, 1.0, 2.0, 8.0])
    def test_driven_emitter_bit_identical_to_kron(self, ratio):
        model = driven_atom_model(ratio * GAMMA, GAMMA)
        assert np.array_equal(bits(liouvillian_matrix(model)), bits(kron_liouvillian_reference(model)))

    def test_two_site_bit_identical_to_kron(self):
        model = two_site_model()
        sup = liouvillian_matrix(model)
        assert sup.shape == (16, 16)
        assert np.array_equal(bits(sup), bits(kron_liouvillian_reference(model)))

    def test_sampled_models_bit_identical_to_kron(self, rng):
        for dim, n_collapse in [(2, 0), (2, 1), (3, 2), (4, 3)] * 25:
            model = random_model(rng, dim, n_collapse)
            sup = liouvillian_matrix(model)
            assert np.array_equal(bits(sup), bits(kron_liouvillian_reference(model)))


class TestPadeExpm:
    @pytest.mark.parametrize("norm", PADE_NORMS)
    @pytest.mark.parametrize("ratio", [0.1, 0.25, 2.0, 8.0])
    def test_driven_emitter_matches_scipy(self, ratio, norm):
        # ratio 0.25 is the exceptional point, where L is defective
        sup = liouvillian_matrix(driven_atom_model(ratio * GAMMA, GAMMA))
        assert_matches_scipy_expm(scaled_to_norm(sup, norm))

    @pytest.mark.parametrize("norm", PADE_NORMS)
    def test_two_site_matches_scipy(self, norm):
        assert_matches_scipy_expm(scaled_to_norm(liouvillian_matrix(two_site_model()), norm))

    def test_zero_matrix_gives_identity(self):
        assert np.array_equal(_expm(np.zeros((4, 4), dtype=complex)), np.eye(4))

    @pytest.mark.parametrize("norm", PADE_NORMS)
    def test_degree_and_scaling_follow_theta(self, monkeypatch, norm):
        # the lowest degree whose theta bounds the 1-norm; above theta_13,
        # degree 13 on a / 2^s with s the fewest halvings that reach theta_13
        calls = []
        pade = dynamics._pade

        def spy(a, m):
            calls.append((m, np.abs(a).sum(axis=0).max()))
            return pade(a, m)

        monkeypatch.setattr(dynamics, "_pade", spy)
        _expm(scaled_to_norm(liouvillian_matrix(driven_atom_model(2 * GAMMA, GAMMA)), norm))
        ((degree, scaled),) = calls
        assert degree == min((m for m, theta in THETAS.items() if norm <= theta), default=13)
        assert scaled <= THETAS[degree] * (1 + 1e-15)
        if norm > THETAS[13]:
            assert 2 * scaled > THETAS[13]
        else:
            assert scaled == pytest.approx(norm, rel=1e-15)


class TestSteadyState:
    @pytest.mark.parametrize("gamma", [GAMMA, 1e6 * GAMMA], ids=["device", "fast"])
    def test_driven_two_level_population(self, gamma):
        # the residual check scales with the rates, so fast ones pass too
        for ratio in (0.25, 0.5, 1.0, 5.0):
            omega = ratio * gamma
            rho = steady_state(driven_atom_model(omega, gamma))
            assert rho[1, 1].real == pytest.approx(
                steady_population(omega, gamma), abs=1e-10
            )

    def test_strong_drive_saturates(self):
        rho = steady_state(driven_atom_model(100 * GAMMA, GAMMA))
        assert isinstance(rho, np.ndarray) and rho.shape == (2, 2)
        assert rho[1, 1].real == pytest.approx(0.5, abs=1e-3)

    def test_no_drive_gives_ground_projector(self):
        rho = steady_state(decay_model())
        np.testing.assert_allclose(rho, np.diag([1.0, 0.0]), atol=1e-12)

    def test_degenerate_null_space_rejected(self):
        with pytest.raises(NonUniqueSteadyStateError):
            steady_state(LindbladModel(H_ZERO, []))
