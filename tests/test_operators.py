import numpy as np
import pytest

from qndsim.core import check_states, destroy, embed, pauli
from qndsim.core.operators import _kron


class TestHilbertSpace:
    """A composite space is the tuple of its subsystem dimensions."""

    def test_dim_is_product(self):
        assert embed((3, 5), 0, np.eye(3)).shape == (15, 15)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            embed((), 0, np.eye(1))

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError, match="positive"):
            embed((2, 0), 0, np.eye(2))


class TestTensor:
    def test_identity_case(self):
        np.testing.assert_array_equal(embed((2, 2), 0, np.eye(2)), np.eye(4))

    def test_sigma_z_with_identity(self):
        # the first subsystem is the most significant index of the product
        result = embed((2, 2), 0, pauli("z"))
        np.testing.assert_allclose(np.diag(result), [1, 1, -1, -1])

    def test_disjoint_mode_operators_commute(self):
        # brute-force commutator of a x I and I x a^dag on 4 x 4 modes
        a = destroy(4)
        left = np.kron(a, np.eye(4))
        right = np.kron(np.eye(4), a.conj().T)
        comm = left @ right - right @ left
        assert np.max(np.abs(comm)) < 1e-12
        lhs = embed((4, 4), 0, a)
        rhs = embed((4, 4), 1, a.conj().T)
        np.testing.assert_array_equal(lhs, left)
        np.testing.assert_array_equal(rhs, right)
        assert np.max(np.abs(lhs @ rhs - rhs @ lhs)) < 1e-12


class TestKron:
    @pytest.mark.parametrize(
        "shape_a, shape_b",
        [((1, 1), (3, 2)), ((2, 3), (4, 1)), ((3, 2), (2, 5)), ((4, 4), (4, 4))],
    )
    def test_bit_identical_to_np_kron(self, rng, shape_a, shape_b):
        a = rng.standard_normal(shape_a) + 1j * rng.standard_normal(shape_a)
        b = rng.standard_normal(shape_b) + 1j * rng.standard_normal(shape_b)
        for left, right in [(a, b), (a, b.real), (a.real, b)]:
            got, want = _kron(left, right), np.kron(left, right)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestEmbed:
    def test_matches_manual_kron(self):
        lifted = embed((2, 3), 1, destroy(3))
        np.testing.assert_array_equal(lifted, np.kron(np.eye(2), destroy(3)))

    def test_three_sites(self):
        lifted = embed((2, 3, 2), 1, destroy(3))
        np.testing.assert_array_equal(lifted, np.kron(np.kron(np.eye(2), destroy(3)), np.eye(2)))
        assert lifted.dtype == complex

    def test_site_out_of_range(self):
        with pytest.raises(ValueError):
            embed((2,), 1, np.eye(2))

    def test_wrong_local_dim(self):
        with pytest.raises(ValueError):
            embed((2, 3), 0, np.eye(3))


# one violation of each property a density matrix must have
BAD_STATES = [
    (np.diag([0.5, 0.4]), "trace"),
    (np.array([[0.5, 0.1], [0.3, 0.5]]), "Hermitian"),
    (np.diag([1.2, -0.2]), "negative eigenvalue"),
]


class TestDensityMatrix:
    """check_states: unit trace, Hermitian and positive semidefinite to 1e-9,
    on one matrix or on a stack."""

    def test_valid_state(self):
        rho = check_states(np.diag([0.25, 0.75]), 2)
        assert rho.dtype == complex
        assert rho[1, 1] == 0.75

    def test_trace_enforced(self):
        with pytest.raises(ValueError, match="trace"):
            check_states(np.diag([0.5, 0.4]), 2)

    def test_hermiticity_enforced(self):
        mat = np.array([[0.5, 0.1], [0.3, 0.5]])
        with pytest.raises(ValueError, match="Hermitian"):
            check_states(mat, 2)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            check_states(np.diag([1.2, -0.2]), 2)

    def test_tolerances_are_1e_9(self):
        check_states(np.diag([0.5, 0.5 + 0.9e-9]), 2)
        with pytest.raises(ValueError, match="trace"):
            check_states(np.diag([0.5, 0.5 + 1.1e-9]), 2)
        check_states(np.array([[0.5, 0.9e-9], [0.0, 0.5]]), 2)
        with pytest.raises(ValueError, match="Hermitian"):
            check_states(np.array([[0.5, 1.1e-9], [0.0, 0.5]]), 2)
        check_states(np.diag([1.0 + 0.9e-9, -0.9e-9]), 2)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            check_states(np.diag([1.0 + 1.1e-9, -1.1e-9]), 2)

    def test_valid_stack(self):
        stack = np.array([np.diag([1.0, 0.0]), np.full((2, 2), 0.5), np.eye(2) / 2])
        np.testing.assert_array_equal(check_states(stack, 2), stack)

    @pytest.mark.parametrize("bad, match", BAD_STATES)
    @pytest.mark.parametrize("position", [0, 2, 4])
    def test_one_bad_member_of_a_stack_rejected(self, bad, match, position):
        stack = np.repeat(np.eye(2)[None] / 2, 5, axis=0)
        stack[position] = bad
        with pytest.raises(ValueError, match=match):
            check_states(stack, 2)

    @pytest.mark.parametrize("shape", [(3, 3), (2,), (2, 2, 2, 2), (4, 2, 3)])
    def test_shape_must_match_dim(self, shape):
        with pytest.raises(ValueError, match="shape"):
            check_states(np.zeros(shape), 2)
