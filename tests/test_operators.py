import numpy as np
import pytest

from qndsim.core import (
    DensityMatrix,
    HilbertSpace,
    Operator,
    basis_ket,
    destroy,
    embed,
    expectation,
    pauli,
)
from qndsim.core.operators import _kron


def op(dims, mat):
    return Operator(HilbertSpace(tuple(dims)), mat)


class TestHilbertSpace:
    def test_dim_is_product(self):
        assert HilbertSpace((3, 5)).dim == 15

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            HilbertSpace(())

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            HilbertSpace((2, 0))


class TestTensor:
    def test_identity_case(self):
        result = embed(HilbertSpace((2, 2)), 0, np.eye(2))
        assert result.space.subsystem_dims == (2, 2)
        np.testing.assert_array_equal(result.matrix, np.eye(4))

    def test_sigma_z_with_identity(self):
        # the first subsystem is the most significant index of the product
        result = embed(HilbertSpace((2, 2)), 0, pauli("z"))
        np.testing.assert_allclose(np.diag(result.matrix), [1, 1, -1, -1])

    def test_disjoint_mode_operators_commute(self):
        # brute-force commutator of a x I and I x a^dag on 4 x 4 modes
        a = destroy(4)
        left = np.kron(a, np.eye(4))
        right = np.kron(np.eye(4), a.conj().T)
        comm = left @ right - right @ left
        assert np.max(np.abs(comm)) < 1e-12
        space = HilbertSpace((4, 4))
        lhs = embed(space, 0, a)
        rhs = embed(space, 1, a.conj().T)
        np.testing.assert_array_equal(lhs.matrix, left)
        np.testing.assert_array_equal(rhs.matrix, right)
        comm_ops = (lhs @ rhs - rhs @ lhs).matrix
        assert np.max(np.abs(comm_ops)) < 1e-12


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


class TestOperator:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            op([2], np.eye(3))

    def test_dag(self):
        sm = op([2], destroy(2))
        np.testing.assert_array_equal(sm.dag().matrix, destroy(2).conj().T)

    def test_hermiticity_probe(self):
        assert op([2], pauli("y")).is_hermitian()
        assert not op([2], destroy(2)).is_hermitian()

    def test_space_mismatch(self):
        with pytest.raises(ValueError):
            op([2], np.eye(2)) @ op([3], np.eye(3))


class TestEmbed:
    def test_matches_manual_kron(self):
        space = HilbertSpace((2, 3))
        lifted = embed(space, 1, destroy(3))
        np.testing.assert_array_equal(lifted.matrix, np.kron(np.eye(2), destroy(3)))

    def test_site_out_of_range(self):
        with pytest.raises(ValueError):
            embed(HilbertSpace((2,)), 1, np.eye(2))

    def test_wrong_local_dim(self):
        with pytest.raises(ValueError):
            embed(HilbertSpace((2, 3)), 0, np.eye(3))


class TestDensityMatrix:
    def test_valid_state(self):
        space = HilbertSpace((2,))
        rho = DensityMatrix(space, np.diag([0.25, 0.75]))
        assert rho.population(1) == 0.75

    def test_trace_enforced(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(HilbertSpace((2,)), np.diag([0.5, 0.4]))

    def test_hermiticity_enforced(self):
        mat = np.array([[0.5, 0.1], [0.3, 0.5]])
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(HilbertSpace((2,)), mat)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(HilbertSpace((2,)), np.diag([1.2, -0.2]))

    def test_from_ket_normalizes(self):
        space = HilbertSpace((2,))
        rho = DensityMatrix.from_ket(space, np.array([1.0, 1.0]))
        np.testing.assert_allclose(rho.matrix, np.full((2, 2), 0.5))


def test_basis_ket_and_expectation():
    space = HilbertSpace((2, 3))
    ket = basis_ket(space, (1, 2))
    assert ket[1 * 3 + 2] == 1.0
    rho = DensityMatrix.from_ket(HilbertSpace((2,)), basis_ket(HilbertSpace((2,)), (1,)))
    sz = Operator(HilbertSpace((2,)), pauli("z"))
    assert expectation(sz, rho) == pytest.approx(-1.0)
    assert expectation(Operator(HilbertSpace((2,)), np.eye(2)), rho) == pytest.approx(1.0)
