"""Dense operators and density matrices on truncated tensor-product spaces.

Conventions: subsystem basis states are indexed from the ground state up
(qubit: 0=g, 1=e), Hamiltonian matrix elements are angular rates in rad/us,
collapse operators carry us^(-1/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable

import numpy as np

HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class HilbertSpace:
    """Ordered composite of finite-dimensional subsystems."""

    subsystem_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.subsystem_dims)
        object.__setattr__(self, "subsystem_dims", dims)
        if not dims:
            raise ValueError("need at least one subsystem")
        if any(d < 1 for d in dims):
            raise ValueError("subsystem dimensions must be positive")

    @property
    def dim(self) -> int:
        return prod(self.subsystem_dims)


@dataclass
class Operator:
    """Dense complex matrix acting on a HilbertSpace."""

    space: HilbertSpace
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        d = self.space.dim
        if self.matrix.shape != (d, d):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match space dim {d}"
            )

    def dag(self) -> "Operator":
        return Operator(self.space, self.matrix.conj().T)

    def is_hermitian(self, tol: float = HERMITICITY_TOL) -> bool:
        return bool(np.max(np.abs(self.matrix - self.matrix.conj().T)) <= tol)

    def __add__(self, other: "Operator") -> "Operator":
        self._check_space(other)
        return Operator(self.space, self.matrix + other.matrix)

    def __sub__(self, other: "Operator") -> "Operator":
        self._check_space(other)
        return Operator(self.space, self.matrix - other.matrix)

    def __neg__(self) -> "Operator":
        return Operator(self.space, -self.matrix)

    def __mul__(self, scalar: complex) -> "Operator":
        return Operator(self.space, self.matrix * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check_space(other)
        return Operator(self.space, self.matrix @ other.matrix)

    def _check_space(self, other: "Operator") -> None:
        if other.space != self.space:
            raise ValueError("operators act on different spaces")


@dataclass
class DensityMatrix:
    """Valid quantum state: unit trace, Hermitian, positive semidefinite."""

    space: HilbertSpace
    matrix: np.ndarray
    trace_tol: float = 1e-9
    herm_tol: float = 1e-9
    psd_tol: float = 1e-9

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        d = self.space.dim
        if self.matrix.shape != (d, d):
            raise ValueError("matrix shape does not match space dim")
        tr = np.trace(self.matrix)
        if abs(tr - 1.0) > self.trace_tol:
            raise ValueError(f"trace {tr} deviates from 1 beyond {self.trace_tol}")
        if np.max(np.abs(self.matrix - self.matrix.conj().T)) > self.herm_tol:
            raise ValueError("matrix is not Hermitian within tolerance")
        if np.min(np.linalg.eigvalsh((self.matrix + self.matrix.conj().T) / 2)) < -self.psd_tol:
            raise ValueError("matrix has a negative eigenvalue beyond tolerance")

    @classmethod
    def from_ket(cls, space: HilbertSpace, ket: np.ndarray) -> "DensityMatrix":
        v = np.asarray(ket, dtype=complex).reshape(-1)
        v = v / np.linalg.norm(v)
        return cls(space, np.outer(v, v.conj()))

    def population(self, index: int) -> float:
        return float(self.matrix[index, index].real)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices by broadcasting.

    The same elementwise products as np.kron, so bit-identical to it, without
    its generic n-dimensional shape handling.
    """
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


def embed(space: HilbertSpace, site: int, local: np.ndarray) -> Operator:
    """Lift a single-subsystem matrix into the full space (identity elsewhere)."""
    if not 0 <= site < len(space.subsystem_dims):
        raise ValueError("site index out of range")
    local = np.asarray(local, dtype=complex)
    if local.shape != (space.subsystem_dims[site],) * 2:
        raise ValueError("local matrix does not match the subsystem dimension")
    mat = np.eye(1, dtype=complex)
    for k, d in enumerate(space.subsystem_dims):
        mat = _kron(mat, local if k == site else np.eye(d))
    return Operator(space, mat)


def destroy(dim: int) -> np.ndarray:
    """Truncated bosonic annihilation matrix; sigma_minus for dim=2."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)


def number(dim: int) -> np.ndarray:
    return np.diag(np.arange(dim, dtype=float)).astype(complex)


def pauli(axis: str) -> np.ndarray:
    mats = {
        "x": np.array([[0, 1], [1, 0]], dtype=complex),
        "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "z": np.array([[1, 0], [0, -1]], dtype=complex),
    }
    return mats[axis]


def basis_ket(space: HilbertSpace, indices: Iterable[int]) -> np.ndarray:
    """Product basis state |i0, i1, ...> as a flat vector."""
    idx = tuple(indices)
    if len(idx) != len(space.subsystem_dims):
        raise ValueError("one index per subsystem required")
    flat = 0
    for i, d in zip(idx, space.subsystem_dims):
        if not 0 <= i < d:
            raise ValueError("basis index out of range")
        flat = flat * d + i
    ket = np.zeros(space.dim, dtype=complex)
    ket[flat] = 1.0
    return ket


def expectation(op: Operator, rho: DensityMatrix) -> complex:
    return complex(np.trace(op.matrix @ rho.matrix))
