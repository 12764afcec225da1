"""Dense operators and density matrices as plain complex arrays on truncated
tensor-product spaces.

Conventions: subsystem basis states are indexed from the ground state up
(qubit: 0=g, 1=e), Hamiltonian matrix elements are angular rates in rad/us,
collapse operators carry us^(-1/2). A composite space is a tuple of
subsystem dimensions, the first subsystem being the most significant index.
"""

from __future__ import annotations

import numpy as np

STATE_TOL = 1e-9


def check_states(rho: np.ndarray, dim: int) -> np.ndarray:
    """One d x d density matrix, or a stack (n, d, d) of them, checked for
    unit trace, Hermiticity and positive semidefiniteness, each to 1e-9.

    Returns rho as a complex array; raises ValueError naming the first
    violated property. The eigvalsh here is the package's one LAPACK call:
    a validation gate whose value only decides pass or raise, against a
    tolerance far above rounding, and never reaches an output.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim not in (2, 3) or rho.shape[-2:] != (dim, dim):
        raise ValueError(f"state shape {rho.shape} does not match dim {dim}")
    trace_err = np.max(np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0))
    if trace_err > STATE_TOL:
        raise ValueError(f"trace deviates from 1 by {trace_err:.3e} beyond {STATE_TOL}")
    rho_dag = rho.conj().swapaxes(-2, -1)
    if np.max(np.abs(rho - rho_dag)) > STATE_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    if np.min(np.linalg.eigvalsh((rho + rho_dag) / 2)) < -STATE_TOL:
        raise ValueError("matrix has a negative eigenvalue beyond tolerance")
    return rho


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices by broadcasting.

    The same elementwise products as np.kron, so bit-identical to it, without
    its generic n-dimensional shape handling.
    """
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


def embed(dims: tuple[int, ...], site: int, local: np.ndarray) -> np.ndarray:
    """Lift a single-subsystem matrix into the space of subsystem dimensions
    dims (identity elsewhere)."""
    if any(d < 1 for d in dims):
        raise ValueError("subsystem dimensions must be positive")
    if not 0 <= site < len(dims):
        raise ValueError("site index out of range")
    local = np.asarray(local, dtype=complex)
    if local.shape != (dims[site],) * 2:
        raise ValueError("local matrix does not match the subsystem dimension")
    mat = np.eye(1, dtype=complex)
    for k, d in enumerate(dims):
        mat = _kron(mat, local if k == site else np.eye(d))
    return mat


def destroy(dim: int) -> np.ndarray:
    """Truncated bosonic annihilation matrix; sigma_minus for dim=2."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)


def pauli(axis: str) -> np.ndarray:
    mats = {
        "x": np.array([[0, 1], [1, 0]], dtype=complex),
        "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "z": np.array([[1, 0], [0, -1]], dtype=complex),
    }
    return mats[axis]
