"""Lindblad master-equation right-hand side, time evolution and steady states.

The generator is the standard GKSL form

    drho/dt = -i[H, rho] + sum_k (L_k rho L_k^dag - {L_k^dag L_k, rho}/2)

with H in rad/us, so time grids are in microseconds throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from ..errors import NonUniqueSteadyStateError, NumericsError
from .operators import DensityMatrix, HilbertSpace, Operator
from .traces import _validate_axis

DEGENERACY_RATIO = 1e-10


@dataclass
class LindbladModel:
    """Hamiltonian plus collapse operators on one shared Hilbert space."""

    hamiltonian: Operator
    collapse_ops: list[Operator] = field(default_factory=list)

    def __post_init__(self):
        if not self.hamiltonian.is_hermitian():
            raise ValueError("Hamiltonian must be Hermitian within 1e-12")
        for op in self.collapse_ops:
            if op.space != self.hamiltonian.space:
                raise ValueError("collapse operator acts on a different space")

    @property
    def space(self) -> HilbertSpace:
        return self.hamiltonian.space


def lindblad_rhs(model: LindbladModel, rho: DensityMatrix | np.ndarray) -> np.ndarray:
    """Time derivative of rho under the model, in 1/us."""
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    d = model.space.dim
    if mat.shape != (d, d):
        raise ValueError("state dimension does not match the model")
    h = model.hamiltonian.matrix
    out = -1j * (h @ mat - mat @ h)
    for op in model.collapse_ops:
        l = op.matrix
        ldl = l.conj().T @ l
        out += l @ mat @ l.conj().T - 0.5 * (ldl @ mat + mat @ ldl)
    return out


def liouvillian_matrix(model: LindbladModel) -> np.ndarray:
    """Superoperator matrix acting on row-major vec(rho)."""
    d = model.space.dim
    eye = np.eye(d, dtype=complex)
    h = model.hamiltonian.matrix
    sup = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for op in model.collapse_ops:
        l = op.matrix
        ldl = l.conj().T @ l
        sup += np.kron(l, l.conj()) - 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T))
    return sup


def _evolve_matrix(model: LindbladModel, m0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Propagate an arbitrary matrix under the Lindblad generator.

    Exact on a uniform grid: P = expm(L dt) is formed once (expm, not an
    eigendecomposition, since L can be defective, e.g. the driven emitter at
    Omega = Gamma/4), and the states are filled by doubling: rows k..2k-1
    are P^k applied to rows 0..k-1, then P is squared. Returns an array of
    shape (len(times), d, d); times[0] is the initial time of m0.
    """
    times = np.asarray(times, dtype=float)
    _validate_axis(times)
    n, d = times.size, model.space.dim
    prop = expm(liouvillian_matrix(model) * ((times[-1] - times[0]) / (n - 1)))
    out = np.empty((n, d * d), dtype=complex)
    out[0] = np.asarray(m0, dtype=complex).reshape(-1)
    k = 1
    while k < n:
        m = min(k, n - k)
        # einsum, not @: the matmul path wakes BLAS worker threads
        out[k : k + m] = np.einsum("ij,tj->ti", prop, out[:m])
        prop = np.einsum("ij,jk->ik", prop, prop)
        k += m
    return out.reshape(n, d, d)


def evolve(model: LindbladModel, rho0: DensityMatrix, times: np.ndarray) -> list[DensityMatrix]:
    """Density matrices at each grid time, starting from rho0 at times[0]."""
    if rho0.space != model.space:
        raise ValueError("initial state lives on a different space")
    mats = _evolve_matrix(model, rho0.matrix, times)
    return [DensityMatrix(model.space, m) for m in mats]


def steady_state(model: LindbladModel) -> DensityMatrix:
    """Unique stationary state of the Liouvillian, from its null vector."""
    sup = liouvillian_matrix(model)
    _, s, vh = np.linalg.svd(sup)
    if s[0] == 0 or s[-2] < DEGENERACY_RATIO * s[0]:
        raise NonUniqueSteadyStateError(
            f"degenerate Liouvillian null space (second singular value {s[-2]:.3e})"
        )
    d = model.space.dim
    rho = vh[-1].conj().reshape(d, d)
    tr = np.trace(rho)
    if abs(tr) < 1e-12 * np.linalg.norm(rho):
        raise NumericsError("null vector of the Liouvillian is traceless")
    rho = rho / tr  # fixes the arbitrary phase and the normalization at once
    rho = (rho + rho.conj().T) / 2
    residual = np.max(np.abs(lindblad_rhs(model, rho)))
    if residual > 1e-10:
        raise NumericsError(f"steady-state residual {residual:.3e} exceeds 1e-10")
    return DensityMatrix(model.space, rho)
