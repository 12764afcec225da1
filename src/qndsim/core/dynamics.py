"""Lindblad master-equation right-hand side, time evolution and steady states.

The generator is the standard GKSL form

    drho/dt = -i[H, rho] + sum_k (L_k rho L_k^dag - {L_k^dag L_k, rho}/2)

with H in rad/us, so time grids are in microseconds throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import NonUniqueSteadyStateError, NumericsError
from .operators import _kron, check_states

DEGENERACY_RATIO = 1e-10
HERMITICITY_TOL = 1e-12
# Uniformity is judged relative to the axis scale: grids built with linspace
# on large carriers carry ~ulp jitter in the diffs.
AXIS_UNIFORMITY_RTOL = 1e-12

# Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005): the largest 1-norm at
# which the diagonal Pade approximant of each degree meets double-precision
# unit roundoff, and that approximant's coefficients b_0..b_m.
_PADE_THETA = (
    (3, 1.495585217958292e-2),
    (5, 2.539398330063230e-1),
    (7, 9.504178996162932e-1),
    (9, 2.097847961257068e0),
    (13, 5.371920351148152e0),
)
_PADE_COEFFS = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
         16380.0, 182.0, 1.0),
}


@dataclass
class LindbladModel:
    """Hamiltonian plus collapse operators, d x d complex arrays."""

    hamiltonian: np.ndarray
    collapse_ops: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        h = self.hamiltonian = np.asarray(self.hamiltonian, dtype=complex)
        self.collapse_ops = [np.asarray(op, dtype=complex) for op in self.collapse_ops]
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError(f"Hamiltonian shape {h.shape} is not square")
        if np.max(np.abs(h - h.conj().T)) > HERMITICITY_TOL:
            raise ValueError("Hamiltonian must be Hermitian within 1e-12")
        if any(op.shape != h.shape for op in self.collapse_ops):
            raise ValueError("collapse operator shape differs from the Hamiltonian's")

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


def lindblad_rhs(model: LindbladModel, rho: np.ndarray) -> np.ndarray:
    """Time derivative of rho under the model, in 1/us."""
    mat = np.asarray(rho, dtype=complex)
    d = model.dim
    if mat.shape != (d, d):
        raise ValueError("state dimension does not match the model")
    h = model.hamiltonian
    out = -1j * (h @ mat - mat @ h)
    for l in model.collapse_ops:
        ldl = l.conj().T @ l
        out += l @ mat @ l.conj().T - 0.5 * (ldl @ mat + mat @ ldl)
    return out


def liouvillian_matrix(model: LindbladModel) -> np.ndarray:
    """Superoperator matrix acting on row-major vec(rho)."""
    d = model.dim
    eye = np.eye(d, dtype=complex)
    h = model.hamiltonian
    sup = -1j * (_kron(h, eye) - _kron(eye, h.T))
    for l in model.collapse_ops:
        ldl = l.conj().T @ l
        sup += _kron(l, l.conj()) - 0.5 * (_kron(ldl, eye) + _kron(eye, ldl.T))
    return sup


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # einsum, not @: the matmul path wakes BLAS worker threads. Importing
    # qndsim first pins OpenBLAS to one thread, but not for a caller that
    # loaded numpy before qndsim, so the products stay off BLAS
    return np.einsum("ij,jk->ik", a, b)


def _pade(a: np.ndarray, m: int) -> np.ndarray:
    """Degree-m diagonal Pade approximant r_m(a) = (V - U)^-1 (V + U), with U
    the odd and V the even part of its numerator polynomial."""
    b = _PADE_COEFFS[m]
    eye = np.eye(len(a), dtype=a.dtype)
    a2 = _mm(a, a)
    powers = [eye, a2]
    while len(powers) <= m // 2:
        powers.append(_mm(powers[-1], a2))
    u = _mm(a, sum(b[2 * k + 1] * p for k, p in enumerate(powers)))
    v = sum(b[2 * k] * p for k, p in enumerate(powers))
    return np.linalg.solve(v - u, v + u)


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring (Higham 2005): the lowest Pade degree
    whose theta bounds the 1-norm; above theta_13, r_13 of a / 2^s squared
    s times, with s the fewest halvings that bring the norm to theta_13."""
    norm = np.abs(a).sum(axis=0).max()
    for m, theta in _PADE_THETA:
        if norm <= theta:
            return _pade(a, m)
    s = math.ceil(math.log2(norm / theta))
    out = _pade(a / 2.0**s, m)
    for _ in range(s):
        out = _mm(out, out)
    return out


def _validate_axis(axis: np.ndarray) -> None:
    if axis.ndim != 1 or axis.size < 2:
        raise ValueError("axis must be a 1-d grid with at least two points")
    steps = np.diff(axis)
    if np.any(steps <= 0):
        raise ValueError("axis must be strictly increasing")
    step = steps.mean()
    scale = max(np.abs(axis[0]), np.abs(axis[-1]), step)
    if np.max(np.abs(steps - step)) > AXIS_UNIFORMITY_RTOL * scale:
        raise ValueError("axis must be uniform")


def _evolve_matrix(model: LindbladModel, m0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Propagate an arbitrary matrix under the Lindblad generator.

    Exact on a uniform grid: P = exp(L dt) is formed once, and the states
    are filled by doubling: rows k..2k-1 are P^k applied to rows 0..k-1,
    then P is squared. Returns an array of shape (len(times), d, d);
    times[0] is the initial time of m0.

    P comes from Higham's scaling-and-squaring Pade (_expm), not from an
    eigendecomposition, since L can be defective (the driven emitter at
    Omega = Gamma/4). It replaces scipy.linalg.expm, whose LAPACK solve wakes
    OpenBLAS worker threads that keep spinning after it returns; the Pade
    uses einsum products and np.linalg.solve, which stay on one core.
    The package's one-thread OpenBLAS default (qndsim/__init__.py) acts only
    when qndsim loads numpy; einsum keeps callers that imported numpy first
    off the BLAS threads too.
    """
    times = np.asarray(times, dtype=float)
    _validate_axis(times)
    n, d = times.size, model.dim
    prop = _expm(liouvillian_matrix(model) * ((times[-1] - times[0]) / (n - 1)))
    out = np.empty((n, d * d), dtype=complex)
    out[0] = np.asarray(m0, dtype=complex).reshape(-1)
    k = 1
    while k < n:
        m = min(k, n - k)
        out[k : k + m] = np.einsum("ij,tj->ti", prop, out[:m])
        prop = _mm(prop, prop)
        k += m
    return out.reshape(n, d, d)


def evolve(model: LindbladModel, rho0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Density matrices at each grid time, shape (len(times), d, d), starting
    from rho0 at times[0]; the input and the whole output stack are checked
    as valid states."""
    rho0 = check_states(rho0, model.dim)
    return check_states(_evolve_matrix(model, rho0, times), model.dim)


def steady_state(model: LindbladModel) -> np.ndarray:
    """Unique stationary state of the Liouvillian, from its null vector."""
    sup = liouvillian_matrix(model)
    _, s, vh = np.linalg.svd(sup)
    if s[0] == 0 or s[-2] < DEGENERACY_RATIO * s[0]:
        raise NonUniqueSteadyStateError(
            f"degenerate Liouvillian null space (second singular value {s[-2]:.3e})"
        )
    d = model.dim
    rho = vh[-1].conj().reshape(d, d)
    tr = np.trace(rho)
    if abs(tr) < 1e-12 * np.linalg.norm(rho):
        raise NumericsError("null vector of the Liouvillian is traceless")
    rho = rho / tr  # fixes the arbitrary phase and the normalization at once
    rho = (rho + rho.conj().T) / 2
    # relative to the Liouvillian's norm, with which the rounding error scales
    residual = np.max(np.abs(lindblad_rhs(model, rho))) / s[0]
    if residual > 1e-10:
        raise NumericsError(f"steady-state relative residual {residual:.3e} exceeds 1e-10")
    return check_states(rho, d)
