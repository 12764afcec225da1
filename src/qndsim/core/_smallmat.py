"""Stack-vectorised routines for many small matrices, in elementwise numpy.

A stack of W n x n matrices is laid out structure-of-arrays, shape
(n, n, W): each matrix entry is one contiguous array over the stack, so
every step below is a ufunc over W values. No np.linalg, no @ and no BLAS
call, so the arithmetic is the same under every OpenBLAS kernel.
"""

from __future__ import annotations

import numpy as np


def lu_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a[:, :, w] x[:, w] = b[:, w] for every w: Gaussian elimination
    with partial pivoting by row exchanges, then back substitution.

    a has shape (n, n, W) and b shape (n, W); neither is modified. The
    pivot is the first entry of largest |re| + |im| in its column, as
    LAPACK's getrf chooses it. A singular system gives inf or nan, as
    elementwise division does.
    """
    a, b = np.asarray(a), np.asarray(b)
    n = a.shape[0]
    if a.ndim != 3 or a.shape[1] != n or b.shape != (n, a.shape[2]):
        raise ValueError(f"expected shapes (n, n, W) and (n, W), got {a.shape} and {b.shape}")
    # the augmented matrix [a | b]: each row exchange and elimination step
    # acts on both at once
    aug = np.empty((n, n + 1, a.shape[2]), dtype=np.result_type(a, b, float))
    aug[:, :n] = a
    aug[:, n] = b
    for k in range(n - 1):
        col = aug[k:, k]
        pivot = k + np.argmax(np.abs(col.real) + np.abs(col.imag), axis=0)
        for i in range(k + 1, n):
            swap = pivot == i
            if swap.any():
                aug[k], aug[i] = np.where(swap, aug[i], aug[k]), np.where(swap, aug[k], aug[i])
        for i in range(k + 1, n):
            aug[i, k + 1 :] -= (aug[i, k] / aug[k, k]) * aug[k, k + 1 :]
    x = np.empty_like(aug[:, n])
    for k in range(n - 1, -1, -1):
        acc = aug[k, n].copy()
        for j in range(k + 1, n):
            acc -= aug[k, j] * x[j]
        x[k] = acc / aug[k, k]
    return x
