"""Small linear algebra in a fixed order: the one route for every solve on
qndsim's output path.

lu_solve takes a stack of W n x n systems laid out structure-of-arrays, shape
(n, n, W): each matrix entry is one contiguous array over the stack, so every
step is a ufunc over W values. cholesky, cho_forward, cho_solve and
cho_inverse take one small symmetric positive-definite matrix in plain
floats. No np.linalg, no @ and no BLAS call, so the arithmetic is the same
under every OpenBLAS kernel.
"""

from __future__ import annotations

import math

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


# One small symmetric positive-definite system (the normal equations of a
# fit, one row per parameter) in plain Python floats: each entry is one IEEE
# operation in a fixed order, and for a single system these loops beat the
# elementwise-numpy stack routine at W = 1.


def cholesky(a) -> list[list[float]] | None:
    """Lower factor l, as rows of floats, with a = l l^T; reads the lower
    triangle of the n x n matrix a. None when a pivot is not positive: a is
    not positive definite to working precision."""
    rows = np.asarray(a, dtype=float).tolist()
    low = [[0.0] * len(rows) for _ in rows]
    for i, (row, li) in enumerate(zip(rows, low)):
        for j in range(i + 1):
            lj = low[j]
            acc = row[j]
            for k in range(j):
                acc -= li[k] * lj[k]
            if j < i:
                li[j] = acc / lj[j]
            elif acc > 0:
                li[i] = math.sqrt(acc)
            else:
                return None
    return low


def cho_forward(low: list[list[float]], b) -> np.ndarray:
    """y with l y = b, forward substitution on the factor of cholesky."""
    y: list[float] = []
    for li, bi in zip(low, np.asarray(b, dtype=float).tolist()):
        acc = bi
        for lik, yk in zip(li, y):
            acc -= lik * yk
        y.append(acc / li[len(y)])
    return np.array(y)


def cho_solve(low: list[list[float]], b) -> np.ndarray:
    """x with a x = b for a = l l^T: forward, then back substitution."""
    y = cho_forward(low, b).tolist()
    n = len(y)
    x = [0.0] * n
    for i in range(n - 1, -1, -1):
        acc = y[i]
        for k in range(i + 1, n):
            acc -= low[k][i] * x[k]
        x[i] = acc / low[i][i]
    return np.array(x)


def cho_inverse(low: list[list[float]]) -> np.ndarray:
    """a^-1 = l^-T l^-1 for a = l l^T; its diagonal entries are sums of
    squares, so never negative."""
    n = len(low)
    inv_low = [cho_forward(low, col).tolist() for col in np.eye(n)]  # columns of l^-1
    out = np.empty((n, n))
    for i in range(n):
        for j in range(i + 1):
            acc = 0.0
            for k in range(i, n):
                acc += inv_low[i][k] * inv_low[j][k]
            out[i, j] = out[j, i] = acc
    return out
