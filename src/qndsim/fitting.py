"""Bounded nonlinear least squares, the one solver behind every fit.

_lsq minimises 0.5 ||f(x)||^2 over a box lower <= x <= upper with a
Levenberg-Marquardt trust region (Moré, LNM 630, 105 (1978)) kept strictly
inside the box by Coleman-Li affine scaling (SIAM J. Optim. 6, 418 (1996)).
A parameter at distance v from the bound its descent direction points at
gets the extra curvature |g|/v, and its trust-region radius shrinks with
sqrt(v): far from a bound the step is plain Gauss-Newton, near it the
parameter approaches the bound by a shrinking fraction of v, so an optimum
on a bound is reached quadratically and one just inside it is not skipped.
A parameter the step would still carry out of the box is held at STEP_BACK
of the way to its bound, and the step is re-solved for the others.

Each damped step comes from Cholesky factors of the scaled normal
equations (core._smallmat, in plain floats), and every product and norm is
an einsum without optimize, so no BLAS kernel reaches a fit's bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core._smallmat import cho_forward, cho_solve, cholesky

# stopping tolerances, see _lsq
FTOL = 1e-12
XTOL = 1e-12
GTOL = 1e-12
STEP_BACK = 0.995


@dataclass
class LsqResult:
    x: np.ndarray
    jac: np.ndarray  # at x
    cost: float  # 0.5 ||f(x)||^2
    nfev: int
    status: int  # 1 gtol, 2 ftol, 3 xtol; 0 evaluation cap; -1 non-finite
    success: bool


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.einsum("i,i->", a, b))


def _norm(v: np.ndarray) -> float:
    return math.sqrt(_dot(v, v))


def _damping(m, g, radius):
    """(lam, p): the smallest damping lam >= 0 with ||p|| <= radius, where
    (m + lam I) p = -g and m is symmetric positive semidefinite. Moré &
    Sorensen's Newton iteration on 1/||p(lam)|| (SIAM J. Sci. Stat. Comput.
    4, 553 (1983)) over Cholesky factors l of m + lam I:
    lam += (||p|| / radius - 1) ||p||^2 / ||l^-1 p||^2. A lam at which the
    factor fails is doubled, from 1e-12 of m's largest diagonal entry."""
    rows = m.tolist()
    diag = [row[i] for i, row in enumerate(rows)]
    lam = 0.0
    for _ in range(30):
        low = cholesky([[v + lam if i == k else v for k, v in enumerate(row)]
                        for i, row in enumerate(rows)])
        if low is None:
            lam = max(lam * 2.0, 1e-12 * max(1.0, *diag))
            continue
        p = -cho_solve(low, g)
        found = lam, p
        norm = _norm(p)
        if norm <= radius * 1.01:
            break
        q = cho_forward(low, p)
        lam += (norm / radius - 1.0) * norm**2 / _dot(q, q)
    return found


def _step(h, g, x, lower, upper):
    """Solution s of h s = -g, with each parameter that s would carry out of
    the box held at STEP_BACK of the way to its bound and s re-solved for
    the others. h is symmetric positive definite; should a re-solve's factor
    fail to working precision, the parameters still free stay where they are."""
    s = np.zeros_like(x)
    free = np.ones(x.size, dtype=bool)
    while free.any():
        rhs = -(g[free] + np.einsum("ij,j->i", h[np.ix_(free, ~free)], s[~free]))
        low = cholesky(h[np.ix_(free, free)])
        if low is None:
            s[free] = 0.0
            break
        s[free] = cho_solve(low, rhs)
        out = free & ((x + s <= lower) | (x + s >= upper))
        if not out.any():
            break
        s[out] = STEP_BACK * (np.where(s > 0, upper, lower) - x)[out]
        free &= ~out
    return s


def _lsq(fun, x0, jac, bounds=(-np.inf, np.inf), x_scale=1.0, max_nfev=None) -> LsqResult:
    """Minimise 0.5 ||fun(x)||^2 subject to bounds[0] <= x <= bounds[1].

    jac(x) returns the Jacobian of fun at x. x_scale gives each parameter's
    characteristic size, which shapes the trust region and the step test.
    max_nfev caps evaluations of fun (default 100 per parameter). A start on
    or outside a bound is moved just inside it.

    Stops with success (status in brackets) when every parameter's gradient
    cosine |J_j.f| / (||J_j|| ||f||), weighted by min(1, v_j / x_scale_j)
    for a parameter at distance v_j from the bound it descends to, is at
    most GTOL (1); when a step lowers the cost by less than FTOL of it and
    by at least a quarter of the predicted reduction (2); or when the scaled
    step shrinks below XTOL of the scaled parameter vector (3). Stops
    without success at max_nfev (0), or on non-finite residuals or Jacobian
    at the start or at an accepted point, on scaled normal equations that
    overflow there, or when trial steps kept giving non-finite residuals
    until the step vanished (-1).
    """
    x0 = np.asarray(x0, dtype=float)
    lower, upper = (np.broadcast_to(np.asarray(b, dtype=float), x0.shape) for b in bounds)
    inset = 1e-10 * np.maximum(1.0, np.abs(x0))
    x = np.clip(x0, lower + inset, upper - inset)
    inside_lower, inside_upper = np.nextafter(lower, upper), np.nextafter(upper, lower)
    n = x.size
    x_scale = np.broadcast_to(np.asarray(x_scale, dtype=float), (n,))
    max_nfev = 100 * n if max_nfev is None else max_nfev
    f = np.asarray(fun(x), dtype=float)
    nfev = 1
    if not np.all(np.isfinite(f)):
        return LsqResult(x, np.full((f.size, n), np.nan), np.inf, nfev, -1, False)
    cost = 0.5 * _dot(f, f)
    j = np.asarray(jac(x), dtype=float)
    radius = None
    status = None
    while status is None:
        if not np.all(np.isfinite(j)):
            status = -1
            break
        g = np.einsum("ij,i->j", j, f)
        # distance to the bound the descent direction -g points at
        dist = np.where(g < 0, upper - x, np.where(g > 0, x - lower, np.inf))
        v = np.where(np.isfinite(dist), dist / x_scale, 1.0)  # Coleman-Li scaling
        norms = np.sqrt(np.einsum("ij,ij->j", j, j))
        cosine = np.abs(g) * np.minimum(1.0, v) / np.where(norms > 0, norms, 1.0)
        if cost == 0.0 or np.max(cosine) <= GTOL * np.sqrt(2.0 * cost):
            status = 1
            break
        d = x_scale * np.sqrt(v)  # s = d * s_hat
        a = np.einsum("ki,kj->ij", j, j)
        curv = np.abs(g) / dist
        with np.errstate(over="ignore", invalid="ignore"):
            m = d[:, None] * a * d + np.diag(curv * d**2)
        if not np.all(np.isfinite(m)):  # J^T J or d overflowed: nothing to factor
            status = -1
            break
        if radius is None:
            radius = _norm(x / d) or 1.0
        while True:
            lam, p = _damping(m, d * g, radius)
            s = d * p
            if np.any((x + s <= lower) | (x + s >= upper)):
                s = _step(a + np.diag(curv + lam / d**2), g, x, lower, upper)
                # a parameter within rounding of its bound stays off it
                s = np.clip(x + s, inside_lower, inside_upper) - x
            step_norm = _norm(s / d)
            small = _norm(s / x_scale) <= XTOL * (XTOL + _norm(x / x_scale))
            if nfev >= max_nfev:
                status = 0
                break
            trial = x + s
            f_new = np.asarray(fun(trial), dtype=float)
            nfev += 1
            if not np.all(np.isfinite(f_new)):
                if small:
                    status = -1
                    break
                radius = 0.25 * step_norm
                continue
            cost_new = 0.5 * _dot(f_new, f_new)
            actual = cost - cost_new
            curvature = float(np.einsum("i,ij,j->", s, a, s)) + _dot(curv, s**2)
            predicted = -_dot(g, s) - 0.5 * curvature
            ratio = actual / predicted if predicted > 0 else float(actual == predicted == 0)
            if ratio < 0.25:
                radius = 0.25 * step_norm
            elif ratio > 0.75 and step_norm > 0.95 * radius:
                radius *= 2.0
            if actual < FTOL * cost and ratio > 0.25:
                status = 2
            elif small:
                status = 3
            if actual > 0:
                x, f, cost = trial, f_new, cost_new
                j = np.asarray(jac(x), dtype=float)
                break
            if status is not None:
                break
    return LsqResult(x, j, cost, nfev, status, status > 0)
