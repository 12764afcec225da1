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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _damping(e, b2, radius):
    """Smallest damping lam >= 0 with ||s(lam)|| <= radius, where
    ||s(lam)||^2 = sum(b2 / (e + lam)^2) in the eigenbasis of the step
    matrix: Newton's method on 1/||s(lam)|| (Moré & Sorensen)."""
    lam = max(0.0, -e[0])
    for _ in range(30):
        den = e + lam
        if np.all(den > 0):
            norm = np.sqrt(np.sum(b2 / den**2))
            if norm <= radius * 1.01:
                break
            lam += (norm / radius - 1.0) * norm**2 / np.sum(b2 / den**3)
        else:
            lam = max(lam * 2.0, 1e-12 * max(1.0, abs(e[-1])))
    return lam


def _step(h, g, x, lower, upper):
    """Solution s of h s = -g, with each parameter that s would carry out of
    the box held at STEP_BACK of the way to its bound and s re-solved for
    the others."""
    s = np.zeros_like(x)
    free = np.ones(x.size, dtype=bool)
    while free.any():
        rhs = -(g[free] + h[np.ix_(free, ~free)] @ s[~free])
        s[free] = np.linalg.solve(h[np.ix_(free, free)], rhs)
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
    at the start or at an accepted point, or when trial steps kept giving
    non-finite residuals until the step vanished (-1).
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
    cost = 0.5 * float(f @ f)
    j = np.asarray(jac(x), dtype=float)
    radius = None
    status = None
    while status is None:
        if not np.all(np.isfinite(j)):
            status = -1
            break
        g = j.T @ f
        # distance to the bound the descent direction -g points at
        dist = np.where(g < 0, upper - x, np.where(g > 0, x - lower, np.inf))
        v = np.where(np.isfinite(dist), dist / x_scale, 1.0)  # Coleman-Li scaling
        norms = np.sqrt(np.einsum("ij,ij->j", j, j))
        cosine = np.abs(g) * np.minimum(1.0, v) / np.where(norms > 0, norms, 1.0)
        if cost == 0.0 or np.max(cosine) <= GTOL * np.sqrt(2.0 * cost):
            status = 1
            break
        d = x_scale * np.sqrt(v)  # s = d * s_hat
        a = j.T @ j
        curv = np.abs(g) / dist
        e, q = np.linalg.eigh(d[:, None] * a * d + np.diag(curv * d**2))
        gq = q.T @ (d * g)
        if radius is None:
            radius = float(np.linalg.norm(x / d)) or 1.0
        while True:
            lam = _damping(e, gq**2, radius)
            s = -d * (q @ (gq / (e + lam)))
            if np.any((x + s <= lower) | (x + s >= upper)):
                s = _step(a + np.diag(curv + lam / d**2), g, x, lower, upper)
                # a parameter within rounding of its bound stays off it
                s = np.clip(x + s, inside_lower, inside_upper) - x
            step_norm = float(np.linalg.norm(s / d))
            small = np.linalg.norm(s / x_scale) <= XTOL * (XTOL + np.linalg.norm(x / x_scale))
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
            cost_new = 0.5 * float(f_new @ f_new)
            actual = cost - cost_new
            predicted = -float(g @ s) - 0.5 * float(s @ a @ s + curv @ s**2)
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
