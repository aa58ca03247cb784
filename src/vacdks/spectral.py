"""Seeded power iteration and Lanczos on sparse symmetric operators.

Both stop on a relative eigen-residual: the power loop on ||Av - ray*v||,
Lanczos on the Ritz residual of its extreme Ritz values. The spectral
radius bound certifies the power loop's eigenvalue from above.
"""

from __future__ import annotations

import warnings

import numpy as np


def power_iteration(matvec, n, max_iters, tol, seed=0):
    """Estimate the dominant eigenpair of a symmetric operator.

    Iterates v <- matvec(v) from a seeded random unit start until the
    relative eigen-residual ||matvec(v) - ray*v|| / max(|ray|, 1) drops
    below ``tol``. Returns (rayleigh, unit_vector, residual).
    """
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    w = matvec(v)
    ray = float(v @ w)
    residual = float(np.linalg.norm(w - ray * v))
    for _ in range(max_iters):
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0, v, 0.0
        v = w / norm
        w = matvec(v)
        ray = float(v @ w)
        residual = float(np.linalg.norm(w - ray * v))
        if residual <= tol * max(abs(ray), 1.0):
            break
    return ray, v, residual


# Iteration budget and relative residual tolerance of the dominant-eigenpair
# power loop and of the sigma_2 Lanczos run.
EIG_MAX_ITERS, EIG_TOL = 10_000, 1e-8
SIGMA2_MAX_STEPS, SIGMA2_TOL = 300, 1e-10


def dominant_eigenpair(adj, w_max):
    """Largest-magnitude eigenpair of a non-negative symmetric sparse matrix.

    For such matrices the spectral radius equals the top eigenvalue, so the
    iteration runs on the shifted operator A + w_max*I, whose top eigenvalue
    is strictly dominant in magnitude even for bipartite graphs. Warns when
    the residual is still above ``EIG_TOL`` after ``EIG_MAX_ITERS`` steps.
    Returns (eigenvalue, unit_vector, residual).
    """
    shift = max(w_max, 1e-12)

    def shifted(v):
        return adj @ v + shift * v

    ray, vec, residual = power_iteration(shifted, adj.shape[0], EIG_MAX_ITERS,
                                         EIG_TOL, seed=0)
    if residual > EIG_TOL * max(abs(ray), 1.0):
        warnings.warn(
            f"power iteration residual {residual:.3e} after {EIG_MAX_ITERS} "
            "iterations; eigenpair estimate may be inaccurate",
            RuntimeWarning, stacklevel=2)
    return ray - shift, vec, residual


def spectral_radius_bound(adj, v):
    """Upper bound on the spectral radius of a non-negative symmetric matrix.

    The smaller of the largest weighted degree and the Collatz-Wielandt
    ratio max_i (A|v|)_i / |v|_i, both valid for any non-negative A; the
    ratio costs one matvec and is tight when v is the Perron vector. A row
    with |v|_i = 0 counts as 0 when it is empty and as +inf otherwise (a
    component on which v vanishes may carry the spectral radius), so the
    degree bound then decides.
    """
    x = np.abs(v)
    ax = adj @ x
    ratio = np.divide(ax, x, out=np.full(len(x), np.inf), where=x > 0)
    ratio[np.diff(adj.indptr) == 0] = 0.0
    degree = np.asarray(adj.sum(axis=1)).ravel()
    return float(min(ratio.max(initial=0.0), degree.max(initial=0.0)))


def _lanczos_sigma2(adj, eig1, v1):
    """Lanczos on M = A - eig1*v1*v1^T: yields (max |theta|, padded |theta|).

    Runs without reorthogonalization from a seeded unit start, so every run
    on the same operator replays the same steps. At each step, the larger
    |theta| of the two extreme Ritz values of the tridiagonal T_j is a lower
    estimate of ||M||, and the larger of them padded by its Ritz residual
    beta_j*|e_j^T y| an upper one (Parlett, The Symmetric Eigenvalue
    Problem, ch. 13). The run ends once the padded value exceeds the
    largest |theta| by at most ``SIGMA2_TOL`` relative, or after
    ``SIGMA2_MAX_STEPS`` steps.
    """
    n = adj.shape[0]
    q = np.random.default_rng(1).standard_normal(n)
    q /= np.linalg.norm(q)
    q_prev, beta = np.zeros(n), 0.0
    alphas, betas = [], []
    for _ in range(SIGMA2_MAX_STEPS):
        w = adj @ q
        w -= (eig1 * float(v1 @ q)) * v1
        w -= beta * q_prev
        alphas.append(float(q @ w))
        w -= alphas[-1] * q
        beta = float(np.linalg.norm(w))
        t = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        theta, y = np.linalg.eigh(t)
        ends = np.abs(theta[[0, -1]])
        top = float(ends.max())
        padded = float(np.max(ends + beta * np.abs(y[-1, [0, -1]])))
        yield top, padded
        if padded <= (1.0 + SIGMA2_TOL) * top:
            return
        betas.append(beta)
        q_prev, q = q, w / beta


def second_singular_value(adj, eig1, v1):
    """Second-largest singular value via single deflation and Lanczos.

    Runs :func:`_lanczos_sigma2` on the deflated operator
    M = A - eig1*v1*v1^T, whose norm is sigma_2 when (eig1, v1) is the
    dominant eigenpair, and returns the last padded |theta|. It bounds
    ||M|| from above unless the start vector misses the top of the
    spectrum, which a random start does with small probability (Kuczynski
    & Wozniakowski, SIAM J. Matrix Anal. Appl. 13(4), 1992).
    """
    for _, sigma2 in _lanczos_sigma2(adj, eig1, v1):
        pass
    return sigma2
