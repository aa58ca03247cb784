"""Lanczos runs on sparse symmetric operators.

The dominant eigenpair comes from one Lanczos run from the all-ones start,
whose Ritz vector one product checks against the eigen-residual rule
||Av - ray*v|| <= tol * max(|ray|, 1). The same run's Ritz values give a
lower estimate of sigma_2; a second, seeded Lanczos run on the deflated
operator gives sigma_2 itself, from above. The spectral radius bound
certifies the eigenvalue from above.
"""

from __future__ import annotations

import warnings

import numpy as np


def power_iteration(matvec, v):
    """One product of a symmetric operator with ``v``: the check of an
    eigenvector estimate.

    Returns (rayleigh, unit_vector, residual), with ``unit_vector`` v scaled
    to unit norm and ``residual`` the eigen-residual ||matvec(u) - ray*u||
    of that unit vector u.
    """
    v = v / np.linalg.norm(v)
    w = matvec(v)
    ray = float(v @ w)
    return ray, v, float(np.linalg.norm(w - ray * v))


# Lanczos product budget and relative residual tolerance of the dominant
# eigenpair, the most Lanczos vectors held at once, and the step cap and
# tolerance of the sigma_2 Lanczos run.
EIG_MAX_ITERS, EIG_TOL, EIG_BASIS = 10_000, 1e-8, 20
SIGMA2_MAX_STEPS, SIGMA2_TOL = 300, 1e-10


def _ritz_pairs(a, b):
    """Ascending eigenpairs of T_j: diagonal ``a``, off-diagonal ``b``."""
    return np.linalg.eigh(np.diag(a) + np.diag(b, 1) + np.diag(b, -1))


def _lanczos_top(adj, shift):
    """Lanczos on A with full reorthogonalization from the all-ones start.

    Holds at most ``EIG_BASIS`` basis vectors and restarts from the top
    Ritz vector when they are used up. Stops once the top Ritz residual
    beta_j*|e_j^T y| is at most EIG_TOL * max(|theta + shift|, 1), the
    checking product's rule on A + shift*I (Krylov spaces do not move under
    a shift), or after ``EIG_MAX_ITERS`` products. Returns (theta, ritz,
    steps): the Ritz values of the last basis in ascending order, the unit
    top Ritz vector and the products taken. The Ritz values are those of A
    on a subspace, so they interlace A's eigenvalues (Cauchy).
    """
    n = adj.shape[0]
    q = np.ones(n) / np.sqrt(n)
    basis = np.empty((min(EIG_BASIS, n), n))
    steps = 0
    while True:
        alphas, betas = [], []
        for j in range(len(basis)):
            basis[j] = q
            w = adj @ q
            steps += 1
            alphas.append(float(q @ w))
            # Classical Gram-Schmidt against the whole basis, twice.
            for _ in range(2):
                w -= basis[:j + 1].T @ (basis[:j + 1] @ w)
            beta = float(np.linalg.norm(w))
            theta, y = _ritz_pairs(alphas, betas)
            done = (beta * abs(y[-1, -1])
                    <= EIG_TOL * max(abs(theta[-1] + shift), 1.0))
            if done or steps >= EIG_MAX_ITERS:
                break
            betas.append(beta)
            q = w / beta
        q = y[:, -1] @ basis[:j + 1]
        q /= np.linalg.norm(q)
        if done or steps >= EIG_MAX_ITERS:
            return theta, q, steps


def dominant_eigenpair(adj, w_max):
    """Largest-magnitude eigenpair of a non-negative symmetric sparse
    matrix, and a lower estimate of sigma_2.

    For such matrices the spectral radius equals the top eigenvalue, and
    the all-ones start cannot be orthogonal to a Perron vector. The Ritz
    vector of :func:`_lanczos_top` is signed so that v1 . g > 0 for the
    seeded Gaussian g = default_rng(0).standard_normal(n), the sign a power
    loop from that start converges to, and then checked by one product
    (:func:`power_iteration`) on the shifted operator A + w_max*I, whose top
    eigenvalue is strictly dominant in magnitude even for bipartite graphs.
    That product gives the eigenvalue, the returned vector and the
    residual; a residual above ``EIG_TOL`` warns. Lanczos' own stop rule
    makes that happen only when it used up ``EIG_MAX_ITERS`` products or
    its Ritz residual understated the true one.

    The lower estimate is sigma2_floor = max(theta_2, -theta_min, 0) over
    the Ritz values of Lanczos' last basis. Cauchy interlacing gives
    theta_2 <= lambda_2(A) and theta_min >= lambda_n(A), and for any
    eig1 >= 0 and unit v1, M = A - eig1*v1*v1^T has lambda_1(M) >=
    lambda_2(A) and lambda_n(M) <= lambda_n(A) (Weyl), so sigma2_floor <=
    ||M||.

    The checking product's unshifted half A*v1 also gives A|v1| when v1 is
    single-signed: A*v1 itself, or 0 - A*v1 (which keeps zeros at +0.0),
    bit for bit. Returns (eigenvalue, unit_vector, residual, sigma2_floor,
    abs_product), with ``abs_product`` that A|v1|, or None for a mixed-sign
    v1.
    """
    n = adj.shape[0]
    if n == 0:
        return 0.0, np.zeros(0), 0.0, 0.0, np.zeros(0)
    shift = max(w_max, 1e-12)
    products = []

    def shifted(v):
        products.append(adj @ v)
        return products[-1] + shift * v

    theta, ritz, steps = _lanczos_top(adj, shift)
    if ritz @ np.random.default_rng(0).standard_normal(n) < 0:
        ritz = -ritz
    ray, vec, residual = power_iteration(shifted, ritz)
    if residual > EIG_TOL * max(abs(ray), 1.0):
        warnings.warn(
            f"power iteration residual {residual:.3e} after {steps} "
            "iterations; eigenpair estimate may be inaccurate",
            RuntimeWarning, stacklevel=2)
    floor = max(float(theta[-2]) if len(theta) > 1 else 0.0,
                -float(theta[0]), 0.0)
    abs_product = (products[-1] if (vec >= 0).all()
                   else 0.0 - products[-1] if (vec <= 0).all() else None)
    return ray - shift, vec, residual, floor, abs_product


def spectral_radius_bound(graph, v, abs_product=None):
    """Upper bound on the spectral radius of a non-negative symmetric matrix.

    The smaller of the largest weighted degree and the Collatz-Wielandt
    ratio max_i (A|v|)_i / |v|_i, both valid for any non-negative A; the
    ratio costs one matvec, none when ``abs_product`` gives A|v|, and is
    tight when v is the Perron vector. A row with |v|_i = 0 counts as 0
    when it is empty and as +inf otherwise (a component on which v
    vanishes may carry the spectral radius), so the degree bound then
    decides. ``graph`` is a ``WeightedGraph``, whose stored weights are
    positive: a row is empty iff its degree is 0.
    """
    degree = graph.degrees
    x = np.abs(v)
    ax = graph.adj @ x if abs_product is None else abs_product
    ratio = np.divide(ax, x, out=np.full(len(x), np.inf), where=x > 0)
    ratio[degree == 0] = 0.0
    return float(min(ratio.max(initial=0.0), degree.max(initial=0.0)))


def _lanczos_sigma2(adj, eig1, v1):
    """||M|| for M = A - eig1*v1*v1^T, from above, by Lanczos on M.

    Runs without reorthogonalization from a seeded unit start, so every run
    on the same operator takes the same steps. At each step, the larger
    |theta| of the two extreme Ritz values of the tridiagonal T_j is a lower
    estimate of ||M||, and the larger of them padded by its Ritz residual
    beta_j*|e_j^T y| an upper one (Parlett, The Symmetric Eigenvalue
    Problem, ch. 13). The run ends once the padded value exceeds the
    largest |theta| by at most ``SIGMA2_TOL`` relative, or after
    ``SIGMA2_MAX_STEPS`` steps, which warns: nothing then shows the last
    padded value to lie above ||M||. Returns the last padded value.
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
        theta, y = _ritz_pairs(alphas, betas)
        ends = np.abs(theta[[0, -1]])
        padded = float(np.max(ends + beta * np.abs(y[-1, [0, -1]])))
        if padded <= (1.0 + SIGMA2_TOL) * float(ends.max()):
            return padded
        betas.append(beta)
        q_prev, q = q, w / beta
    warnings.warn(
        f"sigma_2 Lanczos run not converged after {SIGMA2_MAX_STEPS} steps; "
        "its estimate may lie below ||M||", RuntimeWarning, stacklevel=2)
    return padded

