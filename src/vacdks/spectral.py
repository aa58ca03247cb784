"""Seeded power iteration on sparse symmetric operators."""

from __future__ import annotations

import warnings

import numpy as np


def power_iteration(matvec, n, max_iters, tol, seed=0, stop="rayleigh"):
    """Estimate the dominant Rayleigh quotient of a symmetric operator.

    Iterates v <- matvec(v) from a seeded random unit start. With
    stop="rayleigh" the loop ends when the relative change of the Rayleigh
    quotient drops below ``tol``; with stop="residual" it ends when the
    relative eigen-residual ||matvec(v) - ray*v|| / max(|ray|, 1) does.
    Returns (rayleigh, unit_vector, residual).
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
        v_new = w / norm
        w = matvec(v_new)
        new_ray = float(v_new @ w)
        residual = float(np.linalg.norm(w - new_ray * v_new))
        if stop == "residual":
            done = residual <= tol * max(abs(new_ray), 1.0)
        else:
            done = abs(new_ray - ray) <= tol * max(abs(new_ray), 1e-300)
        v, ray = v_new, new_ray
        if done:
            break
    return ray, v, residual


# Iteration budget and tolerance of the dominant-eigenpair loop (residual
# rule) and of the sigma_2 loop (Rayleigh rule).
EIG_MAX_ITERS, EIG_TOL = 10_000, 1e-8
SIGMA2_MAX_ITERS, SIGMA2_TOL = 1000, 1e-7


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
                                         EIG_TOL, seed=0, stop="residual")
    if residual > EIG_TOL * max(abs(ray), 1.0):
        warnings.warn(
            f"power iteration residual {residual:.3e} after {EIG_MAX_ITERS} "
            "iterations; eigenpair estimate may be inaccurate",
            RuntimeWarning, stacklevel=2)
    return ray - shift, vec, residual


def second_singular_value(adj, eig1, v1):
    """Second-largest singular value via single deflation.

    Deflates the dominant eigenpair (signed eigenvalue ``eig1``, unit vector
    ``v1``) and power-iterates on the squared deflated operator (symmetric
    PSD, so no sign oscillation); the square root of its Rayleigh quotient
    is sigma_2.
    """
    def deflated(v):
        return adj @ v - eig1 * v1 * (v1 @ v)

    def squared(v):
        return deflated(deflated(v))

    ray, _, _ = power_iteration(squared, adj.shape[0], SIGMA2_MAX_ITERS,
                                SIGMA2_TOL, seed=1, stop="rayleigh")
    return float(np.sqrt(max(ray, 0.0)))
