"""Projection-free Frank-Wolfe solver for the diagonally loaded relaxation.

Maximizes g(x) = x^T (A + lam*I) x over the relaxed feasible set using
closed-form linear maximization (no projections) and the adaptive step
gamma = min(1, gap / (L ||d||^2)), which guarantees monotone ascent when
L bounds the spectral norm of A + lam*I.

A x is computed once. Each LMO answer s is a 0/1 vertex with k ones, so
A s is the sum of k CSR rows and a step updates A x <- (1-gamma) A x +
gamma A s: an iteration costs O(n + k * mean degree), with no full
matrix-vector product, and A s is reused while the LMO repeats its answer.
Every product of A with a point of small support (a 0/1 start, A s, the
rounding's A x of the final iterate) sums that support's rows and equals
the full product bit for bit.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .constraints import (
    ConstraintSpec,
    check_fractional,
    init_uniform,
    lmo,
    round_to_integral,
    validate,
)
from .graph import WeightedGraph, _support_product

# Safety factor applied to the power-method estimate so the step rule's
# ascent guarantee survives eigenvalue underestimation.
L_INFLATION = 1.01


@dataclass(frozen=True)
class FwConfig:
    """Solver knobs. ``lam=None`` resolves to w_max at solve time."""

    lam: float | None = None
    max_iters: int = 500
    gap_tol: float = 1e-6

    def __post_init__(self):
        if self.lam is not None and not (math.isfinite(self.lam)
                                         and self.lam >= 0):
            raise ValueError("lam must be finite and non-negative")
        if not (isinstance(self.max_iters, numbers.Integral)
                and self.max_iters >= 1):
            raise ValueError("max_iters must be an integer of at least 1")
        if not (math.isfinite(self.gap_tol) and self.gap_tol > 0):
            raise ValueError("gap_tol must be finite and positive")


@dataclass
class FwTrace:
    """Per-iteration diagnostics of a solve."""

    objective: list = field(default_factory=list)
    gap: list = field(default_factory=list)
    step_size: list = field(default_factory=list)
    iterations: int = 0
    wall_seconds: float = 0.0
    converged: bool = False


def objective_g(graph: WeightedGraph, lam, x) -> float:
    """g(x) = x^T A x + lam * ||x||^2 via one sparse matrix-vector product."""
    x = np.asarray(x, dtype=np.float64)
    return float(x @ (graph.adj @ x) + lam * (x @ x))


def lipschitz_estimate(graph: WeightedGraph, lam) -> float:
    """Inflated power-method estimate of ||A + lam*I||_2.

    The adjacency is entrywise non-negative, so the spectral norm equals the
    top eigenvalue of A plus lam; the eigenvalue comes from
    ``graph.eigenpair``, which warns once per graph if it did not converge.
    """
    return L_INFLATION * max(graph.eigenpair[0] + lam, lam)


def solve_fw(graph: WeightedGraph, spec: ConstraintSpec, cfg: FwConfig = None,
             x0=None):
    """Run Frank-Wolfe from ``x0`` (uniform initialization when omitted).

    Stops when the FW gap grad.(s - x) falls below gap_tol * max(1, g(x))
    or after max_iters. Returns (x_final, selected, trace) where
    ``selected`` is the sorted vertex array obtained by rounding the final
    iterate. Deterministic given inputs.
    """
    cfg = cfg or FwConfig()
    validate(spec, graph)
    lam = cfg.lam if cfg.lam is not None else graph.w_max
    if x0 is None:
        x0 = init_uniform(spec)
    check_fractional(spec, x0)

    start = time.perf_counter()
    L = lipschitz_estimate(graph, lam)
    x = np.asarray(x0, dtype=np.float64).copy()
    adj = graph.adj
    ax = _support_product(adj, x)
    s_prev = a_s = None
    trace = FwTrace()
    for _ in range(cfg.max_iters):
        grad = ax + lam * x
        obj = float(x @ grad)
        s = lmo(spec, grad)
        d = s - x
        gap = max(float(grad @ d), 0.0)
        dn2 = float(d @ d)
        done = gap <= cfg.gap_tol * max(1.0, obj) or dn2 == 0.0
        gamma = 0.0 if done else min(1.0, gap / (L * dn2))
        trace.iterations += 1
        trace.objective.append(obj)
        trace.gap.append(gap)
        trace.step_size.append(gamma)
        if done:
            trace.converged = True
            break
        x += gamma * d
        # A x moves to (1 - gamma) A x + gamma A s, with A s from s's k rows.
        if s_prev is None or not np.array_equal(s, s_prev):
            s_prev, a_s = s, _support_product(adj, s)
        ax *= 1.0 - gamma
        ax += gamma * a_s

    rounded = round_to_integral(graph, spec, max(lam, graph.w_max), x)
    trace.wall_seconds = time.perf_counter() - start
    selected = np.flatnonzero(rounded > 0.5)
    return x, selected, trace
