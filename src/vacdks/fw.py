"""Projection-free Frank-Wolfe solver for the diagonally loaded relaxation.

Maximizes g(x) = x^T (A + lam*I) x over the relaxed feasible set using
closed-form linear maximization (no projections) and the adaptive step
gamma = min(1, gap / (L ||d||^2)), which guarantees monotone ascent when
L bounds the spectral norm of A + lam*I.
"""

from __future__ import annotations

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
from .graph import WeightedGraph
from .spectral import power_iteration

# Safety factor applied to the power-method estimate so the step rule's
# ascent guarantee survives eigenvalue underestimation.
L_INFLATION = 1.01


@dataclass(frozen=True)
class FwConfig:
    """Solver knobs. ``lam=None`` resolves to w_max at solve time."""

    lam: float | None = None
    max_iters: int = 500
    gap_tol: float = 1e-6
    power_iters: int = 100
    power_tol: float = 1e-7

    def __post_init__(self):
        if self.lam is not None and self.lam < 0:
            raise ValueError("lam must be non-negative")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.gap_tol <= 0 or self.power_tol <= 0:
            raise ValueError("tolerances must be positive")


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


def lipschitz_estimate(graph: WeightedGraph, lam, power_iters=100,
                       power_tol=1e-7, seed=0) -> float:
    """Inflated power-method estimate of ||A + lam*I||_2.

    The adjacency is entrywise non-negative, so the spectral norm equals the
    top eigenvalue of A plus lam and plain power iteration suffices.
    """
    if graph.m == 0:
        return L_INFLATION * lam

    def matvec(v):
        return graph.adj @ v + lam * v

    ray, _, _ = power_iteration(matvec, graph.n, power_iters, power_tol, seed)
    return L_INFLATION * max(ray, lam)


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
    L = lipschitz_estimate(graph, lam, cfg.power_iters, cfg.power_tol)
    x = np.asarray(x0, dtype=np.float64).copy()
    trace = FwTrace()
    for _ in range(cfg.max_iters):
        grad = graph.adj @ x + lam * x
        obj = float(x @ grad)
        s = lmo(spec, grad)
        d = s - x
        gap = max(float(grad @ d), 0.0)
        dn2 = float(d @ d)
        trace.iterations += 1
        if gap <= cfg.gap_tol * max(1.0, obj) or dn2 == 0.0:
            trace.objective.append(obj)
            trace.gap.append(gap)
            trace.step_size.append(0.0)
            trace.converged = True
            break
        gamma = min(1.0, gap / (L * dn2))
        trace.objective.append(obj)
        trace.gap.append(gap)
        trace.step_size.append(gamma)
        x += gamma * d

    rounded = round_to_integral(graph, spec, max(lam, graph.w_max), x)
    trace.wall_seconds = time.perf_counter() - start
    selected = np.flatnonzero(rounded > 0.5)
    return x, selected, trace
