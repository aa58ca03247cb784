"""Solution-quality metrics and the instance-dependent upper bound."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .baselines import lrbo_rank1
from .constraints import ConstraintSpec, validate
from .graph import (AttributeAssignment, WeightedGraph, _vertex_ids,
                    induced_weight)
from .spectral import second_singular_value

# Relative spectral gap below which the sigma_2 estimate is considered
# unreliable and the corresponding bound term is widened.
DEGENERATE_GAP = 1e-6


@dataclass(frozen=True)
class BoundReport:
    """Three-term upper bound on the optimal normalized edge weight."""

    term_trivial: float
    term_rank1: float
    term_sigma1: float
    bound: float
    sigma1: float
    sigma2: float
    bilinear_value: float
    degenerate_spectrum: bool
    power_residual: float

    def to_dict(self):
        return asdict(self)


def normalized_edge_weight(graph: WeightedGraph, s) -> float:
    """Induced weight divided by w_max * C(k, 2); density for unit weights."""
    s = _vertex_ids(s, graph.n)
    k = len(s)
    if k < 2:
        raise ValueError("normalized edge weight needs at least 2 vertices")
    if graph.w_max == 0.0:
        return 0.0
    return induced_weight(graph, s) / (graph.w_max * k * (k - 1) / 2.0)


def group_proportions(attr: AttributeAssignment, s) -> np.ndarray:
    """Fraction of the selection falling in each group; sums to 1."""
    s = _vertex_ids(s, attr.n)
    if len(s) == 0:
        raise ValueError("empty selection")
    counts = np.bincount(attr.labels[s], minlength=attr.r)
    return counts / len(s)


def recovery_check(planted, s) -> bool:
    """True iff the solution equals the planted ground truth exactly.

    Both must hold non-negative integer ids; there is no graph to bound them.
    """
    no_bound = np.iinfo(np.int64).max
    return np.array_equal(_vertex_ids(planted, no_bound),
                          _vertex_ids(s, no_bound))


def upper_bound(graph: WeightedGraph, spec: ConstraintSpec) -> BoundReport:
    """Upper bound on the optimal normalized edge weight.

    min of: the trivial bound 1; the rank-1 bilinear value plus a sigma_2
    correction; and sigma_1 / (w_max (k-1)). Computed on A itself; the
    diagonal loading is a solver device and does not enter the bound. The
    graph's eigenpair serves sigma_1, sigma_2 and the bilinear value.
    """
    validate(spec, graph)
    k = spec.k
    if k < 2:
        raise ValueError("upper bound needs k >= 2")
    if graph.m == 0:
        return BoundReport(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, False, 0.0)

    w_max = graph.w_max
    eig1, v1, residual = graph.eigenpair
    sigma1 = abs(eig1)
    sigma2 = second_singular_value(graph.adj, eig1, v1)
    degenerate = (sigma1 - sigma2) < DEGENERATE_GAP * max(sigma1, 1e-300)
    sigma2_eff = sigma2 + DEGENERATE_GAP * sigma1 if degenerate else sigma2

    bilinear_value = lrbo_rank1(graph, spec)[2]
    term_trivial = 1.0
    term_rank1 = (bilinear_value / (w_max * k * (k - 1))
                  + sigma2_eff / (w_max * (k - 1)))
    term_sigma1 = sigma1 / (w_max * (k - 1))
    bound = min(term_trivial, term_rank1, term_sigma1)
    return BoundReport(term_trivial, term_rank1, term_sigma1, bound,
                       sigma1, sigma2, bilinear_value, degenerate, residual)
