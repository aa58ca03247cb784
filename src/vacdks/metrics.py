"""Solution-quality metrics and the instance-dependent upper bound."""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .baselines import lrbo_rank1
from .constraints import ConstraintSpec, validate
from .graph import (AttributeAssignment, WeightedGraph, _vertex_ids,
                    induced_weight)
from .spectral import (_lanczos_sigma2, second_singular_value,
                       spectral_radius_bound)

# Relative spectral gap below which the sigma_2 estimate is considered
# unreliable and the corresponding bound term is widened.
DEGENERATE_GAP = 1e-6


@dataclass(frozen=True, eq=False)
class BoundReport:
    """Three-term upper bound on the optimal normalized edge weight.

    ``term_rank1``, ``sigma2`` and ``degenerate_spectrum`` are resolved on
    first read and cached: ``bound`` may have been settled before sigma_2
    converged, and then reading them, ``to_dict`` or ``==`` runs sigma_2 to
    convergence.
    """

    term_trivial: float
    term_sigma1: float
    bound: float
    sigma1: float
    bilinear_value: float
    power_residual: float
    # () -> (term_rank1, sigma2, degenerate_spectrum)
    _rank1: Callable = field(repr=False)

    @functools.cached_property
    def _resolved(self):
        return self._rank1()

    @property
    def term_rank1(self) -> float:
        return self._resolved[0]

    @property
    def sigma2(self) -> float:
        return self._resolved[1]

    @property
    def degenerate_spectrum(self) -> bool:
        return self._resolved[2]

    def to_dict(self):
        return {name: getattr(self, name) for name in (
            "term_trivial", "term_rank1", "term_sigma1", "bound", "sigma1",
            "sigma2", "bilinear_value", "degenerate_spectrum",
            "power_residual")}

    def __eq__(self, other):
        if not isinstance(other, BoundReport):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    __hash__ = None


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
    graph's eigenpair serves sigma_2 and the bilinear value; sigma_1 is
    ``spectral_radius_bound``, never below the top eigenvalue.

    sigma_2's Lanczos run stops early once the rank-1 term built from its
    largest |theta| (at most ||M||, so at most the converged sigma_2)
    exceeds min(1, sigma_1 term): sigma_2 can then no longer decide the
    bound.
    """
    validate(spec, graph)
    k = spec.k
    if k < 2:
        raise ValueError("upper bound needs k >= 2")
    if graph.m == 0:
        return BoundReport(1.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                           lambda: (0.0, 0.0, False))

    w_max = graph.w_max
    eig1, v1, residual = graph.eigenpair
    sigma1 = spectral_radius_bound(graph.adj, v1)
    bilinear_value = lrbo_rank1(graph, spec)[2]
    term_sigma1 = sigma1 / (w_max * (k - 1))
    cap = min(1.0, term_sigma1)

    def rank1(sigma2):
        degenerate = (sigma1 - sigma2) < DEGENERATE_GAP * max(sigma1, 1e-300)
        sigma2_eff = sigma2 + DEGENERATE_GAP * sigma1 if degenerate else sigma2
        term = (bilinear_value / (w_max * k * (k - 1))
                + sigma2_eff / (w_max * (k - 1)))
        return term, sigma2, degenerate

    for top, sigma2 in _lanczos_sigma2(graph.adj, eig1, v1):
        if rank1(top)[0] > cap:
            return BoundReport(
                1.0, term_sigma1, cap, sigma1, bilinear_value, residual,
                lambda: rank1(second_singular_value(graph.adj, eig1, v1)))
    terms = rank1(sigma2)
    return BoundReport(1.0, term_sigma1, min(cap, terms[0]), sigma1,
                       bilinear_value, residual, lambda: terms)
