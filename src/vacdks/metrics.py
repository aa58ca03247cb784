"""Solution-quality metrics and the instance-dependent upper bound."""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .baselines import _bilinear_candidates
from .constraints import ConstraintSpec, validate
from .graph import (AttributeAssignment, WeightedGraph, _vertex_ids,
                    induced_weight)
from .spectral import _lanczos_sigma2, spectral_radius_bound

# Relative spectral gap below which the sigma_2 estimate is considered
# unreliable and the corresponding bound term is widened.
DEGENERATE_GAP = 1e-6


@dataclass(frozen=True, eq=False)
class BoundReport:
    """Three-term upper bound on the optimal normalized edge weight.

    ``term_rank1``, ``sigma2`` and ``degenerate_spectrum`` come from
    ``_rank1``, which runs sigma_2 once, on its first call: when a lower
    estimate of sigma_2 settled ``bound``, the first read of them, or
    ``to_dict``, makes that call. Reports compare through ``to_dict``.
    """

    term_trivial: float
    term_sigma1: float
    bound: float
    sigma1: float
    bilinear_value: float
    power_residual: float
    # () -> (term_rank1, sigma2, degenerate_spectrum), cached
    _rank1: Callable = field(repr=False)

    @property
    def term_rank1(self) -> float:
        return self._rank1()[0]

    @property
    def sigma2(self) -> float:
        return self._rank1()[1]

    @property
    def degenerate_spectrum(self) -> bool:
        return self._rank1()[2]

    def to_dict(self):
        return {name: getattr(self, name) for name in (
            "term_trivial", "term_rank1", "term_sigma1", "bound", "sigma1",
            "sigma2", "bilinear_value", "degenerate_spectrum",
            "power_residual")}


def normalized_edge_weight(graph: WeightedGraph, s, weight=None) -> float:
    """Induced weight divided by w_max * C(k, 2); density for unit weights.

    ``weight``, when given, is the induced weight of ``s``, not recomputed.
    """
    s = _vertex_ids(s, graph.n)
    k = len(s)
    if k < 2:
        raise ValueError("normalized edge weight needs at least 2 vertices")
    if graph.w_max == 0.0:
        return 0.0
    if weight is None:
        weight = induced_weight(graph, s)
    return weight / (graph.w_max * k * (k - 1) / 2.0)


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

    sigma_2 cannot decide the bound once the rank-1 term built from a lower
    estimate of ||M|| exceeds min(1, sigma_1 term), and the bound is then
    that cap. The graph's ``sigma2_floor``, from the eigenpair's own
    Lanczos run, is such an estimate: when it settles the bound, sigma_2's
    run is left to the first report field that needs it. Otherwise sigma_2
    is run to convergence here. One cached call makes that run, so a report
    runs sigma_2 at most once.
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
    sigma1 = spectral_radius_bound(graph, v1, graph.eigen_abs_product)
    bilinear_value = max(c[2] for c in _bilinear_candidates(graph, spec))
    term_sigma1 = sigma1 / (w_max * (k - 1))
    cap = min(1.0, term_sigma1)

    def rank1(sigma2):
        degenerate = (sigma1 - sigma2) < DEGENERATE_GAP * max(sigma1, 1e-300)
        sigma2_eff = sigma2 + DEGENERATE_GAP * sigma1 if degenerate else sigma2
        term = (bilinear_value / (w_max * k * (k - 1))
                + sigma2_eff / (w_max * (k - 1)))
        return term, sigma2, degenerate

    @functools.cache
    def resolved():
        return rank1(_lanczos_sigma2(graph.adj, eig1, v1))

    bound = (cap if rank1(graph.sigma2_floor)[0] > cap
             else min(cap, resolved()[0]))
    return BoundReport(1.0, term_sigma1, bound, sigma1, bilinear_value,
                       residual, resolved)
