"""Baseline solvers: constraint-aware greedy peeling, rank-1 LRBO, brute force."""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .constraints import ConstraintSpec, lmo, validate
from .graph import WeightedGraph, induced_weight

BRUTE_FORCE_LIMIT = 10**7


def greedy_peel(graph: WeightedGraph, spec: ConstraintSpec) -> np.ndarray:
    """Remove minimum-(weighted-)degree removable vertices until k remain.

    A vertex is removable iff its group stays at or above its minimum after
    removal; ties go to the lower vertex id. Returns the sorted survivor ids,
    always a feasible set of size k.

    Each removal is one vectorized ``argmin`` over a float key per vertex:
    its weighted degree among survivors, or inf once it is removed or its
    group is frozen. Group counts only shrink, so a group that reaches its
    minimum never loses a member again: its members' keys stay inf, and
    ``argmin`` (first minimum, hence the lower id on ties) only ever picks
    removable vertices.
    """
    validate(spec, graph)
    adj = graph.adj
    # Memoryviews give Python ints per index, as fast as a list and with
    # no copy of the arrays.
    indptr, labels = memoryview(adj.indptr), memoryview(spec.attr.labels)
    indices, data = adj.indices, adj.data
    groups = spec.attr.groups
    mins = list(spec.mins)
    counts = [len(members) for members in groups]
    key = np.asarray(adj.sum(axis=1)).ravel().astype(np.float64)
    for g, members in enumerate(groups):
        if counts[g] <= mins[g]:
            key[members] = np.inf
    alive = np.ones(graph.n, dtype=bool)
    argmin, inf = key.argmin, np.inf
    for _ in range(graph.n - spec.k):
        v = int(argmin())
        if key[v] == inf:
            raise AssertionError("no removable vertex before reaching size k")
        alive[v] = False
        key[v] = inf
        lo, hi = indptr[v], indptr[v + 1]
        key[indices[lo:hi]] -= data[lo:hi]
        g = labels[v]
        counts[g] -= 1
        if counts[g] == mins[g]:
            key[groups[g]] = inf
    return np.flatnonzero(alive)


def lrbo_rank1(graph: WeightedGraph, spec: ConstraintSpec):
    """Rank-1 low-rank bilinear optimization baseline.

    Replaces A by its dominant spectral component v1 u1^T (u1 = eig1 * v1)
    and maximizes the bilinear form x^T v1 u1^T y over feasible binary pairs
    via sign-candidate linear maximizations. Returns
    (selected, (x_ind, y_ind), bilinear_value); ``selected`` is the x
    candidate inducing the larger edge weight.
    """
    validate(spec, graph)
    if graph.m == 0:
        raise ValueError("LRBO requires a graph with at least one edge")
    eig1, v1, _ = graph.eigenpair
    u1 = eig1 * v1
    candidates = []
    for sign in (1.0, -1.0):
        x = lmo(spec, sign * v1)
        cx = float(v1 @ x)
        y = lmo(spec, np.sign(eig1 * cx) * u1 if eig1 * cx != 0 else u1)
        candidates.append((x, y, cx * float(u1 @ y)))
    best_x, best_y, bilinear_value = max(candidates, key=lambda c: c[2])
    # Collapse the pair to one reported subgraph: the x candidate with the
    # larger induced weight (the bilinear optimum itself is a pair).
    sets = [np.flatnonzero(c[0] > 0.5) for c in candidates]
    weights = [induced_weight(graph, s) for s in sets]
    selected = sets[int(np.argmax(weights))]
    return selected, (best_x, best_y), bilinear_value


def brute_force(graph: WeightedGraph, spec: ConstraintSpec):
    """Exhaustive oracle over all feasible k-subsets (small instances only).

    Returns (best_set, best_weight); ties resolve to the lexicographically
    smallest subset. Guarded by ``BRUTE_FORCE_LIMIT`` on C(n, k).
    """
    validate(spec, graph)
    n, k = graph.n, spec.k
    if math.comb(n, k) > BRUTE_FORCE_LIMIT:
        raise ValueError(f"C({n},{k}) exceeds the brute-force guard")
    dense = graph.adj.toarray()
    labels = spec.attr.labels
    mins = spec.mins
    r = spec.attr.r
    best_set, best_val = None, -1.0
    for combo in combinations(range(n), k):
        idx = np.fromiter(combo, dtype=np.int64, count=k)
        counts = np.bincount(labels[idx], minlength=r)
        if np.any(counts < mins):
            continue
        val = float(dense[np.ix_(idx, idx)].sum()) / 2.0
        if val > best_val:
            best_set, best_val = idx, val
    if best_set is None:
        raise ValueError("no feasible subset exists for this spec")
    return best_set, best_val
