"""Baseline solvers: constraint-aware greedy peeling, rank-1 LRBO, brute force."""

from __future__ import annotations

import math
import weakref
from itertools import combinations

import numpy as np

from .constraints import ConstraintSpec, lmo, validate
from .graph import WeightedGraph, induced_weight

BRUTE_FORCE_LIMIT = 10**7

# Each spec's last peel: spec -> (weakref to its graph, survivors). Specs,
# assignments and graphs are immutable, so a spec peeled again on the same
# graph has the same survivors. The keys and the graph references are weak:
# the memo keeps nothing alive, and it lives outside WeightedGraph, so a
# graph still pickles after a peel.
_PEELED = weakref.WeakKeyDictionary()


def _peel_keys(graph: WeightedGraph):
    """(key, sentinel, floor, step): the peel's weighted degrees, the key of
    a removed or frozen vertex, the least such key, and the decrement per
    CSR entry.

    On unit weights the keys are exact degrees in the narrowest signed
    integer that holds 2D + 1 (D the largest degree), on which ``argmin``
    is 2-6x faster than on float64 and picks the same vertices. The
    sentinel is the dtype's max: it falls at most D times, so it stays at
    or above sentinel - D > D, above every live key. Other weights keep
    float64 keys and ``inf``. Their step is ``adj.data`` under numpy's
    canonical float64 dtype: an unpickled array's equal but distinct dtype
    sends ``np.subtract.at`` down a path about 4x slower.
    """
    adj, degree = graph.adj, graph.degrees
    if graph.unit_weights:
        top = int(degree.max())
        dtype = next(t for t in (np.int8, np.int16, np.int32, np.int64)
                     if np.iinfo(t).max >= 2 * top + 1)
        sentinel = int(np.iinfo(dtype).max)
        step = np.broadcast_to(dtype(1), (adj.nnz,))  # zero-stride ones
        return degree.astype(dtype), sentinel, sentinel - top, step
    return (degree.astype(np.float64), np.inf, np.inf,
            np.asarray(adj.data, dtype=np.float64))


def greedy_peel(graph: WeightedGraph, spec: ConstraintSpec) -> np.ndarray:
    """Remove minimum-(weighted-)degree removable vertices until k remain.

    A vertex is removable iff its group stays at or above its minimum after
    removal; ties go to the lower vertex id. Returns the sorted survivor ids,
    always a feasible set of size k.

    Each removal is one ``argmin`` over a key per vertex (its weighted
    degree among survivors, or a sentinel once it is removed or its group
    is frozen; see ``_peel_keys``) and one ``np.subtract.at`` over its CSR
    row. Group counts only shrink, so a group that reaches its minimum
    never loses a member again: its members' keys stay sentinels, and
    ``argmin`` (first minimum, hence the lower id on ties) only ever picks
    removable vertices.

    The survivors of each spec's last peel are kept, with weak references
    to the spec and the graph (``_PEELED``): a second call on the same
    (graph, spec), such as ``fw+peel``'s warm start after ``peel``, returns
    a copy of them without peeling.
    """
    validate(spec, graph)
    entry = _PEELED.get(spec)
    if entry is not None and entry[0]() is graph:
        return entry[1].copy()
    adj = graph.adj
    # Memoryviews give Python ints per index, as fast as a list and with
    # no copy of the arrays.
    indptr, labels = memoryview(adj.indptr), memoryview(spec.attr.labels)
    indices = adj.indices
    groups = spec.attr.groups
    mins = list(spec.mins)
    counts = [len(members) for members in groups]
    key, sentinel, floor, step = _peel_keys(graph)
    for g, members in enumerate(groups):
        if counts[g] <= mins[g]:
            key[members] = sentinel
    alive = np.ones(graph.n, dtype=bool)
    argmin, subtract_at = key.argmin, np.subtract.at
    for _ in range(graph.n - spec.k):
        v = int(argmin())
        if key[v] >= floor:
            raise AssertionError("no removable vertex before reaching size k")
        alive[v] = False
        key[v] = sentinel
        lo, hi = indptr[v], indptr[v + 1]
        # CSR rows hold distinct columns, so this is the one subtraction per
        # key of a fancy-indexed -=, which is slower on numpy >= 1.25.
        subtract_at(key, indices[lo:hi], step[lo:hi])
        g = labels[v]
        counts[g] -= 1
        if counts[g] == mins[g]:
            key[groups[g]] = sentinel
    survivors = np.flatnonzero(alive)
    _PEELED[spec] = (weakref.ref(graph), survivors)
    return survivors.copy()


def _bilinear_candidates(graph: WeightedGraph, spec: ConstraintSpec):
    """The two sign candidates (x, y, x^T v1 u1^T y) of the rank-1 bilinear
    form, u1 = eig1 * v1: x maximizes ±v1, y the sign of eig1 * v1^T x times
    u1. The bilinear value is the larger third entry. ``spec`` must be
    valid for ``graph``."""
    eig1, v1, _ = graph.eigenpair
    u1 = eig1 * v1
    candidates = []
    for sign in (1.0, -1.0):
        x = lmo(spec, sign * v1)
        cx = float(v1 @ x)
        y = lmo(spec, np.sign(eig1 * cx) * u1 if eig1 * cx != 0 else u1)
        candidates.append((x, y, cx * float(u1 @ y)))
    return candidates


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
    candidates = _bilinear_candidates(graph, spec)
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
