"""Shared test helpers: random instances, exhaustive enumeration, oracles."""

from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import strategies as st

from vacdks import (AttributeAssignment, ConstraintSpec, WeightedGraph, lmo,
                    load_edge_list)
from vacdks import graph as graph_module
from vacdks.graph import _SUPPORT_ROWS_SHARE


def random_graph(rng, n, weighted=True, p=0.5, min_edges=0):
    """Random ER graph with weights in (0, 1] (or unit weights)."""
    while True:
        iu, iv = np.triu_indices(n, k=1)
        mask = rng.random(len(iu)) < p
        u, v = iu[mask], iv[mask]
        if len(u) >= min_edges:
            break
    w = rng.uniform(0.05, 1.0, size=len(u)) if weighted else None
    return WeightedGraph.from_edges(n, u, v, w)


def make_instance(n, edges, weights, labels, k, mins):
    """(graph, spec) from an edge list, weights (None: unit) and labels."""
    graph = WeightedGraph.from_edges(n, [a for a, _ in edges],
                                     [b for _, b in edges], weights)
    attr = AttributeAssignment.from_labels(np.array(labels, dtype=np.int64),
                                           r=len(mins))
    return graph, ConstraintSpec(k=k, mins=tuple(mins), attr=attr)


@st.composite
def small_instances(draw, max_n=16):
    """A small graph of one weight kind and a spec over a random partition.

    Integer weights in {1, 2, 3} make degree ties common. Each group's
    minimum is 0, its largest allowed value (the group is frozen from the
    start when that is all of it) or anything in between.
    """
    n = draw(st.integers(min_value=1, max_value=max_n))
    kind = draw(st.sampled_from(["unweighted", "integer", "float"]))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    edges = [pair for pair, kept in zip(pairs, keep) if kept]
    weights = None
    if kind != "unweighted":
        weight = (st.integers(min_value=1, max_value=3).map(float)
                  if kind == "integer"
                  else st.floats(min_value=0.01, max_value=100.0))
        weights = draw(st.lists(weight, min_size=len(edges),
                                max_size=len(edges)))
    r = draw(st.integers(min_value=1, max_value=min(3, n)))
    labels = draw(st.lists(st.integers(min_value=0, max_value=r - 1),
                           min_size=n, max_size=n))
    k = draw(st.integers(min_value=1, max_value=n))
    mins, budget = [], k
    for i in range(r):
        cap = min(labels.count(i), budget)
        ki = draw(st.one_of(st.just(0), st.just(cap),
                            st.integers(min_value=0, max_value=cap)))
        mins.append(ki)
        budget -= ki
    return make_instance(n, edges, weights, labels, k, mins)


def two_triangles():
    """Two disjoint triangles with weights 1 and 1 - 1e-5: top eigenvalues
    2 and 2 - 2e-5, too close for power iteration to separate. From the
    all-ones start, two Lanczos steps span both Perron vectors."""
    return WeightedGraph.from_edges(6, [0, 0, 1, 3, 3, 4], [1, 2, 2, 4, 5, 5],
                                    [1.0] * 3 + [1.0 - 1e-5] * 3)


def two_camps(seed, n=2080, clique=40, per_vertex=3):
    """Two camps: 40-cliques on vertices 0-39 and 40-79, plus ``per_vertex``
    * n / 2 distinct random edges over all n vertices (about 3 per vertex).

    The random edges make the camps unequal, so lambda_1 is simple, but
    they leave it close to lambda_2: on seeds 0-3 the gap is 0.016-0.16 of
    about 39, and a power loop from a random start needs 3298 to over
    10000 products to a 1e-8 residual.
    """
    rng = np.random.default_rng(seed)
    iu, iv = np.triu_indices(clique, k=1)
    pairs = set(zip(iu.tolist(), iv.tolist()))
    pairs |= set(zip((iu + clique).tolist(), (iv + clique).tolist()))
    target = len(pairs) + per_vertex * n // 2
    while len(pairs) < target:
        a, b = sorted(rng.integers(0, n, 2).tolist())
        if a != b:
            pairs.add((a, b))
    u, v = zip(*sorted(pairs))
    return WeightedGraph.from_edges(n, u, v)


def random_spec(rng, n, r_max=3, k_min=1, k_max=None):
    """Random partition into at most r_max groups plus a valid spec."""
    r = int(rng.integers(1, min(r_max, n) + 1))
    labels = rng.integers(0, r, size=n)
    attr = AttributeAssignment.from_labels(labels, r=r)
    k_max = n if k_max is None else min(k_max, n)
    k = int(rng.integers(k_min, k_max + 1))
    mins = []
    budget = k
    for i in range(r):
        cap = min(len(attr.groups[i]), budget)
        ki = int(rng.integers(0, cap + 1))
        mins.append(ki)
        budget -= ki
    return ConstraintSpec(k=k, mins=tuple(mins), attr=attr)


def enumerate_feasible(spec):
    """All feasible k-subsets, in lexicographic order."""
    labels = spec.attr.labels
    mins = np.asarray(spec.mins)
    out = []
    for combo in combinations(range(spec.n), spec.k):
        idx = np.asarray(combo)
        counts = np.bincount(labels[idx], minlength=spec.attr.r)
        if np.all(counts >= mins):
            out.append(idx)
    return out


def random_fractional(rng, spec, n_vertices=5):
    """Random point in the relaxed feasible set.

    Convex combination of polytope vertices obtained by linear maximization
    along random directions, hence feasible by construction and generally
    fractional.
    """
    verts = [lmo(spec, rng.standard_normal(spec.n)) for _ in range(n_vertices)]
    weights = rng.dirichlet(np.ones(n_vertices))
    return np.sum([w * v for w, v in zip(weights, verts)], axis=0)


def _top_k_argsort(values, candidates, k):
    """Reference selection: stable descending argsort, ties to lower id."""
    if k <= 0:
        return candidates[:0]
    order = np.argsort(-values[candidates], kind="stable")
    return candidates[order[:k]]


def lmo_reference(spec, grad):
    """The LMO group by group, each selection by a stable argsort."""
    selected = np.zeros(spec.n, dtype=bool)
    for ki, members in zip(spec.mins, spec.attr.groups):
        selected[_top_k_argsort(grad, members, ki)] = True
    pool = np.flatnonzero(~selected)
    selected[_top_k_argsort(grad, pool, spec.k - spec.min_total)] = True
    return selected.astype(np.float64)


def support_is_narrow(adj, x):
    """Whether ``_support_product`` sums x's rows rather than call scipy."""
    rows = np.flatnonzero(x)
    entries = int((adj.indptr[rows + 1] - adj.indptr[rows]).sum())
    return entries * _SUPPORT_ROWS_SHARE <= adj.nnz


def dense_g(graph, lam, x):
    """Dense-arithmetic evaluation of g(x) = x^T (A + lam I) x."""
    a = graph.adj.toarray()
    x = np.asarray(x, dtype=np.float64)
    return float(x @ a @ x + lam * (x @ x))


# The error of a "# n" line after an edge line or after another "# n" line.
PLACEMENT = "a '# n' line must come once, before the first edge line"


def load_reference(path, unweighted_default=False, n=None):
    """``load_edge_list`` with the numpy parse off: the line loop alone."""
    with mock.patch.object(graph_module, "_numpy_parse", lambda *args: None):
        return load_edge_list(path, unweighted_default, n)


def graphs_equal(g1, g2):
    return (g1.n == g2.n and g1.m == g2.m and g1.w_max == g2.w_max
            and (g1.adj != g2.adj).nnz == 0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
