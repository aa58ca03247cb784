"""Shared test helpers: random instances, exhaustive enumeration, oracles."""

from itertools import combinations

import numpy as np
import pytest

from vacdks import AttributeAssignment, ConstraintSpec, WeightedGraph, lmo


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


def two_triangles():
    """Two disjoint triangles with weights 1 and 1 - 1e-5: top eigenvalues
    2 and 2 - 2e-5, too close for power iteration to separate."""
    return WeightedGraph.from_edges(6, [0, 0, 1, 3, 3, 4], [1, 2, 2, 4, 5, 5],
                                    [1.0] * 3 + [1.0 - 1e-5] * 3)


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


def dense_g(graph, lam, x):
    """Dense-arithmetic evaluation of g(x) = x^T (A + lam I) x."""
    a = graph.adj.toarray()
    x = np.asarray(x, dtype=np.float64)
    return float(x @ a @ x + lam * (x @ x))


def graphs_equal(g1, g2):
    return (g1.n == g2.n and g1.m == g2.m and g1.w_max == g2.w_max
            and (g1.adj != g2.adj).nnz == 0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
