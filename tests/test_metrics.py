import numpy as np
import pytest

from vacdks import (
    AttributeAssignment,
    ConstraintSpec,
    PlantedCliqueConfig,
    WeightedGraph,
    brute_force,
    generate_planted_clique,
    group_proportions,
    lrbo_rank1,
    normalized_edge_weight,
    recovery_check,
    upper_bound,
)
from vacdks import baselines, metrics, spectral
from vacdks.spectral import dominant_eigenpair, power_iteration, second_singular_value

from conftest import random_graph, random_spec, two_triangles


def complete_graph(k, weight=1.0):
    u, v = zip(*[(a, b) for a in range(k) for b in range(a + 1, k)])
    return WeightedGraph.from_edges(k, list(u), list(v), [weight] * len(u))


class TestNormalizedEdgeWeight:
    def test_clique_scores_one(self):
        g = complete_graph(6)
        assert normalized_edge_weight(g, np.arange(6)) == pytest.approx(1.0)

    def test_adjacent_pair_scores_one(self):
        g = complete_graph(4)
        assert normalized_edge_weight(g, np.array([0, 3])) == pytest.approx(1.0)

    def test_half_density(self):
        # path on 4 vertices: 3 edges out of 6 possible
        g = WeightedGraph.from_edges(4, [0, 1, 2], [1, 2, 3])
        assert normalized_edge_weight(g, np.arange(4)) == pytest.approx(0.5)

    def test_weighted_normalization(self):
        g = WeightedGraph.from_edges(3, [0, 1], [1, 2], [0.5, 2.0])
        # induced weight 2.5, w_max=2, k=3 -> 2.5 / (2 * 3)
        assert normalized_edge_weight(g, np.arange(3)) == pytest.approx(
            2.5 / (2.0 * 3))

    def test_requires_two_vertices(self):
        with pytest.raises(ValueError, match="at least 2"):
            normalized_edge_weight(complete_graph(3), np.array([0]))


class TestGroupTools:
    def test_proportions(self):
        attr = AttributeAssignment.from_labels(np.array([0, 0, 1, 2, 2, 2]))
        props = group_proportions(attr, np.array([0, 2, 3, 4]))
        np.testing.assert_allclose(props, [0.25, 0.25, 0.5])

    def test_recovery(self):
        assert recovery_check(np.array([3, 1, 2]), np.array([1, 2, 3]))
        assert not recovery_check(np.array([1, 2]), np.array([1, 2, 3]))


def counting(monkeypatch, fn, *modules):
    """Replace ``fn`` in each module by a wrapper; returns its call list."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for mod in modules:
        monkeypatch.setattr(mod, fn.__name__, wrapper)
    return calls


class TestSpectral:
    def test_power_iteration_on_diagonal(self):
        d = np.array([3.0, 1.0, 2.0])
        ray, v, res = power_iteration(lambda x: d * x, 3, 500, 1e-12, seed=0)
        assert ray == pytest.approx(3.0, abs=1e-8)
        assert abs(v[0]) == pytest.approx(1.0, abs=1e-6)

    def test_dominant_eigenpair_matches_dense(self, rng):
        for _ in range(10):
            g = random_graph(rng, 15, min_edges=3)
            eig, v, res = dominant_eigenpair(g.adj, g.w_max)
            dense_top = np.linalg.eigvalsh(g.adj.toarray())[-1]
            assert eig == pytest.approx(dense_top, abs=1e-6)
            assert res <= 1e-6 * max(eig, 1.0)

    def test_bipartite_graph_converges(self):
        # single edge: eigenvalues are +w and -w, which defeats unshifted
        # power iteration on A alone
        g = WeightedGraph.from_edges(2, [0], [1], [2.0])
        eig, _, _ = dominant_eigenpair(g.adj, g.w_max)
        assert eig == pytest.approx(2.0, abs=1e-8)

    def test_non_convergence_warns_after_one_run(self, monkeypatch):
        calls = counting(monkeypatch, power_iteration, spectral)
        with pytest.warns(RuntimeWarning, match="after 10000 iterations"):
            eig, _, res = dominant_eigenpair(two_triangles().adj, 1.0)
        assert len(calls) == 1
        assert res > spectral.EIG_TOL * 3.0
        assert eig == pytest.approx(2.0, abs=1e-3)

    def test_second_singular_value_matches_dense(self, rng):
        for _ in range(10):
            g = random_graph(rng, 12, min_edges=3)
            eig, v, _ = dominant_eigenpair(g.adj, g.w_max)
            s2 = second_singular_value(g.adj, eig, v)
            dense_svals = np.linalg.svd(g.adj.toarray(), compute_uv=False)
            assert s2 == pytest.approx(dense_svals[1], abs=1e-5)


class TestUpperBound:
    def test_clique_bound_is_tight(self):
        g = complete_graph(6)
        attr = AttributeAssignment.from_labels(np.zeros(6, dtype=np.int64))
        spec = ConstraintSpec(k=6, mins=(0,), attr=attr)
        rep = upper_bound(g, spec)
        assert rep.bound == pytest.approx(1.0, abs=1e-8)

    def test_bound_dominates_brute_force(self, rng):
        for _ in range(25):
            n = int(rng.integers(5, 14))
            g = random_graph(rng, n, min_edges=2)
            spec = random_spec(rng, n, k_min=2)
            best_set, best_val = brute_force(g, spec)
            rep = upper_bound(g, spec)
            achieved = normalized_edge_weight(g, best_set)
            assert rep.bound + 1e-7 >= achieved

    def test_bound_never_exceeds_one(self, rng):
        for _ in range(15):
            n = int(rng.integers(5, 20))
            g = random_graph(rng, n, min_edges=1)
            spec = random_spec(rng, n, k_min=2)
            assert upper_bound(g, spec).bound <= 1.0

    def test_edgeless_graph_bound_zero(self, rng):
        g = random_graph(rng, 5, p=0.0)
        spec = random_spec(rng, 5, k_min=2)
        rep = upper_bound(g, spec)
        assert rep.bound == 0.0 and rep.term_trivial == 1.0

    def test_requires_k_at_least_two(self, rng):
        g = random_graph(rng, 5, min_edges=1)
        spec = random_spec(rng, 5, k_min=1, k_max=1)
        with pytest.raises(ValueError, match="k >= 2"):
            upper_bound(g, spec)

    def test_report_serializes(self, rng):
        g = random_graph(rng, 8, min_edges=2)
        spec = random_spec(rng, 8, k_min=2)
        d = upper_bound(g, spec).to_dict()
        assert set(d) >= {"bound", "sigma1", "sigma2", "degenerate_spectrum"}

    def test_eigenpair_computed_once(self, rng, monkeypatch):
        for _ in range(5):
            g = random_graph(rng, 20, min_edges=3)
            spec = random_spec(rng, 20, k_min=2)
            calls = counting(monkeypatch, dominant_eigenpair,
                             metrics, baselines)
            rep = upper_bound(g, spec)
            assert len(calls) == 1
            assert rep.bilinear_value == lrbo_rank1(g, spec)[2]

    def test_degenerate_spectrum_flagged(self):
        # two disjoint equal edges give a repeated top singular value
        g = WeightedGraph.from_edges(4, [0, 2], [1, 3])
        attr = AttributeAssignment.from_labels(np.zeros(4, dtype=np.int64))
        spec = ConstraintSpec(k=2, mins=(0,), attr=attr)
        rep = upper_bound(g, spec)
        assert rep.degenerate_spectrum

    def test_planted_instance_bound_covers_clique(self):
        cfg = PlantedCliqueConfig(n=2000, p=0.02, k=12, r=3, seed=1)
        g, attr, planted = generate_planted_clique(cfg)
        spec = ConstraintSpec(k=12, mins=(4, 4, 4), attr=attr)
        rep = upper_bound(g, spec)
        assert rep.bound + 1e-7 >= normalized_edge_weight(g, planted)
