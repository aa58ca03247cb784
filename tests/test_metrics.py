import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from vacdks import (
    AttributeAssignment,
    ConstraintSpec,
    PlantedCliqueConfig,
    WeightedGraph,
    brute_force,
    generate_planted_clique,
    greedy_peel,
    group_proportions,
    lrbo_rank1,
    normalized_edge_weight,
    recovery_check,
    solve_fw,
    upper_bound,
)
from vacdks import graph, metrics, spectral
from vacdks.constraints import validate
from vacdks.metrics import DEGENERATE_GAP
from vacdks.spectral import (dominant_eigenpair, power_iteration,
                             second_singular_value, spectral_radius_bound)

from conftest import random_graph, random_spec, small_instances, two_triangles


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

    def test_rejects_non_integer_ids(self):
        with pytest.raises(ValueError, match="integers"):
            normalized_edge_weight(complete_graph(4), [0.5, 2.5])


class TestGroupTools:
    def test_proportions(self):
        attr = AttributeAssignment.from_labels(np.array([0, 0, 1, 2, 2, 2]))
        props = group_proportions(attr, np.array([0, 2, 3, 4]))
        np.testing.assert_allclose(props, [0.25, 0.25, 0.5])

    def test_proportions_reject_negative_ids(self):
        attr = AttributeAssignment.from_labels(np.array([0, 0, 1, 1, 1]))
        # -1 must not wrap around to vertex 4
        with pytest.raises(ValueError, match="out of range"):
            group_proportions(attr, [-1, 0])

    def test_recovery(self):
        assert recovery_check(np.array([3, 1, 2]), np.array([1, 2, 3]))
        assert not recovery_check(np.array([1, 2]), np.array([1, 2, 3]))

    @pytest.mark.parametrize("ids", [[1.7, 2.2], [-1, 2]])
    def test_recovery_rejects_non_vertex_ids(self, ids):
        # int(1.7) == 1 used to make this a match
        for planted, s in ((np.array([1, 2]), ids), (ids, np.array([1, 2]))):
            with pytest.raises(ValueError):
                recovery_check(planted, s)


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

    @staticmethod
    def assert_bounds_deflated_norm(g):
        """sigma_2 is a Python float at or above ||A - eig1 v1 v1^T|| (dense
        eigvalsh, itself exact only to a few ulps) and within 1e-8 of it."""
        eig, v, _ = dominant_eigenpair(g.adj, g.w_max)
        s2 = second_singular_value(g.adj, eig, v)
        assert type(s2) is float  # a numpy scalar breaks `vacdks bound` JSON
        ev = np.linalg.eigvalsh(g.adj.toarray() - eig * np.outer(v, v))
        dense = max(-ev[0], ev[-1])
        assert dense * (1 - 1e-13) <= s2 <= dense * (1 + 1e-8)
        return s2

    def test_second_singular_value_bounds_dense_from_above(self, rng):
        for i in range(40):
            n = int(rng.integers(2, 60))
            g = random_graph(rng, n, weighted=bool(i % 2),
                             p=float(rng.uniform(0.05, 0.9)), min_edges=1)
            self.assert_bounds_deflated_norm(g)

    def test_second_singular_value_bipartite(self, rng):
        # K_{5,7}: the spectrum is symmetric, so sigma_2 = sigma_1
        u, v = np.divmod(np.arange(35), 7)
        g = WeightedGraph.from_edges(12, u, v + 5, rng.uniform(0.5, 1.0, 35))
        s2 = self.assert_bounds_deflated_norm(g)
        assert s2 == pytest.approx(g.eigenpair[0], rel=1e-8)

    @pytest.mark.parametrize("rel", [-1e-9, 0.0, 1e-9])
    def test_second_singular_value_mirrored_ends(self, rel):
        # K_6 (top eigenvalue 5), an edge of weight 3 (+-3) and a triangle
        # of weight b (2b, -b, -b): after deflation lambda_2 = 3 (1 + rel)
        # and lambda_n = -3, so the larger |theta| switches ends with rel.
        u, v = map(list, zip(*[(a, c) for a in range(6) for c in range(a + 1, 6)]))
        b = 1.5 * (1 + rel)
        g = WeightedGraph.from_edges(
            11, u + [6, 8, 8, 9], v + [7, 9, 10, 10], [1.0] * 15 + [3.0, b, b, b])
        s2 = self.assert_bounds_deflated_norm(g)
        assert s2 == pytest.approx(3.0 * (1 + max(rel, 0.0)), rel=1e-8)

    def test_second_singular_value_waits_for_the_slow_end(self):
        # Diagonal operator, nothing deflated: +3 stands alone and converges
        # in a few steps, while the larger end -3 (1 + 1e-6) heads a cluster
        # that Lanczos resolves slowly. Stopping on the fast end alone
        # under-estimates the norm by 1e-6 relative.
        n, top = 200, 3.0 * (1 + 1e-6)
        k = np.arange(n - 1)
        d = np.concatenate([[3.0], -top * (1 - 0.5 * (k / n) ** 2)])
        s2 = second_singular_value(sparse.diags(d).tocsr(), 0.0, np.eye(n)[0])
        assert top <= s2 <= top * (1 + 1e-8)

    def test_spectral_radius_bound_covers_dense(self, rng):
        # several components, and isolated vertices, on which v1 may vanish
        for i in range(40):
            parts = [random_graph(rng, int(rng.integers(1, 15)),
                                  weighted=bool(i % 2),
                                  p=float(rng.uniform(0.1, 0.9))).adj
                     for _ in range(int(rng.integers(1, 4)))]
            isolated = int(rng.integers(0, 3))
            adj = sparse.block_diag(
                parts + [sparse.csr_matrix((isolated, isolated))]).tocsr()
            g = WeightedGraph(adj=adj, w_max=float(adj.data.max(initial=0.0)))
            a = adj.toarray()
            dense = np.linalg.eigvalsh(a)[-1]
            # any vector gives a bound; a rough one, a loose bound
            for v in (g.eigenpair[1], rng.standard_normal(g.n)):
                s1 = spectral_radius_bound(g.adj, v)
                assert type(s1) is float
                assert dense - 1e-12 * max(dense, 1.0) <= s1
                assert s1 <= a.sum(axis=1).max() * (1 + 1e-12)

    def test_spectral_radius_bound_when_vector_misses_the_top(self):
        # K_4 (lambda 3) beside an edge (lambda 1) and an isolated vertex. A
        # vector on the edge alone gives Collatz-Wielandt ratio 1 there; the
        # K_4 rows, where it vanishes, must hand the bound to the degrees.
        u, v = map(list, zip(*[(a, b) for a in range(4) for b in range(a + 1, 4)]))
        g = WeightedGraph.from_edges(7, u + [4], v + [5])
        on_edge = np.array([0, 0, 0, 0, 1, 1, 0]) / np.sqrt(2)
        assert spectral_radius_bound(g.adj, on_edge) == 3.0
        assert spectral_radius_bound(g.adj, g.eigenpair[1]) == \
            pytest.approx(3.0, rel=1e-12)


def upper_bound_reference(graph, spec):
    """``upper_bound(...).to_dict()`` with sigma_2 always run to convergence.

    The formula as it was before the Lanczos run could stop early, fed the
    same certified sigma_1.
    """
    validate(spec, graph)
    k, w_max = spec.k, graph.w_max
    eig1, v1, residual = graph.eigenpair
    sigma1 = spectral_radius_bound(graph.adj, v1)
    sigma2 = second_singular_value(graph.adj, eig1, v1)
    degenerate = (sigma1 - sigma2) < DEGENERATE_GAP * max(sigma1, 1e-300)
    sigma2_eff = sigma2 + DEGENERATE_GAP * sigma1 if degenerate else sigma2
    bilinear_value = lrbo_rank1(graph, spec)[2]
    term_rank1 = (bilinear_value / (w_max * k * (k - 1))
                  + sigma2_eff / (w_max * (k - 1)))
    term_sigma1 = sigma1 / (w_max * (k - 1))
    return {"term_trivial": 1.0, "term_rank1": term_rank1,
            "term_sigma1": term_sigma1,
            "bound": min(1.0, term_rank1, term_sigma1), "sigma1": sigma1,
            "sigma2": sigma2, "bilinear_value": bilinear_value,
            "degenerate_spectrum": degenerate, "power_residual": residual}


@st.composite
def near_rank_one_instances(draw):
    """Complete graphs weighted scale*u_i*u_j, with k about half of n.

    A is then close to rank one, so sigma_2 is small and the rank-1 term
    decides the bound on about a tenth of them; on ``small_instances`` it
    rarely does. The scale moves w_max, which the bound divides out.
    """
    n = draw(st.integers(min_value=6, max_value=16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = rng.uniform(0.05, 1.0, n) ** 0.5
    scale = draw(st.sampled_from([0.5, 1.0, 4.0, 100.0]))
    iu, iv = np.triu_indices(n, k=1)
    g = WeightedGraph.from_edges(n, iu, iv, scale * u[iu] * u[iv])
    attr = AttributeAssignment.from_labels(np.zeros(n, dtype=np.int64))
    k = draw(st.integers(min_value=round(0.4 * n), max_value=round(0.75 * n)))
    return g, ConstraintSpec(k=k, mins=(0,), attr=attr)


class TestUpperBoundAgainstReference:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(small_instances().filter(lambda inst: inst[0].m > 0
                                              and inst[1].k >= 2),
                     near_rank_one_instances()))
    def test_same_bound_and_record(self, instance):
        g, spec = instance
        ref = upper_bound_reference(g, spec)
        rep = upper_bound(g, spec)
        assert rep.bound == ref["bound"]
        d = rep.to_dict()
        assert list(d) == list(ref)
        assert d == ref

    def test_bound_alone_skips_the_full_sigma2(self, monkeypatch):
        # min(1, term_sigma1) decides this bound after a few Lanczos steps
        cfg = PlantedCliqueConfig(n=2000, p=0.02, k=12, r=3, seed=1)
        g, attr, _ = generate_planted_clique(cfg)
        spec = ConstraintSpec(k=12, mins=(4, 4, 4), attr=attr)
        calls = counting(monkeypatch, second_singular_value, metrics)
        rep = upper_bound(g, spec)
        assert rep.bound == min(1.0, rep.term_sigma1) and not calls
        assert rep.to_dict() == upper_bound_reference(g, spec)
        rep.to_dict()
        assert len(calls) == 1


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
            calls = counting(monkeypatch, dominant_eigenpair, graph)
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


def all_methods(graph_for, spec):
    """fw, fw+peel, lrbo and the bound, each on the graph ``graph_for()``."""
    _, fw_sel, fw_trace = solve_fw(graph_for(), spec)
    g = graph_for()
    x0 = np.zeros(g.n)
    x0[greedy_peel(g, spec)] = 1.0
    _, warm_sel, warm_trace = solve_fw(g, spec, x0=x0)
    lrbo_sel, _, bilinear_value = lrbo_rank1(graph_for(), spec)
    return (fw_sel.tolist(), fw_trace.iterations, fw_trace.objective,
            warm_sel.tolist(), warm_trace.iterations, warm_trace.objective,
            lrbo_sel.tolist(), bilinear_value, upper_bound(graph_for(), spec))


class TestSharedEigenpair:
    def test_one_eigen_solve_per_graph(self, rng, monkeypatch):
        g = random_graph(rng, 20, min_edges=3)
        spec = random_spec(rng, 20, k_min=2)
        calls = counting(monkeypatch, dominant_eigenpair, graph)
        all_methods(lambda: g, spec)
        assert len(calls) == 1
        # every caller gets the same vector, so none may write to it
        assert not g.eigenpair[1].flags.writeable

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_shared_graph_matches_fresh_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 16))
        g = random_graph(rng, n, weighted=bool(rng.integers(2)), min_edges=1)
        spec = random_spec(rng, n, k_min=2)
        shared = all_methods(lambda: g, spec)
        fresh = all_methods(
            lambda: WeightedGraph(adj=g.adj, w_max=g.w_max), spec)
        assert shared == fresh
