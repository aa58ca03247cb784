import warnings

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
from vacdks import baselines, graph, metrics, spectral
from vacdks.constraints import validate
from vacdks.metrics import DEGENERATE_GAP
from vacdks.spectral import (dominant_eigenpair, power_iteration,
                             spectral_radius_bound)

from conftest import (random_graph, random_spec, small_instances, two_camps,
                      two_triangles)


def second_singular_value(adj, eig1, v1):
    """``_lanczos_sigma2``'s sigma_2, its last padded |theta|.

    The norm of the deflated M = A - eig1*v1*v1^T, which is sigma_2 when
    (eig1, v1) is the dominant eigenpair; a bound from above unless the
    seeded start misses the top of the spectrum, which a random start does
    with small probability (Kuczynski & Wozniakowski, SIAM J. Matrix Anal.
    Appl. 13(4), 1992).
    """
    return spectral._lanczos_sigma2(adj, eig1, v1)


def seeded_power_loop(matvec, n, max_iters, tol):
    """Power iteration from default_rng(0).standard_normal(n) until the
    relative eigen-residual is at most ``tol``: (rayleigh, vector)."""
    v = np.random.default_rng(0).standard_normal(n)
    for _ in range(max_iters):
        v /= np.linalg.norm(v)
        w = matvec(v)
        ray = float(v @ w)
        if np.linalg.norm(w - ray * v) <= tol * max(abs(ray), 1.0):
            break
        v = w
    return ray, v


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

    def test_edgeless_graph_scores_zero(self):
        g = WeightedGraph.from_edges(4, [], [])
        assert normalized_edge_weight(g, np.arange(3)) == 0.0


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

    def test_proportions_reject_an_empty_selection(self):
        attr = AttributeAssignment.from_labels(np.array([0, 0, 1]))
        with pytest.raises(ValueError, match="empty selection"):
            group_proportions(attr, [])

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
        # One product, from a start that is no eigenvector: the Rayleigh
        # quotient and residual of the start, scaled to unit norm.
        d = np.array([3.0, 1.0, 2.0])
        ray, v, res = power_iteration(lambda x: d * x, np.full(3, 2.0))
        assert ray == pytest.approx(2.0, rel=1e-15)
        assert v == pytest.approx(np.full(3, 3 ** -0.5), rel=1e-15)
        assert res == pytest.approx((2 / 3) ** 0.5, rel=1e-15)

    def test_dominant_eigenpair_matches_dense(self, rng):
        for _ in range(10):
            g = random_graph(rng, 15, min_edges=3)
            eig, v, res, _, _ = dominant_eigenpair(g.adj, g.w_max)
            dense_top = np.linalg.eigvalsh(g.adj.toarray())[-1]
            assert eig == pytest.approx(dense_top, abs=1e-6)
            assert res <= 1e-6 * max(eig, 1.0)

    def test_bipartite_graph_converges(self):
        # single edge: eigenvalues are +w and -w, which defeats unshifted
        # power iteration on A alone
        g = WeightedGraph.from_edges(2, [0], [1], [2.0])
        eig, _, _, _, _ = dominant_eigenpair(g.adj, g.w_max)
        assert eig == pytest.approx(2.0, abs=1e-8)

    def test_non_convergence_warns_after_one_run(self, monkeypatch):
        # A one-vector basis restarts from its own start, so Lanczos spends
        # the whole budget in place; two steps would separate the triangles.
        monkeypatch.setattr(spectral, "EIG_BASIS", 1)
        monkeypatch.setattr(spectral, "EIG_MAX_ITERS", 100)
        calls = counting(monkeypatch, power_iteration, spectral)
        with pytest.warns(RuntimeWarning, match="after 100 iterations"):
            eig, _, res, _, _ = dominant_eigenpair(two_triangles().adj, 1.0)
        assert len(calls) == 1
        assert res > spectral.EIG_TOL * 3.0
        assert eig == pytest.approx(2.0, abs=1e-3)

    def test_power_iteration_from_a_converged_start(self):
        # An eigenvector costs one product and gives exact values.
        d = np.array([3.0, 1.0, 2.0])
        products = []

        def matvec(x):
            products.append(x)
            return d * x

        ray, v, res = power_iteration(matvec, np.array([0, 0, 2.0]))
        assert (ray, res, len(products)) == (2.0, 0.0, 1)
        assert v.tolist() == [0.0, 0.0, 1.0]

    def test_perturbed_ritz_vector_warns_after_one_product(self,
                                                           monkeypatch):
        # A Ritz vector whose true residual misses EIG_TOL is checked by
        # one product, and the check warns; nothing iterates from it.
        lanczos_top = spectral._lanczos_top

        def perturbed(adj, shift):
            theta, ritz, steps = lanczos_top(adj, shift)
            ritz = ritz + 1e-4 * np.random.default_rng(5).standard_normal(
                len(ritz))
            return theta, ritz / np.linalg.norm(ritz), steps

        products = []

        def counted(matvec, v):
            def counted_matvec(x):
                products.append(x)
                return matvec(x)
            return power_iteration(counted_matvec, v)

        monkeypatch.setattr(spectral, "_lanczos_top", perturbed)
        monkeypatch.setattr(spectral, "power_iteration", counted)
        g = two_camps(0)
        with pytest.warns(RuntimeWarning, match="power iteration residual"):
            eig, _, res, _, _ = dominant_eigenpair(g.adj, g.w_max)
        assert len(products) == 1
        assert res > spectral.EIG_TOL * (eig + g.w_max)

    @pytest.mark.parametrize("seed, basis, most", [
        (0, 20, 20), (1, 20, 20), (2, 20, 20), (3, 20, 20),
        # Three stored vectors: the run restarts from its top Ritz vector
        # about a dozen times and still converges.
        (1, 3, 60)])
    def test_two_camps_in_few_products(self, monkeypatch, seed, basis, most):
        # A random-start power loop took 3298 to over 10000 products here.
        monkeypatch.setattr(spectral, "EIG_BASIS", basis)
        g = two_camps(seed)
        adj, products = g.adj, []

        class Counting:
            shape = adj.shape

            def __matmul__(self, x):
                products.append(x)
                return adj @ x

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eig, v, res, floor, _ = dominant_eigenpair(Counting(), g.w_max)
        assert len(products) <= most
        a = adj.toarray()
        dense = np.linalg.eigvalsh(a)[-1]
        assert abs(eig - dense) <= spectral.EIG_TOL * dense
        assert res <= spectral.EIG_TOL * (eig + g.w_max)
        ev = np.linalg.eigvalsh(a - eig * np.outer(v, v))
        assert 0.0 < floor <= max(-ev[0], ev[-1]) * (1 + 1e-12)

    def test_sign_of_the_seeded_power_loop(self, rng):
        """v1 . g > 0 for g = default_rng(0).standard_normal(n), the start
        of the seeded power loop, which so gives v1 the same sign."""
        graphs = [random_graph(rng, int(rng.integers(2, 40)),
                               weighted=bool(i % 2), min_edges=1)
                  for i in range(20)] + [two_camps(3), two_triangles()]
        for g in graphs:
            _, v, _, _, _ = dominant_eigenpair(g.adj, g.w_max)
            assert v @ np.random.default_rng(0).standard_normal(g.n) > 0

            def shifted(x):
                return g.adj @ x + g.w_max * x

            _, power_v = seeded_power_loop(shifted, g.n, 10_000, 1e-8)
            assert v @ power_v > 0

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(["weighted", "unweighted", "bipartite",
                                 "disconnected"]),
           n=st.integers(2, 40), p=st.floats(0.05, 1.0),
           seed=st.integers(0, 2**32 - 1))
    def test_sigma2_floor_below_deflated_norm(self, kind, n, p, seed):
        """sigma2_floor <= ||A - eig1 v1 v1^T|| (dense eigvalsh) for the
        eigenpair of the same run."""
        rng = np.random.default_rng(seed)
        if kind == "bipartite":
            left = int(rng.integers(1, n))
            u, v = np.nonzero(rng.random((left, n - left)) < p)
            g = WeightedGraph.from_edges(n, u, v + left,
                                         rng.uniform(0.05, 1.0, len(u)))
        elif kind == "disconnected":
            parts = [random_graph(rng, size, weighted=bool(seed % 2), p=p).adj
                     for size in (n // 2, n - n // 2)]
            adj = sparse.block_diag(parts).tocsr()
            g = WeightedGraph(adj=adj, w_max=float(adj.data.max(initial=0.0)))
        else:
            g = random_graph(rng, n, weighted=kind == "weighted", p=p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eig, v, _, floor, _ = dominant_eigenpair(g.adj, g.w_max)
        assert type(floor) is float and floor >= 0.0
        ev = np.linalg.eigvalsh(g.adj.toarray() - eig * np.outer(v, v))
        assert floor <= max(-ev[0], ev[-1]) * (1 + 1e-12)

    def test_second_singular_value_matches_dense(self, rng):
        for _ in range(10):
            g = random_graph(rng, 12, min_edges=3)
            eig, v, _, _, _ = dominant_eigenpair(g.adj, g.w_max)
            s2 = second_singular_value(g.adj, eig, v)
            dense_svals = np.linalg.svd(g.adj.toarray(), compute_uv=False)
            assert s2 == pytest.approx(dense_svals[1], abs=1e-5)

    @staticmethod
    def assert_bounds_deflated_norm(g):
        """sigma_2 is a Python float at or above ||A - eig1 v1 v1^T|| (dense
        eigvalsh, itself exact only to a few ulps) and within 1e-8 of it."""
        eig, v, _, _, _ = dominant_eigenpair(g.adj, g.w_max)
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
        with pytest.warns(RuntimeWarning, match="not converged after 300"):
            s2 = second_singular_value(sparse.diags(d).tocsr(), 0.0,
                                       np.eye(n)[0])
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
                s1 = spectral_radius_bound(g, v)
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
        assert spectral_radius_bound(g, on_edge) == 3.0
        assert spectral_radius_bound(g, g.eigenpair[1]) == \
            pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize("signs", ["non-negative", "non-positive",
                                       "mixed"])
    def test_eigen_abs_product_is_the_bound_product(self, signs):
        """A|v1| from the eigenpair's checking product is adj @ |v1| bit for
        bit where v1 is single-signed; a mixed-sign v1 (here on a
        disconnected graph) keeps none and the bound forms the product."""
        rng = np.random.default_rng(0)
        if signs == "non-negative":
            g = two_triangles()
        elif signs == "non-positive":
            g = random_graph(rng, 30, p=0.3)
        else:
            adj = sparse.block_diag([random_graph(rng, 12).adj,
                                     random_graph(rng, 8).adj]).tocsr()
            g = WeightedGraph(adj=adj, w_max=float(adj.data.max()))
        v = g.eigenpair[1]
        assert ((v >= 0).all(), (v <= 0).all()) == {
            "non-negative": (True, False), "non-positive": (False, True),
            "mixed": (False, False)}[signs]
        product = g.eigen_abs_product
        if signs == "mixed":
            assert product is None
        else:
            assert product.tobytes() == (g.adj @ np.abs(v)).tobytes()
            assert not product.flags.writeable
        assert spectral_radius_bound(g, v, product) \
            == spectral_radius_bound(g, v)

    def test_unit_weight_degrees_are_row_lengths(self, rng):
        # The row lengths equal the row sums of 1.0 bit for bit.
        for i in range(20):
            g = random_graph(rng, int(rng.integers(1, 40)), weighted=False,
                             p=float(rng.uniform(0.05, 0.9)))
            row_sums = WeightedGraph(adj=g.adj, w_max=g.w_max)
            row_sums.__dict__["unit_weights"] = False
            assert g.unit_weights == (g.m > 0)
            assert np.array_equal(g.degrees, row_sums.degrees)
            assert g.degrees.dtype.kind == ("i" if g.m else "f")
            for v in (g.eigenpair[1], rng.standard_normal(g.n)):
                assert spectral_radius_bound(g, v) \
                    == spectral_radius_bound(row_sums, v)


def upper_bound_reference(graph, spec):
    """``upper_bound(...).to_dict()`` with sigma_2 always run to convergence.

    The formula as it was before the Lanczos run could stop early, fed the
    same certified sigma_1.
    """
    validate(spec, graph)
    k, w_max = spec.k, graph.w_max
    eig1, v1, residual = graph.eigenpair
    sigma1 = spectral_radius_bound(graph, v1)
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


def near_rank_one(n, seed, scale, k):
    """The complete graph on n vertices weighted scale*u_i*u_j, u seeded,
    with one group and no minimum."""
    u = np.random.default_rng(seed).uniform(0.05, 1.0, n) ** 0.5
    iu, iv = np.triu_indices(n, k=1)
    g = WeightedGraph.from_edges(n, iu, iv, scale * u[iu] * u[iv])
    attr = AttributeAssignment.from_labels(np.zeros(n, dtype=np.int64))
    return g, ConstraintSpec(k=k, mins=(0,), attr=attr)


@st.composite
def near_rank_one_instances(draw):
    """``near_rank_one`` graphs, with k about half of n.

    A is then close to rank one, so sigma_2 is small and the rank-1 term
    decides the bound on about a tenth of them; on ``small_instances`` it
    rarely does. The scale moves w_max, which the bound divides out.
    """
    n = draw(st.integers(min_value=6, max_value=16))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = draw(st.sampled_from([0.5, 1.0, 4.0, 100.0]))
    k = draw(st.integers(min_value=round(0.4 * n), max_value=round(0.75 * n)))
    return near_rank_one(n, seed, scale, k)


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
        # The eigenpair's sigma2_floor already puts the rank-1 term above
        # min(1, term_sigma1), so the bound runs no sigma_2; the record
        # then runs sigma_2 once.
        cfg = PlantedCliqueConfig(n=2000, p=0.02, k=12, r=3, seed=1)
        g, attr, _ = generate_planted_clique(cfg)
        spec = ConstraintSpec(k=12, mins=(4, 4, 4), attr=attr)
        ref = upper_bound_reference(g, spec)
        calls = counting(monkeypatch, spectral._lanczos_sigma2, metrics,
                         spectral)
        rep = upper_bound(g, spec)
        assert rep.bound == min(1.0, rep.term_sigma1)
        assert calls == []
        assert rep.to_dict() == ref
        assert len(calls) == 1
        rep.to_dict()
        assert len(calls) == 1

    @pytest.mark.parametrize("n, seed, k, rank1_decides", [
        (9, 1, 6, True), (10, 27, 6, False)])
    def test_open_floor_runs_sigma2_once(self, monkeypatch, n, seed, k,
                                         rank1_decides):
        # sigma2_floor leaves the bound open, so the bound runs sigma_2 to
        # convergence, and the record reuses it.
        g, spec = near_rank_one(n, seed, 1.0, k)
        ref = upper_bound_reference(g, spec)
        calls = counting(monkeypatch, spectral._lanczos_sigma2, metrics,
                         spectral)
        rep = upper_bound(g, spec)
        cap = min(1.0, rep.term_sigma1)
        assert len(calls) == 1
        assert (rep.bound < cap) == rank1_decides
        assert rep.bound == ref["bound"]
        assert rep.to_dict() == ref
        rep.to_dict()
        assert len(calls) == 1

    def test_capped_sigma2_run_warns(self, monkeypatch):
        # the bound settles after one Lanczos step; sigma_2 needs eight
        cfg = PlantedCliqueConfig(n=30, p=0.05, k=2, r=1, seed=0)
        g, attr, _ = generate_planted_clique(cfg)
        spec = ConstraintSpec(k=2, mins=(0,), attr=attr)
        monkeypatch.setattr(spectral, "SIGMA2_MAX_STEPS", 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = upper_bound(g, spec)
            assert rep.bound == 1.0
        with pytest.warns(RuntimeWarning, match="not converged after 2 steps"):
            rep.to_dict()


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

    def test_unit_weights_decided_once_without_row_sums(self, rng,
                                                        monkeypatch):
        """On unit weights neither the bound's degrees nor the peel's keys
        take a row sum, and the graph keeps its one unit-weight check. On
        other weights the peels and the bound share one row sum."""
        g = random_graph(rng, 30, weighted=False, min_edges=3)
        spec = random_spec(rng, 30, k_min=2)
        ref = upper_bound(WeightedGraph(adj=g.adj, w_max=g.w_max), spec)
        sums = []
        row_sum = type(g.adj).sum

        def counted(self, *args, **kwargs):
            sums.append(args)
            return row_sum(self, *args, **kwargs)

        monkeypatch.setattr(type(g.adj), "sum", counted)
        assert upper_bound(g, spec).to_dict() == ref.to_dict()
        greedy_peel(g, spec)
        assert sums == [] and g.__dict__["unit_weights"] is True
        heavy = WeightedGraph(adj=2.0 * g.adj, w_max=2.0)
        assert not heavy.unit_weights
        greedy_peel(heavy, spec)
        upper_bound(heavy, spec)
        greedy_peel(heavy, spec)
        assert len(sums) == 1 and not heavy.degrees.flags.writeable

    def test_bound_computes_no_induced_weight(self, rng, monkeypatch):
        """The bound takes the bilinear value alone, not LRBO's reported
        subgraph, whose choice costs two induced weights."""
        g = random_graph(rng, 20, min_edges=3)
        spec = random_spec(rng, 20, k_min=2)
        ref = lrbo_rank1(g, spec)[2]
        calls = counting(monkeypatch, graph.induced_weight, graph, baselines)
        assert upper_bound(g, spec).bilinear_value == ref
        assert calls == []

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
            lrbo_sel.tolist(), bilinear_value,
            upper_bound(graph_for(), spec).to_dict())


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
