import gc
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from vacdks import (
    AttributeAssignment,
    ConstraintSpec,
    PlantedCliqueConfig,
    WeightedGraph,
    brute_force,
    generate_planted_clique,
    greedy_peel,
    induced_weight,
    is_feasible_binary,
    lrbo_rank1,
)
from vacdks import baselines
from vacdks.baselines import _peel_keys

from conftest import (
    enumerate_feasible,
    make_instance,
    random_graph,
    random_spec,
    small_instances,
)


def peel_reference(graph, spec):
    """Quadratic-time reference peeling with explicit removability checks."""
    deg = np.asarray(graph.adj.sum(axis=1)).ravel().astype(np.float64)
    alive = set(range(graph.n))
    labels = spec.attr.labels
    counts = [len(g) for g in spec.attr.groups]
    adj = graph.adj.toarray()
    while len(alive) > spec.k:
        best = min(v for v in alive if counts[labels[v]] > spec.mins[labels[v]])
        for v in sorted(alive):
            if counts[labels[v]] > spec.mins[labels[v]] and deg[v] < deg[best]:
                best = v
        alive.remove(best)
        counts[labels[best]] -= 1
        for u in alive:
            deg[u] -= adj[best, u]
    return np.array(sorted(alive))


def doubled(graph):
    """The same edges with every weight 2.0: exactly scaled float keys."""
    u, v, _ = graph.edge_arrays()
    return WeightedGraph.from_edges(graph.n, u, v, np.full(len(u), 2.0))


@st.composite
def unit_weight_instances(draw, max_n=60):
    """A dense unit-weight graph, so degrees tie often, and a random spec."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    density = draw(st.sampled_from([0.3, 0.6, 0.9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    iu, iv = np.triu_indices(n, k=1)
    keep = rng.random(len(iu)) < density
    r = draw(st.integers(min_value=1, max_value=3))
    labels = rng.integers(0, r, size=n).tolist()
    k = draw(st.integers(min_value=1, max_value=n))
    mins, budget = [], k
    for i in range(r):
        cap = min(labels.count(i), budget)
        ki = draw(st.one_of(st.just(0), st.just(cap),
                            st.integers(min_value=0, max_value=cap)))
        mins.append(ki)
        budget -= ki
    return make_instance(n, list(zip(iu[keep].tolist(), iv[keep].tolist())),
                         None, labels, k, mins)


def frozen_hub_star(degree):
    """Hub 0, alone in group 1 with minimum 1, joined to ``degree`` leaves.

    With k = 1 every leaf is removed, so the hub's sentinel key falls by
    one per leaf and ends exactly at sentinel - D.
    """
    n = degree + 1
    labels = [1] + [0] * degree
    return make_instance(n, [(0, leaf) for leaf in range(1, n)], None,
                         labels, 1, [0, 1])


class TestGreedyPeel:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(unit_weight_instances())
    def test_unit_keys_match_reference_and_float_keys(self, instance):
        graph, spec = instance
        sel = greedy_peel(graph, spec)
        np.testing.assert_array_equal(sel, peel_reference(graph, spec))
        heavy = doubled(graph)
        if graph.m:
            unit_keys = _peel_keys(graph)[0]
            assert unit_keys.dtype.kind == "i"
            assert _peel_keys(heavy)[0].dtype == np.float64
            event(f"{unit_keys.dtype} keys")
        np.testing.assert_array_equal(sel, greedy_peel(heavy, spec))

    @pytest.mark.parametrize("degree, dtype", [
        (2**6 - 1, np.int8), (2**6, np.int16),
        (2**14 - 1, np.int16), (2**14, np.int32),
    ])
    def test_frozen_hub_ends_at_the_floor(self, degree, dtype):
        graph, spec = frozen_hub_star(degree)
        key, sentinel, floor, step = _peel_keys(graph)
        assert key.dtype == dtype
        assert (sentinel, floor) == (np.iinfo(dtype).max,
                                     np.iinfo(dtype).max - degree)
        assert floor > degree and step.strides == (0,)
        sel = greedy_peel(graph, spec)
        np.testing.assert_array_equal(sel, [0])
        np.testing.assert_array_equal(sel, greedy_peel(doubled(graph), spec))

    def test_returns_feasible_k_set(self, rng):
        for _ in range(30):
            n = int(rng.integers(4, 20))
            g = random_graph(rng, n)
            spec = random_spec(rng, n)
            sel = greedy_peel(g, spec)
            assert is_feasible_binary(spec, sel)

    def test_matches_reference_weighted(self, rng):
        for _ in range(40):
            n = int(rng.integers(4, 25))
            g = random_graph(rng, n)
            spec = random_spec(rng, n)
            np.testing.assert_array_equal(greedy_peel(g, spec),
                                          peel_reference(g, spec))

    def test_matches_reference_unweighted(self, rng):
        for _ in range(40):
            n = int(rng.integers(4, 25))
            g = random_graph(rng, n, weighted=False)
            spec = random_spec(rng, n)
            np.testing.assert_array_equal(greedy_peel(g, spec),
                                          peel_reference(g, spec))

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(small_instances())
    # group 1 ({4}) frozen from the start
    @example(make_instance(5, [(0, 1), (1, 2), (2, 3)], None, [0, 0, 0, 0, 1],
                           3, [0, 1]))
    # group 0 freezes after two removals; ties among integer weights
    @example(make_instance(6, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 5)],
                           [2.0, 1.0, 1.0, 2.0, 1.0], [0, 0, 0, 0, 1, 1], 3,
                           [2, 0]))
    # k = n: nothing is removed
    @example(make_instance(4, [(0, 1)], [0.5], [0, 1, 0, 1], 4, [1, 1]))
    def test_matches_reference_property(self, instance):
        graph, spec = instance
        sel = greedy_peel(graph, spec)
        np.testing.assert_array_equal(sel, peel_reference(graph, spec))
        # The second call is answered from the memo.
        np.testing.assert_array_equal(greedy_peel(graph, spec), sel)
        kept = np.bincount(spec.attr.labels[sel], minlength=spec.attr.r)
        for ki, members, c in zip(spec.mins, spec.attr.groups, kept):
            if ki and len(members) == ki:
                event("group frozen from the start")
            elif ki and c == ki:
                event("group frozen mid-run")
        if spec.k == graph.n:
            event("k = n")

    def test_tie_break_lower_id(self):
        # path 0-1-2-3: degrees 1,2,2,1; with no minimums the first removal
        # must be vertex 0, not vertex 3
        g = WeightedGraph.from_edges(4, [0, 1, 2], [1, 2, 3])
        attr = AttributeAssignment.from_labels(np.zeros(4, dtype=np.int64))
        spec = ConstraintSpec(k=3, mins=(0,), attr=attr)
        np.testing.assert_array_equal(greedy_peel(g, spec), [1, 2, 3])

    def test_group_minimum_protects_low_degree_vertex(self):
        # vertex 4 is isolated but alone in its group with minimum 1
        g = WeightedGraph.from_edges(5, [0, 1, 0, 2], [1, 2, 2, 3])
        labels = np.array([0, 0, 0, 0, 1])
        spec = ConstraintSpec(k=3, mins=(0, 1),
                              attr=AttributeAssignment.from_labels(labels))
        sel = greedy_peel(g, spec)
        assert 4 in sel

    def test_second_call_reuses_the_peel(self, rng, monkeypatch):
        graph, spec = random_graph(rng, 20), random_spec(rng, 20)
        first = greedy_peel(graph, spec)
        peels = []
        monkeypatch.setattr(baselines, "_peel_keys",
                            lambda g: peels.append(g) or _peel_keys(g))
        second, third = greedy_peel(graph, spec), greedy_peel(graph, spec)
        assert peels == []
        np.testing.assert_array_equal(second, first)
        assert not np.shares_memory(second, first)
        assert not np.shares_memory(second, third)
        second[:] = -1
        np.testing.assert_array_equal(third, first)
        np.testing.assert_array_equal(greedy_peel(graph, spec), first)
        # Another graph under the same spec is peeled afresh.
        other = random_graph(rng, 20)
        np.testing.assert_array_equal(greedy_peel(other, spec),
                                      peel_reference(other, spec))
        assert peels == [other]

    def test_hand_built_assignment_is_read_only(self, rng):
        """An assignment built without ``from_labels`` holds read-only
        copies too: a write to the caller's arrays reaches neither it nor
        the survivors the memo returns for a spec over it."""
        graph = random_graph(rng, 20)
        labels = np.arange(20) % 2
        groups = [np.flatnonzero(labels == i) for i in range(2)]
        attr = AttributeAssignment(labels=labels, groups=tuple(groups))
        spec = ConstraintSpec(k=8, mins=(3, 3), attr=attr)
        assert not attr.labels.flags.writeable
        assert not any(g.flags.writeable for g in attr.groups)
        first = greedy_peel(graph, spec)
        labels[:] = 0
        groups[0][:], groups[1][:] = groups[1].copy(), groups[0].copy()
        assert attr.labels.tolist() == [0, 1] * 10
        assert [g.tolist() for g in attr.groups] == [list(range(0, 20, 2)),
                                                     list(range(1, 20, 2))]
        np.testing.assert_array_equal(greedy_peel(graph, spec), first)
        np.testing.assert_array_equal(first, peel_reference(graph, spec))

    def test_memo_keeps_nothing_alive(self, rng):
        # The @example instances above live as long as the module, and so
        # do their entries: count this spec's own.
        held = len(baselines._PEELED)
        graph, spec = random_graph(rng, 12), random_spec(rng, 12)
        greedy_peel(graph, spec)
        assert spec in baselines._PEELED and len(baselines._PEELED) == held + 1
        graph_ref, spec_ref = weakref.ref(graph), weakref.ref(spec)
        del graph
        gc.collect()
        assert graph_ref() is None and spec in baselines._PEELED
        del spec
        gc.collect()
        assert spec_ref() is None and len(baselines._PEELED) == held

    def test_pickles_after_peel(self, rng):
        graph, spec = random_graph(rng, 12), random_spec(rng, 12)
        sel = greedy_peel(graph, spec)
        graph2, spec2 = pickle.loads(pickle.dumps((graph, spec)))
        np.testing.assert_array_equal(greedy_peel(graph2, spec2), sel)

    def test_unpickled_weighted_step_has_the_canonical_dtype(self, rng):
        """An unpickled array's float64 dtype is equal to numpy's but not
        the same object, which sends ``np.subtract.at`` down a slow path;
        the peel's step views the same data under the canonical dtype."""
        graph = pickle.loads(pickle.dumps(random_graph(rng, 12, min_edges=3)))
        step = _peel_keys(graph)[3]
        assert step.dtype is np.dtype(np.float64)
        assert np.shares_memory(step, graph.adj.data)

    def test_finds_planted_clique(self):
        cfg = PlantedCliqueConfig(n=5000, p=0.01, k=15, r=3, seed=9)
        g, attr, planted = generate_planted_clique(cfg)
        spec = ConstraintSpec(k=15, mins=(5, 5, 5), attr=attr)
        sel = greedy_peel(g, spec)
        assert set(sel.tolist()) == set(planted.tolist())


class TestBruteForce:
    def test_matches_exhaustive_enumeration(self, rng):
        for _ in range(30):
            n = int(rng.integers(4, 11))
            g = random_graph(rng, n)
            spec = random_spec(rng, n, k_min=2)
            best_set, best_val = brute_force(g, spec)
            oracle = max(induced_weight(g, s) for s in enumerate_feasible(spec))
            assert best_val == pytest.approx(oracle)
            assert induced_weight(g, best_set) == pytest.approx(best_val)
            assert is_feasible_binary(spec, best_set)

    def test_lexicographic_tie_break(self):
        # two disjoint triangles of equal weight; the lower-id one must win
        g = WeightedGraph.from_edges(6, [0, 1, 0, 3, 4, 3], [1, 2, 2, 4, 5, 5])
        attr = AttributeAssignment.from_labels(np.zeros(6, dtype=np.int64))
        spec = ConstraintSpec(k=3, mins=(0,), attr=attr)
        best_set, best_val = brute_force(g, spec)
        assert best_set.tolist() == [0, 1, 2]
        assert best_val == 3.0

    def test_guard_trips(self):
        g = WeightedGraph.from_edges(200, [0], [1])
        attr = AttributeAssignment.from_labels(np.zeros(200, dtype=np.int64))
        spec = ConstraintSpec(k=100, mins=(0,), attr=attr)
        with pytest.raises(ValueError, match="brute-force guard"):
            brute_force(g, spec)

    def test_fully_constrained_spec_has_unique_answer(self):
        g = WeightedGraph.from_edges(3, [0], [1])
        attr = AttributeAssignment.from_labels(np.array([0, 0, 1]))
        spec = ConstraintSpec(k=2, mins=(2, 0), attr=attr)
        best_set, _ = brute_force(g, spec)
        assert best_set.tolist() == [0, 1]


class TestLrbo:
    def test_returns_feasible_candidates(self, rng):
        for _ in range(20):
            n = int(rng.integers(5, 20))
            g = random_graph(rng, n, min_edges=2)
            spec = random_spec(rng, n, k_min=2)
            sel, (x_cand, y_cand), bil = lrbo_rank1(g, spec)
            assert is_feasible_binary(spec, sel)
            assert is_feasible_binary(spec, np.flatnonzero(x_cand > 0.5))
            assert is_feasible_binary(spec, np.flatnonzero(y_cand > 0.5))

    def test_bilinear_value_matches_rank1_form(self, rng):
        g = random_graph(rng, 15, min_edges=3)
        spec = random_spec(rng, 15, k_min=2)
        sel, (x_cand, y_cand), bil = lrbo_rank1(g, spec)
        x_idx = np.flatnonzero(x_cand > 0.5)
        y_idx = np.flatnonzero(y_cand > 0.5)
        dense = g.adj.toarray()
        eigvals, eigvecs = np.linalg.eigh(dense)
        top = np.argmax(np.abs(eigvals))
        v1 = eigvecs[:, top]
        u1 = eigvals[top] * v1
        got = abs(v1[x_idx].sum() * u1[y_idx].sum())
        assert abs(bil) == pytest.approx(got, rel=1e-6)

    def test_optimal_on_rank1_graph(self):
        # star K_{1,4} has a dominant eigenvector concentrated on the hub
        g = WeightedGraph.from_edges(5, [0, 0, 0, 0], [1, 2, 3, 4])
        attr = AttributeAssignment.from_labels(np.zeros(5, dtype=np.int64))
        spec = ConstraintSpec(k=2, mins=(0,), attr=attr)
        sel, _, _ = lrbo_rank1(g, spec)
        assert 0 in sel

    def test_rejects_edgeless_graph(self, rng):
        g = random_graph(rng, 5, p=0.0)
        with pytest.raises(ValueError, match="at least one edge"):
            lrbo_rank1(g, random_spec(rng, 5))

    def test_deterministic(self, rng):
        g = random_graph(rng, 25, min_edges=5)
        spec = random_spec(rng, 25, k_min=3)
        a = lrbo_rank1(g, spec)
        b = lrbo_rank1(g, spec)
        np.testing.assert_array_equal(a[0], b[0])
        assert a[2] == b[2]
