import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vacdks import (
    AttributeAssignment,
    GraphFormatError,
    PlantedCliqueConfig,
    WeightedGraph,
    generate_planted_clique,
    induced_weight,
    load_attributes,
    load_edge_list,
    save_attributes,
    save_edge_list,
)
from vacdks.graph import _pairs_from_indices

from conftest import graphs_equal, small_instances


def write(tmp_path, text, name="g.tsv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadEdgeList:
    def test_unweighted_default(self, tmp_path):
        g = load_edge_list(write(tmp_path, "0 1\n1 2\n"), unweighted_default=True)
        assert (g.n, g.m, g.w_max) == (3, 2, 1.0)

    def test_weighted(self, tmp_path):
        g = load_edge_list(write(tmp_path, "0 1 0.5\n0 2 2.0\n"))
        assert (g.m, g.w_max) == (2, 2.0)

    def test_self_loop(self, tmp_path):
        with pytest.raises(GraphFormatError, match="self-loop"):
            load_edge_list(write(tmp_path, "0 0 1.0\n"))

    def test_duplicate_edge(self, tmp_path):
        with pytest.raises(GraphFormatError, match="duplicate"):
            load_edge_list(write(tmp_path, "0 1 1.0\n0 1 2.0\n"))

    def test_reversed_duplicate(self, tmp_path):
        with pytest.raises(GraphFormatError, match="duplicate"):
            load_edge_list(write(tmp_path, "0 1 1.0\n1 0 1.0\n"))

    def test_non_positive_weight(self, tmp_path):
        with pytest.raises(GraphFormatError, match="non-positive"):
            load_edge_list(write(tmp_path, "0 1 0.0\n"))

    def test_missing_weight_without_flag(self, tmp_path):
        with pytest.raises(GraphFormatError, match="missing weight"):
            load_edge_list(write(tmp_path, "0 1\n"))

    def test_parse_error_reports_line(self, tmp_path):
        with pytest.raises(GraphFormatError, match=":2:"):
            load_edge_list(write(tmp_path, "0 1 1.0\nnot an edge line at all\n"))

    def test_comments_and_blank_lines(self, tmp_path):
        g = load_edge_list(write(tmp_path, "# a comment\n\n0 1 1.0\n"))
        assert g.m == 1

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_non_finite_weight(self, tmp_path, weight):
        with pytest.raises(GraphFormatError, match=":2: non-finite weight"):
            load_edge_list(write(tmp_path, f"0 1 1.0\n1 2 {weight}\n"))

    def test_bad_vertex_count_header(self, tmp_path):
        with pytest.raises(GraphFormatError, match=":2: bad vertex count 'abc'"):
            load_edge_list(write(tmp_path, "# a comment\n# n abc\n0 1 1.0\n"))

    def test_inline_comment_rejected(self, tmp_path):
        with pytest.raises(GraphFormatError, match=":1: expected 'u v'"):
            load_edge_list(write(tmp_path, "0 1 1.0 # heavy\n"))

    @pytest.mark.parametrize("data", [
        b"# n 3 \xff\n0 1 1.0\n",  # in the header the fast path reads
        b"# n 3\n0 1 1.0\n1 2 \xff\n",  # in an edge line
    ], ids=["header", "edge-line"])
    def test_non_utf8_file(self, tmp_path, data):
        path = tmp_path / "g.tsv"
        path.write_bytes(data)
        with pytest.raises(GraphFormatError, match="not UTF-8 text") as exc:
            load_edge_list(path)
        assert str(path) in str(exc.value)
        assert isinstance(exc.value.__cause__, UnicodeDecodeError)

    def test_header_declares_isolated_vertices(self, tmp_path):
        g = load_edge_list(write(tmp_path, "# n 7\r\n0 1 1.0\r\n"))
        assert (g.n, g.m) == (7, 1)
        assert load_edge_list(write(tmp_path, "0 1 1.0\n"), n=5).n == 5


class TestLoadAttributes:
    def test_basic_partition(self, tmp_path):
        attr = load_attributes(write(tmp_path, "0 0\n1 0\n2 1\n"), 3)
        assert attr.r == 2
        assert attr.groups[0].tolist() == [0, 1]
        assert attr.groups[1].tolist() == [2]

    def test_densification_first_seen(self, tmp_path):
        attr = load_attributes(write(tmp_path, "0 5\n1 9\n"), 2)
        assert attr.r == 2
        assert attr.labels.tolist() == [0, 1]

    def test_unlabeled_vertex(self, tmp_path):
        with pytest.raises(GraphFormatError, match="vertex 1 unlabeled"):
            load_attributes(write(tmp_path, "0 0\n"), 2)

    def test_duplicate_label(self, tmp_path):
        with pytest.raises(GraphFormatError, match="labeled twice"):
            load_attributes(write(tmp_path, "0 0\n0 1\n1 0\n"), 2)

    def test_out_of_range(self, tmp_path):
        with pytest.raises(GraphFormatError, match="out of range"):
            load_attributes(write(tmp_path, "0 0\n5 0\n"), 2)

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_bytes(b"0 0\n1 \xff\n")
        with pytest.raises(GraphFormatError, match="not UTF-8 text") as exc:
            load_attributes(path, 2)
        assert str(path) in str(exc.value)
        assert isinstance(exc.value.__cause__, UnicodeDecodeError)


class TestGenerator:
    def test_p_zero_leaves_only_clique(self):
        cfg = PlantedCliqueConfig(n=30, p=0.0, k=6, r=3, seed=0)
        g, attr, planted = generate_planted_clique(cfg)
        assert g.m == math.comb(6, 2) == 15
        u, v, _ = g.edge_arrays()
        inside = set(planted.tolist())
        assert all(a in inside and b in inside for a, b in zip(u, v))

    def test_paper_scale_planted_structure(self):
        cfg = PlantedCliqueConfig(n=10000, p=0.05, k=30, r=3, seed=7)
        g, attr, planted = generate_planted_clique(cfg)
        counts = np.bincount(attr.labels[planted], minlength=3)
        assert counts.tolist() == [10, 10, 10]
        assert induced_weight(g, planted) == math.comb(30, 2) == 435

    def test_weighted_clique_edges_heaviest(self):
        cfg = PlantedCliqueConfig(n=1000, p=0.01, k=10, r=2, weighted=True, seed=1)
        g, attr, planted = generate_planted_clique(cfg)
        inside = np.zeros(g.n, dtype=bool)
        inside[planted] = True
        u, v, w = g.edge_arrays()
        clique_mask = inside[u] & inside[v]
        assert np.all(w[clique_mask] == 1.0)
        assert np.all((w[~clique_mask] >= 0.8) & (w[~clique_mask] < 1.0))
        assert induced_weight(g, planted) == g.w_max * math.comb(10, 2)

    def test_deterministic_given_seed(self):
        cfg = PlantedCliqueConfig(n=3000, p=0.02, k=9, r=3, weighted=True, seed=5)
        a = generate_planted_clique(cfg)
        b = generate_planted_clique(cfg)
        assert graphs_equal(a[0], b[0])
        assert np.array_equal(a[1].labels, b[1].labels)
        assert np.array_equal(a[2], b[2])

    def test_degree_sum_is_2m(self):
        cfg = PlantedCliqueConfig(n=500, p=0.05, k=10, r=2, seed=3)
        g, _, _ = generate_planted_clique(cfg)
        assert float(g.adj.sum()) == 2 * g.m

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PlantedCliqueConfig(n=10, p=0.5, k=20, r=2)
        with pytest.raises(ValueError):
            PlantedCliqueConfig(n=10, p=0.5, k=5, r=2)
        with pytest.raises(ValueError):
            PlantedCliqueConfig(n=10, p=1.5, k=4, r=2)

    @pytest.mark.parametrize("sizes", [
        dict(n=60, k=6.0, r=3), dict(n=60.5, k=6, r=3), dict(n=60, k=6, r=2.0),
    ], ids=["k=6.0", "n=60.5", "r=2.0"])
    def test_config_rejects_non_integer_sizes(self, sizes):
        name = next(key for key, v in sizes.items() if isinstance(v, float))
        with pytest.raises(ValueError, match=f"{name}=.* must be an integer"):
            PlantedCliqueConfig(p=0.1, **sizes)

    def test_config_accepts_numpy_integers(self):
        cfg = PlantedCliqueConfig(n=np.int64(60), p=0.1, k=np.int32(6),
                                  r=np.int64(3))
        assert len(generate_planted_clique(cfg)[2]) == 6


def test_round_trip(tmp_path):
    cfg = PlantedCliqueConfig(n=200, p=0.05, k=8, r=2, weighted=True, seed=11)
    g, _, _ = generate_planted_clique(cfg)
    path = tmp_path / "edges.tsv"
    save_edge_list(g, path)
    g2 = load_edge_list(path)
    assert graphs_equal(g, g2)


def test_attribute_round_trip(tmp_path):
    cfg = PlantedCliqueConfig(n=100, p=0.1, k=6, r=3, seed=2)
    _, attr, _ = generate_planted_clique(cfg)
    path = tmp_path / "attrs.tsv"
    save_attributes(attr, path)
    attr2 = load_attributes(path, 100)
    # loading densifies group ids in first-seen order, so compare the
    # partition rather than the raw labels
    remap = {}
    densified = [remap.setdefault(int(g), len(remap)) for g in attr.labels]
    assert densified == attr2.labels.tolist()


@settings(max_examples=150, deadline=None)
@given(small_instances(max_n=12), st.integers(min_value=0, max_value=3))
def test_save_load_round_trip_property(instance, isolated):
    """Edges, weights and labels survive a save/load round trip, and so do
    isolated trailing vertices, which only the "# n" header declares."""
    g, spec = instance
    g = WeightedGraph.from_edges(g.n + isolated, *g.edge_arrays())
    labels = np.concatenate([spec.attr.labels,
                             np.arange(isolated) % spec.attr.r])
    attr = AttributeAssignment.from_labels(labels, r=spec.attr.r)
    with tempfile.TemporaryDirectory() as d:
        save_edge_list(g, Path(d, "edges.tsv"))
        save_attributes(attr, Path(d, "attrs.tsv"))
        g2 = load_edge_list(Path(d, "edges.tsv"))
        attr2 = load_attributes(Path(d, "attrs.tsv"), g2.n)
    assert graphs_equal(g, g2)
    remap = {}
    densified = [remap.setdefault(int(v), len(remap)) for v in labels]
    assert attr2.labels.tolist() == densified
    assert attr2.r == len(remap)


class TestInducedWeight:
    def triangle(self):
        return WeightedGraph.from_edges(3, [0, 1, 0], [1, 2, 2])

    def test_complete_triangle(self):
        assert induced_weight(self.triangle(), {0, 1, 2}) == 3.0

    def test_small_sets(self):
        g = self.triangle()
        assert induced_weight(g, set()) == 0.0
        assert induced_weight(g, {1}) == 0.0

    def test_four_vertex_example(self):
        g = WeightedGraph.from_edges(4, [0, 1, 0, 2], [1, 2, 2, 3])
        # independent oracle: edges inside {0,1,2} are (0,1),(1,2),(0,2)
        assert induced_weight(g, {0, 1, 2}) == 3.0

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            induced_weight(self.triangle(), {0, 7})

    def test_rejects_non_integer_ids(self):
        with pytest.raises(ValueError, match="integers"):
            induced_weight(self.triangle(), [0.9, 1.7])


def test_pair_index_inversion(rng):
    for n in (2, 3, 5, 100):
        u, v = _pairs_from_indices(np.arange(n * (n - 1) // 2), n)
        iu, iv = np.triu_indices(n, k=1)
        assert np.array_equal(u, iu) and np.array_equal(v, iv)
    for n in (3, 10, 57, 2001):
        total = n * (n - 1) // 2
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        t = rng.integers(0, total, size=200)
        u, v = _pairs_from_indices(t, n)
        for ti, ui, vi in zip(t, u, v):
            assert pairs[ti] == (ui, vi)


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError, match="self-loop"):
        WeightedGraph.from_edges(3, [0], [0])
    with pytest.raises(ValueError, match="duplicate"):
        WeightedGraph.from_edges(3, [0, 1], [1, 0])
    with pytest.raises(ValueError, match="positive"):
        WeightedGraph.from_edges(3, [0], [1], [-1.0])
    with pytest.raises(ValueError, match="range"):
        WeightedGraph.from_edges(3, [0], [5])


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
def test_from_edges_rejects_non_finite_weight(weight):
    with pytest.raises(ValueError, match="finite"):
        WeightedGraph.from_edges(3, [0, 1], [1, 2], [1.0, weight])
