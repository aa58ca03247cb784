import hashlib
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

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
from vacdks import graph as graph_module
from vacdks.graph import (_PAIRWISE_LIMIT, _background_pair_indices, _pairs_from_indices, _sample_pair_indices,
                          _support_product)

from conftest import (PLACEMENT, graphs_equal, load_reference, random_graph,
                      small_instances, support_is_narrow)


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

    @pytest.mark.parametrize("text, message", [
        ("0 1 1.0\n1 9223372036854775808 1.0\n",
         ":2: vertex id 9223372036854775808 too large"),
        ("0 9223372036854775807 1.0\n",
         ":1: vertex id 9223372036854775807 too large"),
        ("# n 9223372036854775808\n0 1 1.0\n",
         ":1: vertex count 9223372036854775808 too large"),
    ], ids=["id=2**63", "id=2**63-1", "header=2**63"])
    def test_ids_past_int64_rejected(self, tmp_path, text, message):
        """n = max id + 1 must fit in an int64, or the CSR build overflows."""
        with pytest.raises(GraphFormatError, match=message):
            load_edge_list(write(tmp_path, text))

    @pytest.mark.parametrize("big", [3000000000, 9223372036854775806,
                                     2**31 - 1])
    def test_huge_id_without_a_count(self, tmp_path, big):
        """Without n or a "# n" line the largest id sets the vertex count,
        so an id past the int32 range fails at its line before any array
        is sized from it."""
        path = write(tmp_path, f"0 1 1.0\n2 {big} 1.0\n{big} 3 1.0\n")
        with pytest.raises(GraphFormatError, match=(
                f":2: vertex id {big} too large for an edge list without "
                "a vertex count")):
            load_edge_list(path)
        # A given n bounds it instead.
        with pytest.raises(GraphFormatError, match=f":2: vertex id {big} "
                           "too large for n=3"):
            load_edge_list(path, n=3)

    def test_implied_count_stays_near_the_edge_count(self, tmp_path):
        """Without n or a "# n" line the ids imply at most max(2m, 2**20)
        vertices for m edges: a stray id fails at its line, and no array is
        sized from it (here it would ask for an 8 GiB indptr)."""
        path = write(tmp_path, "0 1 1.0\n2 2147483646 1.0\n")
        assert graph_module._numpy_parse(path, 1, 3, False, None) is None
        with pytest.raises(GraphFormatError, match=(
                r":2: vertex id 2147483646 too large for an edge list without "
                r"a vertex count \(ids stay below max\(2m, 2\*\*20\) = "
                r"1048576, m = 2 edges")):
            load_edge_list(path)
        # At the cap itself the ids load.
        g = load_edge_list(write(tmp_path, "0 1 1.0\n2 1048575 1.0\n"))
        assert (g.n, g.m) == (1 << 20, 2)
        with pytest.raises(GraphFormatError, match=":2: vertex id 1048576 "):
            load_edge_list(write(tmp_path, "0 1 1.0\n2 1048576 1.0\n"))
        # A later bad line, read before any count, does not hide it: the
        # two edges read so far set the cap.
        for later in ("0 1 1.0", "3 4 -1.0"):
            with pytest.raises(GraphFormatError, match=(
                    r":2: vertex id 2147483646 too large for an edge list "
                    r"without a vertex count \(ids stay below max\(2m, "
                    r"2\*\*20\) = 1048576, m = 2 edges")):
                load_edge_list(write(
                    tmp_path, f"0 1 1.0\n2 2147483646 1.0\n{later}\n"))

    @pytest.mark.parametrize("text, message", [
        ("# n 1\n0 1 1.0\n", ":2: vertex id 1 too large for n=1"),
        ("0 5 1.0\n1 2 1.0\n# n 3\n", f":3: {PLACEMENT}"),
        ("#n 3\n# n 0\n0 1 1.0\n", f":2: {PLACEMENT}"),
        ("# n 4\n0 1 1.0\n# n 5\n", f":3: {PLACEMENT}"),
        # No count holds the stray id on line 2: the later ones never count.
        ("0 1 1.0\n2 3000000 1.0\n0 1 1.0\n# n 4000000\n",
         ":2: vertex id 3000000 too large for an edge list without a vertex "
         "count"),
    ], ids=["id-below", "id-above", "counts-first", "count-after-edges",
            "count-after-a-stray-id"])
    def test_header_is_the_vertex_count(self, tmp_path, text, message):
        """Without a given n, a "# n" line is the count, not a lower bound;
        it must come once, before the first edge line. The line loop alone
        says the same."""
        for load in (load_edge_list, load_reference):
            with pytest.raises(GraphFormatError, match=message):
                load(write(tmp_path, text))

    def test_header_declares_isolated_vertices(self, tmp_path):
        for load in (load_edge_list, load_reference):
            g = load(write(tmp_path, "# n 7\r\n0 1 1.0\r\n"))
            assert (g.n, g.m) == (7, 1)
            assert load(write(tmp_path, "0 1 1.0\n"), n=5).n == 5
            with pytest.raises(GraphFormatError, match=f":3: {PLACEMENT}"):
                load(write(tmp_path, "# n 7\r\n0 1 1.0\r\n# n 7\n"))


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

    def test_n_is_the_labeled_line_count(self, tmp_path):
        attr = load_attributes(
            write(tmp_path, "# vertex group\n\n2 1\n0 0\n  \n1 1\n"))
        assert attr.n == 3
        assert attr.labels.tolist() == [1, 0, 0]
        with pytest.raises(GraphFormatError, match=r"vertex 3 out of range \[0, 3\)"):
            load_attributes(write(tmp_path, "0 0\n3 0\n1 0\n"))
        with pytest.raises(GraphFormatError, match=":2: expected 'vertex group'"):
            load_attributes(write(tmp_path, "0 0\n1\n"))
        with pytest.raises(GraphFormatError, match=":1: non-integer field"):
            load_attributes(write(tmp_path, "0 a\n"))

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

    @pytest.mark.parametrize("p", [1e-18, 1e-300, 5e-324])
    def test_skip_sampling_at_tiny_p_leaves_only_clique(self, p):
        """Saturated geometric gaps neither wrap around nor loop forever."""
        code = ("import sys; from vacdks import *; "
                "g, _, _ = generate_planted_clique(PlantedCliqueConfig("
                "n=3000, p=float(sys.argv[1]), k=3, r=1, seed=0)); print(g.m)")
        src = str(Path(graph_module.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code, repr(p)], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "3"

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

    @pytest.mark.parametrize("seed", [-1, 1.0, "3"], ids=repr)
    def test_config_rejects_bad_seed(self, seed):
        with pytest.raises(ValueError, match="seed="):
            PlantedCliqueConfig(n=60, p=0.1, k=6, r=3, seed=seed)

    def test_config_accepts_numpy_integers(self):
        cfg = PlantedCliqueConfig(n=np.int64(60), p=0.1, k=np.int32(6),
                                  r=np.int64(3))
        assert len(generate_planted_clique(cfg)[2]) == 6
        assert PlantedCliqueConfig(n=60, p=0.1, k=6, r=3,
                                   seed=np.uint32(4)).seed == 4


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


def save_edge_list_reference(graph, path):
    """The line loop: one f-string per edge."""
    u, v, w = graph.edge_arrays()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n {graph.n}\n")
        for a, b, c in zip(u.tolist(), v.tolist(), w.tolist()):
            fh.write(f"{a} {b} {c!r}\n")


def save_attributes_reference(attr, path):
    """The line loop: one f-string per vertex."""
    with open(path, "w", encoding="utf-8") as fh:
        for v, g in enumerate(attr.labels.tolist()):
            fh.write(f"{v} {g}\n")


def written_bytes(save, obj):
    with tempfile.TemporaryDirectory() as d:
        save(obj, Path(d, "out.tsv"))
        return Path(d, "out.tsv").read_bytes()


# Weights whose repr is exponent or long-mantissa text, and the extremes.
SPECIAL_WEIGHTS = [5e-324, 1e-05, 1e-4, 2.5e-7, 3.0, 1e16,
                   9.999999999999999e15, 1.7976931348623157e+308]
# Ids on either side of a change in digit count.
DIGIT_EDGES = [0, 1, 8, 9, 10, 11, 98, 99, 100, 101, 998, 999, 1000, 1001]


@st.composite
def writer_inputs(draw):
    """(graph, attr): edges among ids that cross 9/10, 99/100 and 999/1000,
    isolated trailing vertices, unit or drawn weights, and labels (a drawn
    run repeated over the n vertices)."""
    ids = st.one_of(st.sampled_from(DIGIT_EDGES),
                    st.integers(min_value=0, max_value=1001))
    pairs = draw(st.lists(st.tuples(ids, ids).filter(lambda e: e[0] != e[1]),
                          max_size=30,
                          unique_by=lambda e: (min(e), max(e))))
    top = max((max(e) for e in pairs), default=-1)
    n = top + 1 + draw(st.integers(min_value=0, max_value=3))
    weights = None
    if draw(st.booleans()):
        weights = draw(st.lists(
            st.one_of(st.sampled_from(SPECIAL_WEIGHTS),
                      st.floats(min_value=0.0, exclude_min=True,
                                allow_infinity=False)),
            min_size=len(pairs), max_size=len(pairs)))
    graph = WeightedGraph.from_edges(n, [a for a, _ in pairs],
                                     [b for _, b in pairs], weights)
    r = draw(st.sampled_from([1, 2, 10, 11, 101]))
    labels = draw(st.lists(st.integers(min_value=0, max_value=r - 1),
                           min_size=1, max_size=12))
    return graph, AttributeAssignment.from_labels(np.resize(labels, n), r=r)


@settings(max_examples=300, deadline=None)
@given(writer_inputs())
def test_writers_match_the_line_loop(instance):
    """The numpy-built text is the line loop's, byte for byte, also where
    a chunk boundary falls inside the file."""
    graph, attr = instance
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_module, "_WRITE_CHUNK", 3)
        assert (written_bytes(save_edge_list, graph)
                == written_bytes(save_edge_list_reference, graph))
        assert (written_bytes(save_attributes, attr)
                == written_bytes(save_attributes_reference, attr))


def star_and_path(n, hub_degree):
    """Vertex 0 joined to 1..hub_degree, then a path through the rest."""
    u = [0] * hub_degree + list(range(hub_degree, n - 1))
    v = list(range(1, hub_degree + 1)) + list(range(hub_degree + 1, n))
    return u, v


@pytest.mark.parametrize("graph", [
    pytest.param(random_graph(np.random.default_rng(5), 600, p=0.08),
                 id="many-blocks"),
    pytest.param(random_graph(np.random.default_rng(6), 600, False, p=0.08),
                 id="many-blocks-unit"),
    pytest.param(WeightedGraph.from_edges(5000, *star_and_path(4000, 3000)),
                 id="long-row-and-isolated-tail"),
    pytest.param(WeightedGraph.from_edges(3000, [], []), id="edgeless"),
])
def test_block_writer_matches_the_line_loop(graph):
    """At 2**10-line blocks (2**11 stored entries per block of rows) the
    writer still gives the line loop's bytes: across many blocks, for a
    row longer than a block, over isolated trailing vertices and with no
    edge at all."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_module, "_WRITE_CHUNK", 1 << 10)
        assert (written_bytes(save_edge_list, graph)
                == written_bytes(save_edge_list_reference, graph))


@pytest.mark.parametrize("n", [0, 1, 5])
def test_writers_on_edgeless_graphs(n):
    graph = WeightedGraph.from_edges(n, [], [])
    attr = AttributeAssignment.from_labels(np.zeros(n, dtype=np.int64), r=1)
    assert written_bytes(save_edge_list, graph) == f"# n {n}\n".encode()
    assert (written_bytes(save_attributes, attr)
            == "".join(f"{v} 0\n" for v in range(n)).encode())


# SHA-256 of the edges.tsv and attrs.tsv the line loop wrote for the
# generator's pairwise and skip-sampling paths, unweighted and weighted.
WRITER_HASHES = [
    (300, 0.05, 9, False,
     "431df37c3e7db1f8d73471acf59fa93248a782cf90516ba0123290574f19d4b9",
     "6c7a584332a3e240996190a8e4312be673829368c495f423ce149361d9fd5edf"),
    (300, 0.05, 9, True,
     "dfbdc89d73908c28c892a173ffce4e1252f858ebcf91f73d6f4193db11544f34",
     "6c7a584332a3e240996190a8e4312be673829368c495f423ce149361d9fd5edf"),
    (2500, 0.01, 12, False,
     "f5ebc636d7a76f4871c0ec005ba9ea41350102420d43e98a32f985bc1f5a3c78",
     "5216faf3759f75dd319c907d74fac8a67bfbee935370039a3c47fdcb5d441217"),
    (2500, 0.01, 12, True,
     "e1ced5937fa236898add6dc640581745c8d66c5424d1ce67c1c53ce25e024b15",
     "5216faf3759f75dd319c907d74fac8a67bfbee935370039a3c47fdcb5d441217"),
]


@pytest.mark.parametrize("n, p, k, weighted, edges_sha, attrs_sha",
                         WRITER_HASHES)
def test_written_files_are_bit_identical(n, p, k, weighted, edges_sha,
                                         attrs_sha):
    cfg = PlantedCliqueConfig(n=n, p=p, k=k, r=3, weighted=weighted, seed=3)
    graph, attr, _ = generate_planted_clique(cfg)
    for save, obj, digest in ((save_edge_list, graph, edges_sha),
                              (save_attributes, attr, attrs_sha)):
        assert hashlib.sha256(written_bytes(save, obj)).hexdigest() == digest


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
        t = np.unique(rng.integers(0, total, size=200))
        u, v = _pairs_from_indices(t, n)
        for ti, ui, vi in zip(t, u, v):
            assert pairs[ti] == (ui, vi)


@pytest.mark.parametrize("n, p", [(2, 1.0), (57, 0.05), (_PAIRWISE_LIMIT, 0.0),
                                  (_PAIRWISE_LIMIT, 0.05), (2001, 0.1),
                                  (10000, 0.05), (3000, 1e-12), (3000, 1e-300)])
def test_sampling_branches_give_increasing_indices(n, p):
    """The pair decoder's contract, from the pairwise branch (n up to
    _PAIRWISE_LIMIT) and the skip sampler: strictly increasing int64."""
    t = _background_pair_indices(np.random.default_rng(5), n, p)
    assert t.dtype == np.int64 and np.all(np.diff(t) > 0)
    assert len(t) == 0 or (t[0] >= 0 and t[-1] < n * (n - 1) // 2)


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError, match="self-loop"):
        WeightedGraph.from_edges(3, [0], [0])
    with pytest.raises(ValueError, match="duplicate"):
        WeightedGraph.from_edges(3, [0, 1], [1, 0])
    with pytest.raises(ValueError, match="positive"):
        WeightedGraph.from_edges(3, [0], [1], [-1.0])
    with pytest.raises(ValueError, match="range"):
        WeightedGraph.from_edges(3, [0], [5])
    for u, v, w in (([0, 1], [1], None), ([0], [1], [1.0, 2.0])):
        with pytest.raises(ValueError, match="must have equal length"):
            WeightedGraph.from_edges(3, u, v, w)


def test_from_edges_rejects_float_ids():
    # Cast to int, these would be the edge (0, 1).
    for u, v in (([0.7], [1.2]), ([0], [1.0])):
        with pytest.raises(ValueError, match="vertex ids must be integers"):
            WeightedGraph.from_edges(3, u, v)
    # np.asarray([]) is float64: an empty edge list is still no edge.
    g = WeightedGraph.from_edges(3, [], [], [])
    assert (g.n, g.m, g.w_max) == (3, 0, 0.0)


def test_from_labels_rejects_float_labels():
    # Cast to int, these would be the labels [0, 1, 1].
    with pytest.raises(ValueError, match="group labels must be integers"):
        AttributeAssignment.from_labels([0.5, 1.7, 1.2])
    attr = AttributeAssignment.from_labels([])
    assert attr.labels.dtype == np.int64 and (attr.n, attr.r) == (0, 0)


def test_from_labels_rejects_labels_outside_the_groups():
    with pytest.raises(ValueError, match="negative group index"):
        AttributeAssignment.from_labels([0, -1, 1])
    with pytest.raises(ValueError, match="group index out of range"):
        AttributeAssignment.from_labels([0, 2, 1], r=2)


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
def test_from_edges_rejects_non_finite_weight(weight):
    with pytest.raises(ValueError, match="finite"):
        WeightedGraph.from_edges(3, [0, 1], [1, 2], [1.0, weight])


def from_edges_reference(n, u, v, w=None):
    """The full-COO construction, both orientations of every edge at once,
    for valid endpoints and weights."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    w = np.ones(len(u)) if w is None else np.asarray(w, dtype=np.float64)
    data = np.concatenate([w, w])
    adj = sparse.coo_matrix(
        (data, (np.concatenate([u, v]), np.concatenate([v, u]))),
        shape=(n, n)).tocsr()
    if adj.nnz != len(data):
        raise ValueError("duplicate edges are not allowed")
    return WeightedGraph(adj=adj, w_max=float(w.max()) if len(w) else 0.0)


def build_outcome(build, n, u, v, w):
    """The stored arrays (bytes and dtypes) and flags of a build, or its
    ValueError message."""
    try:
        g = build(n, u, v, w)
    except ValueError as exc:
        return str(exc)
    a = g.adj
    return ([(x.dtype.str, x.tobytes()) for x in (a.data, a.indices, a.indptr)],
            a.shape, g.w_max, a.has_canonical_format, a.has_sorted_indices)


@st.composite
def edge_inputs(draw):
    """(n, u, v, w): distinct edges in shuffled order with random orientation,
    sometimes one duplicate in either orientation, sometimes isolated
    trailing vertices; unit (None) or float weights."""
    n = draw(st.integers(min_value=0, max_value=12))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    flips = draw(st.lists(st.booleans(), min_size=len(edges),
                          max_size=len(edges)))
    edges = [(b, a) if flip else (a, b) for (a, b), flip in zip(edges, flips)]
    if edges and draw(st.booleans()):
        a, b = draw(st.sampled_from(edges))
        edges.append(draw(st.sampled_from([(a, b), (b, a)])))
    edges = draw(st.permutations(edges))
    weights = None
    if draw(st.booleans()):
        weights = draw(st.lists(st.floats(min_value=0.01, max_value=100.0),
                                min_size=len(edges), max_size=len(edges)))
    n += draw(st.integers(min_value=0, max_value=3))
    return n, [a for a, _ in edges], [b for _, b in edges], weights


@settings(max_examples=300, deadline=None)
@given(edge_inputs())
@example((0, [], [], None))
@example((4, [], [], None))
@example((5, [3, 0, 1], [0, 2, 3], [0.5, 1.0, 2.0]))
@example((5, [3, 0], [0, 2], None))
def test_from_edges_matches_full_coo_reference(edges):
    """The upper-triangle build stores what the full COO build stores, byte
    for byte, and rejects the same duplicates with the same message."""
    assert (build_outcome(WeightedGraph.from_edges, *edges)
            == build_outcome(from_edges_reference, *edges))


# Weights that every edge of a graph may share: one bool per edge is then
# the upper triangle's data, and the weight is written into the mirror.
CONSTANT_WEIGHTS = [1.0, 2.5, 1e-300, 1e300]


@st.composite
def weighting_inputs(draw):
    """(n, u, v, w) of :func:`edge_inputs` with no weights, one constant
    weight or its own weights, and sometimes a self-loop among the edges."""
    n, u, v, w = draw(edge_inputs())
    kind = draw(st.sampled_from(["none", "constant", "drawn"]))
    if kind == "none":
        w = None
    elif kind == "constant":
        w = [draw(st.sampled_from(CONSTANT_WEIGHTS))] * len(u)
    if n and draw(st.integers(min_value=0, max_value=4)) == 0:
        at = draw(st.integers(min_value=0, max_value=len(u)))
        a = draw(st.integers(min_value=0, max_value=n - 1))
        u, v = u[:at] + [a] + u[at:], v[:at] + [a] + v[at:]
        if w is not None:
            w = w[:at] + [w[0] if w else 1.0] + w[at:]
    return n, u, v, w


@settings(max_examples=300, deadline=None)
@given(weighting_inputs())
@example((0, [], [], None))
@example((3, [], [], []))
@example((3, [], [], None))
@example((5, [3, 0, 1], [0, 2, 3], [2.5, 2.5, 2.5]))
@example((5, [3, 0, 1], [0, 2, 3], [1e-300, 1e-300, 1e-300]))
@example((5, [3, 0, 1], [0, 2, 3], [1e300, 1e300, 1e300]))
@example((5, [3, 0, 1], [0, 2, 3], [2.5, 2.5, 1.0]))
@example((4, [0, 1, 2], [1, 2, 1], [2.5, 2.5, 2.5]))
@example((4, [0, 1, 2], [1, 2, 1], None))
@example((4, [0, 1, 2], [1, 2, 2], [2.5, 2.5, 2.5]))
@example((4, [0, 1, 2], [1, 2, 2], None))
def test_constant_weights_match_full_coo_reference(edges):
    """Unit, constant and drawn weights store what the full COO build
    stores, byte for byte; duplicates and self-loops fail with the same
    messages on every weighting."""
    n, u, v, w = edges
    got = build_outcome(WeightedGraph.from_edges, *edges)
    if any(a == b for a, b in zip(u, v)):
        assert got == "self-loops are not allowed"
    else:
        assert got == build_outcome(from_edges_reference, *edges)


def csr_bytes(graph):
    a = graph.adj
    return a.data.nbytes + a.indices.nbytes + a.indptr.nbytes


def traced_peak(call):
    """(call(), the peak of the memory traced during the call above what was
    traced when it began)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


class TestBuildMemory:
    """No stage of a unit-weight build holds much more than the CSR it
    returns (24 bytes per stored entry: float64 data, int32 indices), and
    the writer holds one block of rows, not the graph."""

    CFG = PlantedCliqueConfig(n=3000, p=0.1, k=30, r=3, seed=1)

    def test_generator_peak(self):
        graph, peak = traced_peak(
            lambda: generate_planted_clique(self.CFG)[0])
        assert peak <= 1.45 * csr_bytes(graph)

    @pytest.mark.parametrize("given_n", [True, False])
    def test_load_edge_list_peak(self, tmp_path, given_n):
        """The parsed rows and the CSR, never U or the bool sum besides.
        The file's "# n" line is the vertex count without a given n."""
        path = tmp_path / "edges.tsv"
        save_edge_list(generate_planted_clique(self.CFG)[0], path)
        n = self.CFG.n if given_n else None
        graph, peak = traced_peak(lambda: load_edge_list(path, n=n))
        assert peak <= 1.15 * csr_bytes(graph)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_save_edge_list_peak(self, tmp_path, weighted):
        """With 2**14-line blocks a block's edges and text are small beside
        this graph (at 2**18 lines they traced 1.7x its CSR unweighted and
        3.7x weighted), so the peak shows whether the writer decodes a block
        or the whole graph."""
        cfg = PlantedCliqueConfig(n=3000, p=0.1, k=30, r=3, seed=1,
                                  weighted=weighted)
        graph = generate_planted_clique(cfg)[0]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_module, "_WRITE_CHUNK", 1 << 14)
            _, peak = traced_peak(
                lambda: save_edge_list(graph, tmp_path / "edges.tsv"))
        assert peak <= 0.5 * csr_bytes(graph)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_save_edge_list_peak_at_the_default_block(self, tmp_path,
                                                     weighted):
        """At the default block size the writer holds at most about the
        CSR's bytes besides the graph, for drawn weights too."""
        cfg = PlantedCliqueConfig(n=3000, p=0.1, k=30, r=3, seed=1,
                                  weighted=weighted)
        graph = generate_planted_clique(cfg)[0]
        _, peak = traced_peak(
            lambda: save_edge_list(graph, tmp_path / "edges.tsv"))
        assert peak <= 1.2 * csr_bytes(graph)


def edge_arrays_reference(g):
    """(u, v, w) by a triu COO and a lexsort."""
    coo = sparse.triu(g.adj, k=1).tocoo()
    order = np.lexsort((coo.col, coo.row))
    return coo.row[order], coo.col[order], coo.data[order]


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("n, p", [(300, 0.05), (2500, 0.005)])
def test_edge_arrays_matches_triu_reference(n, p, weighted):
    cfg = PlantedCliqueConfig(n=n, p=p, k=9, r=3, weighted=weighted, seed=2)
    g, _, _ = generate_planted_clique(cfg)
    isolated = WeightedGraph.from_edges(n + 3, *edge_arrays_reference(g))
    for graph in (g, isolated):
        got, want = graph.edge_arrays(), edge_arrays_reference(graph)
        assert [x.dtype for x in got] == [x.dtype for x in want]
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


# SHA-256 of adj.data, adj.indices and adj.indptr (in that order), recorded
# from the full-COO build: the pairwise path (n <= _PAIRWISE_LIMIT) and the
# skip-sampling path, each unweighted and weighted.
GENERATOR_HASHES = [
    (300, 0.05, 9, False,
     "0ffd51536ac704fb6020f7d36d5d8eecd5540dcd8d3e4a560d87ad3255e9e428"),
    (300, 0.05, 9, True,
     "e26b0e3cc13b97729e6c59697c08dd76f3c8f5646b924a60561f4bf76e33f32a"),
    (2500, 0.01, 12, False,
     "f3230510bdeb493ac4b21efdfa83390029d18fe9972ea57346002bbab35ab6b6"),
    (2500, 0.01, 12, True,
     "240b1c2d89e0dadbd1626dc287034930d2048f548cd0f772169afcbdb4095883"),
]


@pytest.mark.parametrize("n, p, k, weighted, digest", GENERATOR_HASHES)
def test_generator_is_bit_identical(n, p, k, weighted, digest):
    cfg = PlantedCliqueConfig(n=n, p=p, k=k, r=3, weighted=weighted, seed=3)
    a = generate_planted_clique(cfg)[0].adj
    assert (a.data.dtype, a.indices.dtype, a.indptr.dtype) == (
        np.float64, np.int32, np.int32)
    h = hashlib.sha256()
    for x in (a.data, a.indices, a.indptr):
        h.update(x.tobytes())
    assert h.hexdigest() == digest


def generate_planted_clique_reference(cfg):
    """The generator before the merged pair stream: decode every drawn pair,
    mask out those inside the clique, and append the clique's pairs at the
    end for from_edges to sort."""
    rng = np.random.default_rng(cfg.seed)
    n, p, k, r = cfg.n, cfg.p, cfg.k, cfg.r
    labels = rng.integers(0, r, size=n)
    attr = AttributeAssignment.from_labels(labels, r=r)
    quota = k // r
    parts = []
    for i in range(r):
        members = attr.groups[i]
        if len(members) < quota:
            raise ValueError(
                f"group {i} has {len(members)} vertices, fewer than k/r={quota}")
        perm = rng.permutation(len(members))
        parts.append(members[perm[:quota]])
    planted = np.sort(np.concatenate(parts))

    if p <= 0.0:
        idx = np.empty(0, dtype=np.int64)
    elif n <= _PAIRWISE_LIMIT:
        idx = np.flatnonzero(rng.random(n * (n - 1) // 2) < p)
    else:
        idx = _sample_pair_indices(rng, n, p)
    rows = np.arange(n - 1, dtype=np.int64)
    offsets = rows * (2 * n - rows - 1) // 2
    lo = np.searchsorted(offsets, idx, side="right") - 1
    hi = lo + 1 + (idx - offsets[lo])

    in_planted = np.zeros(n, dtype=bool)
    in_planted[planted] = True
    keep = ~(in_planted[lo] & in_planted[hi])
    lo, hi = lo[keep], hi[keep]
    if cfg.weighted:
        w_bg = rng.uniform(0.8, 1.0, size=len(lo))
    else:
        w_bg = np.ones(len(lo))

    ci, cj = np.triu_indices(k, k=1)
    cu, cv = planted[ci], planted[cj]
    us = np.concatenate([lo, cu])
    vs = np.concatenate([hi, cv])
    ws = np.concatenate([w_bg, np.ones(len(cu))])
    graph = WeightedGraph.from_edges(n, us, vs, ws)
    return graph, attr, planted


def generated_outcome(generate, cfg):
    """The stored CSR arrays (bytes and dtypes), w_max, labels and planted
    set of an instance, or its ValueError message."""
    try:
        g, attr, planted = generate(cfg)
    except ValueError as exc:
        return str(exc)
    a = g.adj
    return ([(x.dtype.str, x.tobytes()) for x in
             (a.data, a.indices, a.indptr, attr.labels, planted)],
            a.shape, g.w_max, attr.r)


@st.composite
def generator_configs(draw):
    """Sizes on both sides of _PAIRWISE_LIMIT; p = 1 draws every clique
    pair as a background pair first."""
    n = draw(st.one_of(st.integers(min_value=12, max_value=60),
                       st.integers(min_value=_PAIRWISE_LIMIT - 2,
                                   max_value=_PAIRWISE_LIMIT + 2),
                       st.integers(min_value=12, max_value=2600)))
    p = draw(st.sampled_from([0.0, 1e-12, 0.05, 0.3, 1.0]))
    if n > 300 and p >= 0.3:
        # Keep each example's edge count near a million.
        n = draw(st.integers(min_value=12, max_value=300))
    r = draw(st.integers(min_value=1, max_value=4))
    k = r * draw(st.one_of(st.integers(min_value=1, max_value=min(8, n // r)),
                           st.integers(min_value=1, max_value=n // r)))
    return PlantedCliqueConfig(n=n, p=p, k=k, r=r,
                               weighted=draw(st.booleans()),
                               seed=draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=100, deadline=None)
@given(generator_configs())
@example(PlantedCliqueConfig(n=40, p=1.0, k=40, r=1, weighted=True, seed=0))
@example(PlantedCliqueConfig(n=2000, p=0.05, k=12, r=3, seed=0))
@example(PlantedCliqueConfig(n=2001, p=0.05, k=12, r=3, weighted=True, seed=0))
@example(PlantedCliqueConfig(n=2600, p=0.3, k=1200, r=2, weighted=True, seed=1))
@example(PlantedCliqueConfig(n=12, p=0.0, k=1, r=1, seed=0))
def test_generator_matches_reference(cfg):
    """The merged, already sorted pair stream builds the instance that
    masking and appending the clique built, byte for byte."""
    assert (generated_outcome(generate_planted_clique, cfg)
            == generated_outcome(generate_planted_clique_reference, cfg))


def assert_support_product_exact(adj, x):
    got, want = _support_product(adj, x), adj @ x
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()


class TestSupportProduct:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_full_product_bytes(self, rng, weighted):
        g = random_graph(rng, 300, weighted=weighted, p=0.05)
        narrow = set()
        for size in (0, 1, 2, 5, 20, 100, 300):
            for values in ("ones", "fractions"):
                x = np.zeros(300)
                ids = rng.choice(300, size, replace=False)
                x[ids] = 1.0 if values == "ones" else rng.uniform(size=size)
                narrow.add(support_is_narrow(g.adj, x))
                assert_support_product_exact(g.adj, x)
        assert narrow == {True, False}

    @settings(max_examples=200, deadline=None)
    @given(small_instances(), st.data())
    def test_matches_full_product_property(self, instance, data):
        # Entries within the box tolerance below 0 and signed zeros too.
        graph, _ = instance
        entry = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1e-10, 1e-300]),
                          st.floats(min_value=0.0, max_value=1.0))
        x = np.array(data.draw(st.lists(entry, min_size=graph.n,
                                        max_size=graph.n)))
        assert_support_product_exact(graph.adj, x)

    @pytest.mark.parametrize("n", [1, 6])
    def test_edgeless_graph_gives_float_zeros(self, n):
        # np.bincount of an empty selection is int64.
        g = WeightedGraph.from_edges(n, [], [])
        x = np.zeros(n)
        x[0] = 1.0
        assert support_is_narrow(g.adj, x)
        assert_support_product_exact(g.adj, x)

    def test_graphs_hold_sorted_rows(self, rng, tmp_path):
        # The row sums rest on each row's indices being sorted; edges
        # arrive shuffled and in either orientation.
        iu, iv = np.triu_indices(60, k=1)
        keep = rng.permutation(np.flatnonzero(rng.random(len(iu)) < 0.2))
        flip = rng.random(len(keep)) < 0.5
        built = WeightedGraph.from_edges(60, np.where(flip, iv[keep], iu[keep]),
                                         np.where(flip, iu[keep], iv[keep]))
        generated, _, _ = generate_planted_clique(
            PlantedCliqueConfig(n=2001, p=0.05, k=12, r=3, seed=0))
        save_edge_list(generated, tmp_path / "g.tsv")
        loaded = load_edge_list(tmp_path / "g.tsv")
        for g in (built, generated, loaded):
            adj = g.adj.copy()
            adj.has_sorted_indices = False  # forget any cached answer
            adj.sort_indices()
            assert adj.indices.tobytes() == g.adj.indices.tobytes()
