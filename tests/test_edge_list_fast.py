"""The numpy parse of an edge list against the line loop alone.

``load_edge_list`` reads a file line by line. At the first edge line it
hands the rest of a regular file to ``_numpy_parse``, once; where numpy
declines, the loop reads on from that same line. These properties check, on
generated files, that the public loader accepts exactly what the line loop
alone accepts (``_numpy_parse`` patched to decline every file), builds the
same CSR arrays, and otherwise raises the same ``GraphFormatError`` text.
A numpy whose ``loadtxt`` reads "1.0" as an integer id, with a
DeprecationWarning, declines that one file; a stub stands in for it.
"""

import contextlib
import os
import threading
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import sparse

from vacdks import GraphFormatError, PlantedCliqueConfig, WeightedGraph
from vacdks import generate_planted_clique, load_edge_list, save_edge_list
from vacdks import graph as graph_module

from conftest import PLACEMENT, load_reference

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

SEPARATORS = st.sampled_from([" ", "\t", "  ", " \t"])
EOLS = st.sampled_from(["\n", "\r\n"])
PADDING = st.sampled_from(["", " ", "\t"])
WEIGHT_TEXT = st.one_of(
    st.floats(min_value=1e-6, max_value=1e6).map(repr),
    st.integers(min_value=1, max_value=1000).map(str),
    st.sampled_from(["1", "1.0", ".5", "5.", "2.5e-3", "1E2", "+0.75"]),
)
COMMENTS = st.sampled_from(["#", "# a comment", "# n", "# n 2 3", "#  x # y"])
BLANKS = st.sampled_from(["", " ", "\t", "  \t "])


@st.composite
def edge_files(draw):
    """A valid edge list as (lines, line endings, unweighted_default).

    :func:`render` joins the lines into the file text.
    """
    n = draw(st.integers(min_value=2, max_value=12))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=20,
                           unique=True))
    unweighted_default = draw(st.booleans())
    column_mode = draw(st.sampled_from(["weighted", "unweighted", "mixed"])
                       if unweighted_default else st.just("weighted"))
    lines = []
    for a, b in chosen:
        if draw(st.booleans()):
            a, b = b, a
        weighted = (column_mode == "weighted"
                    or (column_mode == "mixed" and draw(st.booleans())))
        fields = [str(a), str(b)]
        if weighted:
            fields.append(draw(WEIGHT_TEXT))
        sep = draw(SEPARATORS)
        lines.append(draw(PADDING) + sep.join(fields) + draw(PADDING))
    # Comments and blank lines: up front only (the shape numpy takes) or
    # anywhere (numpy declines and the line loop reads on). At most one
    # "# n" line, above the first edge line, gives a count that holds the
    # ids: the vertex count.
    extras = draw(st.lists(st.one_of(COMMENTS, BLANKS), max_size=4))
    leading_only = draw(st.booleans())
    for extra in extras:
        at = 0 if leading_only else draw(st.integers(0, len(lines)))
        lines.insert(at, extra)
    if draw(st.booleans()):
        count = draw(st.integers(min_value=n, max_value=40))
        header = draw(st.sampled_from([f"# n {count}", f"#n {count}"]))
        lines.insert(draw(st.integers(0, first_edge(lines))), header)
    eols = [draw(EOLS) for _ in lines]
    return lines, eols, unweighted_default


def render(lines, eols, final_eol=True):
    text = "".join(line + eol for line, eol in zip(lines, eols))
    return text if final_eol else text.rstrip("\r\n")


def first_edge(lines):
    """The index of the first edge line among ``lines``."""
    return next(i for i, ln in enumerate(lines)
                if ln.strip() and not ln.strip().startswith("#"))


def header_counts(lines):
    """The counts of the "# n" lines among ``lines``, in file order."""
    heads = [ln.strip()[1:].split() for ln in lines
             if ln.strip().startswith("#")]
    return [int(h[1]) for h in heads if len(h) == 2 and h[0] == "n"]


def outcome(load):
    try:
        return "graph", load()
    except GraphFormatError as exc:
        return "error", str(exc)


def assert_same_graph(g1, g2):
    assert g1.n == g2.n and g1.w_max == g2.w_max
    for name in ("indptr", "indices", "data"):
        a, b = getattr(g1.adj, name), getattr(g2.adj, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)


@contextlib.contextmanager
def numpy_parse_results():
    """Record what each call of ``_numpy_parse`` returns (None: declined)."""
    results = []
    real = graph_module._numpy_parse

    def spy(*args):
        results.append(real(*args))
        return results[-1]

    with mock.patch.object(graph_module, "_numpy_parse", spy):
        yield results


def check_against_reference(path, unweighted_default, n=None):
    """The public loader matches the line loop alone.

    Returns the loop's outcome and the numpy parse's graph, which is None
    where numpy declined the file or never saw it.
    """
    ref = outcome(lambda: load_reference(path, unweighted_default, n))
    with numpy_parse_results() as taken:
        public = outcome(lambda: load_edge_list(path, unweighted_default, n))
    assert len(taken) <= 1
    fast = taken[0] if taken else None
    assert public[0] == ref[0]
    if ref[0] == "error":
        assert public[1] == ref[1]
        # numpy may decline, never accept
        assert fast is None
    else:
        assert_same_graph(public[1], ref[1])
        if fast is not None:
            assert public[1] is fast
    return ref, fast


@pytest.fixture(scope="module")
def edge_path(tmp_path_factory):
    return tmp_path_factory.mktemp("edges") / "g.tsv"


@SETTINGS
@given(spec=edge_files(), final_eol=st.booleans())
def test_valid_files_match_reference(edge_path, spec, final_eol):
    lines, eols, unweighted_default = spec
    edge_path.write_bytes(render(lines, eols, final_eol).encode())
    ref, _ = check_against_reference(edge_path, unweighted_default)
    assert ref[0] == "graph"


BAD_RECORDS = st.sampled_from([
    "x 1 1.0", "0 1.5 1.0", "1e0 2 1.0",      # non-integer id
    "-1 2 1.0", "3 -4 1.0",                   # negative id
    "5 5 1.0",                                # self-loop
    "0 13 0", "0 13 -0.0", "0 13 -2.5",       # non-positive weight
    "0 13 nan", "0 13 inf", "0 13 -inf",      # non-finite weight
    "0 13 one",                               # bad weight
    "0 13 1.0 # inline", "0 13 1.0#x",        # inline comment
    "0", "0 13 1.0 4",                        # 1 or 4 fields
    "0 13",                                   # missing weight
    "# n abc", "# n -1",                      # bad header
    "DUP", "DUP-REVERSED",                    # duplicate of an earlier edge
])


@SETTINGS
@given(spec=edge_files(), bad=BAD_RECORDS, data=st.data())
def test_bad_record_matches_reference(edge_path, spec, bad, data):
    lines, eols, unweighted_default = spec
    edges = [ln.split() for ln in lines
             if ln.strip() and not ln.strip().startswith("#")]
    if bad.startswith("DUP"):
        a, b = edges[data.draw(st.integers(0, len(edges) - 1))][:2]
        if bad == "DUP-REVERSED":
            a, b = b, a
        bad = f"{a} {b} 1.0"
    at = data.draw(st.integers(0, len(lines)))
    lines = lines[:at] + [bad] + lines[at:]
    eols = eols[:at] + [data.draw(EOLS)] + eols[at:]
    edge_path.write_bytes(render(lines, eols).encode())
    ref, _ = check_against_reference(edge_path, unweighted_default)
    # "0 13" is an edge under unit weights, unless a "# n" line comes after
    # it or holds no id 13.
    if (bad == "0 13" and unweighted_default
            and not header_counts(lines[at + 1:])
            and all(c > 13 for c in header_counts(lines[:at]))):
        assert ref[0] == "graph"
    else:
        assert ref[0] == "error" and f"{edge_path}:" in ref[1]


# How far past a given n an injected id or "# n" count lies: just past it,
# or anywhere up to past the int64 range numpy parses.
PAST_N = st.one_of(st.integers(0, 3), st.integers(0, 2**64))


@SETTINGS
@given(spec=edge_files(), data=st.data())
def test_given_n_bounds_ids_and_counts(edge_path, spec, data):
    """A given n is the vertex count: an id at or above it, or a "# n" count
    above it, fails at its line in both readers, and numpy declines the file
    (``check_against_reference`` asserts that on every error)."""
    lines, eols, unweighted_default = spec
    edge_path.write_bytes(render(lines, eols).encode())
    # A "# n" count may lie below a given n, never above it.
    n = (load_reference(edge_path, unweighted_default).n
         + data.draw(st.integers(0, 3)))
    ref, _ = check_against_reference(edge_path, unweighted_default, n)
    assert ref[0] == "graph" and ref[1].n == n

    past = n + data.draw(PAST_N)
    if data.draw(st.booleans()):
        ids = [past, data.draw(st.integers(0, n - 1))]
        if data.draw(st.booleans()):
            ids.reverse()
        bad, what = f"{ids[0]} {ids[1]} 1.0", f"vertex id {past}"
    else:
        bad, what = f"# n {past + 1}", f"vertex count {past + 1}"
    at = data.draw(st.integers(0, len(lines)))
    lines = lines[:at] + [bad] + lines[at:]
    eols = eols[:at] + [data.draw(EOLS)] + eols[at:]
    edge_path.write_bytes(render(lines, eols).encode())
    ref, _ = check_against_reference(edge_path, unweighted_default, n)
    assert ref == ("error",
                   f"{edge_path}:{at + 1}: {what} too large for n={n}")


@SETTINGS
@given(spec=edge_files(), data=st.data())
def test_header_count_bounds_ids_without_n(edge_path, spec, data):
    """Without a given n, a lone "# n" line above the first edge line is the
    vertex count: an id at or above it fails at its line in both readers. A
    "# n" line below an edge line, or a second one, fails at its line, unless
    an id read before it lies past the implied-count cap."""
    lines, eols, unweighted_default = spec
    kept = [i for i, ln in enumerate(lines) if not header_counts([ln])]
    lines, eols = [lines[i] for i in kept], [eols[i] for i in kept]
    edge_path.write_bytes(render(lines, eols).encode())
    count = (load_reference(edge_path, unweighted_default).n
             + data.draw(st.integers(0, 3)))
    head = data.draw(st.integers(0, first_edge(lines)))
    lines = lines[:head] + [f"# n {count}"] + lines[head:]
    eols = eols[:head] + [data.draw(EOLS)] + eols[head:]
    edge_path.write_bytes(render(lines, eols).encode())
    ref, _ = check_against_reference(edge_path, unweighted_default)
    assert ref[0] == "graph" and ref[1].n == count

    at = data.draw(st.integers(0, len(lines)))
    if at <= head:
        head += 1
    if data.draw(st.booleans()):
        past = count + data.draw(PAST_N)
        ids = [past, data.draw(st.integers(0, count - 1))]
        if data.draw(st.booleans()):
            ids.reverse()
        bad = f"{ids[0]} {ids[1]} 1.0"
        if at > head:
            want = (f"{edge_path}:{at + 1}: vertex id {past} too large for "
                    f"n={count}")
        elif past < 1 << 20:
            # The first edge line: the "# n" line below it is misplaced.
            want = f"{edge_path}:{head + 1}: {PLACEMENT}"
        else:
            # Read before any count, the id is held to the implied-count cap
            # of the one edge read so far.
            want = (f"{edge_path}:{at + 1}: vertex id {past} too large for "
                    "an edge list without a vertex count (ids stay below "
                    "max(2m, 2**20) = 1048576, m = 1 edges; give n or a "
                    "'# n' line)")
    else:
        # A second "# n" line, whatever its count: the later of the two fails.
        bad = f"# n {data.draw(st.integers(0, 2**40))}"
        want = f"{edge_path}:{max(at, head) + 1}: {PLACEMENT}"
    lines = lines[:at] + [bad] + lines[at:]
    eols = eols[:at] + [data.draw(EOLS)] + eols[at:]
    edge_path.write_bytes(render(lines, eols).encode())
    ref, _ = check_against_reference(edge_path, unweighted_default)
    assert ref == ("error", want)


ASCII = st.characters(min_codepoint=0, max_codepoint=127)


@SETTINGS
@given(spec=edge_files(), data=st.data())
def test_mutated_files_match_reference(edge_path, spec, data):
    """Single-character mutations, including control and whitespace bytes."""
    lines, eols, unweighted_default = spec
    text = render(lines, eols)
    at = data.draw(st.integers(0, len(text) - 1))
    char = data.draw(ASCII)
    text = text[:at] + char + text[at + data.draw(st.integers(0, 1)):]
    edge_path.write_bytes(text.encode())
    check_against_reference(edge_path, unweighted_default)


def test_non_ascii_and_underscores_match_reference(edge_path):
    """Text only Python's int/float accept goes through the line loop."""
    for raw, accepted in [("\ufeff0 1 1.0\n", False),        # BOM
                          ("0\u00a01 1.0\n", True),          # NBSP separator
                          ("0 1 1.0\n2 3 \u0661\n", True),  # Arabic-Indic 1
                          ("# n \u0665\n0 1 1.0\n", True),  # Arabic-Indic 5
                          ("0 1 1.0\n1 2 1_0\n", True),      # underscore
                          ("0 1 1.0\n1 2 1.0\x85\n", True)]:  # NEL
        edge_path.write_bytes(raw.encode())
        ref, fast = check_against_reference(edge_path, False)
        assert (ref[0] == "graph") == accepted, raw
        assert fast is None


def test_fast_path_takes_saved_files(tmp_path):
    """numpy takes every file save_edge_list writes, from its first edge on.

    The two trailing vertices are isolated: only the "# n" line counts them.
    """
    cfg = PlantedCliqueConfig(n=300, p=0.05, k=6, r=3, weighted=True, seed=4)
    planted, _, _ = generate_planted_clique(cfg)
    g = WeightedGraph.from_edges(cfg.n + 2, *planted.edge_arrays())
    path = tmp_path / "edges.tsv"
    save_edge_list(g, path)
    with numpy_parse_results() as taken:
        fast = load_edge_list(path)
    assert taken == [fast] and fast is not None
    assert_same_graph(fast, load_reference(path))
    assert_same_graph(fast, g)


@pytest.mark.parametrize("weight", ["2.5", "1e-300", "1e+300", "1.0"])
@pytest.mark.parametrize("n", [None, 302])
def test_constant_weight_files_match_reference(tmp_path, weight, n):
    """A file whose edges share one weight, the bool mirror's input, loads
    as the line loop loads it; numpy takes it from its first edge on."""
    cfg = PlantedCliqueConfig(n=300, p=0.05, k=6, r=3, seed=4)
    u, v, _ = generate_planted_clique(cfg)[0].edge_arrays()
    path = tmp_path / "edges.tsv"
    path.write_text("# n 302\n" + "".join(
        f"{a} {b} {weight}\n" for a, b in zip(u.tolist(), v.tolist())))
    ref, fast = check_against_reference(path, False, n)
    assert fast is not None
    assert ref[0] == "graph"
    graph = ref[1]
    assert graph.n == 302 and graph.w_max == float(weight)
    assert graph.adj.data.dtype == np.float64
    assert np.all(graph.adj.data == float(weight))


def test_parsed_rows_freed_before_the_mirror(tmp_path, monkeypatch):
    """numpy's record array, the upper triangle U and the bool sum U + Uᵀ
    are all gone before the CSR's float data is allocated."""
    cfg = PlantedCliqueConfig(n=300, p=0.05, k=6, r=3, seed=4)
    g, _, _ = generate_planted_clique(cfg)
    path = tmp_path / "edges.tsv"
    save_edge_list(g, path)
    built, alive = [], []
    real_loadtxt, real_upper = np.loadtxt, graph_module._upper_triangle
    real_full, real_add = np.full, sparse.csr_matrix.__add__

    def loadtxt(*args, **kwargs):
        rows = real_loadtxt(*args, **kwargs)
        built.append(weakref.ref(rows))
        return rows

    def upper_triangle(*args):
        upper = real_upper(*args)
        built.append(weakref.ref(upper))
        return upper

    def add(self, other):
        total = real_add(self, other)
        built.append(weakref.ref(total))
        return total

    def full(*args, **kwargs):
        alive.append([ref() is not None for ref in built])
        return real_full(*args, **kwargs)

    monkeypatch.setattr(graph_module.np, "loadtxt", loadtxt)
    monkeypatch.setattr(graph_module, "_upper_triangle", upper_triangle)
    monkeypatch.setattr(sparse.csr_matrix, "__add__", add)
    monkeypatch.setattr(graph_module.np, "full", full)
    assert_same_graph(load_edge_list(path), g)
    assert alive == [[False, False, False]]


@pytest.mark.parametrize("text, calls", [
    ("", 0), ("# n 4\n", 0), ("\n# c\n  \n# n 3\n", 0),
    ("# n 9\n0 1 1.0\n1 2 2.5\n", 1),           # taken
    ("# n 9\n0 1 1.0\n# c\n1 2 2.5\n", 1),      # declined: later comment
    ("0 1 1.0\n1 2\n", 1),                       # declined: column count
    ("0 1 1.0\n1 0 2.0\n", 1),                   # declined: duplicate
], ids=["empty", "header", "comments", "taken", "later-comment",
        "column-count", "duplicate"])
def test_numpy_parse_runs_once_per_file(tmp_path, text, calls):
    """Once at the first edge line, whatever it returns; never without one."""
    path = tmp_path / "edges.tsv"
    path.write_text(text)
    with numpy_parse_results() as taken:
        outcome(lambda: load_edge_list(path, True))
    assert len(taken) == calls


def test_declined_first_edge_line_is_kept(tmp_path):
    """The loop reads on from the line numpy declined, with the "# n" count."""
    path = tmp_path / "edges.tsv"
    path.write_text("# n 9\n0 1\n1 2 2.5\n")  # 2 columns, then 3
    with numpy_parse_results() as taken:
        g = load_edge_list(path, unweighted_default=True)
    assert taken == [None]
    assert g.n == 9
    u, v, w = g.edge_arrays()
    assert (u.tolist(), v.tolist(), w.tolist()) == ([0, 1], [1, 2], [1.0, 2.5])

    path.write_text("# n 9\n0 1 1.0\n1 0 2.0\n")
    with numpy_parse_results() as taken:
        with pytest.raises(GraphFormatError) as exc:
            load_edge_list(path)
    assert taken == [None]
    assert str(exc.value) == (
        f"{path}:3: duplicate edge (0, 1) (first seen at line 2)")


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_plain_text_with_compressed_suffix(tmp_path, suffix):
    """numpy would decompress these names; the line loop reads them as text."""
    path = tmp_path / f"edges{suffix}"
    path.write_text("# n 5\n0 1 1.0\n1 2 2.5\n")
    ref, fast = check_against_reference(path, False)
    assert ref[0] == "graph" and ref[1].n == 5
    assert fast is None


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_named_pipe_is_read_once(tmp_path):
    """A pipe can be read only once, as with ``--edges <(...)``."""
    text = "".join(f"{i} {i + 1} 1.0\n" for i in range(2000))
    pipe = tmp_path / "edges.pipe"
    os.mkfifo(pipe)
    result = {}

    def read():
        try:
            result["graph"] = load_edge_list(pipe)
        except Exception as exc:  # reported by the assertion below
            result["error"] = exc

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    with open(pipe, "w") as fh:
        fh.write(text)
    reader.join(timeout=30)
    # A loader that reopens the pipe waits for a writer: give it empty ones.
    for _ in range(3):
        if not reader.is_alive():
            break
        open(pipe, "w").close()
        reader.join(timeout=5)
    plain = tmp_path / "edges.tsv"
    plain.write_text(text)
    assert "graph" in result, result
    assert_same_graph(result["graph"], load_reference(plain))


REAL_LOADTXT = np.loadtxt


def lenient_loadtxt(fname, dtype, **kwargs):
    """``np.loadtxt`` as numpy 1.23 to 1.26 run it: an integer field
    written as a float ("1.0") is read as that integer, with a
    DeprecationWarning."""
    with open(fname, encoding="ascii") as fh:
        lines = fh.read().splitlines()[kwargs["skiprows"]:]
    if any(not tok.isdigit() for line in lines for tok in line.split()[:2]):
        warnings.warn("loadtxt(): Parsing an integer via a float is "
                      "deprecated.", DeprecationWarning, stacklevel=2)
    floats = REAL_LOADTXT(fname, dtype=[(f, np.float64) for f in dtype.names],
                          **kwargs)
    return floats.astype(dtype)


@pytest.mark.parametrize("text, error", [
    ("0 1 1.0\n1 2 1.0\n", None),
    ("0 1 1.0\n1.0 2 1.0\n", ":2: non-integer vertex id"),
    ("0 1 1.0\n1 2e0 1.0\n", ":2: non-integer vertex id"),
], ids=["integer-ids", "float-id", "exponent-id"])
def test_lenient_numpy_declines_per_file(tmp_path, monkeypatch, text, error):
    """Where loadtxt reads "1.0" as an integer id with a DeprecationWarning,
    numpy declines that file, and the line loop rejects it with its own
    message; a file of integer ids still takes the numpy reader. The
    warning reaches no caller."""
    monkeypatch.setattr(graph_module.np, "loadtxt", lenient_loadtxt)
    path = tmp_path / "edges.tsv"
    path.write_text(text)
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        ref, fast = check_against_reference(path, False)
    assert shown == []
    if error is None:
        assert ref[0] == "graph" and fast is not None
    else:
        assert ref == ("error", f"{path}{error}") and fast is None


@pytest.mark.parametrize("text, lenient, taken, loads", [
    ("# n 3\n0 1 1.0\n1 2 2.5\n", False, True, True),
    ("0 1 1.0\n# c\n1 2 2.5\n", False, False, True),   # later comment
    ("0 1 1.0\n1 0 2.0\n", False, False, False),        # duplicate
    ("0 1 1.0\n1.0 2 1.0\n", True, False, False),       # lenient numpy
], ids=["numpy", "line-loop", "error", "lenient-numpy"])
def test_warning_filters_restored(tmp_path, monkeypatch, text, lenient,
                                  taken, loads):
    """``warnings.filters`` is the same after ``load_edge_list`` returns,
    declines to the line loop, or raises ``GraphFormatError``."""
    if lenient:
        monkeypatch.setattr(graph_module.np, "loadtxt", lenient_loadtxt)
    path = tmp_path / "edges.tsv"
    path.write_text(text)
    before = list(warnings.filters)
    with numpy_parse_results() as results:
        result = outcome(lambda: load_edge_list(path))
    assert (results[0] is not None, result[0] == "graph") == (taken, loads)
    assert warnings.filters == before
