"""The vectorized edge-list parser against the line-by-line reference loop.

``load_edge_list`` tries ``_load_edge_list_fast`` first and falls back to
``_load_edge_list_reference`` whenever the fast path declines. These
properties check, on generated files, that the public loader accepts exactly
what the reference accepts, builds the same CSR arrays, and otherwise raises
the same ``GraphFormatError`` text.
"""

import os
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vacdks import GraphFormatError, PlantedCliqueConfig, generate_planted_clique
from vacdks import load_edge_list, save_edge_list
from vacdks import graph as graph_module
from vacdks.graph import _load_edge_list_fast, _load_edge_list_reference

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
COMMENTS = st.one_of(
    st.sampled_from(["#", "# a comment", "#n 3", "# n", "# n 2 3", "#  x # y"]),
    st.integers(min_value=-2, max_value=40).map(lambda k: f"# n {k}"),
)
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
    # Comments and blank lines: up front only (the fast path's shape) or
    # anywhere (the fast path defers to the reference).
    extras = draw(st.lists(st.one_of(COMMENTS, BLANKS), max_size=4))
    leading_only = draw(st.booleans())
    for extra in extras:
        at = 0 if leading_only else draw(st.integers(0, len(lines)))
        lines.insert(at, extra)
    eols = [draw(EOLS) for _ in lines]
    return lines, eols, unweighted_default


def render(lines, eols, final_eol=True):
    text = "".join(line + eol for line, eol in zip(lines, eols))
    return text if final_eol else text.rstrip("\r\n")


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


def check_against_reference(path, unweighted_default):
    """The public loader matches the reference; returns both outcomes.

    The fast path's graph is None where it defers to the reference.
    """
    ref = outcome(lambda: _load_edge_list_reference(path, unweighted_default, None))
    fast = outcome(lambda: _load_edge_list_fast(path, unweighted_default, None))
    public = outcome(lambda: load_edge_list(path, unweighted_default))
    assert public[0] == ref[0]
    if ref[0] == "error":
        assert public[1] == ref[1]
        # the fast path may defer or raise the same error, never accept
        assert fast[1] is None or fast == ref
    else:
        assert_same_graph(public[1], ref[1])
        if fast[1] is not None:
            assert_same_graph(fast[1], ref[1])
    return ref, fast[1]


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
    "# n abc",                                # bad header
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
    if bad == "0 13" and unweighted_default:
        assert ref[0] == "graph"
    else:
        assert ref[0] == "error" and f"{edge_path}:" in ref[1]


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
    """Text only Python's int/float accept goes through the reference."""
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
    """Files written by save_edge_list never need the reference loop."""
    cfg = PlantedCliqueConfig(n=300, p=0.05, k=6, r=3, weighted=True, seed=4)
    g, _, _ = generate_planted_clique(cfg)
    path = tmp_path / "edges.tsv"
    save_edge_list(g, path)
    fast = _load_edge_list_fast(path, False, None)
    assert fast is not None
    assert_same_graph(fast, _load_edge_list_reference(path, False, None))
    assert_same_graph(fast, g)


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_plain_text_with_compressed_suffix(tmp_path, suffix):
    """numpy would decompress these names; the reference reads them as text."""
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
    assert_same_graph(result["graph"], _load_edge_list_reference(plain, False, None))


def test_lenient_numpy_turns_fast_path_off(tmp_path, monkeypatch):
    """Where loadtxt reads "1.0" as an integer, every file takes the reference."""
    monkeypatch.setattr(graph_module, "_FAST_PATH_AVAILABLE", False)
    path = tmp_path / "edges.tsv"
    path.write_text("0 1 1.0\n1 2 1.0\n")
    ref, fast = check_against_reference(path, False)
    assert ref[0] == "graph"
    assert fast is None
