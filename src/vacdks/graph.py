"""Weighted undirected graph representation, file I/O, and synthetic generation."""

from __future__ import annotations

import functools
import io
import math
import numbers
import os
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .spectral import dominant_eigenpair


class GraphFormatError(ValueError):
    """Malformed edge-list or attribute file."""


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Sparse symmetric adjacency of an undirected simple graph.

    ``adj`` is a canonical CSR: each row's column indices are sorted and
    distinct. All stored weights are strictly positive. ``w_max`` is the
    maximum stored weight (1.0 for unweighted graphs with at least one
    edge, 0.0 for empty graphs). Instances are immutable and safe to share
    across solver runs.
    """

    adj: sparse.csr_matrix
    w_max: float

    @property
    def n(self) -> int:
        return self.adj.shape[0]

    @property
    def m(self) -> int:
        return self.adj.nnz // 2

    @functools.cached_property
    def _spectrum(self):
        """``dominant_eigenpair(adj, w_max)``, computed once on first use."""
        eig1, v1, residual, sigma2_floor, abs_product = dominant_eigenpair(
            self.adj, self.w_max)
        v1.flags.writeable = False  # shared by every solver run on the graph
        if abs_product is not None:
            abs_product.flags.writeable = False
        return (eig1, v1, residual), sigma2_floor, abs_product

    @property
    def eigenpair(self):
        """(eig1, v1, residual) of the dominant eigenpair."""
        return self._spectrum[0]

    @property
    def sigma2_floor(self) -> float:
        """A lower estimate of ||A - eig1*v1*v1^T||, from the eigenpair's
        Lanczos run at no extra product."""
        return self._spectrum[1]

    @property
    def eigen_abs_product(self):
        """A|v1| from the eigenpair's checking product, or None where v1
        has entries of both signs."""
        return self._spectrum[2]

    @functools.cached_property
    def unit_weights(self) -> bool:
        """Whether every stored weight is 1.0, so that row sums are the
        degrees ``np.diff(adj.indptr)`` exactly. Decided once per graph."""
        # Reductions, not an nnz-sized mask: adj.data has 25M entries at 50k.
        return bool(self.w_max == 1.0 and self.adj.data.min() == 1.0)

    @functools.cached_property
    def degrees(self) -> np.ndarray:
        """Weighted degrees, computed once per graph and read-only: the row
        lengths on unit weights, read without a pass over ``adj.data``, the
        row sums otherwise."""
        degrees = (np.diff(self.adj.indptr) if self.unit_weights
                   else np.asarray(self.adj.sum(axis=1)).ravel())
        degrees.flags.writeable = False
        return degrees

    @classmethod
    def from_edges(cls, n, u, v, w=None) -> "WeightedGraph":
        """Build a graph from parallel endpoint arrays, one entry per edge.

        Rejects self-loops, duplicate edges (in either orientation), and
        non-positive or non-finite weights. ``w=None`` means unit weights.
        """
        edges, w_max = _checked_edges(n, u, v, w)
        return cls(adj=_symmetric_csr(n, edges, w_max), w_max=w_max)

    def edge_arrays(self):
        """(u, v, w) with u < v, sorted by (u, v), from the canonical CSR."""
        return _upper_entries(self.adj, 0, self.n)


def _upper_entries(adj, start, stop):
    """(u, v, w) of the entries of CSR rows [start, stop) above the
    diagonal, in row order."""
    indptr, a, b = adj.indptr, adj.indptr[start], adj.indptr[stop]
    cols = adj.indices[a:b]
    rows = np.repeat(np.arange(start, stop, dtype=cols.dtype),
                     np.diff(indptr[start:stop + 1]))
    upper = cols > rows
    return rows[upper], cols[upper], adj.data[a:b][upper]


def _checked_edges(n, u, v, w):
    """([lo, hi, data], w_max): the edges after every check but the
    duplicate one, as endpoints lo < hi and COO data, in a list that
    :func:`_symmetric_csr` empties.

    The first step of :meth:`WeightedGraph.from_edges`, apart so that a
    caller can drop what ``u``, ``v`` and ``w`` view before the COO is built.
    When every weight is the same (``w=None`` included), that weight is
    ``w_max`` and ``data`` holds one True per edge: :func:`_symmetric_csr`
    writes the weight once, into the finished CSR.
    """
    # Integer ids keep the width they arrive in: an int32 pair stream is
    # not copied to int64.
    u, v = _integer_array(u, "vertex ids"), _integer_array(v, "vertex ids")
    if w is not None:
        w = np.asarray(w, dtype=np.float64)
    if len(u) != len(v) or (w is not None and len(w) != len(u)):
        raise ValueError("endpoint/weight arrays must have equal length")
    if len(u) and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n):
        raise ValueError("vertex id out of range")
    if np.any(u == v):
        raise ValueError("self-loops are not allowed")
    if w is None:
        w_max, constant = (1.0 if len(u) else 0.0), True
    elif not np.all((w > 0) & (w < np.inf)):
        raise ValueError("edge weights must be finite and strictly positive")
    else:
        w_max = float(w.max()) if len(w) else 0.0
        constant = not len(w) or w.min() == w_max
    # The CSR keeps int32 indices below 2**31 vertices, so lo/hi are built
    # in that width rather than cast from int64 copies.
    idx = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    lo = np.minimum(u, v, dtype=idx, casting="same_kind")
    hi = np.maximum(u, v, dtype=idx, casting="same_kind")
    # A strided weight column (a field of parsed rows) is copied, so that
    # the COO holds nothing of the caller's arrays.
    data = (np.ones(len(lo), dtype=bool) if constant
            else np.ascontiguousarray(w))
    return [lo, hi, data], w_max


def _upper_triangle(n, lo, hi, data):
    """The CSR upper triangle U of :func:`_checked_edges`'s edges."""
    # tocsr merges repeated coordinates (a sum, or an or on bool data), so
    # a duplicate edge (in either orientation) is a missing entry.
    upper = sparse.coo_matrix((data, (lo, hi)), shape=(n, n)).tocsr()
    if upper.nnz != len(data):
        raise ValueError("duplicate edges are not allowed")
    return upper


def _symmetric_csr(n, edges, w_max):
    """The symmetric float64 CSR adjacency U + Uᵀ, with U the upper
    triangle of the edges [lo, hi, data] from :func:`_checked_edges`.

    A caller's frame holds its call's arguments to the end of the call, so
    the edge arrays come in a list, emptied once U is built: they, then U,
    then the bool sum are each freed once the next step has what it needs.
    On bool data, the one weight ``w_max`` fills the sum's entries: no
    entry of U + Uᵀ is a sum of two, so this is the float sum bit for bit,
    built on 1-byte addends and result in place of 8-byte ones.
    """
    upper = _upper_triangle(n, *edges)
    edges.clear()
    adj = (upper + upper.T).tocsr()
    del upper
    if adj.dtype != bool:
        return adj
    indices, indptr = adj.indices, adj.indptr
    del adj
    return sparse.csr_matrix((np.full(len(indices), w_max), indices, indptr),
                             shape=(n, n))


# A support whose rows hold at most 1/_SUPPORT_ROWS_SHARE of the CSR entries
# is multiplied from those rows; a wider one goes to scipy's product. The
# two cost the same near a tenth of the entries (random rows; n = 1000 to
# 50000, nnz = 1e5 to 2.5e7, one thread).
_SUPPORT_ROWS_SHARE = 10


def _support_product(adj, x):
    """``adj @ x`` for a graph's symmetric CSR ``adj``, bit for bit, from
    the rows of x's nonzeros.

    Entry i of A x sums A[i, j] x[j] over row i in index order. As A is
    symmetric, the rows j of x's nonzeros hold those terms too, and a
    bincount over them adds the same products in increasing j: the order
    of a row of the canonical CSR every WeightedGraph holds. Zero terms add
    nothing. So when those rows hold few entries the product costs O(their
    entries) instead of O(nnz).
    """
    rows = np.flatnonzero(x)
    starts = adj.indptr[rows]
    lengths = adj.indptr[rows + 1] - starts
    total = int(lengths.sum())
    if total * _SUPPORT_ROWS_SHARE > adj.nnz:
        return adj @ x
    # ``pos`` lists the rows' entries in adj.indices and adj.data.
    pos = (np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
           + np.arange(total))
    # bincount of an empty selection is int64 whatever its weights.
    return np.bincount(adj.indices[pos],
                       weights=adj.data[pos] * np.repeat(x[rows], lengths),
                       minlength=adj.shape[0]).astype(np.float64, copy=False)


@dataclass(frozen=True, eq=False)
class AttributeAssignment:
    """Partition of the vertices into attribute groups.

    ``labels[v]`` is the group index of vertex v in [0, r); ``groups[i]``
    holds the sorted member list of group i. Instances are immutable, like
    graphs: they keep read-only copies of the arrays they are given.
    """

    labels: np.ndarray
    groups: tuple

    def __post_init__(self):
        labels, *groups = (np.array(a) for a in (self.labels, *self.groups))
        for array in (labels, *groups):
            array.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "groups", tuple(groups))

    def __reduce__(self):
        # Unpickled or deep-copied through __init__: read-only copies too.
        return type(self), (self.labels, self.groups)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def r(self) -> int:
        return len(self.groups)

    @classmethod
    def from_labels(cls, labels, r=None) -> "AttributeAssignment":
        labels = _integer_array(labels, "group labels").astype(
            np.int64, copy=False)
        if len(labels) and labels.min() < 0:
            raise ValueError("negative group index")
        if r is None:
            r = int(labels.max()) + 1 if len(labels) else 0
        elif len(labels) and labels.max() >= r:
            raise ValueError("group index out of range")
        groups = tuple(np.flatnonzero(labels == i) for i in range(r))
        return cls(labels=labels, groups=groups)


@dataclass(frozen=True)
class PlantedCliqueConfig:
    """Parameters for the planted-clique benchmark generator."""

    n: int
    p: float
    k: int
    r: int
    weighted: bool = False
    seed: int = 0

    def __post_init__(self):
        for name in ("n", "k", "r", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name}={value!r} must be an integer")
        if self.seed < 0:
            raise ValueError(f"seed={self.seed} must be non-negative")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"k={self.k} must be in [1, n={self.n}]")
        if self.r < 1 or self.k % self.r != 0:
            raise ValueError(f"k={self.k} must be divisible by r={self.r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p={self.p} must be in [0, 1]")


def load_edge_list(path, unweighted_default=False, n=None) -> WeightedGraph:
    """Parse a whitespace-separated edge-list file.

    Each non-comment line is "u v" or "u v w". Missing weights are an error
    unless ``unweighted_default`` is set, in which case they default to 1.
    Weights must be positive and finite. A given ``n`` is the vertex count,
    so ids stay below it. Without one, a comment of the form "# n <count>"
    (written by :func:`save_edge_list`) is the vertex count, so isolated
    trailing vertices survive a round trip; with one, the count may not
    exceed ``n``. A "# n" line must come once, before the first edge line.
    With neither, the largest id + 1, at most max(2m, 2**20) for m edges, is
    the count, so that one stray id cannot size the graph past its edges;
    where a later line fails before any count is read, the m edges read so
    far set that cap. Comments take a whole line: "#" inside an edge line
    is an error.
    Malformed input raises :class:`GraphFormatError` naming the first bad
    line, or only the file when it is not UTF-8 text.

    One loop reads the file line by line. At the first edge line it offers
    the rest of the file to :func:`_numpy_parse`; where that declines, the
    loop reads on from the same line.
    """
    us, vs, ws = [], [], []
    count = n  # the vertex count: n, else the file's "# n" count, if any
    counted = False  # whether a "# n" line was read
    seen = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    header = line[1:].split()
                    if len(header) == 2 and header[0] == "n":
                        try:
                            declared = int(header[1])
                            if declared < 0:
                                raise ValueError(declared)
                        except ValueError as exc:
                            raise GraphFormatError(
                                f"{path}:{lineno}: bad vertex count "
                                f"{header[1]!r}") from exc
                        bound = _MAX_N if n is None else n
                        if declared > bound:
                            raise GraphFormatError(
                                f"{path}:{lineno}: vertex count "
                                f"{declared} too large for n={bound}")
                        if counted or us:
                            raise GraphFormatError(
                                f"{path}:{lineno}: a '# n' line must come "
                                "once, before the first edge line")
                        counted = True
                        if count is None:
                            count = declared
                    continue
                parts = line.split()
                if not us:  # the first edge line
                    graph = _numpy_parse(path, lineno, len(parts),
                                         unweighted_default, count)
                    if graph is not None:
                        return graph
                if len(parts) not in (2, 3):
                    raise GraphFormatError(
                        f"{path}:{lineno}: expected 'u v' or 'u v w', "
                        f"got {line!r}")
                try:
                    u, v = int(parts[0]), int(parts[1])
                except ValueError as exc:
                    raise GraphFormatError(
                        f"{path}:{lineno}: non-integer vertex id") from exc
                if u < 0 or v < 0:
                    raise GraphFormatError(
                        f"{path}:{lineno}: negative vertex id")
                if count is not None and max(u, v) >= count:
                    raise GraphFormatError(
                        f"{path}:{lineno}: vertex id {max(u, v)} too large "
                        f"for n={count}")
                if u == v:
                    raise GraphFormatError(
                        f"{path}:{lineno}: self-loop on vertex {u}")
                if len(parts) == 3:
                    try:
                        w = float(parts[2])
                    except ValueError as exc:
                        raise GraphFormatError(
                            f"{path}:{lineno}: bad weight {parts[2]!r}") from exc
                elif unweighted_default:
                    w = 1.0
                else:
                    raise GraphFormatError(
                        f"{path}:{lineno}: missing weight "
                        "(use unweighted_default to assume 1)")
                if not math.isfinite(w):
                    raise GraphFormatError(
                        f"{path}:{lineno}: non-finite weight {w}")
                if w <= 0:
                    raise GraphFormatError(
                        f"{path}:{lineno}: non-positive weight {w}")
                key = (min(u, v), max(u, v))
                if key in seen:
                    raise GraphFormatError(
                        f"{path}:{lineno}: duplicate edge {key} "
                        f"(first seen at line {seen[key]})")
                seen[key] = lineno
                us.append(u)
                vs.append(v)
                ws.append(w)
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{path}: not UTF-8 text") from exc
    except GraphFormatError:
        # Without a count, an id read so far past the implied count of the
        # edges read so far is the first bad line.
        earlier = count is None and _implied_count_error(path, len(us), seen)
        if earlier:
            raise earlier from None
        raise
    if count is None:
        count = max((max(us, default=-1), max(vs, default=-1))) + 1
        if count > _implied_count_cap(len(us)):
            raise _implied_count_error(path, len(us), seen)
    return WeightedGraph.from_edges(count, us, vs, ws)


# The largest vertex count: n, and so every id + 1, must fit in an int64.
_MAX_N = np.iinfo(np.int64).max


def _implied_count_cap(m):
    """The most vertices the ids of ``m`` edges may imply without a count."""
    return max(2 * m, 1 << 20)


def _implied_count_error(path, m, seen):
    """The error of the first edge line in ``seen`` (edge -> line number)
    whose larger id is at or past the implied count cap of ``m`` edges, or
    None."""
    cap = _implied_count_cap(m)
    for (_, top), at in seen.items():
        if top >= cap:
            return GraphFormatError(
                f"{path}:{at}: vertex id {top} too large for an edge list "
                f"without a vertex count (ids stay below max(2m, 2**20) = "
                f"{cap}, m = {m} edges; give n or a '# n' line)")
    return None


def _edge_row_dtype(ncols, count):
    """The record of an edge line: "u v" or "u v w", with int32 ids when
    the vertex count fits or is not known, else int64."""
    fits = count is None or count <= np.iinfo(np.int32).max
    ids = np.int32 if fits else np.int64
    fields = [("u", ids), ("v", ids), ("w", np.float64)]
    return np.dtype(fields[:ncols])


# Suffixes np.loadtxt decompresses when it opens a file name.
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _numpy_parse(path, lineno, ncols, unweighted_default, count):
    """The graph of the edge lines from ``lineno`` on, or None to decline.

    Takes a regular file when every line from ``lineno`` on is an edge line
    with ``ncols`` columns, the column count of line ``lineno``; the graph
    has ``count`` vertices, or one more than its largest id when ``count``
    is None (at most :func:`_implied_count_cap`, and the ids are then
    parsed as int32). numpy's C reader parses the rows and ``from_edges``'s
    steps run every check, ids below the vertex count too.
    Anything either rejects returns None, so that the line loop reports the
    first bad line with its number and the exact message. The parsed rows
    are freed before the upper triangle is built.

    Some numpy releases read "1.0" in an integer field as 1 with a
    DeprecationWarning, where ``int()`` refuses it; that warning is made an
    error for the one ``loadtxt`` call, so such a file is declined too.
    ``warnings.catch_warnings`` swaps the process-wide filter list, which a
    concurrent thread would see: the package starts no threads, and
    ``bench`` runs each solve in its own process.
    """
    name = os.fspath(path) if isinstance(path, (str, os.PathLike)) else None
    # The file is opened a second time, which a pipe does not survive, and
    # loadtxt picks a decompressor from a name's suffix.
    if (not isinstance(name, str) or not os.path.isfile(name)
            or name.endswith(_COMPRESSED_SUFFIXES)
            or not (ncols == 3 or (ncols == 2 and unweighted_default))):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            # Given a file name (not a buffer), loadtxt reads in large chunks
            # through a universal-newline text layer, like the line loop. An
            # absolute name is never taken for a URL.
            rows = np.loadtxt(os.path.abspath(name),
                              dtype=_edge_row_dtype(ncols, count),
                              comments=None, skiprows=lineno - 1,
                              encoding="ascii", ndmin=1)
    except (ValueError, OSError, DeprecationWarning):
        return None
    u, v = rows["u"], rows["v"]
    if count is None:
        count = max(int(u.max()), int(v.max())) + 1
        if count > _implied_count_cap(len(rows)):
            return None
    try:
        # The checks read the record fields in place; what they return
        # holds nothing of the rows.
        edges, w_max = _checked_edges(
            count, u, v, rows["w"] if ncols == 3 else None)
        del rows, u, v
        return WeightedGraph(adj=_symmetric_csr(count, edges, w_max),
                             w_max=w_max)
    except ValueError:
        return None


# Lines per block of text the writers build.
_WRITE_CHUNK = 1 << 16


def _digit_cells(x, top):
    """The decimal digits of the non-negative ints ``x`` (at most ``top``),
    one uint8 column per entry, right-aligned and NUL-padded to the width
    of ``top``. The divisions run in the narrowest unsigned type that holds
    ``top``: uint16 below 65536 vertices."""
    x = np.array(x, dtype=np.min_scalar_type(top))
    cells = np.empty((len(str(top)), len(x)), dtype=np.uint8)
    for row in range(len(cells) - 1, -1, -1):
        q = x // 10
        digit = x - q * 10  # numpy's % by a scalar is ~10x slower than //
        digit += ord("0")
        if row < len(cells) - 1:
            digit *= x > 0  # NUL for a leading zero; 0 itself is "0"
        cells[row] = digit
        x = q
    return cells


def _repr_cells(x):
    """``repr`` of each float in ``x``, NUL-padded, one uint8 column per
    entry: each distinct value is formatted once. A constant ``x``, as on
    every unweighted graph, is not sorted: its one cell is broadcast."""
    if (x == x[0]).all():
        cell = np.frombuffer(repr(float(x[0])).encode("ascii"), np.uint8)
        return np.broadcast_to(cell[:, None], (len(cell), len(x)))
    values, inverse = np.unique(x, return_inverse=True)
    table = np.array([repr(c) for c in values.tolist()], dtype=np.bytes_)
    return np.take(table.view(np.uint8).reshape(len(values), -1).T, inverse,
                   axis=1)


def _write_lines(fh, fields):
    """Write one line per column of the cell fields: the column's fields in
    order, joined by spaces. The fields fill the rows of one block, whose
    transpose is the text; no field holds a NUL, so the padding drops out."""
    rows = np.empty((sum(len(f) + 1 for f in fields), fields[0].shape[1]),
                    dtype=np.uint8)
    end = 0
    for field in fields:
        rows[end:end + len(field)] = field
        end += len(field) + 1
        rows[end - 1] = ord(" ")
    rows[-1] = ord("\n")
    # A mask on the strided view is 3x slower than a transposed copy and one.
    cells = np.ascontiguousarray(rows.T)
    del rows
    fh.write(cells[cells != 0].tobytes().decode("ascii"))


def save_edge_list(graph: WeightedGraph, path) -> None:
    """Write the edge list in the format accepted by :func:`load_edge_list`:
    a "# n" header, then one "u v repr(w)" line per edge, u < v, sorted.

    The edges are read off the CSR one block of rows at a time, each block
    about ``2 * _WRITE_CHUNK`` stored entries (one row at least), so the
    writer holds a block's edges and text, not the whole graph's.
    """
    indptr = graph.adj.indptr
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n {graph.n}\n")
        start = 0
        while start < graph.n:
            # The last row boundary within 2 * _WRITE_CHUNK entries.
            end = int(indptr[start]) + 2 * _WRITE_CHUNK
            stop = max(int(np.searchsorted(indptr, end, side="right")) - 1,
                       start + 1)
            u, v, w = _upper_entries(graph.adj, start, stop)
            for lo in range(0, len(u), _WRITE_CHUNK):
                part = slice(lo, lo + _WRITE_CHUNK)
                _write_lines(fh, [_digit_cells(u[part], graph.n - 1),
                                  _digit_cells(v[part], graph.n - 1),
                                  _repr_cells(w[part])])
            start = stop


def read_text(path) -> str:
    """The whole of a text file, which must be UTF-8 (GraphFormatError)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{path}: not UTF-8 text") from exc


def _labeled_lines(text):
    """(line number, stripped line) of each line not blank or a comment.

    A generator, not a list: the CLI loads the attributes before the edge
    list, and a list's line objects would stay in the allocator's arenas
    through the edge list's peak (+1.5 MB at n=10k).
    """
    for lineno, raw in enumerate(io.StringIO(text), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def load_attributes(path, n=None) -> AttributeAssignment:
    """Parse a "vertex group" file into a partition of [0, n).

    Group indices are densified to 0..r-1 in first-seen order. Every vertex
    must be labeled exactly once, one per line, so ``n`` defaults to the
    number of labeled lines. The file is read once, so it may be a pipe.
    """
    text = read_text(path)
    if n is None:
        n = sum(1 for _ in _labeled_lines(text))
    labels = np.full(n, -1, dtype=np.int64)
    remap = {}
    for lineno, line in _labeled_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(
                f"{path}:{lineno}: expected 'vertex group', got {line!r}")
        try:
            v, g = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(
                f"{path}:{lineno}: non-integer field") from exc
        if not 0 <= v < n:
            raise GraphFormatError(
                f"{path}:{lineno}: vertex {v} out of range [0, {n})")
        if labels[v] >= 0:
            raise GraphFormatError(f"{path}:{lineno}: vertex {v} labeled twice")
        if g not in remap:
            remap[g] = len(remap)
        labels[v] = remap[g]
    missing = np.flatnonzero(labels < 0)
    if len(missing):
        raise GraphFormatError(f"{path}: vertex {missing[0]} unlabeled")
    return AttributeAssignment.from_labels(labels, r=len(remap))


def save_attributes(attr: AttributeAssignment, path) -> None:
    """Write one "vertex group" line per vertex, in vertex order."""
    with open(path, "w", encoding="utf-8") as fh:
        for lo in range(0, attr.n, _WRITE_CHUNK):
            labels = attr.labels[lo:lo + _WRITE_CHUNK]
            _write_lines(fh, [_digit_cells(np.arange(lo, lo + len(labels)),
                                           attr.n - 1),
                              _digit_cells(labels, labels.max())])


def _sample_pair_indices(rng, n, p):
    """Geometric skip sampling over the n*(n-1)/2 unordered pairs.

    Returns strictly increasing linear pair indices, each included
    independently with probability p. Expected O(m) time.
    """
    total = n * (n - 1) // 2
    chunks = []
    pos = -1
    batch = int(total * p + 10 * math.sqrt(total * p + 1)) + 16
    while pos < total:
        gaps = rng.geometric(p, size=batch)
        # At tiny p a gap saturates at the int64 maximum and the sum wraps;
        # since pos >= -1, a gap clipped at total + 1 still lands past the end.
        np.minimum(gaps, total + 1, out=gaps)
        steps = np.cumsum(gaps) + pos
        chunks.append(steps[:np.searchsorted(steps, total)])
        pos = int(steps[-1])
        batch = max(1024, int((total - 1 - pos) * p * 1.2) + 16)
    return np.concatenate(chunks)


def _pairs_from_indices(t, n):
    """Invert the lexicographic pair numbering: index -> (u, v), u < v.

    ``t`` must be strictly increasing, as both sampling branches give it:
    each row's pairs are then one run of ``t``, found by one search per row.
    The ids are int32 when n fits, the CSR's index type.
    """
    t = np.asarray(t, dtype=np.int64)
    rows = np.arange(n - 1, dtype=np.int64)
    offsets = rows * (2 * n - rows - 1) // 2  # index of the pair (u, u + 1)
    counts = np.diff(np.searchsorted(t, offsets), append=len(t))
    idx = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    u = np.repeat(rows.astype(idx), counts)
    v = np.empty(len(t), dtype=idx)
    np.subtract(t, np.repeat(offsets - rows - 1, counts), out=v,
                casting="same_kind")
    return u, v


# Above this size, pairwise Bernoulli sampling over all C(n,2) pairs is
# replaced by geometric skip sampling.
_PAIRWISE_LIMIT = 2000


def _background_pair_indices(rng, n, p):
    """Strictly increasing int64 indices of the pairs, each drawn with
    probability p: one Bernoulli draw per pair up to ``_PAIRWISE_LIMIT``
    vertices, geometric skip sampling above."""
    if p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if n <= _PAIRWISE_LIMIT:
        return np.flatnonzero(rng.random(n * (n - 1) // 2) < p)
    return _sample_pair_indices(rng, n, p)


def generate_planted_clique(cfg: PlantedCliqueConfig):
    """Erdős–Rényi background with a planted k-clique split evenly over groups.

    Labels are drawn uniformly per vertex in vertex order; the planted set
    takes the first k/r vertices of each group under a seeded shuffle.
    Weighted graphs give background edges weight uniform in [0.8, 1) and
    clique edges weight exactly 1, so the clique is strictly heaviest.
    Deterministic given the seed (PCG64 stream).

    Returns (graph, attributes, planted) with ``planted`` a sorted id array.
    """
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

    idx = _background_pair_indices(rng, n, p)
    # The clique's pair indices, increasing since planted is sorted. The
    # background pairs among them are dropped, and the clique is merged in
    # at its sorted positions: the pairs reach from_edges in CSR order.
    ci, cj = np.triu_indices(k, k=1)
    cu, cv = planted[ci], planted[cj]
    clique = cu * (2 * n - cu - 1) // 2 + (cv - cu - 1)
    pos = np.searchsorted(idx, clique)
    drawn = pos < len(idx)
    drawn[drawn] = idx[pos[drawn]] == clique[drawn]
    idx = np.delete(idx, pos[drawn])
    at = np.searchsorted(idx, clique)
    w = (np.insert(rng.uniform(0.8, 1.0, size=len(idx)), at, 1.0)
         if cfg.weighted else None)
    idx = np.insert(idx, at, clique)
    lo, hi = _pairs_from_indices(idx, n)
    # lo, hi and w hold the edges: free the indices before the build's peak.
    del idx
    graph = WeightedGraph.from_edges(n, lo, hi, w)
    return graph, attr, planted


def _integer_array(x, what) -> np.ndarray:
    """``x`` as an array of integers, in the width it arrives in.

    Raises ValueError when ``x`` is not empty and holds anything else: a
    float is never truncated. An empty ``x`` is an empty int64 array, as
    ``np.asarray([])`` is float64.
    """
    x = np.asarray(x)
    if x.dtype.kind in "iu":
        return x
    if x.size:
        raise ValueError(f"{what} must be integers, got {x.dtype}")
    return x.astype(np.int64)


def _vertex_ids(s, n) -> np.ndarray:
    """Sorted distinct ids of the vertex collection ``s``.

    Raises ValueError unless every id is an integer in [0, n): a float is
    never truncated and a negative id never wraps around to the end.
    """
    ids = _integer_array(list(s), "vertex ids")
    if ids.size == 0:
        return np.empty(0, dtype=np.int64)
    if ids.min() < 0 or ids.max() >= n:
        raise ValueError(f"vertex id out of range [0, {n})")
    return np.unique(ids.astype(np.int64))


def induced_weight(graph: WeightedGraph, s) -> float:
    """Total edge weight of the subgraph induced by vertex set ``s``."""
    s = _vertex_ids(s, graph.n)
    if len(s) <= 1:
        return 0.0
    sub = graph.adj[s][:, s]
    return float(sub.sum()) / 2.0
