"""Weighted undirected graph representation, file I/O, and synthetic generation."""

from __future__ import annotations

import functools
import io
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .spectral import dominant_eigenpair


class GraphFormatError(ValueError):
    """Malformed edge-list or attribute file."""


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Sparse symmetric adjacency of an undirected simple graph.

    All stored weights are strictly positive. ``w_max`` is the maximum stored
    weight (1.0 for unweighted graphs with at least one edge, 0.0 for empty
    graphs). Instances are immutable and safe to share across solver runs.
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
    def eigenpair(self):
        """``dominant_eigenpair(adj, w_max)``, computed once on first use."""
        eig1, v1, residual = dominant_eigenpair(self.adj, self.w_max)
        v1.flags.writeable = False  # shared by every solver run on the graph
        return eig1, v1, residual

    @classmethod
    def from_edges(cls, n, u, v, w=None) -> "WeightedGraph":
        """Build a graph from parallel endpoint arrays, one entry per edge.

        Rejects self-loops, duplicate edges (in either orientation), and
        non-positive or non-finite weights. ``w=None`` means unit weights.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if w is None:
            w = np.ones(len(u))
        else:
            w = np.asarray(w, dtype=np.float64)
        if not (len(u) == len(v) == len(w)):
            raise ValueError("endpoint/weight arrays must have equal length")
        if len(u) and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n):
            raise ValueError("vertex id out of range")
        if np.any(u == v):
            raise ValueError("self-loops are not allowed")
        if not np.all((w > 0) & (w < np.inf)):
            raise ValueError("edge weights must be finite and strictly positive")
        rows = np.concatenate([u, v])
        cols = np.concatenate([v, u])
        data = np.concatenate([w, w])
        adj = sparse.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
        # tocsr sums repeated coordinates, so a duplicate edge (in either
        # orientation) shows up as missing stored entries.
        if adj.nnz != len(data):
            raise ValueError("duplicate edges are not allowed")
        w_max = float(w.max()) if len(w) else 0.0
        return cls(adj=adj, w_max=w_max)

    def edge_arrays(self):
        """Return (u, v, w) arrays with u < v, sorted by (u, v)."""
        coo = sparse.triu(self.adj, k=1).tocoo()
        order = np.lexsort((coo.col, coo.row))
        return coo.row[order], coo.col[order], coo.data[order]


@dataclass(frozen=True, eq=False)
class AttributeAssignment:
    """Partition of the vertices into attribute groups.

    ``labels[v]`` is the group index of vertex v in [0, r); ``groups[i]``
    holds the sorted member list of group i.
    """

    labels: np.ndarray
    groups: tuple

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def r(self) -> int:
        return len(self.groups)

    @classmethod
    def from_labels(cls, labels, r=None) -> "AttributeAssignment":
        labels = np.asarray(labels, dtype=np.int64)
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
    Weights must be positive and finite. A comment of the form "# n <count>"
    (written by :func:`save_edge_list`) declares the vertex count so isolated
    trailing vertices survive a round trip; an explicit ``n`` argument takes
    the same role. Comments take a whole line: "#" inside an edge line is an
    error. Malformed input raises :class:`GraphFormatError` naming the first
    bad line.
    """
    graph = _load_edge_list_fast(path, unweighted_default, n)
    if graph is None:
        graph = _load_edge_list_reference(path, unweighted_default, n)
    return graph


_EDGE_ROW_DTYPES = {
    2: np.dtype([("u", np.int64), ("v", np.int64)]),
    3: np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)]),
}

# Suffixes np.loadtxt decompresses when it opens a file name.
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _loadtxt_rejects_float_ids():
    """Whether np.loadtxt refuses "1.0" for an integer field, as int() does.

    Some numpy releases read it as 1 with a DeprecationWarning; there the
    fast path would accept ids the reference rejects, so it stays off.
    """
    try:
        np.loadtxt(["1.0"], dtype=np.int64)
    except ValueError:
        return True
    except Warning:  # the DeprecationWarning, under an "error" filter
        pass
    return False


_FAST_PATH_AVAILABLE = _loadtxt_rejects_float_ids()


def _load_edge_list_fast(path, unweighted_default, n):
    """Vectorized :func:`load_edge_list`, or None to defer to the reference.

    Covers regular files whose comment and blank lines all precede the first
    edge line and whose edge lines all have the column count of the first.
    numpy's C reader parses the rows; ``from_edges`` runs every check on the
    arrays. Anything either rejects returns None, so that the line loop
    reports the first bad line with its number and the exact message.
    """
    name = os.fspath(path) if isinstance(path, (str, os.PathLike)) else None
    # The file is opened twice, which a pipe does not survive, and loadtxt
    # picks a decompressor from a name's suffix.
    if (not _FAST_PATH_AVAILABLE or not isinstance(name, str)
            or not os.path.isfile(name) or name.endswith(_COMPRESSED_SUFFIXES)):
        return None
    declared_n = 0
    # Same loop as the reference over the leading comment/blank block, so it
    # raises what the reference would raise there.
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line and not line.startswith("#"):
                ncols = len(line.split())
                break
            if line:
                count = _header_count(line, path, lineno)
                if count is not None:
                    declared_n = count
        else:
            return None
    if ncols != 3 and not (ncols == 2 and unweighted_default):
        return None
    try:
        # Given a file name (not a buffer), loadtxt reads in large chunks
        # through a universal-newline text layer, like the reference. An
        # absolute name is never taken for a URL.
        rows = np.loadtxt(os.path.abspath(name), dtype=_EDGE_ROW_DTYPES[ncols],
                          comments=None, skiprows=lineno - 1,
                          encoding="ascii", ndmin=1)
    except (ValueError, OSError):
        return None
    u, v = rows["u"], rows["v"]
    w = rows["w"] if ncols == 3 else None
    n_final = max(int(u.max()) + 1, int(v.max()) + 1, declared_n, n or 0)
    try:
        return WeightedGraph.from_edges(n_final, u, v, w)
    except ValueError:
        return None


def _header_count(comment, path, lineno):
    """Vertex count of a stripped "# n <count>" comment line, else None."""
    parts = comment[1:].split()
    if len(parts) != 2 or parts[0] != "n":
        return None
    try:
        return int(parts[1])
    except ValueError as exc:
        raise GraphFormatError(
            f"{path}:{lineno}: bad vertex count {parts[1]!r}") from exc


def _load_edge_list_reference(path, unweighted_default, n):
    """Line-by-line :func:`load_edge_list`; the reference for the fast path."""
    us, vs, ws = [], [], []
    declared_n = 0
    seen = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                count = _header_count(line, path, lineno)
                if count is not None:
                    declared_n = count
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise GraphFormatError(
                    f"{path}:{lineno}: expected 'u v' or 'u v w', got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise GraphFormatError(
                    f"{path}:{lineno}: non-integer vertex id") from exc
            if u < 0 or v < 0:
                raise GraphFormatError(f"{path}:{lineno}: negative vertex id")
            if u == v:
                raise GraphFormatError(f"{path}:{lineno}: self-loop on vertex {u}")
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
    inferred = max((max(us, default=-1), max(vs, default=-1))) + 1
    n_final = max(inferred, declared_n, n or 0)
    return WeightedGraph.from_edges(n_final, us, vs, ws)


def save_edge_list(graph: WeightedGraph, path) -> None:
    """Write the edge list in the format accepted by :func:`load_edge_list`."""
    u, v, w = graph.edge_arrays()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n {graph.n}\n")
        for a, b, c in zip(u.tolist(), v.tolist(), w.tolist()):
            fh.write(f"{a} {b} {c!r}\n")


def load_attributes(path, n, *, text=None) -> AttributeAssignment:
    """Parse a "vertex group" file into a partition of [0, n).

    Group indices are densified to 0..r-1 in first-seen order. Every vertex
    must be labeled exactly once. ``text``, if given, is the file's content
    already read (a pipe can be read only once); ``path`` then only names
    the file in error messages.
    """
    labels = np.full(n, -1, dtype=np.int64)
    remap = {}
    with (open(path, encoding="utf-8") if text is None
          else io.StringIO(text)) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
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
    with open(path, "w", encoding="utf-8") as fh:
        for v, g in enumerate(attr.labels.tolist()):
            fh.write(f"{v} {g}\n")


def _sample_pair_indices(rng, n, p):
    """Geometric skip sampling over the n*(n-1)/2 unordered pairs.

    Returns strictly increasing linear pair indices, each included
    independently with probability p. Expected O(m) time.
    """
    total = n * (n - 1) // 2
    chunks = []
    pos = -1
    batch = int(total * p + 10 * math.sqrt(total * p + 1)) + 16
    while True:
        gaps = rng.geometric(p, size=batch)
        steps = np.cumsum(gaps) + pos
        if steps[-1] >= total:
            chunks.append(steps[steps < total])
            break
        chunks.append(steps)
        pos = int(steps[-1])
        batch = max(1024, int((total - 1 - pos) * p * 1.2) + 16)
    return np.concatenate(chunks)


def _pairs_from_indices(t, n):
    """Invert the lexicographic pair numbering: index -> (u, v), u < v."""
    t = t.astype(np.int64)
    tf = t.astype(np.float64)
    b = 2 * n - 1
    u = np.floor((b - np.sqrt(b * b - 8 * tf)) / 2).astype(np.int64)
    u = np.clip(u, 0, n - 2)
    # fix float rounding at row boundaries
    for _ in range(3):
        off = u * (2 * n - u - 1) // 2
        u = np.where(off > t, u - 1, u)
        off = u * (2 * n - u - 1) // 2
        nxt = (u + 1) * (2 * n - u - 2) // 2
        u = np.where(nxt <= t, u + 1, u)
    off = u * (2 * n - u - 1) // 2
    nxt = (u + 1) * (2 * n - u - 2) // 2
    assert np.all((off <= t) & (t < nxt))
    v = u + 1 + (t - off)
    return u, v


# Above this size, pairwise Bernoulli sampling over all C(n,2) pairs is
# replaced by geometric skip sampling.
_PAIRWISE_LIMIT = 2000


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

    if p <= 0.0:
        lo = hi = np.empty(0, dtype=np.int64)
    elif n <= _PAIRWISE_LIMIT:
        iu, iv = np.triu_indices(n, k=1)
        mask = rng.random(len(iu)) < p
        lo, hi = iu[mask].astype(np.int64), iv[mask].astype(np.int64)
    else:
        idx = _sample_pair_indices(rng, n, p)
        lo, hi = _pairs_from_indices(idx, n)

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


def _vertex_ids(s, n) -> np.ndarray:
    """Sorted distinct ids of the vertex collection ``s``.

    Raises ValueError unless every id is an integer in [0, n): a float is
    never truncated and a negative id never wraps around to the end.
    """
    ids = np.asarray(list(s))
    if ids.size == 0:
        return np.empty(0, dtype=np.int64)
    if ids.dtype.kind not in "iu":
        raise ValueError(f"vertex ids must be integers, got {ids.dtype}")
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
