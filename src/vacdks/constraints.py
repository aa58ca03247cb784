"""Feasible set machinery: validation, initialization, LMO, and rounding.

The binary feasible set consists of 0/1 indicators with exactly k ones and
at least k_i ones inside each attribute group; the relaxed feasible set is
its convex hull (box-constrained vectors summing to k with per-group mass
at least k_i). All tie-breaks favor the lower vertex id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import AttributeAssignment, WeightedGraph, _vertex_ids

# Feasibility tolerances for fractional points (floating-point slack).
BOX_TOL = 1e-9
SUM_TOL = 1e-6
GROUP_TOL = 1e-9
# Entries within FRACTIONAL_TOL of {0, 1} are snapped before rounding.
FRACTIONAL_TOL = 1e-9


class ConstraintError(ValueError):
    """Invalid constraint specification or infeasible point."""


@dataclass(frozen=True, eq=False)
class ConstraintSpec:
    """Subgraph size k plus per-group lower bounds over a vertex partition."""

    k: int
    mins: tuple
    attr: AttributeAssignment

    def __post_init__(self):
        object.__setattr__(self, "mins", tuple(int(v) for v in self.mins))

    @property
    def n(self) -> int:
        return self.attr.n

    @property
    def min_total(self) -> int:
        return sum(self.mins)


def validate(spec: ConstraintSpec, graph: WeightedGraph = None) -> None:
    """Raise ConstraintError unless the spec invariants hold."""
    attr = spec.attr
    if graph is not None and graph.n != attr.n:
        raise ConstraintError(
            f"graph has {graph.n} vertices but attributes cover {attr.n}")
    if not 1 <= spec.k <= attr.n:
        raise ConstraintError(f"k={spec.k} out of range [1, {attr.n}]")
    if len(spec.mins) != attr.r:
        raise ConstraintError(
            f"{len(spec.mins)} group minimums given for {attr.r} groups")
    for i, (ki, members) in enumerate(zip(spec.mins, attr.groups)):
        if not 0 <= ki <= len(members):
            raise ConstraintError(
                f"k_{i}={ki} out of range [0, |C_{i}|={len(members)}]")
    if spec.min_total > spec.k:
        raise ConstraintError(
            f"sum of group minimums {spec.min_total} exceeds k={spec.k}")


def is_feasible_binary(spec: ConstraintSpec, s) -> bool:
    """True iff |s| = k and every group meets its minimum."""
    try:
        s = _vertex_ids(s, spec.n)
    except ValueError:
        return False
    if len(s) != spec.k:
        return False
    counts = np.bincount(spec.attr.labels[s], minlength=spec.attr.r)
    return all(c >= ki for c, ki in zip(counts, spec.mins))


def check_fractional(spec: ConstraintSpec, x) -> None:
    """Raise ConstraintError unless x lies in the relaxed feasible set."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (spec.n,):
        raise ConstraintError(f"point has shape {x.shape}, expected ({spec.n},)")
    if not np.isfinite(x).all():
        raise ConstraintError("point has a non-finite entry")
    if x.min() < -BOX_TOL or x.max() > 1.0 + BOX_TOL:
        raise ConstraintError("point leaves the unit box")
    total = x.sum()
    if abs(total - spec.k) > SUM_TOL * spec.k:
        raise ConstraintError(f"point mass {total} != k={spec.k}")
    for i, (ki, members) in enumerate(zip(spec.mins, spec.attr.groups)):
        if ki and x[members].sum() < ki - GROUP_TOL:
            raise ConstraintError(
                f"group {i} mass {x[members].sum()} below minimum {ki}")


def is_feasible_fractional(spec: ConstraintSpec, x) -> bool:
    try:
        check_fractional(spec, x)
    except ConstraintError:
        return False
    return True


def init_uniform(spec: ConstraintSpec) -> np.ndarray:
    """Feasible starting point spreading mass as evenly as the minimums allow.

    Sets each group to k_i/|C_i|, then repeatedly shares the residual
    k - sum(k_i) equally over entries below 1, capping at 1. Runs at most
    r+1 passes; entries that never hit the cap stay equal within a group.
    """
    x = np.zeros(spec.n)
    for ki, members in zip(spec.mins, spec.attr.groups):
        if len(members):
            x[members] = ki / len(members)
    residual = float(spec.k - spec.min_total)
    while residual > 1e-12 * max(1, spec.k):
        m = np.flatnonzero(x < 1.0)
        if not len(m):
            break
        share = residual / len(m)
        update = np.minimum(share, 1.0 - x[m])
        x[m] += update
        residual -= float(update.sum())
    return x


def _top_k(values: np.ndarray, candidates: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest values among candidates, ties by lower id.

    Stable descending sort; candidates must be in ascending id order so that
    equal values resolve to the lower id.
    """
    if k <= 0:
        return candidates[:0]
    order = np.argsort(-values[candidates], kind="stable")
    return candidates[order[:k]]


def lmo(spec: ConstraintSpec, grad) -> np.ndarray:
    """Closed-form linear maximization over the relaxed feasible set.

    Per group, takes the top-k_i gradient entries; the remaining k - sum(k_i)
    slots go to the best not-yet-selected entries overall. The result is a
    0/1 indicator, hence an extreme point of the polytope.
    """
    grad = np.asarray(grad, dtype=np.float64)
    selected = np.zeros(spec.n, dtype=bool)
    for ki, members in zip(spec.mins, spec.attr.groups):
        if ki:
            selected[_top_k(grad, members, ki)] = True
    rest = spec.k - spec.min_total
    if rest:
        pool = np.flatnonzero(~selected)
        selected[_top_k(grad, pool, rest)] = True
    return selected.astype(np.float64)


def _snap(x: np.ndarray) -> None:
    near_zero = x < FRACTIONAL_TOL
    near_one = x > 1.0 - FRACTIONAL_TOL
    x[near_zero] = 0.0
    x[near_one] = 1.0


def _fractional(x: np.ndarray, members=None) -> np.ndarray:
    if members is None:
        return np.flatnonzero((x > 0.0) & (x < 1.0))
    sub = members[(x[members] > 0.0) & (x[members] < 1.0)]
    return sub


def _transfer(adj, lam, x, s, frac):
    """One mass transfer between the extreme fractional entries in ``frac``.

    Moves delta = min(x_l, 1-x_j) from the entry with the smallest
    lam*x + s to the one with the largest (ties by lower id), which never
    decreases g(x) = x^T (A + lam I) x when lam >= w_max. At least one of
    the pair becomes integral.
    """
    key = lam * x[frac] + s[frac]
    j = int(frac[np.argmax(key)])
    l = int(frac[np.argmin(key)])
    if j == l:
        j, l = int(frac[0]), int(frac[1])
    delta = min(x[l], 1.0 - x[j])
    x[j] += delta
    x[l] -= delta
    row_j = adj.getrow(j)
    row_l = adj.getrow(l)
    s[row_j.indices] += delta * row_j.data
    s[row_l.indices] -= delta * row_l.data
    for v in (j, l):
        if x[v] < FRACTIONAL_TOL:
            x[v] = 0.0
        elif x[v] > 1.0 - FRACTIONAL_TOL:
            x[v] = 1.0


def round_to_integral(graph: WeightedGraph, spec: ConstraintSpec, lam, x,
                      *, return_transfers=False):
    """Round a feasible fractional point to a feasible 0/1 indicator.

    Constructive two-phase procedure: first transfer mass between fractional
    entries inside each group, then across groups once every group has at
    most one fractional entry. Requires lam >= w_max; the loaded objective
    g(x) = x^T (A + lam I) x never decreases, and at most n transfers occur.
    """
    if not np.isfinite(lam):
        raise ConstraintError(f"diagonal loading {lam} is not finite")
    if lam < graph.w_max - 1e-12:
        raise ConstraintError(
            f"diagonal loading {lam} below w_max={graph.w_max}")
    check_fractional(spec, x)
    x = np.clip(np.asarray(x, dtype=np.float64).copy(), 0.0, 1.0)
    _snap(x)
    s = graph.adj @ x
    transfers = 0

    for members in spec.attr.groups:
        while True:
            frac = _fractional(x, members)
            if len(frac) < 2:
                break
            _transfer(graph.adj, lam, x, s, frac)
            transfers += 1

    while True:
        frac = _fractional(x)
        if len(frac) < 2:
            break
        _transfer(graph.adj, lam, x, s, frac)
        transfers += 1

    frac = _fractional(x)
    if len(frac) == 1:
        # Input sum may sit within SUM_TOL of k; the drift ends up in one
        # entry, which must then be within that slack of an integer.
        v = int(frac[0])
        nearest = float(round(x[v]))
        if abs(x[v] - nearest) > SUM_TOL * max(1, spec.k):
            raise AssertionError(
                f"lone fractional entry {x[v]} cannot be snapped")
        x[v] = nearest
    elif len(frac) > 1:
        raise AssertionError(f"rounding left {len(frac)} fractional entries")
    out = (x > 0.5).astype(np.float64)
    if int(out.sum()) != spec.k:
        raise AssertionError("rounded point does not have exactly k ones")
    if return_transfers:
        return out, transfers
    return out
