"""Feasible set machinery: validation, initialization, LMO, and rounding.

The binary feasible set consists of 0/1 indicators with exactly k ones and
at least k_i ones inside each attribute group; the relaxed feasible set is
its convex hull (box-constrained vectors summing to k with per-group mass
at least k_i). All tie-breaks favor the lower vertex id.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .graph import AttributeAssignment, WeightedGraph, _vertex_ids

# Feasibility tolerances for fractional points (floating-point slack). The
# mass slack SUM_TOL*k is capped at SUM_SLACK_MAX, well below 1/2, so that no
# accepted point is a whole unit of mass away from k.
BOX_TOL = 1e-9
SUM_TOL = 1e-6
SUM_SLACK_MAX = 0.25
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
        for name, v in (("k", self.k),
                        *((f"k_{i}", ki) for i, ki in enumerate(self.mins))):
            if not isinstance(v, numbers.Integral):
                raise ConstraintError(f"{name}={v!r} is not an integer")
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
    if abs(total - spec.k) > min(SUM_TOL * spec.k, SUM_SLACK_MAX):
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

    O(|candidates|) selection: with t the k-th largest value, takes every
    candidate above t, then the first candidates equal to t until k are
    taken. Candidates must be in ascending id order so that equal values
    resolve to the lower id.
    """
    if k <= 0:
        return candidates[:0]
    vals = values[candidates]
    cut = len(vals) - k
    t = np.partition(vals, cut)[cut]
    take = vals > t
    ties = np.flatnonzero(vals == t)
    take[ties[:k - int(np.count_nonzero(take))]] = True
    return candidates[take]


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


def round_to_integral(graph: WeightedGraph, spec: ConstraintSpec, lam, x,
                      *, return_transfers=False):
    """Round a feasible fractional point to a feasible 0/1 indicator.

    Constructive two-phase procedure: first transfer mass between fractional
    entries inside each group, then across groups once every group has at
    most one fractional entry. Each transfer moves delta = min(x_l, 1-x_j)
    from the entry with the smallest lam*x + s to the one with the largest
    (ties by lower id), where s = Ax. Requires lam >= w_max; the loaded
    objective g(x) = x^T (A + lam I) x never decreases, and at most n
    transfers occur, each costing O(|frac| + degree). The result is
    feasible for every point check_fractional accepts while
    min(SUM_TOL*k, SUM_SLACK_MAX) + 2n*FRACTIONAL_TOL < 1, which keeps the
    mass within 1 of k.
    """
    if not np.isfinite(lam):
        raise ConstraintError(f"diagonal loading {lam} is not finite")
    if lam < graph.w_max - 1e-12:
        raise ConstraintError(
            f"diagonal loading {lam} below w_max={graph.w_max}")
    check_fractional(spec, x)
    x = np.clip(np.asarray(x, dtype=np.float64).copy(), 0.0, 1.0)
    x[x < FRACTIONAL_TOL] = 0.0
    x[x > 1.0 - FRACTIONAL_TOL] = 1.0
    adj = graph.adj
    s = adj @ x
    transfers = 0

    def settle(frac):
        # A transfer makes at least one of its pair integral and leaves every
        # other entry as it was, so ``frac`` only loses that pair's integrals.
        nonlocal transfers
        while len(frac) > 1:
            key = lam * x[frac] + s[frac]
            a, b = int(np.argmax(key)), int(np.argmin(key))
            if a == b:
                a, b = 0, 1
            j, l = frac[a], frac[b]
            delta = min(x[l], 1.0 - x[j])
            for v, dv in ((j, delta), (l, -delta)):
                x[v] += dv
                row = slice(adj.indptr[v], adj.indptr[v + 1])
                s[adj.indices[row]] += dv * adj.data[row]
                if x[v] < FRACTIONAL_TOL:
                    x[v] = 0.0
                elif x[v] > 1.0 - FRACTIONAL_TOL:
                    x[v] = 1.0
            frac = np.delete(frac, [p for p in (a, b)
                                    if x[frac[p]] in (0.0, 1.0)])
            transfers += 1
        return frac

    for ki, members in zip(spec.mins, spec.attr.groups):
        frac = settle(members[(x[members] > 0.0) & (x[members] < 1.0)])
        # Short of k_i ones only by the mass the snaps dropped; raising an
        # entry cannot lower g, as A + lam I and x are non-negative.
        if len(frac) and np.count_nonzero(x[members] == 1.0) < ki:
            x[frac] = 1.0
    frac = settle(np.flatnonzero((x > 0.0) & (x < 1.0)))
    out = (x == 1.0).astype(np.float64)
    if len(frac):
        # The mass is less than 1 away from k, so this is 0 or 1.
        out[frac] = spec.k - out.sum()
    if return_transfers:
        return out, transfers
    return out
