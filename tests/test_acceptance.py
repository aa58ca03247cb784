"""Acceptance gate: one test and one printed PASS/FAIL line per criterion."""

import numpy as np
import pytest

from vacdks import (
    ConstraintSpec,
    FwConfig,
    PlantedCliqueConfig,
    brute_force,
    generate_planted_clique,
    greedy_peel,
    induced_weight,
    lmo,
    lrbo_rank1,
    normalized_edge_weight,
    recovery_check,
    round_to_integral,
    solve_fw,
    upper_bound,
)
from vacdks.spectral import dominant_eigenpair

from conftest import (
    dense_g,
    enumerate_feasible,
    random_fractional,
    random_graph,
    random_spec,
)


@pytest.fixture
def report(capfd):
    def _report(num, ok, detail=""):
        with capfd.disabled():
            print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}",
                  flush=True)
        assert ok, f"criterion {num}: {detail}"
    return _report


def test_criterion_1_oracle_envelope(report):
    rng = np.random.default_rng(101)
    worst_gap = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 10))
        g = random_graph(rng, n, min_edges=1)
        spec = random_spec(rng, n, k_min=2)
        best_set, _ = brute_force(g, spec)
        best_val = induced_weight(g, best_set)
        for solver in (lambda: solve_fw(g, spec)[1],
                       lambda: greedy_peel(g, spec),
                       lambda: lrbo_rank1(g, spec)[0]):
            val = induced_weight(g, solver())
            worst_gap = max(worst_gap, val - best_val)
        bound = upper_bound(g, spec).bound
        achieved = normalized_edge_weight(g, best_set)
        assert achieved <= bound + 1e-9, (achieved, bound)
    report(1, worst_gap <= 1e-9,
           f"200 instances, max heuristic excess over oracle {worst_gap:.2e}")


def _lmo_oracle(spec, grad):
    """Independent tie-break oracle: per-group top-k_i, then global top-up,
    ordering by (descending value, ascending id) via Python sorting."""
    chosen = []
    taken = set()
    for ki, members in zip(spec.mins, spec.attr.groups):
        ranked = sorted(members.tolist(), key=lambda v: (-grad[v], v))
        for v in ranked[:ki]:
            chosen.append(v)
            taken.add(v)
    rest = sorted((v for v in range(spec.n) if v not in taken),
                  key=lambda v: (-grad[v], v))
    chosen.extend(rest[:spec.k - len(chosen)])
    return sorted(chosen)


def test_criterion_2_lmo_exactness(report):
    rng = np.random.default_rng(202)
    for _ in range(200):
        n = int(rng.integers(3, 9))
        spec = random_spec(rng, n)
        # quarter-integer gradients keep every candidate sum exact in floats
        grad = rng.integers(-8, 9, size=n) / 4.0
        v = lmo(spec, grad)
        got = float(grad @ v)
        best = max(float(grad[list(s)].sum()) for s in enumerate_feasible(spec))
        assert got == best, (got, best)
        assert np.flatnonzero(v).tolist() == _lmo_oracle(spec, grad)
    report(2, True, "200 gradient/spec pairs, exact maxima and tie-breaks")


def test_criterion_3_rounding_monotone(report):
    rng = np.random.default_rng(303)
    for _ in range(250):
        n = int(rng.integers(4, 31))
        g = random_graph(rng, n, p=0.3, min_edges=1)
        spec = random_spec(rng, n, k_min=2)
        x = random_fractional(rng, spec)
        for lam in (g.w_max, 2 * g.w_max):
            y, transfers = round_to_integral(g, spec, lam, x,
                                             return_transfers=True)
            assert np.all((y == 0.0) | (y == 1.0))
            sel = np.flatnonzero(y)
            assert len(sel) == spec.k
            counts = np.bincount(spec.attr.labels[sel], minlength=spec.attr.r)
            assert np.all(counts >= np.asarray(spec.mins))
            g_in, g_out = dense_g(g, lam, x), dense_g(g, lam, y)
            assert g_out >= g_in - 1e-9 * abs(g_in), (g_in, g_out)
            assert transfers <= n
    report(3, True, "500 fractional points rounded, integral/feasible/monotone")


def test_criterion_4_fw_ascent_and_gap(report):
    rng = np.random.default_rng(404)
    for _ in range(50):
        n = int(rng.integers(30, 1001))
        g = random_graph(rng, n, p=float(rng.uniform(2.0, 10.0)) / n,
                         min_edges=1)
        spec = random_spec(rng, n, k_min=2, k_max=max(2, n // 10))
        _, _, trace = solve_fw(g, spec)
        obj = np.array(trace.objective)
        assert np.all(np.diff(obj) >= -1e-9 * np.maximum(1.0, obj[:-1]))
        stationary = trace.gap[-1] <= 1e-6 * max(1.0, obj[-1])
        assert stationary or trace.iterations == 500
    report(4, True, "50 instances, monotone traces and certified exits")


def _run_paper_table(cfg_base, mins, seeds, methods):
    stats = {m: {"recovered": 0, "normalized": [], "per_iter": []}
             for m in methods}
    for seed in seeds:
        cfg = PlantedCliqueConfig(**cfg_base, seed=seed)
        g, attr, planted = generate_planted_clique(cfg)
        spec = ConstraintSpec(k=cfg.k, mins=mins, attr=attr)
        for method in methods:
            if method == "fw":
                _, sel, trace = solve_fw(g, spec)
                stats[method]["per_iter"].append(
                    trace.wall_seconds / max(trace.iterations, 1))
            elif method == "fw+peel":
                x0 = np.zeros(g.n)
                x0[greedy_peel(g, spec)] = 1.0
                _, sel, _ = solve_fw(g, spec, x0=x0)
            elif method == "peel":
                sel = greedy_peel(g, spec)
            else:
                sel, _, _ = lrbo_rank1(g, spec)
            stats[method]["recovered"] += recovery_check(planted, sel)
            stats[method]["normalized"].append(normalized_edge_weight(g, sel))
    for m in methods:
        stats[m]["mean"] = float(np.mean(stats[m]["normalized"]))
    return stats


def test_criterion_5_planted_recovery_paper_scale(report):
    base = dict(n=10_000, p=0.05, k=30, r=3)
    stats = _run_paper_table(base, (5, 5, 5), range(20),
                             ("fw", "peel", "fw+peel", "lrbo"))
    ok = (stats["fw+peel"]["recovered"] == 20
          and abs(stats["fw+peel"]["mean"] - 1.0) < 1e-9
          and stats["fw"]["recovered"] >= 10
          and stats["peel"]["recovered"] <= 2
          and 0.60 <= stats["peel"]["mean"] <= 1.00
          and stats["lrbo"]["recovered"] == 0
          and stats["lrbo"]["mean"] <= 0.20)
    detail = ", ".join(
        f"{m} {stats[m]['recovered']}/20 @ {stats[m]['mean']:.3f}"
        for m in ("fw", "peel", "fw+peel", "lrbo"))
    report(5, ok, detail)


def test_criterion_6_scalability(report):
    seeds = range(5)
    summary = []
    ok = True
    for weighted in (False, True):
        base = dict(n=50_000, p=0.01, k=60, r=3, weighted=weighted)
        stats = _run_paper_table(base, (10, 10, 10), seeds,
                                 ("fw", "peel", "lrbo"))
        ok = ok and (stats["fw"]["recovered"] == 5
                     and stats["peel"]["recovered"] == 5
                     and abs(stats["fw"]["mean"] - 1.0) < 1e-9
                     and abs(stats["peel"]["mean"] - 1.0) < 1e-9
                     and stats["lrbo"]["recovered"] == 0)
        summary.append(
            f"{'weighted' if weighted else 'unweighted'}: "
            + ", ".join(f"{m} {stats[m]['recovered']}/5" for m in
                        ("fw", "peel", "lrbo")))

    # loose linearity: per-iteration cost at most triples when n doubles
    # at fixed average degree
    ratios = []
    for trial_seed in (0, 1):
        per_iter = []
        for n, p in ((25_000, 0.02), (50_000, 0.01)):
            cfg = PlantedCliqueConfig(n=n, p=p, k=60, r=3, seed=trial_seed)
            g, attr, _ = generate_planted_clique(cfg)
            spec = ConstraintSpec(k=60, mins=(10, 10, 10), attr=attr)
            _, _, trace = solve_fw(g, spec)
            per_iter.append(trace.wall_seconds / max(trace.iterations, 1))
        ratios.append(per_iter[1] / per_iter[0])
    ratio = min(ratios)
    ok = ok and ratio <= 3.0
    report(6, ok, "; ".join(summary) + f"; per-iteration 2x-n ratio {ratio:.2f}")


def _swap_local_maxima(g, spec, lam):
    """Indices (into the feasible enumeration) of 1-swap local maxima of g."""
    labels = spec.attr.labels
    mins = np.asarray(spec.mins)
    maxima = []
    for idx, s in enumerate(enumerate_feasible(spec)):
        inside = set(s.tolist())
        x = np.zeros(spec.n)
        x[s] = 1.0
        val = dense_g(g, lam, x)
        best = True
        for v in inside:
            for u in range(spec.n):
                if u in inside:
                    continue
                t = np.array(sorted(inside - {v} | {u}))
                counts = np.bincount(labels[t], minlength=spec.attr.r)
                if np.any(counts < mins):
                    continue
                y = np.zeros(spec.n)
                y[t] = 1.0
                if dense_g(g, lam, y) > val + 1e-12:
                    best = False
                    break
            if not best:
                break
        if best:
            maxima.append(idx)
    return set(maxima)


def test_criterion_7_lambda_landscape(report):
    rng = np.random.default_rng(707)
    for _ in range(100):
        n = int(rng.integers(4, 13))
        g = random_graph(rng, n, min_edges=1)
        spec = random_spec(rng, n, k_min=2, k_max=min(n, 6))
        low = _swap_local_maxima(g, spec, 1.5 * g.w_max)
        high = _swap_local_maxima(g, spec, 3.0 * g.w_max)
        assert low <= high, (low, high)
    report(7, True, "100 instances, local maxima preserved as lambda grows")


def _top_k(values, k):
    return sorted(sorted(range(len(values)),
                         key=lambda v: (-values[v], v))[:k])


def _fw_unconstrained(graph, k):
    """From-scratch dense FW with plain top-k selection and mass-transfer
    rounding; no group machinery anywhere."""
    lam = graph.w_max
    a = graph.adj.toarray()
    n = graph.n
    L = 1.01 * max(float(np.linalg.eigvalsh(a)[-1]) + lam, lam)
    x = np.full(n, k / n)
    for _ in range(500):
        grad = a @ x + lam * x
        obj = float(x @ grad)
        s = np.zeros(n)
        s[_top_k(grad, k)] = 1.0
        d = s - x
        gap = float(grad @ d)
        dn2 = float(d @ d)
        if gap <= 1e-6 * max(1.0, obj) or dn2 == 0.0:
            break
        x = x + min(1.0, gap / (L * dn2)) * d
    sv = a @ x
    for _ in range(n + 1):
        frac = [v for v in range(n) if 1e-9 < x[v] < 1.0 - 1e-9]
        if len(frac) < 2:
            break
        score = lam * x + sv
        j = max(frac, key=lambda v: (score[v], -v))
        l = min(frac, key=lambda v: (score[v], v))
        if j == l:
            j, l = frac[0], frac[1]
        delta = min(x[l], 1.0 - x[j])
        x[j] += delta
        x[l] -= delta
        sv += delta * (a[j] - a[l])
        x[np.abs(x) < 1e-9] = 0.0
        x[np.abs(x - 1.0) < 1e-9] = 1.0
    return np.flatnonzero(x > 0.5)


def _peel_unconstrained(graph, k):
    a = graph.adj.toarray()
    alive = list(range(graph.n))
    while len(alive) > k:
        deg = {v: float(a[v, alive].sum()) for v in alive}
        alive.remove(min(alive, key=lambda v: (deg[v], v)))
    return np.array(alive)


def _lrbo_unconstrained(graph, k):
    a = graph.adj.toarray()
    eig1, v1, _, _, _ = dominant_eigenpair(graph.adj, graph.w_max)
    best = None
    for sign in (1.0, -1.0):
        xs = _top_k(sign * v1, k)
        weight = float(a[np.ix_(xs, xs)].sum()) / 2.0
        if best is None or weight > best[0]:
            best = (weight, xs)
    return np.array(best[1])


def test_criterion_8_dks_reduction(report):
    rng = np.random.default_rng(808)
    for _ in range(30):
        n = int(rng.integers(4, 10))
        g = random_graph(rng, n, min_edges=1)
        r = int(rng.integers(1, 4))
        labels = rng.integers(0, r, size=n)
        from vacdks import AttributeAssignment
        attr = AttributeAssignment.from_labels(labels, r=r)
        k = int(rng.integers(2, n))
        spec = ConstraintSpec(k=k, mins=(0,) * r, attr=attr)

        _, sel_fw, _ = solve_fw(g, spec)
        assert sel_fw.tolist() == _fw_unconstrained(g, k).tolist()

        assert greedy_peel(g, spec).tolist() == \
            _peel_unconstrained(g, k).tolist()

        sel_lrbo, _, _ = lrbo_rank1(g, spec)
        assert sel_lrbo.tolist() == _lrbo_unconstrained(g, k).tolist()
    report(8, True, "30 unconstrained instances match the DkS cross-oracles")
