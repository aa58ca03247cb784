import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from vacdks import (
    METHODS,
    ConstraintError,
    ConstraintSpec,
    FwConfig,
    WeightedGraph,
    PlantedCliqueConfig,
    brute_force,
    generate_planted_clique,
    greedy_peel,
    induced_weight,
    is_feasible_binary,
    lipschitz_estimate,
    lmo,
    lrbo_rank1,
    objective_g,
    round_to_integral,
    solve,
    solve_fw,
)
from vacdks import spectral
from vacdks.constraints import FRACTIONAL_TOL, init_uniform
from vacdks.fw import FwTrace

from conftest import (dense_g, lmo_reference, make_instance,
                      random_fractional, random_graph, random_spec,
                      small_instances, support_is_narrow, two_triangles)


class TestConfig:
    def test_defaults(self):
        cfg = FwConfig()
        assert cfg.lam is None and cfg.max_iters == 500

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            FwConfig(lam=-1.0)
        with pytest.raises(ValueError):
            FwConfig(max_iters=0)
        with pytest.raises(ValueError):
            FwConfig(gap_tol=0.0)

    @pytest.mark.parametrize("kwargs", [
        {"lam": float("nan")},
        {"lam": float("inf")},
        {"gap_tol": float("nan")},
        {"gap_tol": float("inf")},
        {"max_iters": float("nan")},
        {"max_iters": 2.5},
    ], ids=["lam_nan", "lam_inf", "gap_tol_nan", "gap_tol_inf",
            "max_iters_nan", "max_iters_fractional"])
    def test_rejects_non_finite_or_fractional_values(self, kwargs):
        with pytest.raises(ValueError):
            FwConfig(**kwargs)

    def test_accepts_numpy_integer_max_iters(self):
        assert FwConfig(max_iters=np.int64(3)).max_iters == 3


class TestObjective:
    def test_matches_dense_quadratic(self, rng):
        g = random_graph(rng, 10)
        x = rng.uniform(size=10)
        assert objective_g(g, 1.3, x) == pytest.approx(dense_g(g, 1.3, x))

    def test_binary_point_is_twice_weight_plus_lam_k(self, rng):
        g = random_graph(rng, 12)
        s = np.array([0, 3, 5, 9])
        x = np.zeros(12)
        x[s] = 1.0
        expected = 2 * induced_weight(g, s) + g.w_max * 4
        assert objective_g(g, g.w_max, x) == pytest.approx(expected)


class TestLipschitz:
    def test_upper_bounds_spectral_norm(self, rng):
        for _ in range(10):
            g = random_graph(rng, 12, min_edges=1)
            lam = g.w_max
            L = lipschitz_estimate(g, lam)
            dense = g.adj.toarray() + lam * np.eye(12)
            assert L >= np.linalg.norm(dense, 2) - 1e-8

    def test_edgeless_graph(self, rng):
        g = random_graph(rng, 5, p=0.0)
        assert lipschitz_estimate(g, 2.0) == pytest.approx(1.01 * 2.0)

    def test_warns_when_not_converged(self, monkeypatch):
        # A one-vector Lanczos basis restarts in place and spends the
        # budget: the run ends unconverged, as the power loop alone did.
        monkeypatch.setattr(spectral, "EIG_BASIS", 1)
        monkeypatch.setattr(spectral, "EIG_MAX_ITERS", 100)
        g = two_triangles()
        with pytest.warns(RuntimeWarning, match="power iteration residual"):
            L = lipschitz_estimate(g, g.w_max)
        assert L >= 1.01 * 3.0 - 1e-3
        # the graph keeps its eigenpair: no second run, no second warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lipschitz_estimate(g, g.w_max) == L
        with pytest.warns(RuntimeWarning, match="power iteration residual"):
            lipschitz_estimate(two_triangles(), 1.0)


class TestSolveFw:
    def test_monotone_ascent(self, rng):
        for _ in range(15):
            n = int(rng.integers(5, 20))
            g = random_graph(rng, n, min_edges=1)
            spec = random_spec(rng, n, k_min=2)
            _, sel, trace = solve_fw(g, spec)
            obj = np.array(trace.objective)
            assert np.all(np.diff(obj) >= -1e-9)
            assert is_feasible_binary(spec, sel)

    def test_rounded_value_at_least_final_iterate(self, rng):
        for _ in range(15):
            n = int(rng.integers(5, 16))
            g = random_graph(rng, n, min_edges=1)
            spec = random_spec(rng, n, k_min=2)
            x, sel, _ = solve_fw(g, spec)
            lam = g.w_max
            assert dense_g(g, lam, _indicator(sel, n)) >= dense_g(g, lam, x) - 1e-8

    def test_custom_start_point(self, rng):
        g = random_graph(rng, 10, min_edges=1)
        spec = random_spec(rng, 10, k_min=2)
        x0 = random_fractional(rng, spec)
        _, sel, trace = solve_fw(g, spec, x0=x0)
        assert trace.objective[0] == pytest.approx(dense_g(g, g.w_max, x0))
        assert is_feasible_binary(spec, sel)

    def test_rejects_nan_start_point(self, rng):
        # formerly an AssertionError deep inside rounding
        g = random_graph(rng, 10, min_edges=1)
        spec = random_spec(rng, 10, k_min=2)
        with pytest.raises(ConstraintError, match="non-finite"):
            solve_fw(g, spec, x0=np.full(10, np.nan))
        x0 = random_fractional(rng, spec)
        x0[3] = np.nan
        with pytest.raises(ConstraintError, match="non-finite"):
            solve_fw(g, spec, x0=x0)

    def test_deterministic(self, rng):
        g = random_graph(rng, 30, min_edges=1)
        spec = random_spec(rng, 30, k_min=3)
        a = solve_fw(g, spec)
        b = solve_fw(g, spec)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        assert a[2].objective == b[2].objective

    def test_gap_termination_flag(self, rng):
        g = random_graph(rng, 8, min_edges=1)
        spec = random_spec(rng, 8, k_min=2)
        _, _, trace = solve_fw(g, spec, FwConfig(max_iters=2000, gap_tol=1e-8))
        if trace.converged:
            assert trace.gap[-1] <= 1e-8 * max(1.0, trace.objective[-1])

    def test_iteration_budget_respected(self, rng):
        g = random_graph(rng, 20, min_edges=1)
        spec = random_spec(rng, 20, k_min=2)
        _, _, trace = solve_fw(g, spec, FwConfig(max_iters=3))
        assert trace.iterations <= 3

    def test_matches_brute_force_often(self, rng):
        hits = 0
        trials = 25
        for _ in range(trials):
            n = int(rng.integers(5, 12))
            g = random_graph(rng, n, min_edges=1)
            spec = random_spec(rng, n, k_min=2)
            _, sel, _ = solve_fw(g, spec)
            _, best = brute_force(g, spec)
            if induced_weight(g, sel) >= best - 1e-9:
                hits += 1
        # a first-order method on a non-convex objective will miss sometimes,
        # but it should find the optimum on most small random instances
        assert hits >= trials * 0.6

    def test_recovers_planted_clique(self):
        cfg = PlantedCliqueConfig(n=2000, p=0.01, k=15, r=3, seed=4)
        g, attr, planted = generate_planted_clique(cfg)
        from vacdks import ConstraintSpec
        spec = ConstraintSpec(k=15, mins=(5, 5, 5), attr=attr)
        _, sel, trace = solve_fw(g, spec)
        assert set(sel.tolist()) == set(planted.tolist())
        assert trace.converged

    def test_lam_zero_still_returns_feasible(self, rng):
        g = random_graph(rng, 10, min_edges=1)
        spec = random_spec(rng, 10, k_min=2)
        _, sel, _ = solve_fw(g, spec, FwConfig(lam=0.0))
        assert is_feasible_binary(spec, sel)


class TestMaintainedGradient:
    """solve_fw updates A x from the k rows of each LMO vertex instead of
    multiplying by A every iteration."""

    def test_final_objective_matches_fresh_product(self, rng):
        # Each step rescales A x and adds gamma * A s, so the maintained
        # product drifts by at most a few ulps per iteration.
        converged = 0
        for _ in range(12):
            n = int(rng.integers(30, 150))
            g = random_graph(rng, n, weighted=bool(rng.integers(2)), p=0.2,
                             min_edges=1)
            spec = random_spec(rng, n, k_min=3)
            x, _, trace = solve_fw(g, spec, FwConfig(max_iters=2000,
                                                     gap_tol=1e-9))
            if not trace.converged:
                continue
            converged += 1
            exact = objective_g(g, g.w_max, x)
            assert trace.objective[-1] == pytest.approx(
                exact, rel=1e-12 * trace.iterations)
        assert converged >= 6

    def test_full_products_per_start(self, rng):
        # Products go to scipy only for supports whose rows hold more than
        # a share of the CSR entries: a uniform start's, and the final
        # iterate's when it is that wide (as after a single short step). A
        # 0/1 start and every LMO vertex (k = 6 rows of 400) are summed
        # from their rows.
        class CountingCsr(sparse.csr_matrix):
            matmuls = 0

            def __matmul__(self, other):
                CountingCsr.matmuls += 1
                return super().__matmul__(other)

        final_wide = set()
        for _ in range(3):
            base = random_graph(rng, 400, p=0.1, min_edges=1)
            g = WeightedGraph(adj=CountingCsr(base.adj), w_max=base.w_max)
            spec = random_spec(rng, 400, k_min=6, k_max=6)
            g.eigenpair
            for x0 in (None, lmo(spec, rng.normal(size=400))):
                for cfg in (FwConfig(), FwConfig(max_iters=1)):
                    CountingCsr.matmuls = 0
                    x, _, _ = solve_fw(g, spec, cfg, x0=x0)
                    # the support rounding keeps after its snap to 0
                    wide = not support_is_narrow(g.adj, x >= FRACTIONAL_TOL)
                    if x0 is None:
                        final_wide.add(wide)
                        assert CountingCsr.matmuls == 1 + wide
                    else:
                        assert not wide and CountingCsr.matmuls == 0
        assert final_wide == {True, False}


def _indicator(sel, n):
    x = np.zeros(n)
    x[sel] = 1.0
    return x


def test_edgeless_graph_solve(rng):
    g = random_graph(rng, 6, p=0.0)
    spec = random_spec(rng, 6, k_min=2)
    _, sel, _ = solve_fw(g, spec)
    assert len(sel) == spec.k


def solve_fw_reference(graph, spec, cfg=None, x0=None):
    """``solve_fw``'s loop before its fast paths: a full product for the
    start, A s rebuilt from s's rows at every step, and the LMO by stable
    argsort. The rounding is ``round_to_integral``, which
    TestRoundingAgainstReference holds to a rounding from a full product."""
    cfg = cfg or FwConfig()
    lam = cfg.lam if cfg.lam is not None else graph.w_max
    if x0 is None:
        x0 = init_uniform(spec)
    L = lipschitz_estimate(graph, lam)
    x = np.asarray(x0, dtype=np.float64).copy()
    adj = graph.adj
    ax = adj @ x
    trace = FwTrace()
    for _ in range(cfg.max_iters):
        grad = ax + lam * x
        obj = float(x @ grad)
        s = lmo_reference(spec, grad)
        d = s - x
        gap = max(float(grad @ d), 0.0)
        dn2 = float(d @ d)
        done = gap <= cfg.gap_tol * max(1.0, obj) or dn2 == 0.0
        gamma = 0.0 if done else min(1.0, gap / (L * dn2))
        trace.iterations += 1
        trace.objective.append(obj)
        trace.gap.append(gap)
        trace.step_size.append(gamma)
        if done:
            trace.converged = True
            break
        x += gamma * d
        ones = np.flatnonzero(s)
        starts = adj.indptr[ones]
        lengths = adj.indptr[ones + 1] - starts
        pos = (np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
               + np.arange(lengths.sum()))
        ax *= 1.0 - gamma
        ax += gamma * np.bincount(adj.indices[pos], weights=adj.data[pos],
                                  minlength=graph.n)
    rounded = round_to_integral(graph, spec, max(lam, graph.w_max), x)
    return x, np.flatnonzero(rounded > 0.5), trace


def assert_same_solve(graph, spec, x0=None, cfg=None):
    x, sel, trace = solve_fw(graph, spec, cfg, x0=x0)
    x_ref, sel_ref, ref = solve_fw_reference(graph, spec, cfg, x0=x0)
    assert x.tobytes() == x_ref.tobytes()
    assert sel.dtype == sel_ref.dtype and sel.tobytes() == sel_ref.tobytes()
    assert (trace.iterations, trace.converged) == (ref.iterations,
                                                   ref.converged)
    for name in ("objective", "gap", "step_size"):
        assert (np.array(getattr(trace, name)).tobytes()
                == np.array(getattr(ref, name)).tobytes()), name


@st.composite
def fw_instances(draw):
    """A small instance, a start (uniform, a 0/1 LMO vertex or a convex
    combination of such vertices) and a solver config."""
    graph, spec = draw(small_instances())
    direction = st.lists(st.integers(min_value=-2, max_value=2).map(float),
                         min_size=spec.n, max_size=spec.n)
    start = draw(st.sampled_from(["uniform", "binary", "fractional"]))
    x0 = None
    if start != "uniform":
        atoms = [lmo_reference(spec, np.array(d)) for d in draw(
            st.lists(direction, min_size=1,
                     max_size=1 if start == "binary" else 4))]
        weights = draw(st.lists(st.integers(min_value=1, max_value=100),
                                min_size=len(atoms), max_size=len(atoms)))
        x0 = sum(w * a for w, a in zip(weights, atoms)) / sum(weights)
    cfg = FwConfig(lam=draw(st.sampled_from([None, 0.0, 2.5])),
                   max_iters=draw(st.sampled_from([1, 4, 500])))
    return graph, spec, x0, cfg


class TestAgainstFrozenLoop:
    """solve_fw's exact shortcuts (the global top-k LMO, one A s per
    distinct LMO answer, products from a support's rows) leave every
    output byte as the loop without them gives it."""

    @settings(max_examples=150, deadline=None)
    @given(fw_instances())
    # an edgeless graph from a 0/1 start: no rows hold an entry
    @example((*make_instance(4, [], None, [0, 0, 1, 1], 2, [1, 1]),
              np.array([1.0, 0.0, 1.0, 0.0]), FwConfig()))
    # a triangle plus two isolated vertices, uniform start
    @example((*make_instance(5, [(0, 1), (1, 2), (0, 2)], None,
                             [0, 0, 0, 1, 1], 3, [2, 1]), None, FwConfig()))
    def test_property(self, instance):
        graph, spec, x0, cfg = instance
        assert_same_solve(graph, spec, x0, cfg)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_seeded(self, rng, weighted):
        for seed in range(3):
            cfg = PlantedCliqueConfig(n=int(rng.integers(300, 1200)),
                                      p=float(rng.choice([0.02, 0.1])),
                                      k=12, r=3, weighted=weighted, seed=seed)
            g, attr, _ = generate_planted_clique(cfg)
            spec = ConstraintSpec(k=12, mins=(3, 3, 3), attr=attr)
            binary = lmo(spec, rng.normal(size=g.n))
            for x0 in (None, binary, random_fractional(rng, spec),
                       0.5 * binary + 0.5 * init_uniform(spec)):
                assert_same_solve(g, spec, x0)


class TestSolve:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(small_instances(max_n=8).filter(lambda inst: inst[0].m > 0))
    def test_every_method_matches_its_direct_call(self, instance):
        g, spec = instance
        peel = greedy_peel(g, spec)
        direct = {
            "fw": solve_fw(g, spec)[1:],
            "peel": (peel, None),
            "fw+peel": solve_fw(g, spec, x0=_indicator(peel, g.n))[1:],
            "lrbo": (lrbo_rank1(g, spec)[0], None),
            "oracle": (brute_force(g, spec)[0], None),
        }
        assert sorted(direct) == sorted(METHODS)
        weight = {}
        for method in METHODS:
            sel, trace = solve(g, spec, method)
            want_sel, want_trace = direct[method]
            np.testing.assert_array_equal(sel, want_sel, err_msg=method)
            assert is_feasible_binary(spec, sel), method
            if want_trace is None:
                assert trace is None, method
            else:
                assert isinstance(trace, FwTrace), method
                assert trace.iterations == want_trace.iterations, method
                assert trace.objective == want_trace.objective, method
                # cfg reaches the FW methods
                short = solve(g, spec, method, FwConfig(max_iters=1))[1]
                assert short.iterations == 1, method
            weight[method] = induced_weight(g, sel)
        # fw+peel starts FW at peel's set and FW and rounding never lose weight
        assert weight["fw+peel"] >= weight["peel"] * (1.0 - 1e-9)

    def test_unknown_method_raises(self):
        g, spec = make_instance(3, [(0, 1)], None, [0, 0, 0], 2, [0])
        with pytest.raises(ValueError, match=re.escape(repr(METHODS))):
            solve(g, spec, "nope")

    def test_readme_library_example(self, capsys):
        readme = (Path(__file__).resolve().parent.parent
                  / "README.md").read_text(encoding="utf-8")
        [block] = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
        exec(compile(block, "README.md", "exec"), {})
        assert capsys.readouterr().out.splitlines() == ["True", "1.0"]
