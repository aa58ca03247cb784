import warnings

import numpy as np
import pytest

from vacdks import (
    ConstraintError,
    FwConfig,
    PlantedCliqueConfig,
    brute_force,
    generate_planted_clique,
    induced_weight,
    is_feasible_binary,
    lipschitz_estimate,
    objective_g,
    solve_fw,
)
from vacdks.constraints import init_uniform

from conftest import (dense_g, random_fractional, random_graph, random_spec,
                      two_triangles)


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

    def test_warns_when_not_converged(self):
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


def _indicator(sel, n):
    x = np.zeros(n)
    x[sel] = 1.0
    return x


def test_edgeless_graph_solve(rng):
    g = random_graph(rng, 6, p=0.0)
    spec = random_spec(rng, 6, k_min=2)
    _, sel, _ = solve_fw(g, spec)
    assert len(sel) == spec.k
