import numpy as np
import pytest

from vacdks import (
    AttributeAssignment,
    ConstraintError,
    ConstraintSpec,
    WeightedGraph,
    check_fractional,
    init_uniform,
    is_feasible_binary,
    is_feasible_fractional,
    lmo,
    round_to_integral,
    validate,
)
from vacdks.fw import objective_g

from conftest import (
    dense_g,
    enumerate_feasible,
    random_fractional,
    random_graph,
    random_spec,
)


def make_spec(labels, k, mins):
    attr = AttributeAssignment.from_labels(np.asarray(labels))
    return ConstraintSpec(k=k, mins=tuple(mins), attr=attr)


class TestValidate:
    def test_accepts_valid(self):
        validate(make_spec([0, 0, 1, 1], 3, [1, 1]))

    def test_rejects_oversubscribed_minimums(self):
        with pytest.raises(ConstraintError, match="exceeds k"):
            validate(make_spec([0, 0, 1, 1], 2, [2, 1]))

    def test_rejects_min_above_group_size(self):
        with pytest.raises(ConstraintError, match="out of range"):
            validate(make_spec([0, 0, 1], 3, [1, 2]))

    def test_rejects_bad_k(self):
        with pytest.raises(ConstraintError, match="k=5 out of range"):
            validate(make_spec([0, 1], 5, [0, 0]))

    def test_rejects_mins_length_mismatch(self):
        with pytest.raises(ConstraintError, match="group minimums"):
            validate(make_spec([0, 1], 2, [1]))

    def test_rejects_graph_size_mismatch(self):
        g = WeightedGraph.from_edges(5, [0], [1])
        with pytest.raises(ConstraintError, match="attributes cover"):
            validate(make_spec([0, 1, 0], 2, [1, 1]), graph=g)


class TestFeasibility:
    spec = make_spec([0, 0, 1, 1, 1], 3, [1, 1])

    def test_binary_feasible(self):
        assert is_feasible_binary(self.spec, [0, 2, 3])

    def test_binary_wrong_count(self):
        assert not is_feasible_binary(self.spec, [0, 1, 2, 3])

    def test_binary_group_violation(self):
        assert not is_feasible_binary(make_spec([0, 0, 1, 1, 1], 3, [2, 1]),
                                      [0, 2, 3])

    def test_binary_out_of_range(self):
        assert not is_feasible_binary(self.spec, [0, 2, 7])

    def test_binary_non_integer_ids(self):
        # truncation would read these as the feasible set [0, 2, 3]
        assert not is_feasible_binary(self.spec, [0.5, 2.2, 3.9])

    def test_fractional_feasible(self):
        assert is_feasible_fractional(self.spec, np.array([0.5, 0.5, 1, 0.5, 0.5]))

    def test_fractional_box_violation(self):
        with pytest.raises(ConstraintError, match="unit box"):
            check_fractional(self.spec, np.array([1.5, 0, 0.5, 1, 0]))

    def test_fractional_mass_violation(self):
        with pytest.raises(ConstraintError, match="mass"):
            check_fractional(self.spec, np.array([1.0, 0, 1, 0, 0]))

    def test_fractional_group_violation(self):
        with pytest.raises(ConstraintError, match="group 0"):
            check_fractional(self.spec, np.array([0.25, 0.25, 1, 1, 0.5]))

    @pytest.mark.parametrize("point", [
        [np.nan] * 5,
        [0.5, 0.5, 1, 0.5, np.nan],
        [0.5, 0.5, 1, np.inf, 0.5],
        [0.5, 0.5, -np.inf, 0.5, 0.5],
    ], ids=["all_nan", "one_nan", "inf", "neg_inf"])
    def test_fractional_non_finite(self, point):
        # NaN fails every comparison, so only an explicit check catches it
        with pytest.raises(ConstraintError, match="non-finite"):
            check_fractional(self.spec, np.array(point))
        assert not is_feasible_fractional(self.spec, np.array(point))


class TestInitUniform:
    def test_example_distribution(self):
        spec = make_spec([0, 0, 0, 0, 1, 1], 3, [1, 2])
        x = init_uniform(spec)
        assert is_feasible_fractional(spec, x)
        np.testing.assert_allclose(x[4:], 1.0)
        np.testing.assert_allclose(x[:4], 0.25)

    def test_no_minimums_is_k_over_n(self):
        spec = make_spec([0, 0, 1, 1], 2, [0, 0])
        np.testing.assert_allclose(init_uniform(spec), 0.5)

    def test_saturated_groups(self):
        spec = make_spec([0, 1, 1], 2, [1, 1])
        x = init_uniform(spec)
        assert is_feasible_fractional(spec, x)

    def test_random_specs_always_feasible(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 15))
            spec = random_spec(rng, n)
            x = init_uniform(spec)
            assert is_feasible_fractional(spec, x)
            assert abs(x.sum() - spec.k) < 1e-9 * spec.k


class TestLmo:
    def test_small_example(self):
        spec = make_spec([0, 0, 1, 1], 3, [1, 1])
        grad = np.array([5.0, 1.0, 4.0, 3.0])
        v = lmo(spec, grad)
        np.testing.assert_array_equal(v, [1, 0, 1, 1])

    def test_tie_break_lower_id(self):
        spec = make_spec([0, 0, 0, 0], 2, [0])
        v = lmo(spec, np.array([1.0, 1.0, 1.0, 1.0]))
        np.testing.assert_array_equal(v, [1, 1, 0, 0])

    def test_group_minimum_forces_weak_vertex(self):
        spec = make_spec([0, 0, 1, 1], 2, [0, 1])
        v = lmo(spec, np.array([9.0, 8.0, 1.0, 0.5]))
        np.testing.assert_array_equal(v, [1, 0, 1, 0])

    def test_matches_exhaustive_oracle(self, rng):
        for _ in range(60):
            n = int(rng.integers(3, 10))
            spec = random_spec(rng, n)
            grad = rng.normal(size=n)
            v = lmo(spec, grad)
            assert is_feasible_binary(spec, np.flatnonzero(v))
            best = max(grad[list(s)].sum() for s in enumerate_feasible(spec))
            assert grad @ v == pytest.approx(best, abs=1e-12)

    def test_output_is_binary_with_k_ones(self, rng):
        spec = random_spec(rng, 12)
        v = lmo(spec, rng.normal(size=12))
        assert set(np.unique(v)) <= {0.0, 1.0}
        assert v.sum() == spec.k


class TestRounding:
    def test_already_integral_is_fixed_point(self, rng):
        g = random_graph(rng, 8)
        spec = random_spec(rng, 8)
        x = lmo(spec, rng.normal(size=8))
        y = round_to_integral(g, spec, g.w_max, x)
        np.testing.assert_array_equal(x, y)

    def test_never_decreases_objective(self, rng):
        for _ in range(80):
            n = int(rng.integers(4, 14))
            g = random_graph(rng, n, min_edges=1)
            spec = random_spec(rng, n, k_min=2)
            x = random_fractional(rng, spec)
            lam = g.w_max * float(rng.uniform(1.0, 2.0))
            y = round_to_integral(g, spec, lam, x)
            assert is_feasible_binary(spec, np.flatnonzero(y > 0.5))
            assert dense_g(g, lam, y) >= dense_g(g, lam, x) - 1e-9

    def test_transfer_count_bounded_by_n(self, rng):
        for _ in range(40):
            n = int(rng.integers(4, 16))
            g = random_graph(rng, n)
            spec = random_spec(rng, n)
            x = random_fractional(rng, spec)
            y, transfers = round_to_integral(g, spec, g.w_max, x,
                                             return_transfers=True)
            assert is_feasible_binary(spec, np.flatnonzero(y > 0.5))
            assert transfers <= n

    def test_rejects_small_lambda(self, rng):
        g = random_graph(rng, 6, min_edges=1)
        spec = random_spec(rng, 6)
        x = init_uniform(spec)
        with pytest.raises(ConstraintError, match="diagonal loading"):
            round_to_integral(g, spec, g.w_max * 0.5, x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_lambda(self, rng, bad):
        g = random_graph(rng, 6, min_edges=1)
        spec = random_spec(rng, 6)
        with pytest.raises(ConstraintError, match="not finite"):
            round_to_integral(g, spec, bad, init_uniform(spec))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_point(self, rng, bad):
        g = random_graph(rng, 6, min_edges=1)
        spec = random_spec(rng, 6)
        x = init_uniform(spec)
        x[int(rng.integers(6))] = bad
        with pytest.raises(ConstraintError, match="non-finite"):
            round_to_integral(g, spec, g.w_max, x)

    def test_uniform_start_on_triangle_plus_isolated(self):
        g = WeightedGraph.from_edges(5, [0, 1, 0], [1, 2, 2])
        spec = make_spec([0, 0, 0, 1, 1], 3, [2, 1])
        x = init_uniform(spec)
        y = round_to_integral(g, spec, 1.0, x)
        assert is_feasible_binary(spec, np.flatnonzero(y > 0.5))
        # two triangle vertices plus one forced group-1 vertex is optimal
        assert objective_g(g, 1.0, y) == pytest.approx(2 * 1.0 + 3.0)


def test_lmo_weights_all_negative_still_selects_k(rng):
    spec = random_spec(rng, 9, k_min=2)
    v = lmo(spec, -np.abs(rng.normal(size=9)) - 1.0)
    assert is_feasible_binary(spec, np.flatnonzero(v))
