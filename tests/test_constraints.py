import collections
import contextlib
import copy
import math
import pickle
import signal
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from vacdks import constraints
from vacdks.constraints import FRACTIONAL_TOL, SUM_TOL
from vacdks.fw import objective_g

from conftest import (
    _top_k_argsort,
    dense_g,
    enumerate_feasible,
    lmo_reference,
    random_fractional,
    random_graph,
    random_spec,
    small_instances,
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

    @pytest.mark.parametrize("k, mins, name", [
        (2.5, (1, 1), "k"),
        (3, (1.7, 1), "k_0"),
        (3, (float("nan"), 1), "k_0"),
    ], ids=["k=2.5", "k_0=1.7", "k_0=nan"])
    def test_rejects_non_integer_sizes(self, k, mins, name):
        with pytest.raises(ConstraintError, match=f"{name}=.* not an integer"):
            make_spec([0, 0, 1, 1], k, mins)

    def test_numpy_integer_sizes_accepted(self):
        spec = make_spec([0, 0, 1, 1], np.int64(3), np.array([1, 1]))
        validate(spec)
        assert spec.mins == (1, 1)
        assert all(type(ki) is int for ki in spec.mins)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_spec_arrays_are_read_only(self, dtype):
        """A spec is immutable like a graph: its labels and groups cannot
        be written, the caller's labels are copied, not frozen, and a
        pickled or deep-copied assignment is read-only too."""
        labels = np.array([0, 1, 0, 1], dtype=dtype)
        spec = make_spec(labels, 2, [1, 1])
        with pytest.raises(ValueError, match="read-only"):
            spec.attr.labels[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            spec.attr.groups[0][0] = 1
        assert labels.flags.writeable
        labels[0] = 1
        assert spec.attr.labels.tolist() == [0, 1, 0, 1]
        for attr in (pickle.loads(pickle.dumps(spec.attr)),
                     copy.deepcopy(spec.attr)):
            assert attr.labels.tolist() == [0, 1, 0, 1]
            assert attr.labels.dtype == np.int64
            assert not any(a.flags.writeable
                           for a in (attr.labels, *attr.groups))


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

    def test_fractional_wrong_shape(self):
        for point in (np.full(4, 0.75), np.full((5, 1), 0.6)):
            with pytest.raises(ConstraintError,
                               match=r"point has shape .*, expected \(5,\)"):
                check_fractional(self.spec, point)

    def test_fractional_mass_violation(self):
        with pytest.raises(ConstraintError, match="mass"):
            check_fractional(self.spec, np.array([1.0, 0, 1, 0, 0]))

    def test_mass_slack_stays_below_one_unit(self):
        # SUM_TOL * k reaches 1 at k = 10^6: all ones but one zero would pass
        # as mass k, and rounding would return 999 999 ones.
        n = 10**6
        g = WeightedGraph.from_edges(n, [], [])
        spec = make_spec(np.zeros(n, dtype=np.int64), n, [0])
        x = np.ones(n)
        x[0] = 0.0
        with pytest.raises(ConstraintError, match="mass"):
            round_to_integral(g, spec, g.w_max, x)

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


@st.composite
def lmo_instances(draw, max_n=24):
    """A spec plus a tie-heavy gradient.

    Group minimums are often 0 or the whole group, and k is often the sum
    of the minimums, which leaves nothing to the global top-up.
    """
    n = draw(st.integers(min_value=1, max_value=max_n))
    r = draw(st.integers(min_value=1, max_value=min(3, n)))
    labels = draw(st.lists(st.integers(min_value=0, max_value=r - 1),
                           min_size=n, max_size=n))
    attr = AttributeAssignment.from_labels(np.asarray(labels), r=r)
    mins = [draw(st.one_of(st.just(0), st.just(len(members)),
                           st.integers(min_value=0, max_value=len(members))))
            for members in attr.groups]
    low = max(sum(mins), 1)
    k = draw(st.one_of(st.just(low), st.integers(min_value=low, max_value=n)))
    entry = st.one_of(st.integers(min_value=-2, max_value=2).map(float),
                      st.sampled_from([-0.0, 0.0]),
                      st.floats(min_value=-4.0, max_value=4.0))
    grad = draw(st.lists(entry, min_size=n, max_size=n))
    return ConstraintSpec(k=k, mins=tuple(mins), attr=attr), np.array(grad)


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

    @settings(max_examples=300, deadline=None)
    @given(lmo_instances(max_n=10))
    def test_matches_exhaustive_oracle(self, instance):
        # fsum rounds each exact sum once, so equal sums compare equal
        spec, grad = instance
        v = lmo(spec, grad)
        assert is_feasible_binary(spec, np.flatnonzero(v))
        best = max(math.fsum(grad[s]) for s in enumerate_feasible(spec))
        assert math.fsum(grad[v == 1.0]) == best

    def test_output_is_binary_with_k_ones(self, rng):
        spec = random_spec(rng, 12)
        v = lmo(spec, rng.normal(size=12))
        assert set(np.unique(v)) <= {0.0, 1.0}
        assert v.sum() == spec.k


class TestLmoAgainstArgsort:
    def test_bit_exact(self):
        # lmo answers from the global top-k when it meets every minimum and
        # otherwise selects only the groups it leaves short, one partition
        # each; both must run over the draws.
        branches = collections.Counter()

        @settings(max_examples=400, deadline=None)
        @given(lmo_instances())
        # -0.0 and 0.0 tie: the lower id wins whichever sign it carries
        @example((make_spec([0, 0, 0], 1, [0]), np.array([-0.0, 0.0, -1.0])))
        @example((make_spec([0, 0, 0], 1, [0]), np.array([0.0, -0.0, -1.0])))
        # ties straddle the cut, inside a group and in the top-up
        @example((make_spec([0, 1, 0, 1, 0, 1], 4, [1, 1]),
                  np.array([1.0, 1.0, 1.0, 1.0, 1.0, 2.0])))
        # the global top-k misses a group minimum by one vertex
        @example((make_spec([0, 0, 0, 1, 1, 1], 3, [1, 1]),
                  np.array([5.0, 4.0, 3.0, 1.0, 0.0, -1.0])))
        @example((make_spec([0, 0, 0, 1, 1, 1], 4, [2, 2]),
                  np.array([5.0, 4.0, 3.0, 2.0, 1.0, 0.0])))
        # ties straddle the cut across groups: the lower ids meet the
        # minimums in the first, and miss group 0's in the second
        @example((make_spec([1, 0, 1, 0, 1, 0], 3, [1, 1]),
                  np.array([2.0, 1.0, 1.0, 1.0, 1.0, 0.0])))
        @example((make_spec([1, 1, 0, 0], 2, [1, 1]),
                  np.array([1.0, 1.0, 1.0, 1.0])))
        # two groups short, and the third's surplus in T is cut back to the
        # top-up: its first k - sum(k_i) members of T stay, in T's order
        @example((make_spec([0, 1, 2, 2, 0, 2, 1, 2, 2], 5, [1, 1, 1]),
                  np.array([0.0, 0.5, 9.0, 8.0, 1.0, 7.0, -1.0, 6.0, 5.0])))
        # a short group whose members tie with its T members at the cut
        @example((make_spec([0, 1, 0, 1, 1, 0], 3, [2, 1]),
                  np.array([3.0, 3.0, 1.0, 2.0, 2.0, 1.0])))
        def check(instance):
            spec, grad = instance
            with mock.patch.object(constraints, "_top_k",
                                   wraps=constraints._top_k) as spy:
                v = lmo(spec, grad)
            top = _top_k_argsort(grad, np.arange(spec.n), spec.k)
            short = np.bincount(spec.attr.labels[top],
                                minlength=spec.attr.r) < spec.mins
            assert spy.call_count == 1 + np.count_nonzero(short)
            branches["groups" if short.any() else "global"] += 1
            np.testing.assert_array_equal(v, lmo_reference(spec, grad))

        check()
        assert branches["global"] and branches["groups"], branches


# The rounding as it was before transfers kept a shrinking fractional set:
# it rescans the group, or all n vertices, before every transfer. It is
# correct on points with no entry within FRACTIONAL_TOL of {0, 1} but off it.
def _snap(x: np.ndarray) -> None:
    near_zero = x < FRACTIONAL_TOL
    near_one = x > 1.0 - FRACTIONAL_TOL
    x[near_zero] = 0.0
    x[near_one] = 1.0


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
    for v, dv in ((j, delta), (l, -delta)):
        row = slice(adj.indptr[v], adj.indptr[v + 1])
        s[adj.indices[row]] += dv * adj.data[row]
        if x[v] < FRACTIONAL_TOL:
            x[v] = 0.0
        elif x[v] > 1.0 - FRACTIONAL_TOL:
            x[v] = 1.0


def round_reference(graph: WeightedGraph, spec: ConstraintSpec, lam, x,
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

    # Within each group first, then across all vertices; after the last
    # pass ``frac`` holds the fractional entries left anywhere.
    for members in (*spec.attr.groups, np.arange(graph.n)):
        while True:
            frac = members[(x[members] > 0.0) & (x[members] < 1.0)]
            if len(frac) < 2:
                break
            _transfer(graph.adj, lam, x, s, frac)
            transfers += 1

    if len(frac) == 1:
        # Input sum may sit within SUM_TOL of k; the drift ends up in one
        # entry, which must then be within that slack of an integer.
        v = int(frac[0])
        nearest = float(round(x[v]))
        if abs(x[v] - nearest) > SUM_TOL * max(1, spec.k):
            raise AssertionError(
                f"lone fractional entry {x[v]} cannot be snapped")
        x[v] = nearest
    out = (x > 0.5).astype(np.float64)
    if int(out.sum()) != spec.k:
        raise AssertionError("rounded point does not have exactly k ones")
    if return_transfers:
        return out, transfers
    return out


@st.composite
def rounding_instances(draw):
    """A small instance, a loading lam >= w_max and a feasible point.

    The point is a convex combination, with integer weights, of LMO vertices
    along tie-heavy directions and, when drawn, ``init_uniform``. Its entries
    are 0, 1 or far from both, so rounding drops no mass when it snaps.
    """
    graph, spec = draw(small_instances())
    direction = st.lists(st.integers(min_value=-2, max_value=2).map(float),
                         min_size=spec.n, max_size=spec.n)
    atoms = [lmo(spec, np.array(d))
             for d in draw(st.lists(direction, min_size=1, max_size=4))]
    if draw(st.booleans()):
        atoms.append(init_uniform(spec))
    weights = draw(st.lists(st.integers(min_value=1, max_value=100),
                            min_size=len(atoms), max_size=len(atoms)))
    x = sum(w * a for w, a in zip(weights, atoms)) / sum(weights)
    lam = graph.w_max * draw(st.sampled_from([1.0, 1.5, 2.0]))
    return graph, spec, lam, x


@contextlib.contextmanager
def _time_limit(seconds):
    """Fail the test if the block is still running after ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except TimeoutError:
        pytest.fail(f"no result within {seconds} s", pytrace=False)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestRoundingAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(rounding_instances())
    # uniform start on a triangle plus two isolated vertices: key ties
    @example((WeightedGraph.from_edges(5, [0, 1, 0], [1, 2, 2]),
              make_spec([0, 0, 0, 1, 1], 3, [2, 1]), 1.0,
              np.array([2 / 3, 2 / 3, 2 / 3, 0.5, 0.5])))
    def test_same_transfers_and_result(self, instance):
        graph, spec, lam, x = instance
        with _time_limit(2):  # a loop that makes no progress fails here
            y, transfers = round_to_integral(graph, spec, lam, x,
                                             return_transfers=True)
        y_ref, transfers_ref = round_reference(graph, spec, lam, x,
                                               return_transfers=True)
        assert y.dtype == y_ref.dtype
        assert y.tobytes() == y_ref.tobytes(), (y, y_ref)
        assert transfers == transfers_ref
        assert is_feasible_binary(spec, np.flatnonzero(y))
        g_in = dense_g(graph, lam, x)
        assert dense_g(graph, lam, y) >= g_in - 1e-9 * abs(g_in)
        assert transfers <= spec.n


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

    def test_lone_entry_far_from_integer_takes_the_missing_mass(self):
        # The snap drops 4998 * 9e-10 of mass, which leaves vertex 1 at
        # 1 - 3e-6 as the last fractional entry: more than SUM_TOL * k from 1.
        n = 5000
        g = WeightedGraph.from_edges(n, [0], [1])
        spec = make_spec(np.zeros(n, dtype=np.int64), 2, [0])
        x = np.full(n, 9e-10)
        x[0], x[1] = 1.0, 1.0 - 3e-6
        check_fractional(spec, x)
        y = round_to_integral(g, spec, g.w_max, x)
        assert np.flatnonzero(y).tolist() == [0, 1]

    def test_group_short_by_snapped_mass_keeps_its_minimum(self):
        # Group 0 holds its one unit as 1 - 1e-5 on vertex 0 plus 11 000
        # entries of 9.5e-10 that the snap drops; vertex 15 000, whose
        # neighbours are all at 1, would draw vertex 0's mass across groups.
        n = 30_000
        g = WeightedGraph.from_edges(n, [15_000] * 9, range(15_001, 15_010))
        spec = make_spec(np.repeat([0, 1], 15_000), 10, [1, 0])
        x = np.zeros(n)
        x[0], x[1:11_001], x[15_000] = 1.0 - 1e-5, 9.5e-10, 5e-6
        x[15_001:15_010] = 1.0
        check_fractional(spec, x)
        y = round_to_integral(g, spec, g.w_max, x)
        assert is_feasible_binary(spec, np.flatnonzero(y))
        assert np.flatnonzero(y).tolist() == [0, *range(15_001, 15_010)]


def test_lmo_weights_all_negative_still_selects_k(rng):
    spec = random_spec(rng, 9, k_min=2)
    v = lmo(spec, -np.abs(rng.normal(size=9)) - 1.0)
    assert is_feasible_binary(spec, np.flatnonzero(v))
