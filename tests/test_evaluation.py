import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bugloc.errors import ValidationError
from bugloc.evaluation import (
    EvalConfig,
    EvalContext,
    ap_table,
    average_precision_at_k,
    default_alpha_grid,
    evaluate_methods,
    mean_average_precision,
    paired_t_test,
    sweep_alpha,
    t_test_p_value,
)
from rankref import reference_rank

# Hand-checked average-precision values for fixed ranked lists, computed
# independently with exact rational arithmetic and frozen here.
# Each entry is (ranking, relevant, k, expected AP@k).
AP_FIXTURES = [
    (["r1", "x1", "r2", "x2"], ["r1", "r2"], 10, 0.8333333333333334),
    (["r1", "x1", "r2", "x2"], ["r1", "r2"], 1, 0.5),
    (["r1", "x1", "r2", "x2"], ["r1", "r2"], 3, 0.8333333333333334),
    (["x1", "x2", "x3"], ["r1"], 5, 0.0),
    (["r1"], ["r1", "r2"], 1, 0.5),
    (["r1", "r2", "r3"], ["r1", "r2", "r3"], 3, 1.0),
    (["x1", "r1"], ["r1"], 2, 0.5),
    (["r1", "x1", "x2", "r2", "r3"], ["r1", "r2", "r3"], 5, 0.7),
    (["r1", "x1", "x2", "r2", "r3"], ["r1", "r2", "r3"], 4, 0.5),
    (["r1", "x1"], ["r1", "r2"], 10, 0.5),
    ([], ["r1"], 5, 0.0),
    (["x1", "x2", "r1", "r2", "r3", "x3", "r4"], ["r1", "r2", "r3", "r4"], 7, 0.5011904761904762),
    (["f4", "f0", "f3", "f5", "f1", "f2", "f6"], ["f0", "f4"], 6, 1.0),
    (["f1", "f2", "f0"], ["f0", "f1", "f2", "g0", "g1"], 10, 0.6),
    (["f1", "f2", "f6", "f4", "f9", "f8", "f3", "f5", "f7", "f0"], ["f2", "f8", "g0", "g1"], 6, 0.20833333333333334),
    (["f3", "f5", "f0", "f2", "f1", "f4"], ["f4", "f5", "g0", "g1"], 3, 0.125),
    (["f2", "f0", "f7", "f3", "f1", "f5", "f6", "f4"], ["f0", "f1", "f3", "f4", "f5", "f6", "f7"], 2, 0.07142857142857142),
    (["f1", "f5", "f2", "f3", "f0", "f4", "f6"], ["f0", "f2", "f3", "f4", "f5", "f6", "g0"], 12, 0.6295918367346939),
    (["f0", "f1", "f3", "f5", "f4", "f2"], ["f0", "f1", "f2", "f3", "f4", "f5", "g0"], 12, 0.8571428571428571),
    (["f3", "f4", "f6", "f7", "f1", "f8", "f2", "f0", "f5"], ["f1", "f5"], 9, 0.2111111111111111),
    (["f3", "f0", "f1", "f2"], ["f0", "f1", "f2", "f3", "g0", "g1"], 5, 0.6666666666666666),
    (["f0", "f2", "f4", "f1", "f3"], ["f1", "g0", "g1"], 5, 0.08333333333333333),
    (["f7", "f6", "f0", "f3", "f5", "f2", "f1", "f8", "f4"], ["f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7", "g0", "g1"], 11, 0.7888888888888889),
    (["f1", "f0", "f2"], ["f0", "f1", "f2", "g0", "g1"], 2, 0.4),
]


class TestAveragePrecision:
    @pytest.mark.parametrize("ranking,relevant,k,expected", AP_FIXTURES)
    def test_frozen_fixtures(self, ranking, relevant, k, expected):
        value = average_precision_at_k(ranking, set(relevant), k)
        assert abs(value - expected) <= 1e-12

    def test_empty_relevant_warns_and_scores_zero(self):
        with pytest.warns(UserWarning, match="exclude"):
            assert average_precision_at_k(["a"], set(), 5) == 0.0

    def test_bad_k_rejected(self):
        with pytest.raises(ValidationError):
            average_precision_at_k(["a"], {"a"}, 0)

    @given(
        st.permutations([f"f{i}" for i in range(8)]),
        st.sets(st.sampled_from([f"f{i}" for i in range(8)]), min_size=1, max_size=8),
    )
    def test_monotone_in_k(self, ranking, relevant):
        values = [average_precision_at_k(ranking, relevant, k) for k in (1, 3, 5, 8, 20)]
        for lo, hi in zip(values, values[1:]):
            assert lo <= hi + 1e-12


class TestMeanAveragePrecision:
    def test_arithmetic_mean(self):
        assert mean_average_precision([0.5, 1.0]) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            mean_average_precision([])


class TestPairedTTest:
    def test_known_t_statistic(self):
        result = paired_t_test([0.1, 0.2, 0.3], [0.0, 0.0, 0.0])
        assert abs(result.t_statistic - 3.4641016151377544) < 1e-3
        assert not result.degenerate
        # with n=3 this t is not significant at 95%
        assert not result.significant
        assert 0.07 < result.p_value < 0.08

    def test_antisymmetric(self):
        a, b = [0.4, 0.6, 0.9, 0.1], [0.3, 0.7, 0.5, 0.2]
        fwd = paired_t_test(a, b)
        rev = paired_t_test(b, a)
        assert fwd.t_statistic == pytest.approx(-rev.t_statistic, abs=1e-12)
        assert fwd.p_value == pytest.approx(rev.p_value, abs=1e-12)

    def test_large_consistent_difference_is_significant(self):
        a = [0.9, 0.8, 0.85, 0.95, 0.9, 0.88]
        b = [0.1, 0.15, 0.2, 0.1, 0.12, 0.18]
        result = paired_t_test(a, b)
        assert result.significant and result.t_statistic > 0

    def test_identical_lists_are_degenerate_zero(self):
        result = paired_t_test([0.5, 0.5, 0.7], [0.5, 0.5, 0.7])
        assert result.degenerate
        assert result.t_statistic == 0.0
        assert not result.significant
        assert math.isnan(result.p_value)

    def test_constant_nonzero_difference_is_degenerate_infinite(self):
        # differences of 0.5 are exact in binary floating point
        result = paired_t_test([1.0, 1.5, 2.0], [0.5, 1.0, 1.5])
        assert result.degenerate
        assert result.t_statistic == math.inf
        assert not result.significant

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="length"):
            paired_t_test([0.1], [0.1, 0.2])

    def test_too_few_pairs_rejected(self):
        with pytest.raises(ValidationError, match="2 pairs"):
            paired_t_test([0.1], [0.2])

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 30, 200])
    @pytest.mark.parametrize("shift", [0.0, 0.01, 0.1, 0.5, -2.0])
    def test_p_value_is_the_t_distributions_two_sided_tail(self, n, shift):
        from scipy import stats

        rng = np.random.default_rng(n)
        a = rng.random(n).tolist()
        b = (rng.random(n) + shift).tolist()
        result = paired_t_test(a, b)
        expected = 2.0 * float(stats.t.sf(abs(result.t_statistic), n - 1))
        # the series and scipy round apart by a few ulps; ttests.csv prints 6 decimals
        assert f"{result.p_value:.6f}" == f"{expected:.6f}"
        assert result.significant == (expected < 0.05)
        assert abs(result.p_value - expected) < 1e-12

    @settings(max_examples=1000)
    @given(
        st.integers(1, 5000),
        st.one_of(st.floats(0.0, 10.0), st.floats(0.0, 60.0), st.floats(0.0, 1e6)),
    )
    @example(df=1, t=0.0)
    @example(df=2, t=1e300)
    @example(df=5000, t=40.0)
    def test_p_value_prints_and_decides_as_stdtr(self, df, t):
        # stdtr itself is off by up to 5e-9 at df 1 and t near 1e-9, so only
        # what ttests.csv shows is compared: six decimals and significance
        from scipy.special import stdtr

        p = t_test_p_value(t, df)
        expected = 2.0 * float(stdtr(df, -t))
        assert p >= 0.0
        assert f"{p:.6f}" == f"{expected:.6f}"
        assert (p < 0.05) == (expected < 0.05)


class TestEvalConfig:
    def test_unsorted_alpha_grid_rejected(self):
        with pytest.raises(ValidationError, match="ascending"):
            EvalConfig(alpha_grid=(0.5, 0.0, 1.0))

    def test_duplicated_alpha_grid_rejected(self):
        with pytest.raises(ValidationError, match="ascending"):
            EvalConfig(alpha_grid=(0.0, 0.5, 0.5, 1.0))

    def test_default_grid_spans_unit_interval(self):
        grid = default_alpha_grid()
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert len(grid) == 21

    def test_validation(self):
        with pytest.raises(ValidationError):
            EvalConfig(ks=(5, 1))
        with pytest.raises(ValidationError):
            EvalConfig(ks=())
        with pytest.raises(ValidationError):
            EvalConfig(alpha_grid=(0.0, 1.5))
        with pytest.raises(ValidationError):
            EvalConfig(methods=("bow", "psychic"))


def _toy_context():
    """bow ranks the wrong file first; the netreg component fixes it."""
    return EvalContext(
        dataset_name="toy",
        query_ids=["q1", "q2"],
        universe=("f1", "f2", "f3"),
        relevant=np.array([[True, False, False], [False, True, False]]),
        bow=np.array([[0.0, 0.0, 1.0], [0.0, 0.2, 1.0]]),
        learned={"netreg": np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])},
        excluded=["q0"],
    )


def _reference_table(ctx, config):
    """ap_table computed one query at a time with the dict reference rule."""
    table = {}
    zeros = np.zeros_like(ctx.bow)
    for method in config.methods:
        grid = (0.0,) if method == "bow" else config.alpha_grid
        learned = ctx.learned.get(method, zeros)
        for alpha in grid:
            for row in range(len(ctx.query_ids)):
                ranking = [
                    path
                    for path, _ in reference_rank(
                        dict(zip(ctx.universe, ctx.bow[row].tolist())),
                        dict(zip(ctx.universe, learned[row].tolist())),
                        alpha,
                        max(config.ks),
                    )
                ]
                relevant = {p for p, hit in zip(ctx.universe, ctx.relevant[row]) if hit}
                for k in config.ks:
                    ap = average_precision_at_k(ranking, relevant, k)
                    table.setdefault((method, alpha, k), []).append(ap)
    return table


# few distinct values, so ties and constant rows are common
SCORE = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0]),
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
)


@st.composite
def contexts(draw):
    num_queries = draw(st.integers(1, 4))
    num_files = draw(st.integers(1, 6))
    shape = (num_queries, num_files)

    def matrix():
        cells = st.lists(SCORE, min_size=num_files, max_size=num_files)
        return np.array(draw(st.lists(cells, min_size=num_queries, max_size=num_queries)))

    relevant = np.zeros(shape, dtype=bool)
    for row in range(num_queries):
        hits = draw(st.sets(st.integers(0, num_files - 1), min_size=1))
        relevant[row, sorted(hits)] = True
    return EvalContext(
        dataset_name="random",
        query_ids=[f"q{i}" for i in range(num_queries)],
        universe=tuple(f"f{j}" for j in range(num_files)),
        relevant=relevant,
        bow=matrix(),
        learned={"netreg": matrix(), "embedding": matrix()},
    )


class TestApTable:
    CONFIG = EvalConfig(
        ks=(1, 3, 8), alpha_grid=(0.0, 0.25, 0.5, 0.7, 1.0), methods=("bow", "embedding", "netreg")
    )

    @given(contexts())
    def test_matches_a_per_query_reference_loop(self, ctx):
        table = ap_table(ctx, self.CONFIG)
        reference = _reference_table(ctx, self.CONFIG)
        assert table.keys() == reference.keys()
        for key, aps in reference.items():
            assert table[key].tolist() == aps, key

    def test_query_without_relevant_file_rejected(self):
        ctx = _toy_context()
        ctx.relevant[1] = False
        with pytest.raises(ValidationError, match="relevant"):
            ap_table(ctx, EvalConfig(methods=("bow", "netreg")))


class TestEvaluateMethods:
    CONFIG = EvalConfig(ks=(1, 2), alpha_grid=(0.0, 0.5, 1.0), methods=("bow", "netreg"))

    def test_row_layout_and_pinned_bow_alpha(self):
        result = evaluate_methods(_toy_context(), self.CONFIG)
        assert [(r.method, r.k) for r in result.rows] == [
            ("bow", 1), ("bow", 2), ("netreg", 1), ("netreg", 2),
        ]
        for row in result.rows:
            assert row.dataset == "toy"
            assert row.num_queries == 2
            if row.method == "bow":
                assert row.alpha == 0.0

    def test_best_alpha_ties_go_to_the_smallest(self):
        # alpha 0.5 and 1.0 both rank the relevant file first (0.5 ties on
        # score, ascending-path order resolves it), so 0.5 must win
        result = evaluate_methods(_toy_context(), self.CONFIG)
        by = {(r.method, r.k): r for r in result.rows}
        assert by[("netreg", 1)].alpha == 0.5
        assert by[("netreg", 1)].map_value == 1.0
        assert by[("bow", 1)].map_value == 0.0

    def test_per_query_ap_aligned_with_queries(self):
        ctx = _toy_context()
        result = evaluate_methods(ctx, self.CONFIG)
        alpha, aps = result.per_query_ap[("netreg", 1)]
        assert alpha == 0.5
        assert list(zip(ctx.query_ids, aps, strict=True)) == [("q1", 1.0), ("q2", 1.0)]

    @given(contexts())
    def test_best_alpha_rows_are_the_first_sweep_maximum(self, ctx):
        config = TestApTable.CONFIG
        result = evaluate_methods(ctx, config)
        assert result.sweep == sweep_alpha(ctx, config)
        for row in result.rows:
            cells = [r for r in result.sweep if (r.method, r.k) == (row.method, row.k)]
            best = max(r.map_value for r in cells)
            assert row.map_value == best
            assert row.alpha == next(r.alpha for r in cells if r.map_value == best)

    def test_empty_context_rejected(self):
        ctx = _toy_context()
        ctx.query_ids = []
        with pytest.raises(ValidationError):
            evaluate_methods(ctx, self.CONFIG)


class TestSweepAlpha:
    CONFIG = EvalConfig(ks=(1, 2), alpha_grid=(0.0, 0.5, 1.0), methods=("bow", "netreg"))

    def test_full_grid_emitted(self):
        rows = sweep_alpha(_toy_context(), self.CONFIG)
        assert len(rows) == 2 * 3 * 2  # methods x alphas x ks

    def test_bow_rows_flat_across_grid(self):
        rows = sweep_alpha(_toy_context(), self.CONFIG)
        bow_rows = [r for r in rows if r.method == "bow" and r.k == 1]
        assert len({r.map_value for r in bow_rows}) == 1
        assert [r.alpha for r in bow_rows] == [0.0, 0.5, 1.0]

    def test_alpha_zero_rows_match_bow_exactly(self):
        rows = sweep_alpha(_toy_context(), self.CONFIG)
        by = {(r.method, r.alpha, r.k): r.map_value for r in rows}
        for k in (1, 2):
            assert by[("netreg", 0.0, k)] == by[("bow", 0.0, k)]
