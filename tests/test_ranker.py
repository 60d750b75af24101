import logging
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bugloc.corpus import BowVector, build_vocabulary
from bugloc.embeddings import EmbeddingTable
from bugloc.errors import ValidationError
from bugloc.network import TypedNode
from bugloc.ranker import (
    bow_file_scores,
    build_bow_index,
    combine_and_rank,
    cosine_bow,
    file_cosines,
    minmax_rows,
    netreg_file_scores,
)
from bugloc.regularizer import RepresentationModel
from rankref import reference_rank


def cosine(a, b):
    """file_cosines for a single file row."""
    return file_cosines(a, b[None, :])[0]


def bow_scores(query, train_bows, fix_links, universe, num_terms=9):
    """bow_file_scores of one query, keyed by path."""
    index = build_bow_index(train_bows, fix_links, universe, num_terms)
    return dict(zip(universe, bow_file_scores([query], index)[0].tolist()))


class TestCosine:
    def test_known_angle(self):
        value = cosine(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        assert abs(value - 1.0 / math.sqrt(2.0)) < 1e-12

    def test_zero_norm_scores_zero(self):
        assert cosine(np.zeros(2), np.array([1.0, 1.0])) == 0.0
        assert cosine(np.array([1.0, 1.0]), np.zeros(2)) == 0.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="mismatch"):
            cosine(np.zeros(2), np.zeros(3))

    @given(
        st.lists(st.floats(min_value=-10, max_value=10), min_size=3, max_size=3),
        st.floats(min_value=0.1, max_value=50.0),
    )
    def test_scale_invariant(self, values, scale):
        a = np.array(values)
        b = np.array([1.0, 2.0, -1.0])
        assert abs(cosine(a * scale, b) - cosine(a, b)) < 1e-9


class TestCosineBow:
    def test_matches_dense_cosine(self):
        a = BowVector({0: 1.0, 3: 2.0})
        b = BowVector({0: 2.0, 1: 5.0, 3: 1.0})
        dense_a = np.array([1.0, 0.0, 0.0, 2.0])
        dense_b = np.array([2.0, 5.0, 0.0, 1.0])
        assert abs(cosine_bow(a, b) - cosine(dense_a, dense_b)) < 1e-12

    def test_empty_vector_scores_zero(self):
        assert cosine_bow(BowVector({}), BowVector({0: 1.0})) == 0.0

    def test_disjoint_supports_score_zero(self):
        assert cosine_bow(BowVector({0: 1.0}), BowVector({1: 1.0})) == 0.0

    @given(
        st.dictionaries(st.integers(0, 8), st.floats(min_value=0.01, max_value=9.0), max_size=8),
        st.dictionaries(st.integers(0, 8), st.floats(min_value=0.01, max_value=9.0), max_size=8),
    )
    def test_agrees_with_dense_arithmetic(self, ea, eb):
        a, b = BowVector(ea), BowVector(eb)
        dense_a = np.zeros(9)
        dense_b = np.zeros(9)
        for i, w in ea.items():
            dense_a[i] = w
        for i, w in eb.items():
            dense_b[i] = w
        assert abs(cosine_bow(a, b) - cosine(dense_a, dense_b)) < 1e-12


BOWS = st.dictionaries(
    st.integers(0, 8), st.floats(min_value=0.01, max_value=9.0), max_size=5
).map(BowVector)
# "gone" is fixed by reports but lies outside the universe
LINKED = ["a", "b", "c", "gone"]


class TestBowFileScores:
    # cos(q, r1) = 0.8 and cos(q, r2) = 0.6 by construction
    Q = BowVector({0: 1.0})
    R1 = BowVector({0: 0.8, 1: 0.6})
    R2 = BowVector({0: 0.6, 1: 0.8})

    def test_similarity_split_across_fixed_files(self):
        scores = bow_scores(
            self.Q,
            {"r1": self.R1},
            {"r1": ["s1", "s2"]},
            ["s1", "s2", "s3"],
        )
        assert scores["s1"] == pytest.approx(0.4, abs=1e-12)
        assert scores["s2"] == pytest.approx(0.4, abs=1e-12)
        assert scores["s3"] == 0.0

    def test_contributions_accumulate(self):
        scores = bow_scores(
            self.Q,
            {"r1": self.R1, "r2": self.R2},
            {"r1": ["s1", "s2"], "r2": ["s1"]},
            ["s1", "s2", "s3"],
        )
        assert scores["s1"] == pytest.approx(1.0, abs=1e-12)
        assert scores["s2"] == pytest.approx(0.4, abs=1e-12)

    def test_fix_links_outside_universe_still_dilute(self):
        scores = bow_scores(
            self.Q, {"r1": self.R1}, {"r1": ["s1", "gone"]}, ["s1"]
        )
        assert scores == {"s1": pytest.approx(0.4, abs=1e-12)}

    def test_reports_without_fixes_contribute_nothing(self):
        scores = bow_scores(self.Q, {"r1": self.R1}, {}, ["s1"])
        assert scores == {"s1": 0.0}

    @given(
        st.lists(BOWS, min_size=1, max_size=4),
        st.lists(
            st.tuples(BOWS, st.lists(st.sampled_from(LINKED), max_size=3, unique=True)),
            min_size=1,
            max_size=6,
        ),
    )
    def test_batch_matches_a_per_report_loop(self, queries, train):
        universe = ["a", "b", "c"]
        train_bows = {f"r{i}": bow for i, (bow, _) in enumerate(train)}
        fix_links = {f"r{i}": files for i, (_, files) in enumerate(train)}
        index = build_bow_index(train_bows, fix_links, universe, 9)
        batch = bow_file_scores(queries, index)
        assert batch.shape == (len(queries), len(universe))
        for query, row in zip(queries, batch):
            expected = dict.fromkeys(universe, 0.0)
            for rid, bow in train_bows.items():
                files = fix_links[rid]
                for path in files:
                    if path in expected:
                        expected[path] += cosine_bow(query, bow) / len(files)
            assert np.allclose(row, [expected[p] for p in universe], rtol=1e-12, atol=0.0)

    def test_orthogonal_query_scores_zero(self):
        scores = bow_scores(
            BowVector({5: 1.0}), {"r1": self.R1}, {"r1": ["s1"]}, ["s1"]
        )
        assert scores == {"s1": 0.0}


def _model_and_table():
    table = EmbeddingTable(2, {"socket": np.array([1.0, 0.0])})
    model = RepresentationModel(
        nodes=(
            TypedNode("B", "B-1"),
            TypedNode("S", "a.java"),
            TypedNode("S", "b.java"),
            TypedNode("T", "socket"),
        ),
        matrix=np.array([[0.5, 0.5], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]),
        clamped=frozenset({TypedNode("T", "socket")}),
    )
    vocab = build_vocabulary([["socket", "leak"], ["leak"]])
    return model, table, vocab


def netreg_scores(tokens, model, table, vocab):
    """netreg_file_scores keyed by the model's file paths."""
    paths = [node.key for node in model.nodes if node.kind == "S"]
    return dict(zip(paths, netreg_file_scores(tokens, model, table, vocab).tolist()))


class TestNetregFileScores:
    def test_scores_are_cosines_to_file_vectors(self):
        model, table, vocab = _model_and_table()
        scores = netreg_scores(["socket"], model, table, vocab)
        assert set(scores) == {"a.java", "b.java"}
        assert scores["a.java"] == pytest.approx(1.0, abs=1e-12)
        assert scores["b.java"] == pytest.approx(0.0, abs=1e-12)

    def test_vocabulary_unknown_tokens_weigh_zero(self):
        model, table, vocab = _model_and_table()
        with_unknown = netreg_scores(["socket", "mystery"], model, table, vocab)
        base = netreg_scores(["socket"], model, table, vocab)
        assert with_unknown == base

    def test_zero_embedding_query_warns_and_zeroes(self, caplog):
        model, table, vocab = _model_and_table()
        with caplog.at_level(logging.WARNING, logger="bugloc.ranker"):
            scores = netreg_scores(["mystery"], model, table, vocab)
        assert scores == {"a.java": 0.0, "b.java": 0.0}
        assert "zero vector" in caplog.text


class TestMinmaxRows:
    def test_scales_to_unit_interval(self):
        assert minmax_rows(np.array([2.0, 1.0, 0.0])).tolist() == [1.0, 0.5, 0.0]

    def test_constant_row_goes_to_zero(self):
        out = minmax_rows(np.array([[3.0, 3.0], [1.0, 2.0]]))
        assert out.tolist() == [[0.0, 0.0], [0.0, 1.0]]


# few distinct values, so ties and constant maps are common
SCORE = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0]),
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
)


@st.composite
def score_maps(draw):
    """Two score maps over one set of paths, each inserted in its own order."""
    paths = draw(st.lists(st.sampled_from(["a", "b/c", "b", "z", "m.java", "a0"]),
                          min_size=1, max_size=6, unique=True))

    def scores():
        if draw(st.booleans()):
            return [draw(SCORE)] * len(paths)
        return draw(st.lists(SCORE, min_size=len(paths), max_size=len(paths)))

    bow = dict(zip(paths, scores()))
    model = dict(zip(draw(st.permutations(paths)), scores()))
    return bow, model


class TestCombineAndRank:
    BOW = {"a": 2.0, "b": 1.0, "c": 0.0}
    MODEL = {"a": 0.0, "b": 1.0, "c": 0.5}

    def test_blend_arithmetic(self):
        result = combine_and_rank(self.BOW, self.MODEL, alpha=0.2, k=3, query_id="q")
        assert result.query_id == "q"
        assert result.paths() == ["a", "b", "c"]
        scores = dict(result.ranking)
        assert scores["a"] == pytest.approx(0.8, abs=1e-12)
        assert scores["b"] == pytest.approx(0.6, abs=1e-12)
        assert scores["c"] == pytest.approx(0.1, abs=1e-12)

    def test_k_truncates(self):
        result = combine_and_rank(self.BOW, self.MODEL, alpha=0.2, k=2)
        assert result.paths() == ["a", "b"]

    def test_alpha_one_uses_model_only(self):
        result = combine_and_rank(self.BOW, self.MODEL, alpha=1.0, k=3)
        assert result.paths() == ["b", "c", "a"]

    def test_alpha_zero_matches_bow_order(self):
        result = combine_and_rank(self.BOW, self.MODEL, alpha=0.0, k=3)
        assert result.paths() == ["a", "b", "c"]

    def test_ties_break_by_ascending_path(self):
        bow = {"z": 1.0, "m": 1.0, "a": 1.0}
        result = combine_and_rank(bow, dict(bow), alpha=0.5, k=3)
        assert result.paths() == ["a", "m", "z"]

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(ValidationError, match="alpha"):
            combine_and_rank(self.BOW, self.MODEL, alpha=-0.1, k=1)
        with pytest.raises(ValidationError, match="alpha"):
            combine_and_rank(self.BOW, self.MODEL, alpha=1.1, k=1)

    def test_bad_k_rejected(self):
        with pytest.raises(ValidationError, match="k"):
            combine_and_rank(self.BOW, self.MODEL, alpha=0.5, k=0)

    def test_mismatched_universes_rejected(self):
        with pytest.raises(ValidationError, match="universe"):
            combine_and_rank({"a": 1.0}, {"b": 1.0}, alpha=0.5, k=1)

    def test_empty_maps_give_an_empty_ranking(self):
        result = combine_and_rank({}, {}, alpha=0.5, k=3, query_id="q")
        assert result.query_id == "q"
        assert result.ranking == []

    @given(
        score_maps(),
        st.one_of(st.sampled_from([0.0, 0.2, 0.5, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
        st.integers(min_value=1, max_value=8),
    )
    def test_matches_the_dict_reference_exactly(self, maps, alpha, k):
        bow, model = maps
        result = combine_and_rank(bow, model, alpha=alpha, k=k)
        assert result.ranking == reference_rank(bow, model, alpha, k)
        assert all(type(score) is float for _, score in result.ranking)

    def test_matches_the_dict_reference_on_large_random_maps(self):
        # arbitrary floats, which the property above rarely draws, expose
        # any change in the blend's rounding
        rng = np.random.default_rng(3)
        paths = [f"src/f{i:03d}.java" for i in range(300)]
        for _ in range(20):
            order = rng.permutation(paths).tolist()
            bow = dict(zip(order, np.where(rng.random(300) < 0.5, 0.0, rng.random(300)).tolist()))
            model = dict(zip(paths, rng.uniform(-1.0, 1.0, 300).tolist()))
            for alpha in (0.0, 0.2, 0.37, 0.5, 1.0):
                expected = reference_rank(bow, model, alpha, 50)
                assert combine_and_rank(bow, model, alpha=alpha, k=50).ranking == expected

    @given(
        st.dictionaries(
            st.sampled_from(["p1", "p2", "p3", "p4"]),
            st.floats(min_value=-5, max_value=5),
            min_size=2, max_size=4,
        ),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_combined_scores_bounded_and_sorted(self, bow, alpha):
        model = {key: -value for key, value in bow.items()}
        result = combine_and_rank(bow, model, alpha=alpha, k=10)
        scores = [s for _, s in result.ranking]
        assert all(0.0 <= s <= 1.0 + 1e-12 for s in scores)
        assert scores == sorted(scores, reverse=True)

    @given(
        st.dictionaries(
            st.sampled_from(["p1", "p2", "p3", "p4", "p5"]),
            st.floats(min_value=-5, max_value=5),
            min_size=2, max_size=5,
        ),
        st.dictionaries(
            st.sampled_from(["p1", "p2", "p3", "p4", "p5"]),
            st.floats(min_value=-5, max_value=5),
        ),
    )
    def test_alpha_zero_ignores_model_scores(self, bow, model_partial):
        model = {key: model_partial.get(key, 0.0) for key in bow}
        with_model = combine_and_rank(bow, model, alpha=0.0, k=10)
        without = combine_and_rank(bow, {key: 0.0 for key in bow}, alpha=0.0, k=10)
        assert with_model.paths() == without.paths()
