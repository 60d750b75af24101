import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy import sparse

from bugloc.corpus import CSR, bow_vectorize, build_vocabulary, link_matrix, tfidf_rows
from bugloc.embeddings import EmbeddingTable, embed_tokens
from bugloc.errors import ValidationError
from bugloc.network import TypedNode
from bugloc.ranker import (
    bow_file_scores,
    build_bow_index,
    combine_and_rank,
    cosine_bow,
    embed_rows,
    file_cosines,
    minmax_rows,
    netreg_file_scores,
    prepare_rows,
    row_norms,
)
from bugloc.regularizer import RepresentationModel
from netgen import table_of
from rankref import reference_rank
from sparseref import from_scipy, scipy_embed_rows, scipy_simi_scores, to_scipy
from tables import make_table
from tfidfref import reference_tfidf


def cosine(a, b):
    """file_cosines for a single query row and a single file row."""
    return file_cosines(a[None, :], prepare_rows(b[None, :]))[0, 0]


def bow(entries, num_terms=9):
    """A one-row TF-IDF matrix holding the given column -> weight entries."""
    columns = sorted(entries)
    data = [entries[j] for j in columns]
    return from_scipy(sparse.csr_array((data, columns, [0, len(columns)]), shape=(1, num_terms)))


def vstack(rows):
    """One-row matrices stacked into one."""
    return from_scipy(sparse.vstack([to_scipy(row) for row in rows], format="csr"))


def bow_scores(query, train_bows, fix_links, universe):
    """bow_file_scores of one query row, keyed by path."""
    tfidf = vstack(train_bows.values())
    links = link_matrix([fix_links.get(rid, ()) for rid in train_bows], universe)
    index = build_bow_index(tfidf, links)
    return dict(zip(universe, bow_file_scores(query, index)[0].tolist()))


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

    # a * scale can round a subnormal entry to zero, which changes the angle
    @given(
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_subnormal=False), min_size=3, max_size=3
        ),
        st.floats(min_value=0.1, max_value=50.0),
    )
    # squares of these entries are subnormal unless the rows are scaled first
    @example(values=[0.0, 0.0, 8.395029340515003e-159], scale=0.5)
    def test_scale_invariant(self, values, scale):
        a = np.array(values)
        b = np.array([1.0, 2.0, -1.0])
        assert abs(cosine(a * scale, b) - cosine(a, b)) < 1e-9


class TestRowNorms:
    def test_squares_are_summed_exactly(self):
        # a plain floating-point sum rounds the squares of some of these rows differently
        rng = np.random.default_rng(5)
        dense = rng.random((50, 80)) * (rng.random((50, 80)) < 0.5)
        expected = [math.sqrt(math.fsum(w * w for w in row.tolist())) for row in dense]
        assert row_norms(from_scipy(dense)).tolist() == expected


class TestCosineBow:
    def test_matches_dense_cosine(self):
        a = bow({0: 1.0, 3: 2.0})
        b = bow({0: 2.0, 1: 5.0, 3: 1.0})
        dense_a = np.array([1.0, 0.0, 0.0, 2.0])
        dense_b = np.array([2.0, 5.0, 0.0, 1.0])
        assert abs(cosine_bow(a, b) - cosine(dense_a, dense_b)) < 1e-12

    def test_empty_vector_scores_zero(self):
        assert cosine_bow(bow({}), bow({0: 1.0})) == 0.0

    def test_disjoint_supports_score_zero(self):
        assert cosine_bow(bow({0: 1.0}), bow({1: 1.0})) == 0.0

    @given(
        st.dictionaries(st.integers(0, 8), st.floats(min_value=0.01, max_value=9.0), max_size=8),
        st.dictionaries(st.integers(0, 8), st.floats(min_value=0.01, max_value=9.0), max_size=8),
    )
    def test_agrees_with_dense_arithmetic(self, ea, eb):
        a, b = bow(ea), bow(eb)
        dense_a = np.zeros(9)
        dense_b = np.zeros(9)
        for i, w in ea.items():
            dense_a[i] = w
        for i, w in eb.items():
            dense_b[i] = w
        assert abs(cosine_bow(a, b) - cosine(dense_a, dense_b)) < 1e-12


WORDS = ["ant", "bee", "cat", "doe", "elk", "fox"]
BOWS = st.dictionaries(
    st.integers(0, 8), st.floats(min_value=0.01, max_value=9.0), max_size=5
).map(bow)


class TestBowFileScores:
    # cos(q, r1) = 0.8 and cos(q, r2) = 0.6 by construction
    Q = bow({0: 1.0})
    R1 = bow({0: 0.8, 1: 0.6})
    R2 = bow({0: 0.6, 1: 0.8})

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

    def test_reports_without_fixes_contribute_nothing(self):
        scores = bow_scores(self.Q, {"r1": self.R1}, {}, ["s1"])
        assert scores == {"s1": 0.0}

    @given(
        st.lists(BOWS, min_size=1, max_size=4),
        st.lists(
            st.tuples(BOWS, st.lists(st.sampled_from("abc"), max_size=3, unique=True)),
            min_size=1,
            max_size=6,
        ),
    )
    def test_batch_matches_a_per_report_loop(self, queries, train):
        universe = ["a", "b", "c"]
        tfidf = vstack([row for row, _ in train])
        index = build_bow_index(tfidf, link_matrix([files for _, files in train], universe))
        batch = bow_file_scores(vstack(queries), index)
        assert batch.shape == (len(queries), len(universe))
        for query, row in zip(queries, batch):
            expected = dict.fromkeys(universe, 0.0)
            for train_row, files in train:
                for path in files:
                    if path in expected:
                        expected[path] += cosine_bow(query, train_row) / len(files)
            assert np.allclose(row, [expected[p] for p in universe], rtol=1e-12, atol=0.0)

    @given(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from(WORDS), max_size=8),
                st.lists(st.sampled_from("abcd"), max_size=3),
            ),
            min_size=1,
            max_size=8,
        ),
        st.lists(st.lists(st.sampled_from(WORDS + ["oov"]), max_size=8), max_size=5),
    )
    def test_matches_scipy_bit_for_bit(self, train, queries):
        # training reports without fixes or terms, queries without terms
        universe = list("abcd")
        vocab = build_vocabulary([tokens for tokens, _ in train])
        tfidf = tfidf_rows([tokens for tokens, _ in train], vocab)
        links = link_matrix([files for _, files in train], universe)
        index = build_bow_index(tfidf, links)
        rows = tfidf_rows(queries, vocab)
        expected = scipy_simi_scores(rows, tfidf, links).view(np.uint64)
        assert bow_file_scores(rows, index).view(np.uint64).tolist() == expected.tolist()
        for tokens, row in zip(queries, expected):
            one = bow_file_scores(bow_vectorize(tokens, vocab), index)
            assert one.view(np.uint64).tolist() == [row.tolist()]

    def test_orthogonal_query_scores_zero(self):
        scores = bow_scores(
            bow({5: 1.0}), {"r1": self.R1}, {"r1": ["s1"]}, ["s1"]
        )
        assert scores == {"s1": 0.0}


def _model_and_table():
    table = make_table(2, {"socket": np.array([1.0, 0.0])})
    model = RepresentationModel(
        nodes=table_of((
            TypedNode("B", "B-1"),
            TypedNode("S", "a.java"),
            TypedNode("S", "b.java"),
            TypedNode("T", "socket"),
        )),
        matrix=np.array([[0.5, 0.5], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]),
        clamped_rows=np.array([False, False, False, True]),
    )
    vocab = build_vocabulary([["socket", "leak"], ["leak"]])
    return model, table, vocab


def netreg_scores(tokens, model, table, vocab):
    """netreg_file_scores of one query keyed by the model's file paths."""
    files = model.nodes.rows("S")
    scores = netreg_file_scores(
        bow_vectorize(tokens, vocab),
        table.rows_of(vocab.terms),
        table.matrix,
        prepare_rows(model.matrix[files]),
    )
    return dict(zip(model.nodes.keys[files], scores[0].tolist()))


class TestEmbedRows:
    @given(
        st.lists(st.lists(st.sampled_from("abcde"), max_size=5), min_size=1, max_size=5),
        st.dictionaries(
            st.sampled_from("abcdexy"),
            st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=3, max_size=3),
        ),
        st.lists(st.lists(st.sampled_from("abcdexyz"), max_size=10), max_size=5),
    )
    def test_rows_match_embed_tokens_bit_for_bit(self, docs, vectors, token_lists):
        vocab = build_vocabulary(docs)
        table = make_table(3, {term: np.array(v) for term, v in vectors.items()})
        embedded = embed_rows(tfidf_rows(token_lists, vocab), table.rows_of(vocab.terms), table.matrix)
        assert embedded.shape == (len(token_lists), 3)
        for tokens, row in zip(token_lists, embedded):
            weights = dict.fromkeys(tokens, 0.0)
            for idx, weight in reference_tfidf(tokens, vocab).items():
                weights[vocab.terms[idx]] = weight
            expected, _ = embed_tokens(tokens, weights, table)
            assert row.view(np.uint64).tolist() == expected.view(np.uint64).tolist()

    @given(
        st.lists(
            st.dictionaries(st.integers(0, 7), st.floats(0.01, 100.0), max_size=8), max_size=6
        ),
        st.lists(st.floats(-1e3, 1e3), min_size=24, max_size=24),
        st.lists(st.booleans(), min_size=8, max_size=8),
    )
    def test_matches_scipy_bit_for_bit(self, entries, values, known):
        # rows of unequal length and empty rows, each row alone and all at once;
        # the table holds the known terms' rows in reverse order
        matrix = np.reshape(values, (8, 3))[::-1]
        rows = np.where(known, np.arange(8)[::-1], -1)
        columns = [sorted(row) for row in entries]
        weights = CSR(
            np.array([row[j] for row, cols in zip(entries, columns) for j in cols]),
            np.array([j for cols in columns for j in cols], dtype=np.intp),
            np.cumsum([0, *map(len, columns)]),
            (len(entries), 8),
        )
        expected = scipy_embed_rows(weights, rows, matrix).view(np.uint64)
        assert embed_rows(weights, rows, matrix).view(np.uint64).tolist() == expected.tolist()
        for i, row in enumerate(expected):
            span = slice(*weights.indptr[i : i + 2])
            one = CSR(weights.data[span], weights.indices[span], np.array([0, span.stop - span.start]), (1, 8))
            assert embed_rows(one, rows, matrix).view(np.uint64).tolist() == [row.tolist()]

    def test_an_empty_table_embeds_every_row_to_zero(self):
        vocab = build_vocabulary([["leak", "socket"]])
        table = EmbeddingTable([], np.empty((0, 3)))
        weights = tfidf_rows([["socket"], [], ["leak", "socket", "leak"]], vocab)
        embedded = embed_rows(weights, table.rows_of(vocab.terms), table.matrix)
        assert embedded.shape == (3, 3) and not embedded.any()


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

    def test_rows_without_files_stay_empty(self):
        assert minmax_rows(np.zeros((2, 0))).shape == (2, 0)


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


def _paths(result):
    return [path for path, _ in result.ranking]


class TestCombineAndRank:
    BOW = {"a": 2.0, "b": 1.0, "c": 0.0}
    MODEL = {"a": 0.0, "b": 1.0, "c": 0.5}

    def test_blend_arithmetic(self):
        result = combine_and_rank(self.BOW, self.MODEL, alpha=0.2, k=3, query_id="q")
        assert result.query_id == "q"
        assert _paths(result) == ["a", "b", "c"]
        scores = dict(result.ranking)
        assert scores["a"] == pytest.approx(0.8, abs=1e-12)
        assert scores["b"] == pytest.approx(0.6, abs=1e-12)
        assert scores["c"] == pytest.approx(0.1, abs=1e-12)

    def test_k_truncates(self):
        result = combine_and_rank(self.BOW, self.MODEL, alpha=0.2, k=2)
        assert _paths(result) == ["a", "b"]

    def test_alpha_one_uses_model_only(self):
        result = combine_and_rank(self.BOW, self.MODEL, alpha=1.0, k=3)
        assert _paths(result) == ["b", "c", "a"]

    def test_alpha_zero_matches_bow_order(self):
        result = combine_and_rank(self.BOW, self.MODEL, alpha=0.0, k=3)
        assert _paths(result) == ["a", "b", "c"]

    def test_ties_break_by_ascending_path(self):
        bow = {"z": 1.0, "m": 1.0, "a": 1.0}
        result = combine_and_rank(bow, dict(bow), alpha=0.5, k=3)
        assert _paths(result) == ["a", "m", "z"]

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
        assert _paths(with_model) == _paths(without)
