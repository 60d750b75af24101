import json
import math
import string
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bugloc.corpus import (
    CSR,
    RowProduct,
    TokenRules,
    bow_vectorize,
    build_vocabulary,
    count_rows,
    default_stopwords,
    default_token_rules,
    load_bug_reports,
    load_source_docs,
    load_stopwords,
    longest_first,
    tfidf_rows,
    tokenize,
)
from bugloc.errors import ParseError, ValidationError
from bugloc.ranker import row_norms
from sparseref import from_scipy, scipy_count_rows, scipy_tfidf_rows, to_scipy
from tfidfref import reference_tfidf
from tokref import reference_tokenize

# ASCII letters, digits, '_', punctuation and whitespace, plus non-ASCII
# letters that lowercase or casefold into ASCII ("İ", the Kelvin sign)
TEXT_ALPHABET = string.ascii_letters + string.digits + string.punctuation + " \t\n" + "éßİ\u212a"
# identifier-like fragments, so camel-case splits and suffixes come up often
FRAGMENTS = ("get", "X", "XML", "Parser", "HTTP", "server2", "word2vec", "Items",
             "ING", "ations", "the", "In", "_", " ", ".", "é", "ß", "İ", "\u212a")


def _write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def _report(rid, time="2020-01-01T00:00:00Z", status="resolved", files=("src/A.java",),
            summary="NullPointer crash", description="stack trace attached"):
    return {
        "id": rid,
        "summary": summary,
        "description": description,
        "report_time": time,
        "status": status,
        "fixed_files": list(files),
    }


class TestTokenize:
    def test_camel_case_and_stopwords(self, rules):
        assert tokenize("NullPointerException thrown in FooBar", rules) == [
            "null", "pointer", "exception", "thrown", "foo", "bar",
        ]

    def test_acronym_then_word(self, rules):
        assert tokenize("XMLParser", rules) == ["xml", "parser"]

    def test_digits_stay_attached_to_lowercase_runs(self, rules):
        assert tokenize("word2vec HTTPServer2", rules) == ["word2vec", "http", "server2"]

    def test_short_pieces_dropped(self, rules):
        assert tokenize("a_b", rules) == []
        assert tokenize("getX2", rules) == ["get"]

    def test_min_length_one_keeps_short_pieces(self):
        rules = TokenRules(stopwords=frozenset(), min_length=1)
        assert tokenize("getX2", rules) == ["get", "x", "2"]

    def test_multiplicity_and_order_preserved(self, rules):
        assert tokenize("beta alpha beta", rules) == ["beta", "alpha", "beta"]

    def test_stopwords_match_after_lowercasing(self, rules):
        assert tokenize("In THE of", rules) == []

    def test_stemming_strips_suffixes(self):
        rules = TokenRules(stopwords=frozenset(), min_length=2, stem=True)
        assert tokenize("parsings things", rules) == ["pars", "thing"]

    def test_stemming_keeps_double_s_and_short_roots(self):
        rules = TokenRules(stopwords=frozenset(), min_length=2, stem=True)
        assert tokenize("address", rules) == ["address"]
        assert tokenize("dogs", rules) == ["dog"]

    @given(st.text(max_size=200))
    def test_token_invariants(self, text):
        rules = TokenRules(stopwords=frozenset({"the", "is"}), min_length=2)
        tokens = tokenize(text, rules)
        for tok in tokens:
            assert tok == tok.lower()
            assert len(tok) >= 2
            assert tok not in rules.stopwords
            assert tok.isalnum()
        # retokenizing the joined output changes nothing
        assert tokenize(" ".join(tokens), rules) == tokens

    @given(
        st.one_of(
            st.text(alphabet=TEXT_ALPHABET, max_size=200),
            st.lists(st.sampled_from(FRAGMENTS), max_size=40).map("".join),
        ),
        st.booleans(),
        st.integers(min_value=1, max_value=3),
    )
    def test_matches_the_two_level_reference(self, text, stem, min_length):
        rules = TokenRules(stopwords=frozenset({"the", "in", "x", "get"}),
                           min_length=min_length, stem=stem)
        assert tokenize(text, rules) == reference_tokenize(text, rules)


class TestStopwords:
    def test_default_stoplist_nonempty_and_lowercase(self):
        words = default_stopwords()
        assert "the" in words and "in" in words
        assert all(w == w.lower() for w in words)

    def test_load_stopwords_skips_comments(self, tmp_path):
        p = tmp_path / "stop.txt"
        p.write_text("# comment\nFoo\n\nbar\n", encoding="utf-8")
        assert load_stopwords(p) == frozenset({"foo", "bar"})

    def test_default_token_rules_uses_file(self, tmp_path):
        p = tmp_path / "stop.txt"
        p.write_text("widget\n", encoding="utf-8")
        rules = default_token_rules(stopwords_file=p)
        assert tokenize("widget gadget", rules) == ["gadget"]


class TestLoadBugReports:
    def test_sorted_by_time(self, tmp_path):
        p = tmp_path / "r.jsonl"
        _write_jsonl(p, [
            _report("B-2", time="2021-06-01T00:00:00Z"),
            _report("B-1", time="2020-06-01T00:00:00Z"),
            _report("B-3", time="2022-06-01T00:00:00Z"),
        ])
        reports = load_bug_reports(p)
        assert [r.id for r in reports] == ["B-1", "B-2", "B-3"]

    def test_zulu_suffix_equals_utc_offset(self, tmp_path):
        p = tmp_path / "r.jsonl"
        _write_jsonl(p, [
            _report("B-1", time="2020-06-01T12:00:00Z"),
            _report("B-2", time="2020-06-01T12:00:00+00:00"),
        ])
        a, b = load_bug_reports(p)
        assert a.report_time == b.report_time
        assert a.report_time == datetime(2020, 6, 1, 12, tzinfo=timezone.utc)

    def test_naive_time_treated_as_utc(self, tmp_path):
        p = tmp_path / "r.jsonl"
        _write_jsonl(p, [_report("B-1", time="2020-06-01T12:00:00")])
        (r,) = load_bug_reports(p)
        assert r.report_time == datetime(2020, 6, 1, 12, tzinfo=timezone.utc)

    def test_resolved_only_filters_case_insensitively(self, tmp_path):
        p = tmp_path / "r.jsonl"
        _write_jsonl(p, [
            _report("B-1", status="Resolved"),
            _report("B-2", status="open", time="2020-02-01T00:00:00Z"),
            _report("B-3", status="RESOLVED", time="2020-03-01T00:00:00Z"),
        ])
        assert [r.id for r in load_bug_reports(p)] == ["B-1", "B-2", "B-3"]
        assert [r.id for r in load_bug_reports(p, resolved_only=True)] == ["B-1", "B-3"]

    def test_missing_key_is_named(self, tmp_path):
        p = tmp_path / "r.jsonl"
        rec = _report("B-1")
        del rec["status"]
        _write_jsonl(p, [rec])
        with pytest.raises(ParseError, match="status"):
            load_bug_reports(p)

    def test_bad_time_rejected(self, tmp_path):
        p = tmp_path / "r.jsonl"
        _write_jsonl(p, [_report("B-1", time="yesterday")])
        with pytest.raises(ParseError, match="report_time"):
            load_bug_reports(p)

    def test_fixed_files_deduped_in_order(self, tmp_path):
        p = tmp_path / "r.jsonl"
        _write_jsonl(p, [_report("B-1", files=["b.java", "a.java", "b.java"])])
        (r,) = load_bug_reports(p)
        assert r.fixed_files == ("b.java", "a.java")

    def test_text_joins_summary_and_description(self, tmp_path):
        p = tmp_path / "r.jsonl"
        _write_jsonl(p, [_report("B-1", summary="crash", description="on start")])
        (r,) = load_bug_reports(p)
        assert r.text == "crash\non start"

    @pytest.mark.parametrize(
        "report, shown",
        [
            (_report("B-\ud800"), "id 'B-\\ud800'"),
            (
                _report("B-2", files=("src/A.java", "src/\udcffB.java")),
                "fixed file 'src/\\udcffB.java'",
            ),
        ],
        ids=["id", "fixed file"],
    )
    def test_lone_surrogate_rejected(self, tmp_path, report, shown):
        # a JSON escape can name one, but no UTF-8 output can hold it
        p = tmp_path / "r.jsonl"
        _write_jsonl(p, [_report("B-1"), report])
        with pytest.raises(ParseError) as err:
            load_bug_reports(p)
        assert str(err.value) == f"{p}: line 2: {shown} holds a lone surrogate"


@pytest.mark.parametrize(
    "load, record, repeated",
    [
        (lambda path, rules: load_bug_reports(path), _report, "report id 'K-1'"),
        (load_source_docs, lambda key: {"path": key, "content": "x"}, "source path 'K-1'"),
    ],
    ids=["reports", "sources"],
)
class TestJsonlLoaderContract:
    """Both JSONL loaders skip blank lines and name the physical line of
    invalid JSON and of a repeated key, with the line that first held it."""

    def _write(self, path, lines):
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        return path

    def test_blank_lines_are_skipped(self, tmp_path, rules, load, record, repeated):
        p = self._write(
            tmp_path / "in.jsonl", [json.dumps(record("K-1")), "", "  \t", json.dumps(record("K-2"))]
        )
        assert len(load(p, rules)) == 2

    def test_invalid_json_names_its_physical_line(self, tmp_path, rules, load, record, repeated):
        p = self._write(tmp_path / "in.jsonl", [json.dumps(record("K-1")), "", "{not json"])
        with pytest.raises(json.JSONDecodeError) as decode:
            json.loads("{not json")
        with pytest.raises(ParseError) as err:
            load(p, rules)
        assert str(err.value) == f"{p}: line 3: invalid JSON: {decode.value.msg}"

    def test_repeated_key_names_both_lines(self, tmp_path, rules, load, record, repeated):
        p = self._write(
            tmp_path / "in.jsonl", [json.dumps(record("K-1")), "", json.dumps(record("K-1"))]
        )
        with pytest.raises(ValidationError) as err:
            load(p, rules)
        assert str(err.value) == f"{p}: line 3: duplicate {repeated} (first seen on line 1)"


class TestLoadSources:
    def test_tokenizes_content(self, tmp_path, rules):
        p = tmp_path / "s.jsonl"
        _write_jsonl(p, [{"path": "src/A.java", "content": "ParseError handler"}])
        assert load_source_docs(p, rules) == {"src/A.java": ["parse", "error", "handler"]}

    def test_paths_keep_file_order(self, tmp_path, rules):
        p = tmp_path / "s.jsonl"
        _write_jsonl(p, [{"path": "src/B.java", "content": ""}, {"path": "src/A.java", "content": "x"}])
        assert list(load_source_docs(p, rules)) == ["src/B.java", "src/A.java"]

    def test_missing_key_rejected(self, tmp_path, rules):
        p = tmp_path / "s.jsonl"
        _write_jsonl(p, [{"path": "src/A.java"}])
        with pytest.raises(ParseError, match="content"):
            load_source_docs(p, rules)

    def test_lone_surrogate_in_path_rejected(self, tmp_path, rules):
        p = tmp_path / "s.jsonl"
        _write_jsonl(p, [{"path": "src/\ud800A.java", "content": "x"}])
        with pytest.raises(ParseError) as err:
            load_source_docs(p, rules)
        assert str(err.value) == f"{p}: line 1: path 'src/\\ud800A.java' holds a lone surrogate"


class TestVocabulary:
    def test_indices_follow_sorted_terms(self):
        vocab = build_vocabulary([["zeta", "alpha"], ["alpha", "midway"]])
        assert vocab.terms == ["alpha", "midway", "zeta"]
        assert vocab.index["alpha"] == 0
        assert vocab.terms[2] == "zeta"
        assert len(vocab) == 3
        assert "zeta" in vocab and "missing" not in vocab

    def test_doc_freq_counts_documents_not_occurrences(self):
        vocab = build_vocabulary([["dup", "dup", "one"], ["dup"]])
        assert vocab.doc_freq == {"dup": 2, "one": 1}
        assert vocab.num_docs == 2

    def test_document_order_does_not_matter(self):
        a = build_vocabulary([["x", "y"], ["z"]])
        b = build_vocabulary([["z"], ["y", "x"]])
        assert a.terms == b.terms and a.index == b.index


def _entries(rows, i=0):
    """Row i of a TF-IDF matrix as a column -> weight dict, in stored order."""
    span = slice(rows.indptr[i], rows.indptr[i + 1])
    return dict(zip(rows.indices[span].tolist(), rows.data[span].tolist()))


class TestBowVectorize:
    def test_df_equal_to_corpus_size_weights_zero(self):
        vocab = build_vocabulary([["null", "pointer"], ["null", "widget"]])
        bow = _entries(bow_vectorize(["null", "pointer"], vocab))
        assert bow == {vocab.index["pointer"]: pytest.approx(math.log(2), abs=1e-15)}
        assert abs(bow[vocab.index["pointer"]] - 0.6931471805599453) < 1e-15

    def test_term_frequency_scales_weight(self):
        vocab = build_vocabulary([["rare"], ["common"], ["common"]])
        bow = _entries(bow_vectorize(["rare", "rare"], vocab))
        assert bow[vocab.index["rare"]] == pytest.approx(2 * math.log(3), abs=1e-12)

    def test_out_of_vocabulary_tokens_skipped(self):
        vocab = build_vocabulary([["known"], ["other"]])
        bow = _entries(bow_vectorize(["unseen", "known"], vocab))
        assert set(bow) == {vocab.index["known"]}

    def test_empty_when_nothing_survives(self):
        vocab = build_vocabulary([["all"], ["all"]])
        assert bow_vectorize(["all"], vocab).nnz == 0

    def test_norm_is_euclidean(self):
        rows = from_scipy([[3.0, 4.0], [0.0, 0.0]])
        assert row_norms(rows).tolist() == [5.0, 0.0]

    def test_rejects_empty_vocabulary(self):
        with pytest.raises(ValidationError):
            bow_vectorize(["x"], build_vocabulary([]))

    @given(st.lists(st.sampled_from(["ant", "bee", "cat", "doe"]), max_size=12))
    def test_weights_positive_and_indexed_in_vocab(self, tokens):
        vocab = build_vocabulary([["ant", "bee"], ["cat"], ["doe", "ant"]])
        bow = bow_vectorize(tokens, vocab)
        for idx, weight in _entries(bow).items():
            assert 0 <= idx < len(vocab)
            assert weight > 0.0


TERMS = ["ant", "bee", "cat", "doe", "elk"]


class TestTfidfRows:
    @given(
        st.lists(st.lists(st.sampled_from(TERMS), max_size=6), min_size=1, max_size=6),
        st.booleans(),
        st.lists(st.lists(st.sampled_from(TERMS + ["oov", "zzz"]), max_size=12), max_size=6),
    )
    def test_matches_the_dict_reference(self, docs, shared, token_lists):
        # with shared, "all" sits in every document, so its df equals N
        vocab = build_vocabulary([doc + ["all"] * shared for doc in docs])
        rows = tfidf_rows(token_lists + [["all", "all", "oov"]], vocab)
        assert rows.shape == (len(token_lists) + 1, len(vocab))
        assert to_scipy(rows).has_canonical_format
        for i, tokens in enumerate(token_lists + [["all", "all", "oov"]]):
            # dict equality compares the weights' floats exactly, and lists keep the order
            assert list(_entries(rows, i).items()) == list(reference_tfidf(tokens, vocab).items())

    @given(
        st.lists(st.lists(st.sampled_from(TERMS), max_size=6), min_size=1, max_size=6),
        st.booleans(),
        st.lists(st.lists(st.sampled_from(TERMS + ["all", "oov", "zzz"]), max_size=12), max_size=6),
    )
    def test_count_and_tfidf_rows_match_scipy_bit_for_bit(self, docs, shared, token_lists):
        # OOV tokens, empty lists, and with shared a term whose df equals N
        vocab = build_vocabulary([doc + ["all"] * shared for doc in docs])
        for ours, theirs in (
            (count_rows(token_lists, vocab), scipy_count_rows(token_lists, vocab)),
            (tfidf_rows(token_lists, vocab), scipy_tfidf_rows(token_lists, vocab)),
        ):
            assert ours.shape == theirs.shape
            assert ours.indptr.tolist() == theirs.indptr.tolist()
            assert ours.indices.tolist() == theirs.indices.tolist()
            assert ours.data.view(np.uint64).tolist() == theirs.data.view(np.uint64).tolist()

    def test_no_token_lists_give_no_rows(self):
        vocab = build_vocabulary([["ant"], ["bee"]])
        assert tfidf_rows([], vocab).shape == (0, 2)


@st.composite
def planned_products(draw, all_skipped=False):
    """A CSR of up to 6 rows, empty ones included, its columns stored in any
    order; a subset of its rows; a column map with -1 entries, every one
    -1 when all_skipped; and a factor of 1 to 3 columns."""
    width, height, dim = draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    columns = draw(st.lists(st.lists(st.integers(0, width - 1), max_size=7), max_size=6))
    values = draw(
        st.lists(st.floats(-1e3, 1e3), min_size=sum(map(len, columns)), max_size=sum(map(len, columns)))
    )
    matrix = CSR(
        np.array(values, dtype=np.float64),
        np.array([j for row in columns for j in row], dtype=np.intp),
        np.cumsum([0, *map(len, columns)]),
        (len(columns), width),
    )
    rows = draw(st.permutations(range(len(columns))))[: draw(st.integers(0, len(columns)))]
    reads = st.just(-1) if all_skipped else st.integers(-1, height - 1)
    column_map = np.array(draw(st.lists(reads, min_size=width, max_size=width)), dtype=np.intp)
    factor = draw(st.lists(st.floats(-1e3, 1e3), min_size=height * dim, max_size=height * dim))
    return matrix, np.array(rows, dtype=np.intp), column_map, np.reshape(factor, (height, dim))


def _loop_product(matrix, rows, column_map, factor) -> list[list[float]]:
    """Each row's kept entries, value times factor row, added one at a time
    in stored order from 0.0, in plain Python floats."""
    out = []
    for row in rows.tolist():
        sums = [0.0] * factor.shape[1]
        for at in range(matrix.indptr[row], matrix.indptr[row + 1]):
            reads = column_map[matrix.indices[at]]
            if reads >= 0:
                for k, x in enumerate(factor[reads].tolist()):
                    sums[k] += float(matrix.data[at]) * x
        out.append(sums)
    return out


class TestRowProduct:
    def _check(self, matrix, rows, column_map, factor):
        read = column_map >= 0
        ordered = longest_first(matrix, rows, read)
        counts = np.bincount(matrix.row_ids()[read[matrix.indices]], minlength=matrix.shape[0])
        # most read entries first, ties in the given order (sorted is stable)
        assert ordered.tolist() == sorted(rows.tolist(), key=lambda row: -counts[row])
        out = np.full((len(rows), factor.shape[1]), np.nan)
        plan = RowProduct(matrix, ordered, column_map)
        for scale in (1.0, -0.5):  # a plan applies as often as needed
            plan.apply(factor * scale, out)
            expected = np.array(_loop_product(matrix, ordered, column_map, factor * scale))
            expected = expected.reshape(out.shape)
            assert out.view(np.uint64).tolist() == expected.view(np.uint64).tolist()
        return plan, out

    @settings(max_examples=300)
    @given(planned_products())
    def test_matches_a_plain_loop_bit_for_bit(self, drawn):
        self._check(*drawn)

    @given(planned_products(all_skipped=True))
    def test_every_column_skipped_plans_no_step(self, drawn):
        plan, out = self._check(*drawn)
        assert plan.steps == []
        assert out.view(np.uint64).tolist() == np.zeros_like(out).view(np.uint64).tolist()

    def test_no_rows_give_no_output_rows(self):
        matrix = CSR(np.array([2.0, 3.0]), np.array([1, 0]), np.array([0, 2]), (1, 2))
        plan, out = self._check(matrix, np.array([], dtype=np.intp), np.array([0, 1]), np.eye(2))
        assert plan.steps == [] and out.shape == (0, 2)

    def test_a_factor_shorter_than_the_plan_reads_raises(self):
        # column 0 reads factor row 2: a clipped gather would read row 1 for it
        matrix = CSR(np.array([2.0, 3.0]), np.array([1, 0]), np.array([0, 2]), (1, 2))
        plan = RowProduct(matrix, np.array([0]), np.array([2, 0]))
        factor, out = np.arange(6.0).reshape(3, 2), np.full((1, 2), np.nan)
        with pytest.raises(ValueError, match="reads 3 factor rows, the factor has 2"):
            plan.apply(factor[:2], out)
        assert np.isnan(out).all()
        plan.apply(factor, out)
        assert out.tolist() == [[2.0 * 0.0 + 3.0 * 4.0, 2.0 * 1.0 + 3.0 * 5.0]]
