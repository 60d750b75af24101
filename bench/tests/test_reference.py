"""Hand-computed cases for the reference computations."""

import math

import numpy as np
import pytest
from scipy import sparse

import reference as ref


def test_tokens_keep_lowercase_alphanumeric_runs():
    assert ref.tokens("top03w00a Fil12w01b\nnoise001 x") == ["top03w00a", "fil12w01b", "noise001"]


def test_tokens_agree_with_bugloc_on_synthetic_text(tmp_path):
    from bugloc import corpus, synthgen

    synthgen.generate(synthgen.SynthSpec(num_reports=40), tmp_path)
    rules = corpus.default_token_rules()
    for report in corpus.load_bug_reports(tmp_path / "reports.jsonl"):
        assert ref.tokens(report.text) == corpus.tokenize(report.text, rules)


def test_simi_score_credits_fixed_files():
    train = [
        {"fixed_files": ["A", "B"]},
        {"fixed_files": ["B"]},
        {"fixed_files": ["C"]},
    ]
    tfidf = ref.TfIdf([["aa", "bb"], ["bb", "cc"], ["dd"]])
    links = ref.link_matrix(train, ["A", "B", "C"])
    scores = ref.simi_scores(tfidf.vectorize([["aa", "bb"]]), tfidf, links)[0]
    l3, l15 = math.log(3), math.log(1.5)
    cos_r1 = l15 * l15 / (l3 * l3 + l15 * l15)
    np.testing.assert_allclose(scores, [0.5, 0.5 + cos_r1, 0.0], rtol=1e-12)


def test_simi_score_of_a_query_without_known_terms_is_zero():
    tfidf = ref.TfIdf([["aa"], ["bb"]])
    links = ref.link_matrix([{"fixed_files": ["A"]}, {"fixed_files": ["B"]}], ["A", "B"])
    assert not ref.simi_scores(tfidf.vectorize([["zz"]]), tfidf, links).any()


def test_terms_in_every_training_report_weigh_nothing():
    tfidf = ref.TfIdf([["aa", "bb"], ["aa"]])
    assert tfidf.vectorize([["aa"]]).nnz == 0


def test_top_k_breaks_ties_by_ascending_column():
    assert list(ref.top_k(np.array([0.5, 0.7, 0.5, 0.7]), 3)) == [1, 3, 0]


def test_minmax_of_a_constant_row_is_zero():
    assert not ref.minmax(np.array([2.0, 2.0])).any()
    np.testing.assert_array_equal(ref.minmax(np.array([1.0, 3.0, 2.0])), [0.0, 1.0, 0.5])


def test_blend_at_alpha_zero_is_the_first_component():
    first = np.array([0.1, 0.4, 0.2])
    np.testing.assert_array_equal(ref.blend(first, np.array([9.0, 1.0, 5.0]), 0.0), ref.minmax(first))


@pytest.mark.parametrize("k, expected", [(1, 0.0), (2, 0.25), (4, 0.5)])
def test_average_precision_divides_by_all_relevant(k, expected):
    assert ref.average_precision(["x", "a", "y", "b"], {"a", "b"}, k) == expected


def _path_graph():
    # c0 -1- f1 -1- f2 -1- c3, and a free pair 4 -1- 5 with no clamped node
    src, dst = np.array([0, 1, 2, 4]), np.array([1, 2, 3, 5])
    adj = ref.adjacency(6, src, dst, np.ones(4))
    clamped = np.array([True, False, False, True, False, False])
    values = np.array([[0.0], [9.0], [9.0], [3.0], [9.0], [9.0]])
    return adj, clamped, values


def test_harmonic_solve_interpolates_between_clamped_nodes():
    adj, clamped, values = _path_graph()
    solution = ref.harmonic_solve(adj, clamped, values)
    np.testing.assert_allclose(solution.vectors.ravel(), [0.0, 1.0, 2.0, 3.0, 0.0, 0.0], atol=1e-12)
    assert list(solution.anchored) == [True, True, True, True, False, False]


def test_harmonic_solve_weights_neighbours():
    adj = ref.adjacency(3, np.array([0, 1]), np.array([1, 2]), np.array([2.0, 1.0]))
    values = np.array([[3.0], [0.0], [0.0]])
    solution = ref.harmonic_solve(adj, np.array([True, False, True]), values)
    assert solution.vectors[1, 0] == pytest.approx(2.0)


def test_maximum_principle_violation():
    adj, clamped, values = _path_graph()
    solution = ref.harmonic_solve(adj, clamped, values)
    assert ref.maximum_principle_violation(solution, clamped, solution.vectors) == 0.0
    moved = solution.vectors.copy()
    moved[2, 0] = 3.5
    assert ref.maximum_principle_violation(solution, clamped, moved) == pytest.approx(0.5)


def test_embed_queries_weights_by_tfidf_and_skips_unknown_tokens():
    tfidf = ref.TfIdf([["aa"], ["bb"], ["aa", "cc"]])
    table = np.array([[1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
    vocab = {"aa": 0, "bb": 1, "zz": 2}
    embedded = ref.embed_queries([["aa", "bb", "bb", "qq"], ["zz"], []], tfidf, vocab, table)
    w_aa, w_bb = math.log(1.5), 2 * math.log(3)
    np.testing.assert_allclose(embedded[0], [w_aa, w_bb] / np.float64(w_aa + w_bb))
    assert not embedded[1].any() and not embedded[2].any()


def test_cosine_matrix_is_zero_for_zero_vectors():
    cos = ref.cosine_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[2.0, 0.0], [1.0, 1.0]]))
    np.testing.assert_allclose(cos, [[1.0, 1 / math.sqrt(2)], [0.0, 0.0]])


def test_link_matrix_divides_by_all_fixed_files():
    links = ref.link_matrix([{"fixed_files": ["A", "outside"]}], ["A"])
    assert sparse.issparse(links) and links.toarray().tolist() == [[0.5]]
