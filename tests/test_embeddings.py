import numpy as np
import pytest
from hypothesis import given, strategies as st

from bugloc.embeddings import embed_tokens, load_embeddings
from bugloc.errors import ParseError, ValidationError
from tables import make_table


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


GOOD = "2 3\nalpha 1.0 0.0 0.0\nbeta 0.0 1.0 0.5\n"


class TestLoadEmbeddings:
    def test_loads_header_and_rows(self, tmp_path):
        table = load_embeddings(_write(tmp_path / "e.txt", GOOD))
        assert table.dim == 3
        assert len(table) == 2
        assert "alpha" in table and "gamma" not in table
        np.testing.assert_array_equal(table.get("beta"), [0.0, 1.0, 0.5])

    def test_rows_follow_the_file_in_one_matrix(self, tmp_path):
        table = load_embeddings(_write(tmp_path / "e.txt", GOOD))
        assert table.tokens == ("alpha", "beta")
        assert table.matrix.dtype == np.float64
        np.testing.assert_array_equal(table.matrix, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.5]])
        assert table.rows_of(["beta", "gamma", "alpha"]).tolist() == [1, -1, 0]
        assert table.get("gamma") is None

    def test_empty_table_keeps_its_dim(self, tmp_path):
        table = load_embeddings(_write(tmp_path / "e.txt", "0 4\n"))
        assert len(table) == 0 and table.matrix.shape == (0, 4) and table.dim == 4
        assert table.rows_of(["alpha"]).tolist() == [-1]

    def test_bad_header_rejected(self, tmp_path):
        with pytest.raises(ParseError, match="header"):
            load_embeddings(_write(tmp_path / "e.txt", "3\nalpha 1.0\n"))
        with pytest.raises(ParseError, match="header"):
            load_embeddings(_write(tmp_path / "e.txt", "two 3\n"))

    def test_row_component_count_names_token(self, tmp_path):
        bad = "1 3\nalpha 1.0 0.0\n"
        with pytest.raises(ParseError, match="alpha"):
            load_embeddings(_write(tmp_path / "e.txt", bad))

    def test_duplicate_token_named(self, tmp_path):
        bad = "2 1\nalpha 1.0\nalpha 2.0\n"
        with pytest.raises(ValidationError, match="alpha"):
            load_embeddings(_write(tmp_path / "e.txt", bad))

    def test_non_finite_component_rejected(self, tmp_path):
        bad = "1 2\nalpha 1.0 nan\n"
        with pytest.raises(ValidationError, match="alpha"):
            load_embeddings(_write(tmp_path / "e.txt", bad))

    def test_non_numeric_component_rejected(self, tmp_path):
        bad = "1 2\nalpha 1.0 oops\n"
        with pytest.raises(ParseError, match="alpha"):
            load_embeddings(_write(tmp_path / "e.txt", bad))

    def test_count_mismatch_rejected(self, tmp_path):
        bad = "3 1\nalpha 1.0\nbeta 2.0\n"
        with pytest.raises(ValidationError, match="declares 3"):
            load_embeddings(_write(tmp_path / "e.txt", bad))


def _table():
    return make_table(2, {
        "aa": np.array([1.0, 0.0]),
        "bb": np.array([0.0, 1.0]),
        "cc": np.array([2.0, 2.0]),
    })


class TestEmbedTokens:
    def test_weighted_mean(self):
        vec, oov = embed_tokens(["aa", "bb"], {"aa": 1.0, "bb": 3.0}, _table())
        np.testing.assert_array_equal(vec, [0.25, 0.75])
        assert oov == 0

    def test_repeats_do_not_double_count(self):
        once, _ = embed_tokens(["aa", "bb"], {"aa": 1.0, "bb": 3.0}, _table())
        thrice, _ = embed_tokens(["aa", "bb", "aa", "aa"], {"aa": 1.0, "bb": 3.0}, _table())
        np.testing.assert_array_equal(once, thrice)

    def test_oov_tokens_counted_and_skipped(self):
        vec, oov = embed_tokens(["aa", "zz", "yy"], {"aa": 2.0}, _table())
        np.testing.assert_array_equal(vec, [1.0, 0.0])
        assert oov == 2

    def test_all_oov_yields_zero_vector(self):
        vec, oov = embed_tokens(["zz"], {}, _table())
        np.testing.assert_array_equal(vec, [0.0, 0.0])
        assert oov == 1

    def test_all_zero_weights_yield_zero_vector(self):
        vec, oov = embed_tokens(["aa", "bb"], {"aa": 0.0, "bb": 0.0}, _table())
        np.testing.assert_array_equal(vec, [0.0, 0.0])
        assert oov == 0

    def test_missing_weight_for_known_token_rejected(self):
        with pytest.raises(ValidationError, match="bb"):
            embed_tokens(["aa", "bb"], {"aa": 1.0}, _table())

    def test_negative_or_non_finite_weight_rejected(self):
        with pytest.raises(ValidationError, match="aa"):
            embed_tokens(["aa"], {"aa": -1.0}, _table())
        with pytest.raises(ValidationError, match="aa"):
            embed_tokens(["aa"], {"aa": float("nan")}, _table())

    def test_empty_token_list_yields_zero_vector(self):
        vec, oov = embed_tokens([], {}, _table())
        np.testing.assert_array_equal(vec, [0.0, 0.0])
        assert oov == 0

    @given(st.permutations(["aa", "bb", "cc", "zz", "aa", "bb"]))
    def test_order_invariant(self, tokens):
        weights = {"aa": 1.0, "bb": 2.0, "cc": 0.5}
        base, base_oov = embed_tokens(["aa", "bb", "cc", "zz"], weights, _table())
        vec, oov = embed_tokens(tokens, weights, _table())
        np.testing.assert_array_equal(vec, base)
        assert oov == base_oov

    @given(st.floats(min_value=0.01, max_value=100.0))
    def test_uniform_weight_scaling_is_a_no_op(self, scale):
        weights = {"aa": 1.0, "bb": 2.0, "cc": 0.5}
        scaled = {t: w * scale for t, w in weights.items()}
        base, _ = embed_tokens(["aa", "bb", "cc"], weights, _table())
        vec, _ = embed_tokens(["aa", "bb", "cc"], scaled, _table())
        np.testing.assert_allclose(vec, base, atol=1e-12)
