import pytest
from hypothesis import given, strategies as st

from bugloc.errors import ParseError, ValidationError
from bugloc.metrics import MetricRecord, discretize, load_metrics


def _write_csv(path, rows, header="path,metric,value"):
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""), encoding="utf-8")
    return path


class TestLoadMetrics:
    def test_loads_rows(self, tmp_path):
        p = _write_csv(tmp_path / "m.csv", ["src/A.java,lines,120.5", "src/B.java,lines,80"])
        records = load_metrics(p)
        assert records == [
            MetricRecord("src/A.java", "lines", 120.5),
            MetricRecord("src/B.java", "lines", 80.0),
        ]

    def test_wrong_header_rejected(self, tmp_path):
        p = _write_csv(tmp_path / "m.csv", ["a,l,1"], header="file,metric,value")
        with pytest.raises(ParseError, match="header"):
            load_metrics(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("", encoding="utf-8")
        with pytest.raises(ParseError, match="header"):
            load_metrics(p)

    def test_duplicate_pair_names_row(self, tmp_path):
        p = _write_csv(tmp_path / "m.csv", ["a.java,lines,1", "a.java,lines,2"])
        with pytest.raises(ValidationError, match="row 3"):
            load_metrics(p)

    def test_same_path_different_metric_allowed(self, tmp_path):
        p = _write_csv(tmp_path / "m.csv", ["a.java,lines,1", "a.java,fanout,2"])
        assert len(load_metrics(p)) == 2

    def test_non_numeric_value_names_row(self, tmp_path):
        p = _write_csv(tmp_path / "m.csv", ["a.java,lines,many"])
        with pytest.raises(ParseError, match="row 2"):
            load_metrics(p)

    def test_non_finite_value_rejected(self, tmp_path):
        p = _write_csv(tmp_path / "m.csv", ["a.java,lines,inf"])
        with pytest.raises(ValidationError, match="row 2"):
            load_metrics(p)

    def test_field_count_checked(self, tmp_path):
        p = _write_csv(tmp_path / "m.csv", ["a.java,lines"])
        with pytest.raises(ParseError, match="3 fields"):
            load_metrics(p)


def _records(values, metric="lines"):
    return [MetricRecord(f"f{i:02d}", metric, v) for i, v in enumerate(values, 1)]


class TestDiscretize:
    def test_ten_values_five_buckets(self):
        out = discretize(_records([float(v) for v in range(1, 11)]), 5)
        index = {path: buckets[0].bucket_index for path, buckets in out.items()}
        assert index == {
            "f01": 0, "f02": 0, "f03": 1, "f04": 1, "f05": 2,
            "f06": 2, "f07": 3, "f08": 3, "f09": 4, "f10": 4,
        }

    def test_boundary_value_goes_to_lower_bucket(self):
        out = discretize(_records([1.0, 2.0, 3.0, 4.0]), 2)
        assert out["f02"][0].bucket_index == 0  # 2.0 is the boundary
        assert out["f03"][0].bucket_index == 1

    def test_constant_metric_collapses_to_bucket_zero(self):
        out = discretize(_records([7.0, 7.0, 7.0]), 4)
        for buckets in out.values():
            (b,) = buckets
            assert b.bucket_index == 0

    def test_single_bucket(self):
        out = discretize(_records([1.0, 5.0, 9.0]), 1)
        assert {b[0].bucket_index for b in out.values()} == {0}

    def test_node_key_format(self):
        out = discretize(_records([1.0, 9.0]), 2)
        assert out["f01"][0].node_key == "lines:0"
        assert out["f02"][0].node_key == "lines:1"

    def test_buckets_sorted_by_metric_per_path(self):
        records = [
            MetricRecord("a.java", "lines", 10.0),
            MetricRecord("a.java", "branchiness", 2.0),
            MetricRecord("b.java", "lines", 20.0),
            MetricRecord("b.java", "branchiness", 4.0),
        ]
        out = discretize(records, 2)
        assert [b.metric for b in out["a.java"]] == ["branchiness", "lines"]

    def test_metrics_bucketed_independently(self):
        records = [
            MetricRecord("a.java", "lines", 1.0),
            MetricRecord("b.java", "lines", 100.0),
            MetricRecord("a.java", "fanout", 100.0),
            MetricRecord("b.java", "fanout", 1.0),
        ]
        out = discretize(records, 2)
        by = {(b.metric): b.bucket_index for b in out["a.java"]}
        assert by == {"lines": 0, "fanout": 1}

    def test_rejects_nonpositive_bucket_count(self):
        with pytest.raises(ValidationError):
            discretize(_records([1.0]), 0)

    @given(
        st.lists(
            st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
            min_size=1, max_size=40, unique=True,
        ),
        st.integers(min_value=1, max_value=6),
    )
    def test_doubling_values_never_moves_a_file(self, values, nb):
        # x -> 2x is exact in floats, strictly increasing, so quantile
        # membership must not change
        base = discretize(_records(values), nb)
        doubled = discretize(_records([v * 2.0 for v in values]), nb)
        for path in base:
            assert [b.bucket_index for b in base[path]] == [
                b.bucket_index for b in doubled[path]
            ]

    @given(
        st.lists(
            st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
            min_size=2, max_size=40, unique=True,
        ),
        st.integers(min_value=1, max_value=6),
    )
    def test_distinct_values_fill_buckets_evenly(self, values, nb):
        out = discretize(_records(values), nb)
        sizes = {}
        for buckets in out.values():
            sizes[buckets[0].bucket_index] = sizes.get(buckets[0].bucket_index, 0) + 1
        assert max(sizes.values()) - min(sizes.values()) <= 1

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=30))
    def test_record_order_does_not_matter(self, values):
        fwd = discretize(_records(values), 3)
        rev = discretize(list(reversed(_records(values))), 3)
        assert fwd == rev
