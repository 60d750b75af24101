import tracemalloc
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bucketref import reference_buckets
from bugloc.corpus import link_matrix
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


def _by_path(records, nb):
    """discretize over the records' sorted paths, read back as path -> keys."""
    paths = sorted({rec.path for rec in records})
    keys, links = discretize(records, nb, paths)
    bounds = links.indptr.tolist()
    return {
        path: [keys[j] for j in links.indices[start:stop].tolist()]
        for path, start, stop in zip(paths, bounds, bounds[1:])
    }


def _index(key):
    return int(key.rsplit(":", 1)[1])


def _assert_same_links(a, b):
    np.testing.assert_array_equal(a.data.view(np.uint64), b.data.view(np.uint64))
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(a.indptr, b.indptr)
    assert a.shape == b.shape


_METRICS = st.sampled_from(("lines", "fan-ö", 'a,"b"', "日本", "x:1"))
# small integers tie often; wide floats rarely do
_VALUES = st.integers(-2, 2).map(float) | st.floats(min_value=-1e9, max_value=1e9)


@st.composite
def _bucket_inputs(draw):
    """Records in shuffled order with unique (path, metric) pairs, as
    load_metrics returns them, a bucket count up to 64, often more than a
    metric's values, and a universe in an order of its own that holds every
    record path and maybe paths with no metrics."""
    paths = draw(st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=8, unique=True))
    cells = draw(st.lists(st.tuples(st.sampled_from(paths), _METRICS), max_size=20, unique=True))
    records = [MetricRecord(path, metric, draw(_VALUES)) for path, metric in cells]
    return draw(st.permutations(records)), draw(st.integers(1, 64)), draw(st.permutations(paths))


class TestDiscretize:
    def test_ten_values_five_buckets(self):
        out = _by_path(_records([float(v) for v in range(1, 11)]), 5)
        index = {path: _index(keys[0]) for path, keys in out.items()}
        assert index == {
            "f01": 0, "f02": 0, "f03": 1, "f04": 1, "f05": 2,
            "f06": 2, "f07": 3, "f08": 3, "f09": 4, "f10": 4,
        }

    def test_boundary_value_goes_to_lower_bucket(self):
        out = _by_path(_records([1.0, 2.0, 3.0, 4.0]), 2)
        assert _index(out["f02"][0]) == 0  # 2.0 is the boundary
        assert _index(out["f03"][0]) == 1

    def test_constant_metric_collapses_to_bucket_zero(self):
        out = _by_path(_records([7.0, 7.0, 7.0]), 4)
        for keys in out.values():
            (key,) = keys
            assert _index(key) == 0

    def test_single_bucket(self):
        out = _by_path(_records([1.0, 5.0, 9.0]), 1)
        assert {_index(keys[0]) for keys in out.values()} == {0}

    def test_node_key_format(self):
        keys, links = discretize(_records([1.0, 9.0]), 2, ["f01", "f02"])
        assert keys == ("lines:0", "lines:1")
        assert links.indices.tolist() == [0, 1] and links.indptr.tolist() == [0, 1, 2]

    def test_buckets_sorted_by_metric_per_path(self):
        records = [
            MetricRecord("a.java", "lines", 10.0),
            MetricRecord("a.java", "branchiness", 2.0),
            MetricRecord("b.java", "lines", 20.0),
            MetricRecord("b.java", "branchiness", 4.0),
        ]
        out = _by_path(records, 2)
        assert [key.split(":")[0] for key in out["a.java"]] == ["branchiness", "lines"]

    def test_metrics_bucketed_independently(self):
        records = [
            MetricRecord("a.java", "lines", 1.0),
            MetricRecord("b.java", "lines", 100.0),
            MetricRecord("a.java", "fanout", 100.0),
            MetricRecord("b.java", "fanout", 1.0),
        ]
        out = _by_path(records, 2)
        by = {key.split(":")[0]: _index(key) for key in out["a.java"]}
        assert by == {"lines": 0, "fanout": 1}

    def test_rejects_nonpositive_bucket_count(self):
        with pytest.raises(ValidationError):
            discretize(_records([1.0]), 0, ["f01"])

    def test_paths_without_metrics_get_empty_rows(self):
        keys, links = discretize(_records([1.0, 9.0]), 2, ["f02", "g", "f01"])
        assert keys == ("lines:0", "lines:1")
        assert links.indptr.tolist() == [0, 1, 1, 2] and links.indices.tolist() == [1, 0]
        keys, links = discretize([], 3, ["g"])
        assert keys == () and links.shape == (1, 0) and links.indptr.tolist() == [0, 0]

    @settings(max_examples=200)
    @given(_bucket_inputs())
    @example(([MetricRecord(p, "lines", 7.0) for p in "abc"], 4, ["c", "a", "b", "z"]))
    @example(([MetricRecord("a", 'a,"b"', 1.0), MetricRecord("b", "日本", 2.0)], 8, ["b", "a"]))
    def test_matches_the_dict_rule(self, inputs):
        records, nb, universe = inputs
        reference = reference_buckets(records, nb)
        listed = [reference.get(path, []) for path in universe]
        expected_keys = tuple(sorted(set(chain.from_iterable(listed))))
        keys, links = discretize(records, nb, universe)
        assert keys == expected_keys
        _assert_same_links(links, link_matrix(listed, expected_keys))

    def test_memory_does_not_grow_with_the_bucket_count(self, synth_dir):
        records = load_metrics(synth_dir / "metrics.csv")
        paths = sorted({rec.path for rec in records})
        tracemalloc.start()
        try:
            keys, _ = discretize(records, 10**5, paths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(keys) <= len(records)
        assert peak < 2**20, peak

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
        base = _by_path(_records(values), nb)
        doubled = _by_path(_records([v * 2.0 for v in values]), nb)
        for path in base:
            assert [_index(key) for key in base[path]] == [_index(key) for key in doubled[path]]

    @given(
        st.lists(
            st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
            min_size=2, max_size=40, unique=True,
        ),
        st.integers(min_value=1, max_value=6),
    )
    def test_distinct_values_fill_buckets_evenly(self, values, nb):
        out = _by_path(_records(values), nb)
        sizes = {}
        for keys in out.values():
            sizes[_index(keys[0])] = sizes.get(_index(keys[0]), 0) + 1
        assert max(sizes.values()) - min(sizes.values()) <= 1

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=30))
    def test_record_order_does_not_matter(self, values):
        paths = [rec.path for rec in _records(values)]
        fwd_keys, fwd = discretize(_records(values), 3, paths)
        rev_keys, rev = discretize(list(reversed(_records(values))), 3, paths)
        assert fwd_keys == rev_keys
        _assert_same_links(fwd, rev)
