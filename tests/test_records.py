"""The one record format of bugloc's binary files (errors.write_records and
errors.read_records): round trips, and one table of damaged files run
against the two artifacts that use it, the model's record file and the
dataset cache, each of which must read as a miss; then the damage only a
dataset cache can have, which load_dataset must log as a miss, naming the
file, and load past to what the inputs give."""

import dataclasses
import logging
import tempfile
import tracemalloc
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra import numpy as npst

from bugloc import pipeline
from bugloc.errors import file_sha256, read_array, read_records, read_strings, replacing, write_records
from bugloc.regularizer import _parse_record, dump_model, record_path
from recordref import (
    read_dataset, read_raw, record_spans, strings_of, with_strings, write_dataset, write_raw,
)
from test_golden import GOLDEN, model_of

# any text a key may hold: "\n" too, but no lone surrogate
KEYS = st.text(st.characters(blacklist_categories=("Cs",)), max_size=4)
ARRAYS = npst.arrays(
    st.sampled_from([np.bool_, np.uint8, np.int64, np.float64]),
    npst.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
)


@given(
    header=st.dictionaries(st.text().filter(lambda key: key != "version"), st.integers() | st.text()),
    tables=st.lists(st.lists(KEYS, max_size=5).map(tuple), max_size=3),
    arrays=st.lists(ARRAYS, max_size=3),
)
@example(header={}, tables=[("a\nb", "", "\r\n", "\t", "日\n", "\U0001d11e\r"), ()], arrays=[])
def test_round_trip(header, tables, arrays):
    def parse(found, fh):
        strings = [read_strings(fh, len(table)) for table in tables]
        return found, strings, [read_array(fh, a.dtype, a.shape) for a in arrays]

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file.bin"
        write_records(path, header, (*tables, *arrays))
        found, found_tables, found_arrays = read_records(path, parse)
        raw_header, raw_records = read_raw(path)
    assert found == raw_header == {**header, "version": 2}
    assert found_tables == tables
    # each tuple of strings is a string table: offsets in code points, not bytes, then the text
    for at, table in enumerate(tables):
        offsets, text = raw_records[2 * at : 2 * at + 2]
        assert offsets.dtype == np.int64 and text.dtype == np.uint8
        assert offsets.tolist() == [sum(map(len, table[:i])) for i in range(len(table) + 1)]
        assert text.tobytes().decode("utf-8") == "".join(table)
    for array, got, raw in zip(arrays, found_arrays, raw_records[2 * len(tables):]):
        for each in (got, raw):
            assert each.dtype == array.dtype and each.shape == array.shape
            assert each.tobytes() == array.tobytes()
        assert got.flags.c_contiguous and got.flags.writeable


@given(
    strings=st.lists(st.text(st.characters(blacklist_categories=("Cs",))), max_size=5),
    keys=st.lists(KEYS, max_size=3),
)
@example(strings=["a\nb", "", "\r\n", "\t", "日\n"], keys=["k", "é"])
def test_a_string_table_holds_any_text(strings, keys):
    # "\n", "\r", "\t" and the empty string among them, before a second table
    def parse(header, fh):
        return read_strings(fh, len(strings)), read_strings(fh, len(keys))

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file.bin"
        write_records(path, {}, (tuple(strings), tuple(keys)))
        assert read_records(path, parse) == (tuple(strings), tuple(keys))
        # the offsets count code points, not bytes
        offsets, text = read_raw(path)[1][:2]
        assert offsets.tolist() == [sum(map(len, strings[:i])) for i in range(len(strings) + 1)]
        assert text.tobytes().decode("utf-8") == "".join(strings)


@pytest.mark.parametrize(
    "offsets, text",
    [
        ([1, 2], "ab"),  # not from 0
        ([0, 2, 1, 2], "ab"),  # descending
        ([0, 1], "ab"),  # short of the text's end
        ([0, 3], "ab"),  # past it
        ([0, 2], "é"),  # at the byte count, not the code point count
        ([0, 1], b"\xff"),  # not UTF-8
        ([0], "ab"),  # no strings, but text
    ],
)
def test_a_string_table_that_does_not_fit_is_a_miss(offsets, text):
    raw = text if isinstance(text, bytes) else text.encode("utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file.bin"
        write_records(path, {}, (np.array(offsets, dtype=np.int64), np.frombuffer(raw, dtype=np.uint8)))
        for count in (len(offsets) - 1, len(offsets)):
            assert read_records(path, lambda header, fh: read_strings(fh, count)) is None


@pytest.mark.parametrize("count", [True, 1.0, None, "1"])
def test_a_string_count_that_is_not_an_int_is_a_miss(tmp_path, count):
    path = tmp_path / "file.bin"
    write_records(path, {}, (("a",),))
    assert read_records(path, lambda header, fh: read_strings(fh, 1)) == ("a",)
    assert read_records(path, lambda header, fh: read_strings(fh, count)) is None


def test_replacing_removes_its_temporary_file_when_its_block_raises(tmp_path):
    path = tmp_path / "file.bin"
    path.write_bytes(b"old")
    for error in (ValueError, KeyboardInterrupt):
        with pytest.raises(error):
            with replacing(path) as fh:
                fh.write(b"new")
                raise error
        assert path.read_bytes() == b"old"
        assert sorted(tmp_path.iterdir()) == [path]


def test_a_shape_pattern_matches_lengths_and_ranks():
    def parse(shape, header, fh):
        return read_array(fh, np.float64, shape)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file.bin"
        write_records(path, {}, (np.zeros((2, 3)),))
        for shape in [(2, 3), (None, 3), (2, None), (None, None)]:
            assert read_records(path, partial(parse, shape)).shape == (2, 3)
        for shape in [(3, 3), (2, 2), (None,), (None, None, None), ()]:
            assert read_records(path, partial(parse, shape)) is None


def _stale_sha256(header):
    return {**header, "sha256": "0" * 64}


def _model_record(tmp_path, synth_dir):
    path = tmp_path / "model.tsv"
    dump_model(model_of(GOLDEN / "model.tsv"), path)
    record = record_path(path)
    read = lambda: read_records(record, partial(_parse_record, file_sha256(path)))  # noqa: E731
    return SimpleNamespace(path=record, read=read, stale=_stale_sha256)


def _dataset_cache(tmp_path, synth_dir):
    cfg = pipeline.RunConfig(out_dir=str(tmp_path))
    cfg.apply_dataset_dir(synth_dir)
    path = pipeline.write_dataset_cache(cfg, pipeline.load_dataset(cfg, use_cache=False))
    parse = partial(pipeline._parse_dataset_cache, cfg)

    def stale(header):
        key = header["key"]
        return {**header, "key": {**key, "inputs": {**key["inputs"], "reports": "0" * 64}}}

    return SimpleNamespace(path=path, read=lambda: read_records(path, parse), stale=stale)


def _rewrite(path, change):
    header, records = read_raw(path)
    write_raw(path, *change(header, records))


def _last_matrix(records) -> int:
    """The index of the last record of two or more dimensions, with rows and
    columns enough for Fortran order to differ."""
    at = max(i for i, record in enumerate(records) if record.ndim >= 2)
    assert min(records[at].shape) >= 2
    return at


def _fortran_order(artifact):
    def change(header, records):
        at = _last_matrix(records)
        return header, [*records[:at], np.asfortranarray(records[at]), *records[at + 1:]]

    _rewrite(artifact.path, change)


def _cut_everywhere(artifact):
    """Each cut at a record's start, in its .npy header, at its data's start
    and in the middle of its data, and one byte short of the end."""
    path, read = artifact.path, artifact.read
    data = path.read_bytes()
    cuts = {len(data) - 1}
    for start, body, end in record_spans(path):
        cuts.update((start, (start + body) // 2, body, (body + end) // 2))
    for size in sorted(cuts - {len(data)}):
        path.write_bytes(data[:size])
        assert read() is None, size


def _declare_a_header_larger_than_the_file(artifact):
    """The header record declares 1 GiB; the reader must see that the file
    cannot hold it before it allocates, since a host that overcommits
    memory would grant the allocation."""
    path, read = artifact.path, artifact.read
    data = path.read_bytes()
    _, body, _ = record_spans(path)[0]
    with open(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(
            fh, {"descr": "|u1", "fortran_order": False, "shape": (1 << 30,)}
        )
        fh.write(data[body:])
    tracemalloc.start()
    try:
        assert read() is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 24


# each damage(artifact); a record file of the model or the dataset cache
# must read as a miss after each
DAMAGE = {
    "cut": _cut_everywhere,
    "trailing-byte": lambda artifact: artifact.path.write_bytes(artifact.path.read_bytes() + b"\0"),
    "other-dtype": lambda artifact: _rewrite(
        artifact.path, lambda header, records: (header, [*records[:-1], records[-1].astype(np.float32)])
    ),
    "fortran-order": _fortran_order,
    "deep-header": lambda artifact: _rewrite(
        artifact.path, lambda header, records: (np.frombuffer(b"[" * 100_000, dtype=np.uint8), records)
    ),
    "stale-sha256": lambda artifact: _rewrite(
        artifact.path, lambda header, records: (artifact.stale(header), records)
    ),
    "shape-larger-than-file": _declare_a_header_larger_than_the_file,
}
ARTIFACTS = {"model": _model_record, "dataset-cache": _dataset_cache}
CASES = [
    pytest.param(artifact, damage, id=f"{damage_name}-{artifact_name}")
    for damage_name, damage in DAMAGE.items()
    for artifact_name, artifact in ARTIFACTS.items()
]


@pytest.mark.parametrize("artifact, damage", CASES)
def test_a_damaged_record_file_is_a_miss(tmp_path, synth_dir, artifact, damage):
    artifact = artifact(tmp_path, synth_dir)
    # rewritten as read, the file is unchanged and still a hit
    data = artifact.path.read_bytes()
    _rewrite(artifact.path, lambda header, records: (header, records))
    assert artifact.path.read_bytes() == data and artifact.read() is not None
    damage(artifact)
    assert artifact.read() is None


def _set(name, at, value):
    """A damage that sets records[name][at] to value, or to value(header,
    records) when it is a function."""
    def change(header, records):
        record = records[name].copy()
        record[at] = value(header, records) if callable(value) else value
        return header, {**records, name: record}

    return change


def _past_the_dictionary(header, records):
    return header["terms"]


def _strings(name, change):
    """A damage that replaces the strings of the string table name by
    change(strings)."""
    def damage(header, records):
        return header, with_strings(records, name, change(strings_of(records, name)))

    return damage


def _set_string(name, at, value):
    """A damage that sets string at of the string table name to value, or
    to the string at value when that is an int."""
    def change(strings):
        strings[at] = strings[value] if isinstance(value, int) else value
        return strings

    return _strings(name, change)


def _change_fixed(change):
    """A damage that calls change on the list of the first report's fixed
    files that has any, and stores what it returns in its place."""
    def damage(header, records):
        offsets = records["fixed_offsets"].tolist()
        paths = strings_of(records, "fixed_path")
        lists = [paths[start:end] for start, end in zip(offsets, offsets[1:])]
        at = next(i for i, files in enumerate(lists) if files)
        lists[at] = change(lists[at])
        offsets = np.cumsum([0, *map(len, lists)], dtype=np.int64)
        fixed = with_strings(records, "fixed_path", [path for files in lists for path in files])
        return header, {**fixed, "fixed_offsets": offsets}

    return damage


def _header(**changes):
    """A damage that sets the header's keys to the values given; one of None drops it."""
    def change(header, records):
        header = {**header, **changes}
        return {k: v for k, v in header.items() if v is not None}, records

    return change


def _records(**changes):
    """A damage that replaces each named record by change(record, records)."""
    def damage(header, records):
        return header, {**records, **{name: f(records[name], records) for name, f in changes.items()}}

    return damage


# damage that only the dataset cache's layout can have, each (header, records) -> the same
DATASET_DAMAGE = {
    "report-id-past-the-dictionary": _set("report_token_ids", 0, _past_the_dictionary),
    "negative-report-id": _set("report_token_ids", -1, -1),
    "source-id-past-the-dictionary": _set("source_token_ids", 0, _past_the_dictionary),
    "report-indptr-descends": _set("report_token_indptr", 1, 10**6),
    "report-indptr-not-from-0": _set("report_token_indptr", 0, 1),
    "source-indptr-descends": _set("source_token_indptr", -2, 10**6),
    "fixed-offsets-descend": _set("fixed_offsets", 1, 10**6),
    "report-id-offsets-descend": _set("report_id_offsets", 1, 10**6),
    "report-id-offsets-short": _set("report_id_offsets", -1, 1),
    "path-offsets-past-the-text": _set(
        "source_path_offsets", -1, lambda header, records: len(records["source_path_text"]) + 1
    ),
    "dictionary-unsorted": _strings("term", lambda terms: sorted(terms, reverse=True)),
    "dictionary-repeats-a-term": _strings("term", lambda terms: [terms[0], *terms[:-1]]),
    "term-count-off-by-one": lambda header, records: ({**header, "terms": header["terms"] + 1}, records),
    "report-count-not-an-int": lambda header, records: (
        {**header, "reports": float(header["reports"])}, records
    ),
    "source-count-missing": _header(sources=None),
    "source-records-missing": lambda header, records: (
        header, {name: record for name, record in records.items() if not name.startswith("source")}
    ),
    "token-ids-int64": _records(report_token_ids=lambda ids, records: ids.astype(np.int64)),
    # what the loaders reject or dedupe
    "repeated-report-id": _set_string("report_id", 1, 0),
    "empty-report-id": _set_string("report_id", 0, ""),
    "repeated-fixed-file": _change_fixed(lambda files: [*files, files[0]]),
    "empty-fixed-file": _change_fixed(lambda files: ["", *files[1:]]),
    "repeated-source-path": _set_string("source_path", 1, 0),
    "empty-source-path": _set_string("source_path", 0, ""),
    "repeated-path-and-metric": lambda header, records: _set_string("metric_name", 1, 0)(
        *_set_string("metric_path", 1, 0)(header, records)
    ),
    "empty-metric-path": _set_string("metric_path", 0, ""),
    "empty-metric-name": _set_string("metric_name", 0, ""),
    "metric-count-short": lambda header, records: (
        {**header, "metric_records": header["metric_records"] - 1}, records
    ),
    "non-finite-metric-value": _set("metric_values", 0, np.nan),
    # the embedding table
    "stale-sha": lambda header, records: (
        {**header, "key": {**header["key"], "inputs": {**header["key"]["inputs"], "embeddings": "0" * 64}}},
        records,
    ),
    "no-key": _header(key=None),
    "float32": _records(matrix=lambda matrix, records: matrix.astype(np.float32)),
    "row-missing": _records(matrix=lambda matrix, records: matrix[:-1]),
    "flat-matrix": _records(matrix=lambda matrix, records: matrix.reshape(-1)),
    "non-finite": _records(matrix=lambda matrix, records: np.where(matrix > 0, np.inf, matrix)),
    "duplicate-token": _strings("token", lambda tokens: ["dup", "dup", *tokens[2:]]),
    "needs-pickle": _records(
        token_text=lambda text, records: np.array(strings_of(records, "token"), dtype=object)
    ),
}


def _rewritten(damage):
    """A damage of the file at path that rewrites its records through damage."""
    return lambda path: write_dataset(path, *damage(*read_dataset(path)))


def _torn(size):
    """A damage of the file at path that keeps its first size bytes, or
    size(length) bytes when size is a function."""
    def cut(path):
        data = path.read_bytes()
        path.write_bytes(data[: size(len(data)) if callable(size) else size])

    return cut


MISSES = {
    **{name: _rewritten(damage) for name, damage in DATASET_DAMAGE.items()},
    "torn-at-0": _torn(0),
    "torn-at-1": _torn(1),
    "torn-at-100": _torn(100),
    "torn-in-half": _torn(lambda length: length // 2),
    "torn-one-byte-short": _torn(lambda length: length - 1),
}


def assert_same_dataset(loaded, fresh):
    """The loaded dataset is fresh: every field of pipeline.Dataset equal,
    token ids through TokenIds.__eq__, and the metric values and the
    embedding matrix bit for bit."""
    for field in dataclasses.fields(pipeline.Dataset):
        mine, theirs = getattr(loaded, field.name), getattr(fresh, field.name)
        if field.name == "table":
            assert mine.tokens == theirs.tokens
            assert mine.matrix.dtype == theirs.matrix.dtype == np.float64
            np.testing.assert_array_equal(mine.matrix.view(np.uint64), theirs.matrix.view(np.uint64))
            continue
        assert mine == theirs, field.name
        if field.name == "metric_records":
            values = [np.array([rec.value for rec in records]) for records in (mine, theirs)]
            assert values[0].tobytes() == values[1].tobytes()


@pytest.mark.parametrize("damage", MISSES.values(), ids=MISSES.keys())
def test_a_damaged_dataset_cache_is_a_logged_miss(tmp_path, synth_dir, caplog, damage):
    cfg = pipeline.RunConfig(out_dir=str(tmp_path))
    cfg.apply_dataset_dir(synth_dir)
    fresh = pipeline.load_dataset(cfg, use_cache=False)
    path = pipeline.write_dataset_cache(cfg, fresh)
    # poisoned values: a dataset read from this cache would differ from the inputs'
    write_dataset(path, *_records(matrix=lambda matrix, records: matrix + 1.0)(*read_dataset(path)))
    damage(path)
    with caplog.at_level(logging.INFO, logger="bugloc.pipeline"):
        loaded = pipeline.load_dataset(cfg)
    logged = [record.getMessage() for record in caplog.records if record.name == "bugloc.pipeline"]
    assert logged == [f"not using {path}; reading the inputs"]
    assert_same_dataset(loaded, fresh)
