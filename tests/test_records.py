"""The one record format of bugloc's binary files (errors.write_records and
errors.read_records): round trips, and one table of damaged files run
against the three artifacts that use it, the model's record file, the
embedding cache and the corpus cache, each of which must read as a miss;
then the damage only a corpus cache can have, which load_dataset must log
as a miss, naming the file, and load past."""

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
from bugloc.embeddings import load_embeddings
from bugloc.errors import (
    file_sha256, read_array, read_records, read_string_table, read_strings, string_table,
    write_records,
)
from bugloc.regularizer import _parse_record, dump_model, record_path
from recordref import read_corpus, read_raw, record_spans, write_corpus, write_raw
from test_golden import GOLDEN, model_of

# any text a key may hold: no "\n", which joins the keys, and no lone surrogate
KEYS = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"), max_size=4)
ARRAYS = npst.arrays(
    st.sampled_from([np.bool_, np.uint8, np.int64, np.float64]),
    npst.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
)


@given(
    header=st.dictionaries(st.text().filter(lambda key: key != "version"), st.integers() | st.text()),
    keys=st.lists(KEYS, max_size=5),
    arrays=st.lists(ARRAYS, max_size=3),
)
def test_round_trip(header, keys, arrays):
    def parse(found, fh):
        return found, read_strings(fh, len(keys)), [read_array(fh, a.dtype, a.shape) for a in arrays]

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file.bin"
        write_records(path, header, (tuple(keys), *arrays))
        found, found_keys, found_arrays = read_records(path, parse)
        raw_header, raw_records = read_raw(path)
    assert found == raw_header == {**header, "version": 1}
    assert found_keys == tuple(keys)
    assert raw_records[0].dtype == np.uint8
    assert raw_records[0].tobytes().decode("utf-8") == "\n".join(keys)
    for array, got, raw in zip(arrays, found_arrays, raw_records[1:]):
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
    # "\n", "\r", "\t" and the empty string among them, before a "\n"-joined record
    def parse(header, fh):
        return read_string_table(fh, len(strings)), read_strings(fh, len(keys))

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file.bin"
        write_records(path, {}, (*string_table(strings), tuple(keys)))
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
    ],
)
def test_a_string_table_that_does_not_fit_is_a_miss(offsets, text):
    raw = text if isinstance(text, bytes) else text.encode("utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file.bin"
        write_records(path, {}, (np.array(offsets, dtype=np.int64), np.frombuffer(raw, dtype=np.uint8)))
        for count in (len(offsets) - 1, len(offsets)):
            assert read_records(path, lambda header, fh: read_string_table(fh, count)) is None


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


def _embedding_cache(tmp_path, synth_dir):
    cfg = pipeline.RunConfig(out_dir=str(tmp_path))
    cfg.apply_dataset_dir(synth_dir)
    pipeline.write_embedding_cache(cfg, load_embeddings(cfg.embeddings))
    parse = partial(pipeline._parse_embedding_cache, pipeline.sha256_file(cfg.embeddings))
    path = tmp_path / pipeline.EMBEDDING_CACHE_NAME
    return SimpleNamespace(path=path, read=lambda: read_records(path, parse), stale=_stale_sha256)


def _corpus_cache(tmp_path, synth_dir):
    cfg = pipeline.RunConfig(out_dir=str(tmp_path))
    cfg.apply_dataset_dir(synth_dir)
    pipeline.write_corpus_cache(cfg, pipeline.load_dataset(cfg, use_cache=False).corpus)
    parse = partial(pipeline._parse_corpus_cache, cfg)
    path = tmp_path / pipeline.CACHE_NAME

    def stale(header):
        return {**header, "key": {**header["key"], "reports_sha256": "0" * 64}}

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


# each damage(artifact); a record file of the model, the embedding cache or
# the corpus cache must read as a miss after each
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
ARTIFACTS = {"model": _model_record, "embedding-cache": _embedding_cache, "corpus-cache": _corpus_cache}
# the corpus cache holds no record of two dimensions, which alone has a Fortran order
CASES = [
    pytest.param(artifact, damage, id=f"{damage_name}-{artifact_name}")
    for damage_name, damage in DAMAGE.items()
    for artifact_name, artifact in ARTIFACTS.items()
    if (damage_name, artifact_name) != ("fortran-order", "corpus-cache")
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


# damage that only the corpus cache's layout can have, each (header, records) -> the same
CORPUS_DAMAGE = {
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
    "dictionary-unsorted": lambda header, records: (
        header, {**records, "terms": _strings_record(sorted(_terms(records), reverse=True))}
    ),
    "dictionary-repeats-a-term": lambda header, records: (
        header, {**records, "terms": _strings_record([_terms(records)[0], *_terms(records)[:-1]])}
    ),
    "term-count-off-by-one": lambda header, records: ({**header, "terms": header["terms"] + 1}, records),
    "report-count-not-an-int": lambda header, records: (
        {**header, "reports": float(header["reports"])}, records
    ),
    "source-count-missing": lambda header, records: ({**header, "sources": None}, records),
    "source-records-missing": lambda header, records: (
        header, {name: record for name, record in records.items() if not name.startswith("source")}
    ),
    "token-ids-int64": lambda header, records: (
        header, {**records, "report_token_ids": records["report_token_ids"].astype(np.int64)}
    ),
}


def _terms(records) -> list[str]:
    return records["terms"].tobytes().decode("utf-8").split("\n")


def _strings_record(strings):
    return np.frombuffer("\n".join(strings).encode("utf-8"), dtype=np.uint8)


@pytest.mark.parametrize("damage", CORPUS_DAMAGE.values(), ids=CORPUS_DAMAGE.keys())
def test_a_damaged_corpus_cache_is_a_logged_miss(tmp_path, synth_dir, caplog, damage):
    cfg = pipeline.RunConfig(out_dir=str(tmp_path))
    cfg.apply_dataset_dir(synth_dir)
    fresh = pipeline.load_dataset(cfg, use_cache=False)
    path = tmp_path / pipeline.CACHE_NAME
    pipeline.write_corpus_cache(cfg, fresh.corpus)
    write_corpus(path, *damage(*read_corpus(path)))
    with caplog.at_level(logging.INFO, logger="bugloc.pipeline"):
        loaded = pipeline.load_dataset(cfg)
    logged = [record.getMessage() for record in caplog.records if record.name == "bugloc.pipeline"]
    assert f"not using {path}; tokenizing the corpus" in logged
    assert loaded.corpus == fresh.corpus
