"""The one record format of bugloc's binary files (errors.write_records and
errors.read_records): a round trip, and one table of damaged files run
against both artifacts that use it, the model's record file and the
embedding cache, each of which must read as a miss."""

import tempfile
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as npst

from bugloc import pipeline
from bugloc.embeddings import load_embeddings
from bugloc.errors import file_sha256, read_array, read_records, read_strings, write_records
from bugloc.regularizer import _parse_record, dump_model, record_path
from recordref import read_raw, record_spans, write_raw
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


def _model_record(tmp_path, synth_dir):
    path = tmp_path / "model.tsv"
    dump_model(model_of(GOLDEN / "model.tsv"), path)
    record = record_path(path)
    return record, lambda: read_records(record, partial(_parse_record, file_sha256(path)))


def _embedding_cache(tmp_path, synth_dir):
    cfg = pipeline.RunConfig(out_dir=str(tmp_path))
    cfg.apply_dataset_dir(synth_dir)
    pipeline.write_embedding_cache(cfg, load_embeddings(cfg.embeddings))
    parse = partial(pipeline._parse_embedding_cache, pipeline.sha256_file(cfg.embeddings))
    path = tmp_path / pipeline.EMBEDDING_CACHE_NAME
    return path, lambda: read_records(path, parse)


def _rewrite(path, change):
    header, records = read_raw(path)
    write_raw(path, *change(header, records))


def _cut_everywhere(path, read):
    """Each cut at a record's start, in its .npy header, at its data's start
    and in the middle of its data, and one byte short of the end."""
    data = path.read_bytes()
    cuts = {len(data) - 1}
    for start, body, end in record_spans(path):
        cuts.update((start, (start + body) // 2, body, (body + end) // 2))
    for size in sorted(cuts - {len(data)}):
        path.write_bytes(data[:size])
        assert read() is None, size


def _declare_a_header_larger_than_the_file(path, read):
    """The header record declares 1 GiB; the reader must see that the file
    cannot hold it before it allocates, since a host that overcommits
    memory would grant the allocation."""
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


DAMAGE = {
    "cut": _cut_everywhere,
    "trailing-byte": lambda path, read: path.write_bytes(path.read_bytes() + b"\0"),
    "other-dtype": lambda path, read: _rewrite(
        path, lambda header, records: (header, [*records[:-1], records[-1].astype(np.float32)])
    ),
    "fortran-order": lambda path, read: _rewrite(
        path, lambda header, records: (header, [*records[:-1], np.asfortranarray(records[-1])])
    ),
    "deep-header": lambda path, read: _rewrite(
        path, lambda header, records: (np.frombuffer(b"[" * 100_000, dtype=np.uint8), records)
    ),
    "stale-sha256": lambda path, read: _rewrite(
        path, lambda header, records: ({**header, "sha256": "0" * 64}, records)
    ),
    "shape-larger-than-file": _declare_a_header_larger_than_the_file,
}


@pytest.mark.parametrize("artifact", [_model_record, _embedding_cache], ids=["model", "embedding-cache"])
@pytest.mark.parametrize("damage", DAMAGE.values(), ids=DAMAGE.keys())
def test_a_damaged_record_file_is_a_miss(tmp_path, synth_dir, artifact, damage):
    path, read = artifact(tmp_path, synth_dir)
    # rewritten as read, the file is unchanged and still a hit
    data = path.read_bytes()
    _rewrite(path, lambda header, records: (header, records))
    assert path.read_bytes() == data and read() is not None
    # the matrix is the last record, with rows and columns enough for Fortran order to differ
    matrix = read_raw(path)[1][-1]
    assert matrix.dtype == np.float64 and min(matrix.shape) >= 2
    damage(path, read)
    assert read() is None
