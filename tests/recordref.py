"""Raw access to bugloc's record files for the tests, through numpy's own
.npy reader and writer: read every record of a file, and write records
exactly as given (pickled objects and Fortran order included), so that a
test can build any damaged file; and a corpus cache's records by name, and
its token maps decoded without bugloc's reader."""

import json
import math
import os

import numpy as np


def read_raw(path) -> tuple[dict, list[np.ndarray]]:
    """The header of the record file at path, and its other records."""
    size = os.path.getsize(path)
    records = []
    with open(path, "rb") as fh:
        while fh.tell() < size:
            records.append(np.lib.format.read_array(fh, allow_pickle=False))
    return json.loads(records[0].tobytes()), records[1:]


def write_raw(path, header, records) -> None:
    """Write header, a dict as JSON text or an array as it is, then records."""
    if isinstance(header, dict):
        header = np.frombuffer(json.dumps(header, sort_keys=True).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        for record in (header, *records):
            np.lib.format.write_array(fh, record, version=(1, 0), allow_pickle=True)


def record_spans(path) -> list[tuple[int, int, int]]:
    """(start, data start, end) byte offsets of each record of the file at path."""
    size = os.path.getsize(path)
    spans = []
    with open(path, "rb") as fh:
        while fh.tell() < size:
            start = fh.tell()
            np.lib.format.read_magic(fh)
            shape, _, dtype = np.lib.format.read_array_header_1_0(fh)
            data = fh.tell()
            spans.append((start, data, fh.seek(math.prod(shape) * dtype.itemsize, 1)))
    return spans


# the records of a corpus cache after its header, by name; the last four
# are there only when the run has sources
CORPUS_RECORDS = (
    "report_id_offsets", "report_id_text",
    "fixed_offsets", "fixed_path_offsets", "fixed_path_text",
    "terms",
    "report_token_indptr", "report_token_ids",
    "source_path_offsets", "source_path_text",
    "source_token_indptr", "source_token_ids",
)


def read_corpus(path) -> tuple[dict, dict[str, np.ndarray]]:
    """The header of the corpus cache at path, and its records by name."""
    header, records = read_raw(path)
    return header, dict(zip(CORPUS_RECORDS, records))


def write_corpus(path, header, records: dict) -> None:
    """Write a corpus cache of header and the named records, in layout order."""
    write_raw(path, header, [records[name] for name in CORPUS_RECORDS if name in records])


def _strings(offsets, text) -> list[str]:
    text = text.tobytes().decode("utf-8")
    return [text[start:end] for start, end in zip(offsets[:-1], offsets[1:])]


def corpus_token_maps(path) -> tuple[dict[str, list[str]], dict[str, list[str]] | None]:
    """The report and source token maps of the corpus cache at path: each
    report id, and each source path, mapped to its tokens in order."""
    header, records = read_corpus(path)
    text = records["terms"].tobytes().decode("utf-8")
    terms = text.split("\n") if header["terms"] else []

    def token_map(kind, names):
        indptr, ids = records[f"{kind}_token_indptr"], records[f"{kind}_token_ids"]
        return {
            name: [terms[i] for i in ids[start:end]]
            for name, start, end in zip(names, indptr[:-1], indptr[1:])
        }

    ids = _strings(records["report_id_offsets"], records["report_id_text"])
    if "source_token_ids" not in records:
        return token_map("report", ids), None
    paths = _strings(records["source_path_offsets"], records["source_path_text"])
    return token_map("report", ids), token_map("source", paths)
