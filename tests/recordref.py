"""Raw access to bugloc's record files for the tests, through numpy's own
.npy reader and writer: read every record of a file, and write records
exactly as given (pickled objects and Fortran order included), so that a
test can build any damaged file; and a dataset cache's records by name,
its string tables, and its token maps decoded without bugloc's reader."""

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


# the records of a dataset cache after its header, by name, in layout order:
# the corpus, the metric records and the embedding table; the four source
# records are there only when the run has sources
DATASET_RECORDS = (
    "report_id_offsets", "report_id_text",
    "fixed_offsets", "fixed_path_offsets", "fixed_path_text",
    "term_offsets", "term_text",
    "report_token_indptr", "report_token_ids",
    "source_path_offsets", "source_path_text",
    "source_token_indptr", "source_token_ids",
    "metric_path_offsets", "metric_path_text",
    "metric_name_offsets", "metric_name_text",
    "metric_values",
    "token_offsets", "token_text", "matrix",
)


def read_dataset(path) -> tuple[dict, dict[str, np.ndarray]]:
    """The header of the dataset cache at path, and its records by name."""
    header, records = read_raw(path)
    sources = header["sources"] is not None
    names = [name for name in DATASET_RECORDS if sources or not name.startswith("source")]
    return header, dict(zip(names, records))


def write_dataset(path, header, records: dict) -> None:
    """Write a dataset cache of header and the named records, in layout order."""
    write_raw(path, header, [records[name] for name in DATASET_RECORDS if name in records])


def strings_of(records: dict, name: str) -> list[str]:
    """The strings of the string table stored as records name_offsets and name_text."""
    text = records[f"{name}_text"].tobytes().decode("utf-8")
    offsets = records[f"{name}_offsets"]
    return [text[start:end] for start, end in zip(offsets[:-1], offsets[1:])]


def with_strings(records: dict, name: str, strings) -> dict:
    """records with the string table name holding strings: the offsets, in
    code points, at which each starts, then the end of the last, and their
    UTF-8 text."""
    strings = list(strings)
    offsets = np.cumsum([0, *map(len, strings)], dtype=np.int64)
    text = np.frombuffer("".join(strings).encode("utf-8"), dtype=np.uint8)
    return {**records, f"{name}_offsets": offsets, f"{name}_text": text}


def corpus_token_maps(path) -> tuple[dict[str, list[str]], dict[str, list[str]] | None]:
    """The report and source token maps of the dataset cache at path: each
    report id, and each source path, mapped to its tokens in order."""
    records = read_dataset(path)[1]
    terms = strings_of(records, "term")

    def token_map(kind, names):
        indptr, ids = records[f"{kind}_token_indptr"], records[f"{kind}_token_ids"]
        return {
            name: [terms[i] for i in ids[start:end]]
            for name, start, end in zip(names, indptr[:-1], indptr[1:])
        }

    ids = strings_of(records, "report_id")
    if "source_token_ids" not in records:
        return token_map("report", ids), None
    return token_map("report", ids), token_map("source", strings_of(records, "source_path"))
