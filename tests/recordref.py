"""Raw access to bugloc's record files for the tests, through numpy's own
.npy reader and writer: read every record of a file, and write records
exactly as given (pickled objects and Fortran order included), so that a
test can build any damaged file."""

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
