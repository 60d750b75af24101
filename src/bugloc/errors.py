"""Shared exception types, the UTF-8 reader that turns an open or decode
error into one of them, the one file hash, the one CSV dialect every
output is written in, and the one record format of the binary files."""

import csv
import hashlib
import json
import math
import os
from contextlib import contextmanager
from pathlib import Path, PurePath
from types import SimpleNamespace

import numpy as np

# the layout version of every record file, which its header holds: a change
# to any record file's layout raises it, and older files become misses
RECORDS_VERSION = 2


class ValidationError(Exception):
    """Raised when an input or argument violates a documented contract."""


class ParseError(ValidationError):
    """Raised when an input file cannot be parsed."""


@contextmanager
def read_text(path, newline=None, what="file"):
    """Open path as UTF-8 text. A file that cannot be opened raises a
    ValidationError, "cannot read <what> <path>: <reason>", and bytes that
    are not UTF-8 a ParseError naming the file."""
    try:
        fh = open(path, encoding="utf-8", newline=newline)
    except OSError as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}") from exc
    try:
        with fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def file_sha256(path) -> str:
    """Hex sha256 of a file's bytes, read in chunks; OSError if it cannot be read."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_csv(target, header, rows) -> None:
    """Write a header and rows as CSV with "\\n" line ends and csv's minimal
    quoting: to the file at target, as UTF-8, or to target itself when it is
    an open text stream such as sys.stdout."""
    if isinstance(target, (str, PurePath)):
        with open(target, "w", encoding="utf-8", newline="") as fh:
            write_csv(fh, header, rows)
    else:
        # the writer quotes a field holding a character of its line end, so
        # with "\r\n" it quotes a bare "\r", which a reader takes as one; each
        # row it writes then ends in "\n" alone
        rows_out = SimpleNamespace(write=lambda row: target.write(row[:-2] + "\n"))
        writer = csv.writer(rows_out, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows(rows)


@contextmanager
def replacing(path):
    """Open a temporary file beside path, making its directory, to write bytes
    to, and rename it onto path once the block ends, so a reader sees the old
    file or the new one; a block that raises, or is interrupted, removes it."""
    tmp = Path(f"{path}.tmp")
    tmp.parent.mkdir(parents=True, exist_ok=True)
    try:
        with open(tmp, "wb") as fh:
            yield fh
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def write_records(path, header: dict, records) -> None:
    """Write a record file: .npy version 1.0 records, the first the header
    as JSON text, with RECORDS_VERSION added, then each of records, an
    array, or a tuple of strings, which may hold any character, stored as a
    string table: an int64 record of the offsets, in code points, at which
    each string starts, then the end of the last, and a record of their
    UTF-8 text, joined with nothing between."""
    header = json.dumps({**header, "version": RECORDS_VERSION}, sort_keys=True).encode()
    arrays = [np.frombuffer(header, dtype=np.uint8)]
    for record in records:
        if isinstance(record, np.ndarray):
            arrays.append(record)
        else:
            offsets = np.cumsum([0, *map(len, record)], dtype=np.int64)
            arrays += [offsets, np.frombuffer("".join(record).encode("utf-8"), dtype=np.uint8)]
    with replacing(path) as fh:
        for array in arrays:
            np.lib.format.write_array(fh, array, version=(1, 0), allow_pickle=False)


def read_array(fh, dtype, shape: tuple) -> np.ndarray:
    """The next record of an open record file: a C-order array of dtype
    whose shape matches shape, where None matches any length. ValueError
    when the record is another, or the file ends before its data does."""
    if np.lib.format.read_magic(fh) != (1, 0):
        raise ValueError("not a version 1.0 record")
    found, fortran, found_dtype = np.lib.format.read_array_header_1_0(fh)
    fits = len(found) == len(shape) and all(n in (None, m) for n, m in zip(shape, found))
    if fortran or found_dtype != dtype or not fits:
        raise ValueError("unexpected record")
    nbytes = math.prod(found) * found_dtype.itemsize
    # checked before allocating, so a corrupt shape cannot ask for more than the file holds
    if nbytes > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ValueError("torn record")
    array = np.empty(found, dtype)
    if fh.readinto(array) != nbytes:
        raise ValueError("torn record")
    return array


def read_offsets(fh, count) -> np.ndarray:
    """The next record of an open record file as the count + 1 int64
    offsets of count runs, such as the indptr of a CSR; ValueError unless
    they ascend, not strictly, from 0."""
    if type(count) is not int:
        raise ValueError("no count")
    offsets = read_array(fh, np.int64, (count + 1,))
    if offsets[0] != 0 or (offsets[1:] < offsets[:-1]).any():
        raise ValueError("offsets out of order")
    return offsets


def read_strings(fh, count) -> tuple[str, ...]:
    """The next two records of an open record file, a string table that
    write_records wrote, as count strings; ValueError when the offsets do
    not end at the text's end or the text is not UTF-8."""
    offsets = read_offsets(fh, count).tolist()
    text = read_array(fh, np.uint8, (None,)).tobytes().decode("utf-8")
    if offsets[-1] != len(text):
        raise ValueError("offsets past the text")
    return tuple(text[start:end] for start, end in zip(offsets, offsets[1:]))


def read_records(path, parse):
    """parse(header, fh) for the record file at path, with fh open past the
    header, or None on any miss: a file that cannot be opened, is torn or
    foreign or holds bytes past its last record, a header that is not a
    JSON object of RECORDS_VERSION, or a ValueError from parse, which reads
    the records with the readers above and checks them."""
    try:
        with open(path, "rb") as fh:
            header = json.loads(read_array(fh, np.uint8, (None,)).tobytes())
            if not isinstance(header, dict) or header.get("version") != RECORDS_VERSION:
                return None
            result = parse(header, fh)
            return None if fh.read(1) else result
    # a header nested too deep for the decoder raises RecursionError
    except (OSError, ValueError, RecursionError):
        return None
