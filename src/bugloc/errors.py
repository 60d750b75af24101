"""Shared exception types, the UTF-8 reader that turns an open or decode
error into one of them, the one file hash, and the one CSV dialect every
output is written in."""

import csv
import hashlib
from contextlib import contextmanager
from pathlib import PurePath
from types import SimpleNamespace


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
