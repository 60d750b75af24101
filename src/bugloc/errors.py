"""Shared exception types, the UTF-8 reader that turns a decode error into
one of them, and the one CSV dialect every output is written in."""

import csv
from contextlib import contextmanager
from pathlib import PurePath
from types import SimpleNamespace


class ValidationError(Exception):
    """Raised when an input or argument violates a documented contract."""


class ParseError(ValidationError):
    """Raised when an input file cannot be parsed."""


@contextmanager
def read_text(path, newline=None):
    """Open path as UTF-8 text; bytes that are not UTF-8 raise a ParseError
    naming the file."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc


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
