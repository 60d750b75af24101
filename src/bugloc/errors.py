"""Shared exception types, and the UTF-8 reader that turns a decode error
into one of them."""

from contextlib import contextmanager


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
