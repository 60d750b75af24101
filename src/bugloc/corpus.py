"""Bug-report corpus handling: ingestion, tokenization, the corpus as token
ids, vocabulary, TF-IDF.

Bug reports arrive as JSONL, one report per line, and are kept in
chronological order so that a time-based train/query split is just a list
slice. Text is tokenized by splitting identifiers at case transitions and
non-alphanumeric boundaries; weighting is plain tf * ln(N / df).
"""

from __future__ import annotations

import json
import logging
import math
import re
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from importlib import resources
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ParseError, ValidationError, read_text

logger = logging.getLogger(__name__)

# getX2 -> get, X2; XMLParser -> XML, Parser; word2vec stays whole. Every
# piece is ASCII alphanumerics, so no match spans a non-alphanumeric
# character and one pass over the text splits at both kinds of boundary.
_CAMEL_RE = re.compile(r"[A-Z]+(?![a-z])|[A-Z][a-z0-9]*|[a-z0-9]+")

# Light suffix stripping, applied only when stemming is enabled.
_SUFFIXES = ("ations", "ation", "ings", "ing", "edly", "ed", "es", "s", "ly")

_REPORT_KEYS = ("id", "summary", "description", "report_time", "status", "fixed_files")


def _parse_stopwords(text: str) -> frozenset[str]:
    """One term per line, lowercased; blank lines and '#' comments skipped."""
    terms = (line.strip() for line in text.split("\n"))
    return frozenset(term.lower() for term in terms if term and not term.startswith("#"))


def load_stopwords(path) -> frozenset[str]:
    """Read a stoplist file: one term per line, '#' comments allowed."""
    with read_text(path) as fh:
        return _parse_stopwords(fh.read())


def default_stopwords() -> frozenset[str]:
    ref = resources.files("bugloc").joinpath("data/stopwords.txt")
    return _parse_stopwords(ref.read_text(encoding="utf-8"))


@dataclass(frozen=True)
class TokenRules:
    """Tokenizer configuration. min_length filters after splitting and lowercasing."""

    stopwords: frozenset[str]
    min_length: int = 2
    stem: bool = False


def default_token_rules(min_length: int = 2, stem: bool = False, stopwords_file=None) -> TokenRules:
    stopwords = load_stopwords(stopwords_file) if stopwords_file else default_stopwords()
    return TokenRules(stopwords=stopwords, min_length=min_length, stem=stem)


def _stem(term: str) -> str:
    for suffix in _SUFFIXES:
        if term.endswith(suffix):
            stem = term[: -len(suffix)]
            # keep short roots and double-s words intact ("address" stays)
            if len(stem) >= 3 and not (suffix == "s" and term.endswith("ss")):
                return stem
    return term


def tokenize(text: str, rules: TokenRules) -> list[str]:
    """Split text into lowercase terms.

    Identifiers are split at non-alphanumeric characters and at case
    transitions; digits stay attached to the piece they follow. Stopwords
    and terms shorter than rules.min_length are dropped. Order and
    multiplicity are preserved.
    """
    terms = map(str.lower, _CAMEL_RE.findall(text))
    if rules.stem:
        terms = map(_stem, terms)
    min_length, stopwords = rules.min_length, rules.stopwords
    return [term for term in terms if len(term) >= min_length and term not in stopwords]


@dataclass(frozen=True)
class BugReport:
    id: str
    summary: str
    description: str
    report_time: datetime
    status: str
    fixed_files: tuple[str, ...]

    @property
    def text(self) -> str:
        return self.summary + "\n" + self.description


def _parse_time(raw, where: str) -> datetime:
    if not isinstance(raw, str):
        raise ParseError(f"{where}: report_time must be an ISO-8601 string")
    text = raw.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        stamp = datetime.fromisoformat(text)
    except ValueError as exc:
        raise ParseError(f"{where}: bad report_time {raw!r}: {exc}") from exc
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp.astimezone(timezone.utc)


def _check_unicode(text: str, what: str, where: str) -> None:
    """Reject a key that no UTF-8 output can hold: a JSON escape such as
    "\\ud800" decodes to a lone surrogate."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise ParseError(f"{where}: {what} {text!r} holds a lone surrogate") from None


def _parse_report(rec, where: str) -> BugReport:
    if not isinstance(rec, dict):
        raise ParseError(f"{where}: expected a JSON object")
    for key in _REPORT_KEYS:
        if key not in rec:
            raise ParseError(f"{where}: missing key {key!r}")
    rid = rec["id"]
    if not isinstance(rid, str) or not rid:
        raise ParseError(f"{where}: id must be a nonempty string")
    _check_unicode(rid, "id", where)
    for key in ("summary", "description", "status"):
        if not isinstance(rec[key], str):
            raise ParseError(f"{where}: {key} must be a string")
    raw_files = rec["fixed_files"]
    if not isinstance(raw_files, list):
        raise ParseError(f"{where}: fixed_files must be a list")
    fixed = []
    for item in raw_files:
        if not isinstance(item, str) or not item:
            raise ParseError(f"{where}: fixed_files entries must be nonempty strings")
        _check_unicode(item, "fixed file", where)
        if item not in fixed:
            fixed.append(item)
    return BugReport(
        id=rid,
        summary=rec["summary"],
        description=rec["description"],
        report_time=_parse_time(rec["report_time"], where),
        status=rec["status"],
        fixed_files=tuple(fixed),
    )


def _read_jsonl(path, parse, what: str) -> dict:
    """key -> item of each nonblank line of a JSONL file, in file order,
    where parse(record, where) returns the (key, item) of one line's JSON.

    A line that is not JSON raises ParseError naming the line; a key seen
    before raises ValidationError naming both lines.
    """
    items: dict = {}
    seen: dict[str, int] = {}
    with read_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            where = f"{path}: line {lineno}"
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{where}: invalid JSON: {exc.msg}") from exc
            except RecursionError as exc:
                raise ParseError(f"{where}: JSON nested too deep to decode") from exc
            key, item = parse(rec, where)
            if key in seen:
                raise ValidationError(
                    f"{where}: duplicate {what} {key!r} (first seen on line {seen[key]})"
                )
            seen[key] = lineno
            items[key] = item
    return items


def load_bug_reports(path, resolved_only: bool = False) -> list[BugReport]:
    """Load bug reports from a JSONL file, sorted ascending by report_time.

    Malformed lines raise ParseError naming the line number; duplicate ids
    raise ValidationError naming the id. With resolved_only=True, reports
    whose status is not "resolved" (case-insensitive) are dropped after
    parsing and duplicate checking.
    """

    def parse(rec, where):
        report = _parse_report(rec, where)
        return report.id, report

    reports = list(_read_jsonl(path, parse, "report id").values())
    if resolved_only:
        reports = [r for r in reports if r.status.strip().lower() == "resolved"]
    reports.sort(key=lambda r: r.report_time)
    return reports


def load_query_reports(path) -> list[BugReport]:
    """Load the reports of a query file: a file whose whole text is one JSON
    object, pretty-printed or not, is that one report; any other file is
    JSONL, read by load_bug_reports."""
    with read_text(path) as fh:
        text = fh.read()
    try:
        rec = json.loads(text)
    # the JSONL reader names the line of either failure
    except (json.JSONDecodeError, RecursionError):
        rec = None
    if isinstance(rec, dict):
        return [_parse_report(rec, str(path))]
    return load_bug_reports(path)


def load_source_docs(path, rules: TokenRules) -> dict[str, list[str]]:
    """Load source documents from JSONL with keys path, content: each path
    mapped to its content's tokens, in file order."""

    def parse(rec, where):
        if not isinstance(rec, dict) or "path" not in rec or "content" not in rec:
            raise ParseError(f"{where}: expected an object with keys path, content")
        doc_path = rec["path"]
        if not isinstance(doc_path, str) or not doc_path:
            raise ParseError(f"{where}: path must be a nonempty string")
        _check_unicode(doc_path, "path", where)
        if not isinstance(rec["content"], str):
            raise ParseError(f"{where}: content must be a string")
        return doc_path, tokenize(rec["content"], rules)

    return _read_jsonl(path, parse, "source path")


class Vocabulary:
    """Bidirectional term/index map with document frequencies: `terms`
    lists the terms by index and `index` maps each term to its index.

    Indices are dense, assigned in sorted term order so the mapping does
    not depend on document order.
    """

    def __init__(self, terms: list[str], doc_freq: Mapping[str, int], num_docs: int):
        self.terms = list(terms)
        self.index = {t: i for i, t in enumerate(self.terms)}
        self.doc_freq = dict(doc_freq)
        self.num_docs = num_docs
        # ln(N / df) of each term, in index order
        self.idf = np.array([math.log(num_docs / self.doc_freq[t]) for t in self.terms])

    def __len__(self) -> int:
        return len(self.terms)

    def __contains__(self, term: str) -> bool:
        return term in self.index


def build_vocabulary(docs: Iterable[Iterable[str]]) -> Vocabulary:
    """Build a vocabulary over tokenized documents; df counts documents, not occurrences."""
    doc_freq: Counter[str] = Counter()
    num_docs = 0
    for tokens in docs:
        num_docs += 1
        doc_freq.update(set(tokens))
    return Vocabulary(sorted(doc_freq), doc_freq, num_docs)


@dataclass(frozen=True)
class CSR:
    """A sparse matrix in compressed sparse rows, held as plain numpy arrays
    laid out as scipy.sparse lays them out: row i stores the columns
    indices[indptr[i]:indptr[i + 1]] with the values at the same positions
    of data. TF-IDF rows, term counts, link matrices and the network come
    in this type, so only the solver's products import scipy."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return len(self.data)

    def row_ids(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))


def link_matrix(lists: Sequence[Sequence[str]], keys: Sequence[str]) -> CSR:
    """The 0/1 matrix whose row i links the entries of lists[i] to their
    positions in keys, in listed order; an entry outside keys gets no
    column. Fix links, bucket links and the ground truth all resolve their
    paths and keys here."""
    column = {key: j for j, key in enumerate(keys)}
    rows = [[column[key] for key in listed if key in column] for listed in lists]
    indices = np.fromiter(chain.from_iterable(rows), dtype=np.intp)
    indptr = np.cumsum([0, *map(len, rows)])
    return CSR(np.ones(len(indices)), indices, indptr, (len(lists), len(keys)))


def _count_cells(indptr, columns: np.ndarray, width: int) -> CSR:
    """The term counts of rows whose token columns are given run by run:
    row i holds columns[indptr[i]:indptr[i + 1]]; columns ascend."""
    num_rows = len(indptr) - 1
    # one cell number per token, row-major: the distinct cells, sorted, are
    # the stored entries in row order with ascending columns, and a cell's
    # duplicates sum into its term count
    rows = np.repeat(np.arange(num_rows), np.diff(indptr))
    cells, counts = np.unique(rows * width + columns, return_counts=True)
    rows, cols = np.divmod(cells, width)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=num_rows))))
    return CSR(counts.astype(np.float64), cols, indptr, (num_rows, width))


def count_rows(token_lists: Iterable[Iterable[str]], vocab: Vocabulary) -> CSR:
    """Term counts of each token list under vocab, one row per list, one column
    per vocabulary term; out-of-vocabulary tokens are skipped, columns ascend."""
    index = vocab.index
    indptr = [0]
    columns: list[int] = []
    for tokens in token_lists:
        columns.extend(index[term] for term in tokens if term in index)
        indptr.append(len(columns))
    return _count_cells(indptr, np.array(columns, dtype=np.intp), len(vocab))


def weigh_counts(counts: CSR, vocab: Vocabulary) -> CSR:
    """Weigh term counts under vocab by tf * ln(num_docs / doc_freq): each
    count scaled by its term's idf.

    Terms whose df equals the corpus size weight to zero and are not stored.
    """
    if vocab.num_docs < 1:
        raise ValidationError("vocabulary has no documents")
    data = counts.data * vocab.idf[counts.indices]
    kept = data != 0.0
    indptr = np.concatenate(([0], np.cumsum(kept)))[counts.indptr]
    return CSR(data[kept], counts.indices[kept], indptr, counts.shape)


def tfidf_rows(token_lists: Iterable[Iterable[str]], vocab: Vocabulary) -> CSR:
    """The TF-IDF rows of token lists under vocab: weigh_counts of their count_rows."""
    return weigh_counts(count_rows(token_lists, vocab), vocab)


@dataclass(frozen=True, eq=False)
class TokenIds:
    """Token lists as ids into a sorted dictionary of terms: list i is the
    terms of ids[indptr[i]:indptr[i + 1]], in order and with repeats. As
    the dictionary is sorted, id order is term order."""

    indptr: np.ndarray  # int64, ascending from 0 to len(ids)
    ids: np.ndarray  # int32

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, TokenIds) and all(
            mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
            for mine, theirs in ((self.indptr, other.indptr), (self.ids, other.ids))
        )

    def lengths(self) -> np.ndarray:
        return np.diff(self.indptr)

    def take(self, rows) -> "TokenIds":
        """The lists at rows, in that order; a row of -1 is an empty list."""
        rows = np.asarray(rows, dtype=np.intp)
        found = rows >= 0
        starts = np.zeros(len(rows), dtype=np.int64)
        lengths = np.zeros(len(rows), dtype=np.int64)
        starts[found] = self.indptr[rows[found]]
        lengths[found] = self.lengths()[rows[found]]
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        # each taken token's position: its list's start, plus its place in the list
        at = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
        return TokenIds(indptr, self.ids[at])

    def count_rows(self, columns: np.ndarray, width: int) -> CSR:
        """count_rows over ids: the counts of each list in width columns,
        where id i counts in column columns[i], or not at all if that is -1."""
        cols = columns[self.ids]
        kept = cols >= 0
        indptr = np.concatenate(([0], np.cumsum(kept)))[self.indptr]
        return _count_cells(indptr, cols[kept], width)


def id_vocabulary(lists: TokenIds, dictionary: Sequence[str]) -> tuple[Vocabulary, CSR]:
    """build_vocabulary and count_rows over token ids: the vocabulary of the
    terms the lists hold, and the lists' term counts under it. As the
    dictionary is sorted, these equal what the lists' strings build."""
    held = np.zeros(len(dictionary), dtype=bool)
    held[lists.ids] = True
    term_ids = np.flatnonzero(held)
    columns = np.full(len(dictionary), -1, dtype=np.intp)
    columns[term_ids] = np.arange(len(term_ids))
    counts = lists.count_rows(columns, len(term_ids))
    terms = [dictionary[i] for i in term_ids.tolist()]
    doc_freq = np.bincount(counts.indices, minlength=len(terms)).tolist()
    return Vocabulary(terms, dict(zip(terms, doc_freq)), len(lists)), counts


@dataclass(frozen=True)
class Corpus:
    """The kept reports, in chronological order, with their fixed files
    and token lists, and the source files' paths and token lists (None
    without sources), the lists as ids into one sorted dictionary, terms."""

    report_ids: tuple[str, ...]
    fixed_files: tuple[tuple[str, ...], ...]
    terms: tuple[str, ...]
    report_tokens: TokenIds
    source_paths: tuple[str, ...] | None
    source_tokens: TokenIds | None

    @classmethod
    def of(
        cls,
        reports: Sequence[BugReport],
        report_tokens: Sequence[Sequence[str]],
        sources: Mapping[str, Sequence[str]] | None,
    ) -> "Corpus":
        """The corpus of reports with the token list of each, and sources,
        each path mapped to its token list."""
        groups = [report_tokens, *([] if sources is None else [list(sources.values())])]
        terms = tuple(sorted({term for lists in groups for tokens in lists for term in tokens}))
        index = {term: i for i, term in enumerate(terms)}
        encoded = []
        for lists in groups:
            indptr = np.cumsum([0, *map(len, lists)], dtype=np.int64)
            tokens = map(index.__getitem__, chain.from_iterable(lists))
            encoded.append(TokenIds(indptr, np.fromiter(tokens, dtype=np.int32, count=indptr[-1])))
        return cls(
            report_ids=tuple(report.id for report in reports),
            fixed_files=tuple(report.fixed_files for report in reports),
            terms=terms,
            report_tokens=encoded[0],
            source_paths=None if sources is None else tuple(sources),
            source_tokens=None if sources is None else encoded[1],
        )


def bow_vectorize(tokens: Iterable[str], vocab: Vocabulary) -> CSR:
    """The TF-IDF row of one token list: tfidf_rows([tokens], vocab)."""
    return tfidf_rows([tokens], vocab)
