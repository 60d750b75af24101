"""Scoring and ranking of source files for a query report.

Two score components per query: a similar-report transfer score built on
TF-IDF cosine, and a cosine in the learned representation space. They are
min-max normalized per query and blended with a single weight alpha;
minmax_rows and blend_and_rank are the one implementation of that rule, so
bugloc query, eval and sweep rank files alike.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .corpus import CSR, RowProduct, longest_first
from .errors import ValidationError

logger = logging.getLogger(__name__)


@dataclass
class QueryResult:
    """Top-k ranking for one query: (path, combined score), scores non-increasing."""

    query_id: str
    ranking: list[tuple[str, float]]


def row_norms(rows: CSR) -> np.ndarray:
    """Euclidean norm of each row, its squares summed exactly (math.fsum)."""
    squares = (rows.data * rows.data).tolist()
    bounds = rows.indptr.tolist()
    return np.array([math.sqrt(math.fsum(squares[a:b])) for a, b in zip(bounds, bounds[1:])])


def cosine_bow(a: CSR, b: CSR) -> float:
    """Cosine of two one-row TF-IDF matrices; 0.0 when either row is empty."""
    norms = row_norms(a)[0] * row_norms(b)[0]
    _, at_a, at_b = np.intersect1d(a.indices, b.indices, assume_unique=True, return_indices=True)
    return math.fsum((a.data[at_a] * b.data[at_b]).tolist()) / norms if norms else 0.0


@dataclass(frozen=True)
class BowIndex:
    """Training side of SimiScore over R training reports in training order:
    the V x R transpose of their TF-IDF rows (each term's reports, in
    training order), the reports' norms, each report's fixed-file count and
    the 0/1 R x F report-to-file links, whose columns follow the universe."""

    by_term: CSR
    norms: np.ndarray
    counts: np.ndarray
    links: CSR


def build_bow_index(tfidf: CSR, links: CSR) -> BowIndex:
    """Index the training reports' TF-IDF rows and their fix links (the
    index's 0/1 report x file matrix, one row per TF-IDF row) for
    bow_file_scores; a report's count is the length of its link row."""
    num_reports, num_terms = tfidf.shape
    # a stable sort by term keeps each term's reports in training order
    order = np.argsort(tfidf.indices, kind="stable")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(tfidf.indices, minlength=num_terms))))
    return BowIndex(
        by_term=CSR(tfidf.data[order], tfidf.row_ids()[order], indptr, (num_terms, num_reports)),
        norms=row_norms(tfidf),
        # a report without fixes has an empty link row; 1 avoids dividing by 0
        counts=np.maximum(np.diff(links.indptr), 1).astype(np.float64),
        links=links,
    )


def _products(
    rows: np.ndarray, columns: np.ndarray, values: np.ndarray, right: CSR
) -> tuple[np.ndarray, np.ndarray]:
    """The terms of a sparse product left @ right, the left matrix's stored
    entries given as (rows, columns, values): each entry times each stored
    entry of right's row columns[e], with its cell numbered row-major,
    rows[e] * right.shape[1] + column. They come in the order in which
    scipy's sparse product (SMMP) adds them into each cell: the left entries
    in the order given, each one along right's row in stored order."""
    starts = right.indptr[columns]
    lengths = right.indptr[columns + 1] - starts
    # each entry's run of positions in right, runs laid end to end
    at = np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    cells = np.repeat(rows, lengths) * right.shape[1] + right.indices[at]
    return cells, np.repeat(values, lengths) * right.data[at]


def _sum_by_cell(cells: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """The sum of the values in each of size cells, each added in turn in
    the order given. np.bincount gives integers when there are no values."""
    return np.bincount(cells, weights=values, minlength=size).astype(np.float64, copy=False)


def bow_file_scores(query_rows: CSR, index: BowIndex) -> np.ndarray:
    """BugLocator's SimiScore: transfer similar-report similarity to the
    files those reports fixed, one row per query, one column per file.

    score(q, f) = sum over training reports r fixing f of
    cos(q, r) / |files fixed by r|. Files never fixed score 0. Shares are
    summed in training order.

    Both products add in scipy's order, so the scores match
    (query_rows @ tfidf.T) @ links bit for bit. np.bincount sums each cell
    in the order its terms come, and only the similarities that some
    shared term makes are stored, so no Q x R array is made and a query
    without terms keeps all-zero scores.
    """
    num_queries, num_reports = query_rows.shape[0], index.by_term.shape[1]
    cells, products = _products(
        query_rows.row_ids(), query_rows.indices, query_rows.data, index.by_term
    )
    # the distinct cells, sorted: the similarities in (query, report) order
    cells, at = np.unique(cells, return_inverse=True)
    sims = _sum_by_cell(at, products, len(cells))
    queries, reports = np.divmod(cells, num_reports)
    sims /= row_norms(query_rows)[queries] * index.norms[reports]
    sims /= index.counts[reports]
    num_files = index.links.shape[1]
    cells, shares = _products(queries, reports, sims, index.links)
    return _sum_by_cell(cells, shares, num_queries * num_files).reshape(num_queries, num_files)


def embed_rows(weights: CSR, rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Weighted mean of each row's in-table terms, a row's entries being its
    terms' weights, read in place from a table's matrix: rows[j] is term
    j's matrix row, or -1 for a term the table lacks, whose weight is 0.
    This is embed_tokens with those weights, bit for bit. Queries are
    weighted by TF-IDF, files by count.

    The weighted sums are one RowProduct over every row, so each row adds
    its in-table terms in ascending order, one at a time, as embed_tokens
    does, and so does np.bincount with the weights.
    """
    num_rows, dim = weights.shape[0], matrix.shape[1]
    data = np.where(rows[weights.indices] >= 0, weights.data, 0.0)
    totals = np.bincount(weights.row_ids(), weights=data, minlength=num_rows)[:, None]
    order = longest_first(weights, np.arange(num_rows), rows >= 0)
    planned = np.empty((num_rows, dim))
    RowProduct(weights, order, rows).apply(matrix, planned)
    sums = np.empty_like(planned)
    sums[order] = planned  # back to row order
    return np.divide(sums, totals, out=np.zeros_like(sums), where=totals > 0.0)


def prepare_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row times the power of two that puts its largest magnitude in
    [0.5, 1), and the scaled rows' norms. The scaling is exact, so cosines
    keep their bits, and the squares of tiny entries no longer underflow.
    """
    _, exponents = np.frexp(np.abs(rows).max(axis=-1, keepdims=True, initial=0.0))
    scaled = np.ldexp(rows, -exponents)
    return scaled, np.linalg.norm(scaled, axis=-1)


def file_cosines(queries: np.ndarray, files: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Q x F cosines between each query row and each file row, the files
    given by prepare_rows; 0.0 where either row has zero norm."""
    file_rows, file_norms = files
    if file_rows.shape[1] != queries.shape[1]:
        raise ValidationError(f"dimension mismatch: {queries.shape} vs {file_rows.shape}")
    query_rows, query_norms = prepare_rows(queries)
    norms = query_norms[:, None] * file_norms
    dots = query_rows @ file_rows.T
    return np.divide(dots, norms, out=np.zeros_like(dots), where=norms > 0.0)


def netreg_file_scores(
    query_rows: CSR, rows: np.ndarray, matrix: np.ndarray, files: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """Q x F cosines between each embedded query (embed_rows) and each
    file's learned vector (prepare_rows of the model's S rows, in ascending
    path). A query that embeds to zero scores every file 0, and a warning
    counts such queries.
    """
    queries = embed_rows(query_rows, rows, matrix)
    zero = np.count_nonzero(~queries.any(axis=1))
    if zero:
        logger.warning("%d queries embed to the zero vector; all their file scores are 0", zero)
    return file_cosines(queries, files)


def minmax_rows(scores: np.ndarray) -> np.ndarray:
    """Scale each query's scores (the last axis) to [0, 1]; a constant row
    becomes all zeros."""
    lo = scores.min(axis=-1, keepdims=True, initial=np.inf)
    span = scores.max(axis=-1, keepdims=True, initial=-np.inf) - lo
    return np.divide(scores - lo, span, out=np.zeros_like(scores), where=span > 0.0)


def blend_and_rank(
    bow_n: np.ndarray, learned_n: np.ndarray, alpha: float, depth: int
) -> tuple[np.ndarray, np.ndarray]:
    """Blend min-max normalized components and keep each query's best depth files.

    final = (1 - alpha) * bow + alpha * learned. Returns the columns in rank
    order and their final scores: descending score, ties by ascending
    column, which is ascending path when the columns are path-ordered.
    """
    final = (1.0 - alpha) * bow_n + alpha * learned_n
    top = np.argsort(-final, axis=-1, kind="stable")[..., :depth]
    return top, np.take_along_axis(final, top, axis=-1)


def combine_and_rank(
    bow_scores: Mapping[str, float],
    model_scores: Mapping[str, float],
    alpha: float,
    k: int,
    query_id: str = "",
) -> QueryResult:
    """Blend one query's path -> score maps and return the top-k files.

    The maps run through minmax_rows and blend_and_rank in ascending path
    order, so ties go to the ascending path; at alpha=0 the ranking is the
    raw bow order. An empty universe gives an empty ranking.
    """
    if not (0.0 <= alpha <= 1.0):
        raise ValidationError(f"alpha must lie in [0, 1], got {alpha!r}")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k!r}")
    if set(bow_scores) != set(model_scores):
        raise ValidationError("score maps cover different file universes")
    paths = sorted(bow_scores)
    top, scores = blend_and_rank(
        minmax_rows(np.array([bow_scores[p] for p in paths], dtype=np.float64)),
        minmax_rows(np.array([model_scores[p] for p in paths], dtype=np.float64)),
        alpha,
        k,
    )
    ranking = [(paths[j], score) for j, score in zip(top.tolist(), scores.tolist())]
    return QueryResult(query_id=query_id, ranking=ranking)
