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
from typing import Mapping, Sequence

import numpy as np
from scipy import sparse

from .corpus import BowVector, Vocabulary, bow_vectorize
from .embeddings import EmbeddingTable, embed_tokens
from .errors import ValidationError
from .network import kind_slice
from .regularizer import RepresentationModel

logger = logging.getLogger(__name__)


@dataclass
class QueryResult:
    """Top-k ranking for one query: (path, combined score), scores non-increasing."""

    query_id: str
    ranking: list[tuple[str, float]]

    def paths(self) -> list[str]:
        return [path for path, _ in self.ranking]


def cosine_bow(a: BowVector, b: BowVector) -> float:
    """Cosine over sparse TF-IDF vectors; 0.0 when either is empty."""
    na = a.norm()
    nb = b.norm()
    if na == 0.0 or nb == 0.0:
        return 0.0
    small, large = (a.entries, b.entries) if len(a.entries) <= len(b.entries) else (b.entries, a.entries)
    dot = math.fsum(w * large[i] for i, w in sorted(small.items()) if i in large)
    return dot / (na * nb)


@dataclass(frozen=True)
class BowIndex:
    """Training side of SimiScore, one row per training report in training
    order: the R x V TF-IDF matrix, the reports' norms, each report's
    fixed-file count and the 0/1 R x F report-to-file links, whose columns
    follow the universe."""

    tfidf: sparse.csr_matrix
    norms: np.ndarray
    counts: np.ndarray
    links: sparse.csr_matrix


def _bow_rows(bows: Sequence[BowVector], num_terms: int) -> sparse.csr_matrix:
    """One CSR row per sparse TF-IDF vector."""
    indptr = [0]
    indices: list[int] = []
    data: list[float] = []
    for bow in bows:
        indices.extend(bow.entries)
        data.extend(bow.entries.values())
        indptr.append(len(indices))
    return sparse.csr_matrix((data, indices, indptr), shape=(len(bows), num_terms))


def build_bow_index(
    train_bows: Mapping[str, BowVector],
    fix_links: Mapping[str, Sequence[str]],
    universe: Sequence[str],
    num_terms: int,
) -> BowIndex:
    """Index the training reports for bow_file_scores.

    A report's count is all its fixed files, so links outside the universe
    still dilute its share; only links inside the universe get a column.
    """
    column = {path: j for j, path in enumerate(universe)}
    rows, cols, counts = [], [], []
    for i, rid in enumerate(train_bows):
        files = fix_links.get(rid, ())
        counts.append(len(files))
        for path in files:
            if path in column:
                rows.append(i)
                cols.append(column[path])
    links = sparse.csr_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(len(train_bows), len(universe))
    )
    bows = list(train_bows.values())
    return BowIndex(
        tfidf=_bow_rows(bows, num_terms),
        norms=np.array([bow.norm() for bow in bows]),
        # a report without fixes has an empty link row; 1 avoids dividing by 0
        counts=np.maximum(np.array(counts, dtype=np.float64), 1.0),
        links=links,
    )


def bow_file_scores(query_bows: Sequence[BowVector], index: BowIndex) -> np.ndarray:
    """BugLocator's SimiScore: transfer similar-report similarity to the
    files those reports fixed, one row per query, one column per file.

    score(q, f) = sum over training reports r fixing f of
    cos(q, r) / |files fixed by r|. Files never fixed score 0. Shares are
    summed in training order.
    """
    queries = _bow_rows(query_bows, index.tfidf.shape[1])
    sims = (queries @ index.tfidf.T).tocsr()
    sims.sort_indices()
    rows = np.repeat(np.arange(sims.shape[0]), np.diff(sims.indptr))
    query_norms = np.array([bow.norm() for bow in query_bows])
    sims.data /= query_norms[rows] * index.norms[sims.indices]
    sims.data /= index.counts[sims.indices]
    return (sims @ index.links).toarray()


def embed_query(
    query_tokens: Sequence[str], table: EmbeddingTable, vocab: Vocabulary
) -> tuple[np.ndarray, int]:
    """TF-IDF-weighted mean of the query's in-table tokens, and its OOV count.

    Weights are taken under the training vocabulary; tokens the vocabulary
    does not know weigh 0.
    """
    weights = dict.fromkeys(query_tokens, 0.0)
    for idx, w in bow_vectorize(query_tokens, vocab).entries.items():
        weights[vocab.term_of(idx)] = w
    return embed_tokens(query_tokens, weights, table)


def file_cosines(query_vec: np.ndarray, files: np.ndarray) -> np.ndarray:
    """Cosine between the query and each row of files; 0.0 where the query
    or the row has zero norm."""
    if files.shape[1] != query_vec.shape[0]:
        raise ValidationError(f"dimension mismatch: {query_vec.shape} vs rows of {files.shape}")
    norms = np.linalg.norm(files, axis=1) * np.linalg.norm(query_vec)
    dots = files @ query_vec
    return np.divide(dots, norms, out=np.zeros_like(dots), where=norms > 0.0)


def netreg_file_scores(
    query_tokens: Sequence[str],
    model: RepresentationModel,
    table: EmbeddingTable,
    vocab: Vocabulary,
) -> np.ndarray:
    """Cosine between the embedded query (embed_query) and each file's
    learned vector, in the model's file order (ascending path). A query
    that embeds to zero scores every file 0 and logs a warning.
    """
    query_vec, oov = embed_query(query_tokens, table, vocab)
    if not np.any(query_vec):
        logger.warning(
            "query embeds to the zero vector (%d OOV tokens); all file scores are 0", oov
        )
    return file_cosines(query_vec, model.matrix[kind_slice(model.nodes, "S")])


def minmax_rows(scores: np.ndarray) -> np.ndarray:
    """Scale each query's scores (the last axis) to [0, 1]; a constant row
    becomes all zeros."""
    lo = scores.min(axis=-1, keepdims=True)
    span = scores.max(axis=-1, keepdims=True) - lo
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
    if not paths:
        return QueryResult(query_id=query_id, ranking=[])
    top, scores = blend_and_rank(
        minmax_rows(np.array([bow_scores[p] for p in paths], dtype=np.float64)),
        minmax_rows(np.array([model_scores[p] for p in paths], dtype=np.float64)),
        alpha,
        k,
    )
    ranking = [(paths[j], score) for j, score in zip(top.tolist(), scores.tolist())]
    return QueryResult(query_id=query_id, ranking=ranking)
