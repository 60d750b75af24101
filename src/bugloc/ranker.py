"""Scoring and ranking of source files for a query report.

Two score components per query: a similar-report transfer score built on
TF-IDF cosine, and a cosine in the learned representation space. They are
min-max normalized per query and blended with a single weight alpha.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

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


def bow_file_scores(
    query_bow: BowVector,
    train_bows: Mapping[str, BowVector],
    fix_links: Mapping[str, Sequence[str]],
    universe: Iterable[str],
) -> dict[str, float]:
    """Transfer similar-report similarity to the files those reports fixed.

    score(file) = sum over training reports r fixing it of
    cos(query, r) / |files fixed by r|. Files never fixed score 0.
    """
    scores = {path: 0.0 for path in sorted(universe)}
    for rid, bow in train_bows.items():
        files = fix_links.get(rid, ())
        if not files:
            continue
        sim = cosine_bow(query_bow, bow)
        if sim == 0.0:
            continue
        share = sim / len(files)
        for path in files:
            if path in scores:
                scores[path] += share
    return scores


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


def file_cosines(
    query_vec: np.ndarray, paths: Sequence[str], files: np.ndarray
) -> dict[str, float]:
    """Cosine between the query and each row of files (one row per path);
    0.0 where the query or the row has zero norm."""
    if files.shape[1] != query_vec.shape[0]:
        raise ValidationError(f"dimension mismatch: {query_vec.shape} vs rows of {files.shape}")
    norms = np.linalg.norm(files, axis=1) * np.linalg.norm(query_vec)
    dots = files @ query_vec
    cosines = np.divide(dots, norms, out=np.zeros_like(dots), where=norms > 0.0)
    return dict(zip(paths, cosines.tolist()))


def netreg_file_scores(
    query_tokens: Sequence[str],
    model: RepresentationModel,
    table: EmbeddingTable,
    vocab: Vocabulary,
) -> dict[str, float]:
    """Cosine between the embedded query (embed_query) and each file's
    learned vector. A query that embeds to zero scores every file 0 and
    logs a warning.
    """
    query_vec, oov = embed_query(query_tokens, table, vocab)
    files = kind_slice(model.nodes, "S")
    if not np.any(query_vec):
        logger.warning(
            "query embeds to the zero vector (%d OOV tokens); all file scores are 0", oov
        )
    paths = [node.key for node in model.nodes[files]]
    return file_cosines(query_vec, paths, model.matrix[files])


def minmax_normalize(scores: Mapping[str, float]) -> dict[str, float]:
    """Scale scores to [0, 1] per query; a constant map normalizes to all zeros."""
    if not scores:
        return {}
    values = scores.values()
    lo = min(values)
    hi = max(values)
    if hi == lo:
        return {key: 0.0 for key in scores}
    span = hi - lo
    return {key: (value - lo) / span for key, value in scores.items()}


def combine_and_rank(
    bow_scores: Mapping[str, float],
    model_scores: Mapping[str, float],
    alpha: float,
    k: int,
    query_id: str = "",
) -> QueryResult:
    """Blend the two normalized components and return the top-k files.

    final = (1 - alpha) * bow + alpha * model, both min-max normalized over
    this query's universe. Ties are broken by ascending path. At alpha=0
    the ranking equals ordering by the raw bow component alone.
    """
    if not (0.0 <= alpha <= 1.0):
        raise ValidationError(f"alpha must lie in [0, 1], got {alpha!r}")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k!r}")
    if set(bow_scores) != set(model_scores):
        raise ValidationError("score maps cover different file universes")
    bow_n = minmax_normalize(bow_scores)
    model_n = minmax_normalize(model_scores)
    final = {
        path: (1.0 - alpha) * bow_n[path] + alpha * model_n[path] for path in bow_n
    }
    ordered = sorted(final.items(), key=lambda item: (-item[1], item[0]))
    return QueryResult(query_id=query_id, ranking=ordered[:k])
