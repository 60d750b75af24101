"""Embedding tables for tests, written as token -> vector maps."""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from bugloc.embeddings import EmbeddingTable


def make_table(dim: int, vectors: Mapping[str, Sequence[float]]) -> EmbeddingTable:
    """The table holding each token's vector, in the map's order."""
    matrix = np.array([np.asarray(v, dtype=np.float64) for v in vectors.values()])
    return EmbeddingTable(vectors, matrix.reshape(len(vectors), dim))
