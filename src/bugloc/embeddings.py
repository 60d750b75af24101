"""Word-embedding table in word2vec text format, plus token aggregation."""

from __future__ import annotations

import math
from typing import Iterable, Mapping

import numpy as np

from .errors import ParseError, ValidationError, read_text


class EmbeddingTable:
    """Token -> d-dimensional vector: row i of one (n, d) float64 matrix is
    the vector of tokens[i]."""

    def __init__(self, tokens: Iterable[str], matrix: np.ndarray):
        self.tokens = tuple(tokens)
        self.matrix = matrix
        self.row = {token: i for i, token in enumerate(self.tokens)}
        self.dim = matrix.shape[1]

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.row

    def get(self, token: str):
        return self.matrix[self.row[token]] if token in self.row else None

    def rows_of(self, tokens: Iterable[str]) -> np.ndarray:
        """The matrix row of each token, or -1 for a token the table lacks."""
        return np.array([self.row.get(token, -1) for token in tokens], dtype=np.intp)


def load_embeddings(path) -> EmbeddingTable:
    """Load a word2vec text file: header "<count> <dim>", then one row per token.

    Rejects header/body count mismatches, rows whose component count is not
    dim (naming the token), duplicate tokens (naming the token), and
    non-finite components.
    """
    with read_text(path) as fh:
        header = fh.readline()
        parts = header.split()
        if len(parts) != 2:
            raise ParseError(f"{path}: header must be '<count> <dim>', got {header!r}")
        try:
            count, dim = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError(f"{path}: header must hold two integers, got {header!r}") from exc
        if count < 0 or dim < 1:
            raise ParseError(f"{path}: bad header values count={count} dim={dim}")
        vectors: dict[str, np.ndarray] = {}
        for lineno, line in enumerate(fh, 2):
            if not line.strip():
                continue
            fields = line.split()
            token = fields[0]
            if len(fields) != dim + 1:
                raise ParseError(
                    f"{path}: token {token!r} has {len(fields) - 1} components, expected {dim}"
                )
            if token in vectors:
                raise ValidationError(f"{path}: duplicate token {token!r} on line {lineno}")
            try:
                vec = np.array([float(x) for x in fields[1:]], dtype=np.float64)
            except ValueError as exc:
                raise ParseError(f"{path}: token {token!r} has a non-numeric component") from exc
            if not np.all(np.isfinite(vec)):
                raise ValidationError(f"{path}: token {token!r} has a non-finite component")
            vectors[token] = vec
    if len(vectors) != count:
        raise ValidationError(
            f"{path}: header declares {count} rows but file holds {len(vectors)}"
        )
    return EmbeddingTable(vectors, np.array(list(vectors.values())).reshape(count, dim))


def embed_tokens(
    tokens: Iterable[str], weights: Mapping[str, float], table: EmbeddingTable
) -> tuple[np.ndarray, int]:
    """Weighted mean of table vectors over the distinct in-table tokens of
    one token list: the reference that ranker.embed_rows, which embeds many
    lists at once, must match bit for bit.

    Returns (vector, oov_count) where oov_count is the number of distinct
    tokens absent from the table. Weights must be defined and nonnegative
    for every distinct token; an all-OOV or all-zero-weight input yields
    the zero vector. Tokens are added in ascending order.
    """
    total = np.zeros(table.dim, dtype=np.float64)
    weight_sum = 0.0
    oov = 0
    for token in sorted(set(tokens)):
        if token not in table:
            oov += 1
            continue
        try:
            w = float(weights[token])
        except KeyError as exc:
            raise ValidationError(f"no weight defined for token {token!r}") from exc
        if not math.isfinite(w) or w < 0.0:
            raise ValidationError(f"weight for token {token!r} must be finite and nonnegative")
        total += w * table.get(token)
        weight_sum += w
    if weight_sum > 0.0:
        return total / weight_sum, oov
    return np.zeros(table.dim, dtype=np.float64), oov
