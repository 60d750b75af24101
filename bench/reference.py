"""Reference computations that check bugloc's outputs, written apart from the package.

Nothing here imports bugloc. Each function restates one documented rule of
the program in NumPy/SciPy terms:

* the chronological split and the ranked file universe;
* TF-IDF under the training vocabulary, tf * ln(N / df), zero weights dropped;
* BugLocator's SimiScore (Zhou, Zhang & Lo, ICSE 2012): a file scores the sum
  over training reports r that fixed it of cos(query, r) / |files fixed by r|;
* per-query min-max, the alpha blend, top-k with ties by ascending path, AP@k;
* the learned-space query embedding (TF-IDF-weighted mean of known vectors);
* a direct sparse solve of the harmonic system on the network's free nodes.

The tokenizer only covers lowercase alphanumeric text, which is what
bugloc.synthgen writes; the benchmark feeds nothing else through it.
"""

from __future__ import annotations

import csv
import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.sparse.linalg import spsolve

_WORD_RE = re.compile(r"[a-z0-9]+")


def tokens(text: str) -> list[str]:
    """Lowercase alphanumeric runs of length >= 2."""
    return [w for w in _WORD_RE.findall(text.lower()) if len(w) >= 2]


def report_tokens(report: dict) -> list[str]:
    return tokens(report["summary"] + "\n" + report["description"])


@dataclass
class Split:
    train: list[dict]
    queries: list[dict]
    universe: list[str]


def _stamp(raw: str) -> datetime:
    return datetime.fromisoformat(raw.replace("Z", "+00:00"))


def load_split(dataset_dir, fraction: float = 0.8) -> Split:
    """Resolved reports in time order, cut at int(n * fraction); sorted universe."""
    root = Path(dataset_dir)
    with open(root / "reports.jsonl", encoding="utf-8") as fh:
        reports = [json.loads(line) for line in fh if line.strip()]
    reports = [r for r in reports if r["status"].strip().lower() == "resolved"]
    reports.sort(key=lambda r: _stamp(r["report_time"]))
    for r in reports:
        r["fixed_files"] = list(dict.fromkeys(r["fixed_files"]))
    universe: set[str] = set()
    with open(root / "sources.jsonl", encoding="utf-8") as fh:
        universe.update(json.loads(line)["path"] for line in fh if line.strip())
    with open(root / "metrics.csv", encoding="utf-8", newline="") as fh:
        universe.update(row["path"] for row in csv.DictReader(fh))
    cut = int(len(reports) * fraction)
    return Split(reports[:cut], reports[cut:], sorted(universe))


class TfIdf:
    """Training vocabulary (sorted terms) and the R x V training TF-IDF matrix."""

    def __init__(self, train_tokens: list[list[str]]):
        df: Counter[str] = Counter()
        for toks in train_tokens:
            df.update(set(toks))
        self.terms = sorted(df)
        self.index = {t: i for i, t in enumerate(self.terms)}
        n = len(train_tokens)
        self.idf = [math.log(n / df[t]) for t in self.terms]
        self.matrix = self.vectorize(train_tokens)

    def vectorize(self, token_lists) -> sparse.csr_matrix:
        rows, cols, vals = [], [], []
        for row, toks in enumerate(token_lists):
            for term, tf in Counter(toks).items():
                idx = self.index.get(term)
                if idx is None:
                    continue
                weight = tf * self.idf[idx]
                if weight > 0.0:
                    rows.append(row)
                    cols.append(idx)
                    vals.append(weight)
        shape = (len(token_lists), len(self.terms))
        return sparse.csr_matrix((vals, (rows, cols)), shape=shape)

    def weight(self, term: str, tf: int) -> float:
        idx = self.index.get(term)
        return 0.0 if idx is None else tf * self.idf[idx]


def _row_norms(matrix: sparse.csr_matrix) -> np.ndarray:
    return np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1)).ravel())


def link_matrix(train: list[dict], universe: list[str]) -> sparse.csr_matrix:
    """R x F fix links weighted 1 / |files fixed by the report|."""
    col = {p: j for j, p in enumerate(universe)}
    rows, cols, vals = [], [], []
    for i, report in enumerate(train):
        files = report["fixed_files"]
        for path in files:
            if path in col:
                rows.append(i)
                cols.append(col[path])
                vals.append(1.0 / len(files))
    return sparse.csr_matrix((vals, (rows, cols)), shape=(len(train), len(universe)))


def simi_scores(queries: sparse.csr_matrix, tfidf: TfIdf, links: sparse.csr_matrix) -> np.ndarray:
    """Q x F SimiScore: cosine to every training report, credited to its fixed files."""
    dots = (queries @ tfidf.matrix.T).toarray()
    norms = np.outer(_row_norms(queries), _row_norms(tfidf.matrix))
    sims = np.divide(dots, norms, out=np.zeros_like(dots), where=norms > 0.0)
    return np.asarray(sims @ links)


def minmax(scores: np.ndarray) -> np.ndarray:
    """Scale one query's scores to [0, 1]; a constant row becomes all zeros."""
    lo = scores.min()
    hi = scores.max()
    if hi == lo:
        return np.zeros_like(scores)
    return (scores - lo) / (hi - lo)


def blend(first: np.ndarray, second: np.ndarray, alpha: float) -> np.ndarray:
    return (1.0 - alpha) * minmax(first) + alpha * minmax(second)


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the k best scores, ties by ascending column (= path)."""
    order = np.lexsort((np.arange(scores.shape[0]), -scores))
    return order[:k]


def average_precision(ranking, relevant: set, k: int) -> float:
    """Sum of precision at each relevant position <= k, over |relevant|."""
    hits = 0
    total = 0.0
    for i, item in enumerate(list(ranking)[:k], 1):
        if item in relevant:
            hits += 1
            total += hits / i
    return total / len(relevant)


def map_at_k(rankings, relevant_sets, k: int) -> float:
    aps = [average_precision(r, rel, k) for r, rel in zip(rankings, relevant_sets)]
    return math.fsum(aps) / len(aps)


def read_embeddings(path) -> tuple[dict[str, int], np.ndarray]:
    """word2vec text file -> (token -> row, matrix); parsed with float(), so exact."""
    with open(path, encoding="utf-8") as fh:
        count, dim = (int(x) for x in fh.readline().split())
        index: dict[str, int] = {}
        rows = []
        for line in fh:
            fields = line.split()
            if fields:
                index[fields[0]] = len(rows)
                rows.append([float(x) for x in fields[1:]])
    matrix = np.array(rows, dtype=np.float64).reshape(len(rows), dim)
    if len(rows) != count:
        raise ValueError(f"{path}: header says {count} rows, file holds {len(rows)}")
    return index, matrix


@dataclass
class Model:
    header: dict
    nodes: list[tuple[str, str]]
    clamped: np.ndarray  # bool per node
    vectors: np.ndarray  # n x dim


def read_model(path) -> Model:
    """Parse a model.tsv: JSON header, then kind<TAB>key<TAB>c|f<TAB>floats."""
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        nodes, flags, rows = [], [], []
        for line in fh:
            if not line.strip():
                continue
            kind, key, flag, raw = line.rstrip("\n").split("\t")
            if flag not in ("c", "f"):
                raise ValueError(f"{path}: bad clamp flag {flag!r}")
            nodes.append((kind, key))
            flags.append(flag == "c")
            rows.append([float(x) for x in raw.split()])
    dim = int(header["dim"])
    if len(nodes) != int(header["nodes"]) or len(set(nodes)) != len(nodes):
        raise ValueError(f"{path}: node count or uniqueness does not match the header")
    vectors = np.array(rows, dtype=np.float64).reshape(len(rows), dim)
    return Model(header, nodes, np.array(flags, dtype=bool), vectors)


def read_edges(path, node_index: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """network.csv edge list -> (i, j, weight) arrays over node_index."""
    src, dst, weights = [], [], []
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            src.append(node_index[(row["kind1"], row["key1"])])
            dst.append(node_index[(row["kind2"], row["key2"])])
            weights.append(float(row["weight"]))
    return np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64), np.array(weights)


def adjacency(n: int, src, dst, weights) -> sparse.csr_matrix:
    half = sparse.coo_matrix((weights, (src, dst)), shape=(n, n))
    return (half + half.T).tocsr()


@dataclass
class HarmonicSolution:
    vectors: np.ndarray
    labels: np.ndarray  # connected component per node
    anchored: np.ndarray  # bool per node: its component holds a clamped node


def harmonic_solve(adj: sparse.csr_matrix, clamped: np.ndarray, values: np.ndarray) -> HarmonicSolution:
    """Every free node equals the weighted mean of its neighbours, clamped fixed.

    Solves L_FF x_F = W_FC x_C with one sparse factorization for all
    dimensions. Components without a clamped node stay at zero.
    """
    _, labels = csgraph.connected_components(adj, directed=False)
    anchored_labels = np.unique(labels[clamped])
    anchored = np.isin(labels, anchored_labels)
    free = np.flatnonzero(anchored & ~clamped)
    fixed = np.flatnonzero(clamped)
    out = np.where(clamped[:, None], values, 0.0)
    if free.size:
        w_ff = adj[free][:, free]
        degree = np.asarray(adj[free].sum(axis=1)).ravel()
        laplacian = (sparse.diags(degree) - w_ff).tocsc()
        rhs = adj[free][:, fixed] @ values[fixed]
        solution = spsolve(laplacian, rhs)
        out[free] = solution.reshape(free.size, values.shape[1])
    return HarmonicSolution(out, labels, anchored)


def maximum_principle_violation(solution: HarmonicSolution, clamped: np.ndarray, vectors: np.ndarray) -> float:
    """Largest distance by which a free vector leaves the per-dimension box of
    the clamped vectors in its component (0.0 when every vector is inside)."""
    worst = 0.0
    for label in np.unique(solution.labels[clamped]):
        members = solution.labels == label
        box = vectors[members & clamped]
        inside = vectors[members & ~clamped]
        if inside.size == 0:
            continue
        below = box.min(axis=0) - inside
        above = inside - box.max(axis=0)
        worst = max(worst, float(below.max()), float(above.max()))
    return max(worst, 0.0)


def embed_queries(token_lists, tfidf: TfIdf, vocab_index: dict[str, int], table: np.ndarray) -> np.ndarray:
    """TF-IDF-weighted mean of the in-table vectors of each query's distinct tokens.

    Tokens outside the training vocabulary weigh 0; a query with zero total
    weight embeds to the zero vector.
    """
    out = np.zeros((len(token_lists), table.shape[1]))
    for row, toks in enumerate(token_lists):
        total = np.zeros(table.shape[1])
        weight_sum = 0.0
        for term, tf in sorted(Counter(toks).items()):
            idx = vocab_index.get(term)
            if idx is None:
                continue
            w = max(tfidf.weight(term, tf), 0.0)
            total += w * table[idx]
            weight_sum += w
        if weight_sum > 0.0:
            out[row] = total / weight_sum
    return out


def cosine_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cosines between a (m x d) and b (n x d); 0 where a norm is 0."""
    norms = np.outer(np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1))
    dots = a @ b.T
    return np.divide(dots, norms, out=np.zeros_like(dots), where=norms > 0.0)
