"""scipy.sparse, a test dependency only, next to bugloc's numpy CSR.

from_scipy and to_scipy convert between the two, so tests can build
inputs with scipy. The scipy_* functions are the scipy statements that
bugloc's numpy kernels replace; the kernels must match them bit for bit.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from scipy import sparse

from bugloc.corpus import CSR
from bugloc.errors import write_csv
from bugloc.network import KINDS
from bugloc.ranker import row_norms


def from_scipy(matrix) -> CSR:
    """The CSR of anything scipy.sparse.csr_array accepts, entries as stored."""
    rows = sparse.csr_array(matrix)
    return CSR(rows.data, rows.indices, rows.indptr, rows.shape)


def to_scipy(rows: CSR) -> sparse.csr_array:
    return sparse.csr_array((rows.data, rows.indices, rows.indptr), shape=rows.shape)


def scipy_count_rows(token_lists, vocab) -> sparse.csr_array:
    """Each list's in-vocabulary tokens as a column each, duplicates summed."""
    columns = [[vocab.index[t] for t in tokens if t in vocab.index] for tokens in token_lists]
    indptr = np.cumsum([0, *map(len, columns)])
    flat = [j for row in columns for j in row]
    rows = sparse.csr_array((np.ones(len(flat)), flat, indptr), shape=(len(columns), len(vocab)))
    rows.sum_duplicates()
    return rows


def scipy_tfidf_rows(token_lists, vocab) -> sparse.csr_array:
    rows = scipy_count_rows(token_lists, vocab)
    rows.data *= vocab.idf[rows.indices]
    rows.eliminate_zeros()
    return rows


def scipy_simi_scores(query_rows: CSR, tfidf: CSR, links: CSR) -> np.ndarray:
    """SimiScore as two scipy products: the stored cosines, each divided by
    its report's fixed-file count (at least 1), times the links."""
    sims = (to_scipy(query_rows) @ to_scipy(tfidf).T).tocsr()
    sims.sort_indices()
    rows = np.repeat(np.arange(sims.shape[0]), np.diff(sims.indptr))
    sims.data /= row_norms(query_rows)[rows] * row_norms(tfidf)[sims.indices]
    sims.data /= np.maximum(np.diff(links.indptr), 1)[sims.indices]
    return (sims @ to_scipy(links)).toarray()


def scipy_embed_rows(weights: CSR, rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """The weighted mean of term rows by one sparse-times-dense product over
    a copied term matrix: each term's table row (rows[j], or zeros when
    rows[j] is -1), then 1.0 for a term in the table."""
    known = rows >= 0
    terms = np.zeros((len(rows), matrix.shape[1] + 1))
    terms[known, :-1] = matrix[rows[known]]
    terms[known, -1] = 1.0
    sums = to_scipy(weights) @ terms
    totals = sums[:, -1:]
    return np.divide(sums[:, :-1], totals, out=np.zeros_like(sums[:, :-1]), where=totals > 0.0)


def scipy_network(nodes, pairs, weights) -> tuple[sparse.csr_array, np.ndarray]:
    """The adjacency and degree of HeteroNetwork.from_pairs(nodes, pairs,
    weights) as scipy builds them: the csr_array of the same data, indices
    and indptr, and its row sums."""
    rows, columns = pairs.ravel(), pairs[:, ::-1].ravel()
    by_row = np.argsort(rows, kind="stable")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=len(nodes)))))
    adjacency = sparse.csr_array(
        (np.repeat(weights, 2)[by_row], columns[by_row], indptr),
        shape=(len(nodes),) * 2,
        dtype=np.float64,
    )
    return adjacency, adjacency.sum(axis=1)


def scipy_validate_network(net, adjacency: sparse.csr_array) -> list[dict]:
    """validate_network's diagnostics, with its counts taken from each
    kind's row slice of a scipy adjacency."""
    kind_rows = {kind: adjacency[net.nodes.rows(kind)] for kind in KINDS}
    diags = [
        {
            "severity": "warning",
            "code": "isolated-component",
            "message": f"component of {size} nodes (e.g. {sample.kind}:{sample.key}) "
            f"has no path to any T node",
        }
        for size, sample in net.components_without(net.nodes.rows("T"))[1]
    ]
    counts = " ".join(f"{k}={kind_rows[k].shape[0]}" for k in KINDS)
    edges = " ".join(
        f"{a}-{b}={n}"
        for a, b in combinations(sorted(KINDS), 2)
        if (n := kind_rows[a][:, net.nodes.rows(b)].nnz)
    )
    message = f"nodes {counts}; edges {edges}".rstrip()
    return diags + [{"severity": "info", "code": "counts", "message": message}]


def scipy_write_edge_csv(nodes, adjacency: sparse.csr_array, path) -> None:
    """write_edge_csv's dump, with the edges taken from scipy's upper
    triangle: with sorted indices it runs in (row, col) order."""
    upper = sparse.triu(adjacency, k=1, format="csr")
    upper.sort_indices()
    upper = upper.tocoo()
    nodes = tuple(nodes)
    write_csv(
        path,
        ("kind1", "key1", "kind2", "key2", "weight"),
        (
            (*nodes[i], *nodes[j], repr(w))
            for i, j, w in zip(upper.row.tolist(), upper.col.tolist(), upper.data.tolist())
        ),
    )
