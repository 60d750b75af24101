"""Heterogeneous network over bug reports (B), terms (T), source files (S),
and metric buckets (M).

Edges exist only between (T, B), (B, S), and (S, M); they are undirected,
carry positive finite weights, and at most one edge joins a node pair.
build_network makes only such edges, from the loaders' validated keys and
the index's arrays, its fix and bucket links already resolved to columns,
and HeteroNetwork.from_pairs rejects a repeated pair.
The network is one corpus.CSR; validate_network and write_edge_csv read it
with numpy alone, and only the solver's products go through scipy.
"""

from __future__ import annotations

import logging
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, combinations, repeat
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .corpus import CSR, Vocabulary
from .errors import ValidationError, write_csv

logger = logging.getLogger(__name__)

KINDS = ("B", "T", "S", "M")
_ORDER = "BMST"
_POSITION = {kind: i for i, kind in enumerate(_ORDER)}


class TypedNode(NamedTuple):
    kind: str
    key: str


@dataclass(frozen=True)
class NodeTable:
    """The typed nodes of a network or a model, one per row, in the one node
    order: kinds as B < M < S < T, and each kind's keys sorted and distinct.
    Row r holds keys[r], and kind _ORDER[i] rows bounds[i] to bounds[i + 1].
    Indexing and iteration give TypedNodes.
    """

    keys: tuple[str, ...]
    bounds: tuple[int, ...]

    @classmethod
    def of(cls, blocks: Mapping[str, Sequence[str]]) -> "NodeTable":
        """The table of each kind's sorted, distinct keys; a kind left out has none."""
        lists = [blocks.get(kind, ()) for kind in _ORDER]
        return cls(tuple(chain.from_iterable(lists)), tuple(accumulate(map(len, lists), initial=0)))

    def __len__(self) -> int:
        return self.bounds[-1]

    def rows(self, kind: str) -> slice:
        """The rows of one kind; KeyError for a kind outside B, M, S, T."""
        i = _POSITION[kind]
        return slice(self.bounds[i], self.bounds[i + 1])

    def row(self, node: TypedNode) -> int:
        """The row of a node; KeyError for a node the table lacks."""
        kind, key = node
        span = self.rows(kind)
        row = bisect_left(self.keys, key, span.start, span.stop)
        if row == span.stop or self.keys[row] != key:
            raise KeyError(node)
        return row

    def __getitem__(self, row: int) -> TypedNode:
        return TypedNode(_ORDER[bisect_right(self.bounds, row) - 1], self.keys[row])

    def __iter__(self):
        for kind, start, stop in zip(_ORDER, self.bounds, self.bounds[1:]):
            yield from map(TypedNode, repeat(kind), self.keys[start:stop])


def component_labels(num_nodes: int, pairs: np.ndarray) -> np.ndarray:
    """Connected-component label of each node of an undirected graph, given
    its edges as an (m, 2) array of node numbers.

    Components are numbered in the order of their smallest node, as
    scipy.sparse.csgraph.connected_components numbers them. Each round hooks
    every root under the smallest root an edge joins it to, then jumps
    pointers until each node points at its root; a root is always the
    smallest node of its tree, so no pointer cycle forms.
    """
    root = np.arange(num_nodes)
    u, v = pairs[:, 0], pairs[:, 1]
    while True:
        ru, rv = root[u], root[v]
        apart = ru != rv
        if not apart.any():
            break
        # an edge inside one tree stays inside it, so later rounds skip it
        u, v, ru, rv = u[apart], v[apart], ru[apart], rv[apart]
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    return np.unique(root, return_inverse=True)[1]


@dataclass(frozen=True)
class HeteroNetwork:
    """Undirected weighted graph over typed nodes with kind-pair constraints,
    held as arrays: row i of every array belongs to nodes[i].

    Built by from_pairs; the graph never changes afterwards.
    """

    nodes: NodeTable
    adjacency: CSR  # symmetric edge weights
    degree: np.ndarray  # row sums of adjacency
    labels: np.ndarray  # connected-component label per row

    @classmethod
    def from_pairs(
        cls, nodes: NodeTable, pairs: np.ndarray, weights: np.ndarray
    ) -> "HeteroNetwork":
        """The network over the table's nodes whose edge e joins rows
        pairs[e] (an (m, 2) intp array) with weight weights[e]; each row
        lists its neighbors in edge order, so sums over a row add in that
        order. Rejects, naming it, a second edge between one node pair.
        """
        _, first = np.unique(pairs.min(axis=1) * len(nodes) + pairs.max(axis=1), return_index=True)
        if len(first) < len(pairs):
            a, b = (nodes[row] for row in pairs[np.setdiff1d(np.arange(len(pairs)), first)[0]])
            raise ValidationError(f"duplicate edge between {a.kind}:{a.key} and {b.kind}:{b.key}")
        # each edge once per direction, a->b then b->a; a stable sort by row
        # keeps every row's entries in edge order
        rows, columns = pairs.ravel(), pairs[:, ::-1].ravel()
        by_row = np.argsort(rows, kind="stable")
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=len(nodes)))))
        data, filled = np.repeat(weights, 2)[by_row], np.flatnonzero(np.diff(indptr))
        degree = np.zeros(len(nodes))
        degree[filled] = np.add.reduceat(data, indptr[filled])  # as scipy sums rows
        return cls(
            nodes=nodes,
            adjacency=CSR(data, columns[by_row], indptr, (len(nodes),) * 2),
            degree=degree,
            labels=component_labels(len(nodes), pairs),
        )

    def neighbors(self, node: TypedNode) -> dict[TypedNode, float]:
        """A node's neighbors and edge weights, in edge order."""
        row = self.nodes.row(node)
        span = slice(*self.adjacency.indptr[row : row + 2])
        columns, weights = self.adjacency.indices[span], self.adjacency.data[span]
        return {self.nodes[j]: w for j, w in zip(columns.tolist(), weights.tolist())}

    def num_nodes(self) -> int:
        return len(self.nodes)

    def num_edges(self) -> int:
        return self.adjacency.nnz // 2

    def components_without(self, rows) -> tuple[np.ndarray, list[tuple[int, TypedNode]]]:
        """Find the components that hold none of the given rows (a mask,
        slice or index array).

        Returns a per-row mask of their members and, for each such component
        in the order of its smallest node, its size and that node.
        """
        reached = np.zeros(len(self.nodes), dtype=bool)
        reached[self.labels[rows]] = True
        members = ~reached[self.labels]
        member_rows = np.flatnonzero(members)
        _, first, sizes = np.unique(self.labels[member_rows], return_index=True, return_counts=True)
        smallest = member_rows[first]
        return members, [(int(size), self.nodes[row]) for row, size in sorted(zip(smallest, sizes))]


def node_table(
    report_ids: Iterable[str],
    tfidf: CSR,
    vocab: Vocabulary,
    universe: Sequence[str],
    bucket_keys: Sequence[str],
) -> NodeTable:
    """The nodes of the network over a training corpus: B the report ids,
    M the bucket keys, S the universe's paths, and T the terms that weigh
    in some TF-IDF row. The keys and paths come sorted and distinct, and
    vocabulary indices follow sorted term order. build_network links them,
    and check_model_nodes compares a model with them.
    """
    terms = [vocab.terms[j] for j in np.flatnonzero(np.bincount(tfidf.indices)).tolist()]
    return NodeTable.of({"B": sorted(report_ids), "M": bucket_keys, "S": universe, "T": terms})


def build_network(
    report_ids: Sequence[str],
    tfidf: CSR,
    vocab: Vocabulary,
    universe: Sequence[str],
    bucket_keys: Sequence[str],
    fix_links: CSR,
    bucket_links: CSR,
) -> HeteroNetwork:
    """Assemble the typed network over node_table from a training corpus:
    its TF-IDF rows and its fix links (report x universe file), in report
    order, and the bucket links (universe file x bucket key).

    T-B edges carry the report's TF-IDF weight for the term, in ascending
    term order; B-S edges (report fixed file) and S-M edges (file sits in
    bucket) carry weight 1. Every path of the universe becomes an S node
    even when never fixed. A report whose row is empty still becomes a B
    node, and one warning counts such reports.

    The edges come as T-B, then B-S in report order, then S-M in path
    order, each link row in its listed order, so each row lists its
    neighbors in the order of one pass over the reports. tfidf_rows stores
    only positive finite weights.
    """
    if tfidf.shape[0] != len(report_ids):
        raise ValidationError(f"{tfidf.shape[0]} TF-IDF rows for {len(report_ids)} reports")
    nodes = node_table(report_ids, tfidf, vocab, universe, bucket_keys)
    # the B block comes first, in id order: a report's row is its id's rank
    b_rows = np.empty(len(report_ids), dtype=np.intp)
    b_rows[sorted(range(len(report_ids)), key=report_ids.__getitem__)] = range(len(report_ids))
    s_start, m_start = nodes.rows("S").start, nodes.rows("M").start
    counts = np.diff(tfidf.indptr)
    t_rows = nodes.rows("T").start + np.unique(tfidf.indices, return_inverse=True)[1]
    t_b = (t_rows, np.repeat(b_rows, counts))
    b_s = (np.repeat(b_rows, np.diff(fix_links.indptr)), s_start + fix_links.indices)
    s_rows = s_start + np.arange(len(universe))
    s_m = (np.repeat(s_rows, np.diff(bucket_links.indptr)), m_start + bucket_links.indices)
    pairs = np.concatenate([np.column_stack(ends) for ends in (t_b, b_s, s_m)])
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        logger.warning(
            "%d reports have an empty term vector (first %s); their B nodes have no T edges",
            empty.size, report_ids[empty[0]],
        )
    links = fix_links.nnz + bucket_links.nnz
    return HeteroNetwork.from_pairs(nodes, pairs, np.concatenate((tfidf.data, np.ones(links))))


def validate_network(net: HeteroNetwork) -> list[dict]:
    """Scan the network and report diagnostics, as dicts of severity, code
    and message.

    Warnings: connected components that contain no T node (they can never
    receive term information). Info: node counts per kind, and edge counts
    per kind pair, pairs in sorted order, zero counts left out. Kinds,
    pairs and weights need no check: build_network makes only valid ones.
    """
    diags = [
        {
            "severity": "warning",
            "code": "isolated-component",
            "message": f"component of {size} nodes (e.g. {sample.kind}:{sample.key}) "
            f"has no path to any T node",
        }
        for size, sample in net.components_without(net.nodes.rows("T"))[1]
    ]
    sizes, n = np.diff(net.nodes.bounds), len(_ORDER)
    counts = " ".join(f"{k}={sizes[_POSITION[k]]}" for k in KINDS)
    # entries by (row kind, column kind); as _ORDER is sorted, i < j counts each edge once
    kind, adj = np.repeat(np.arange(n), sizes), net.adjacency
    entries = kind[adj.row_ids()] * n + kind[adj.indices]
    by_kinds = np.bincount(entries, minlength=n * n).reshape(n, n)
    pairs = combinations(enumerate(_ORDER), 2)
    edges = " ".join(f"{a}-{b}={by_kinds[i, j]}" for (i, a), (j, b) in pairs if by_kinds[i, j])
    message = f"nodes {counts}; edges {edges}".rstrip()
    return diags + [{"severity": "info", "code": "counts", "message": message}]


def write_edge_csv(net: HeteroNetwork, path) -> None:
    """Dump the edge list as CSV kind1,key1,kind2,key2,weight, each edge once
    from its smaller node, in (kind1, key1, kind2, key2) order."""
    # rows list neighbors in edge order, so sort the upper triangle by (row, col)
    adj = net.adjacency
    rows = adj.row_ids()
    upper = np.flatnonzero(adj.indices > rows)
    upper = upper[np.lexsort((adj.indices[upper], rows[upper]))]
    edges = zip(rows[upper].tolist(), adj.indices[upper].tolist(), adj.data[upper].tolist())
    nodes, header = tuple(net.nodes), ("kind1", "key1", "kind2", "key2", "weight")
    write_csv(path, header, ((*nodes[i], *nodes[j], repr(w)) for i, j, w in edges))
