"""Heterogeneous network over bug reports (B), terms (T), source files (S),
and metric buckets (M).

Edges exist only between (T, B), (B, S), and (S, M); they are undirected,
carry positive finite weights, and at most one edge joins a node pair.
build_network makes only such edges, from the loaders' validated keys and
the index's arrays, and HeteroNetwork.from_pairs rejects a repeated pair.
"""

from __future__ import annotations

import csv
import logging
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .corpus import BugReport, Vocabulary
from .errors import ValidationError
from .metrics import MetricBucket

if TYPE_CHECKING:
    from scipy import sparse

logger = logging.getLogger(__name__)

KINDS = ("B", "T", "S", "M")


class TypedNode(NamedTuple):
    kind: str
    key: str


def kind_slice(nodes: Sequence[TypedNode], kind: str) -> slice:
    """Positions of one kind's nodes in a sorted node sequence.

    TypedNode sorts by kind first, so each kind's nodes are contiguous.
    """
    return slice(bisect_left(nodes, (kind,)), bisect_left(nodes, (kind + "\0",)))


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "warning" | "info"
    code: str
    message: str


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

    nodes: tuple[TypedNode, ...]  # sorted
    adjacency: sparse.csr_array  # symmetric edge weights
    degree: np.ndarray  # row sums of adjacency
    labels: np.ndarray  # connected-component label per row
    kind_rows: dict[str, sparse.csr_array]  # each kind's rows of adjacency

    @classmethod
    def from_pairs(
        cls, nodes: tuple[TypedNode, ...], pairs: np.ndarray, weights: np.ndarray
    ) -> "HeteroNetwork":
        """The network over sorted, distinct nodes whose edge e joins rows
        pairs[e] (an (m, 2) intp array) with weight weights[e]; each row
        lists its neighbors in edge order, so sums over a row add in that
        order. Rejects, naming it, a second edge between one node pair.
        """
        from scipy import sparse

        _, first = np.unique(pairs.min(axis=1) * len(nodes) + pairs.max(axis=1), return_index=True)
        if len(first) < len(pairs):
            a, b = pairs[np.setdiff1d(np.arange(len(pairs)), first)[0]].tolist()
            raise ValidationError(f"duplicate edge between {nodes[a]} and {nodes[b]}")
        # each edge once per direction, a->b then b->a; a stable sort by row
        # keeps every row's entries in edge order
        rows, columns = pairs.ravel(), pairs[:, ::-1].ravel()
        by_row = np.argsort(rows, kind="stable")
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=len(nodes)))))
        adjacency = sparse.csr_array(
            (np.repeat(weights, 2)[by_row], columns[by_row], indptr),
            shape=(len(nodes),) * 2,
            dtype=np.float64,
        )
        return cls(
            nodes=nodes,
            adjacency=adjacency,
            degree=adjacency.sum(axis=1),
            labels=component_labels(len(nodes), pairs),
            kind_rows={kind: adjacency[kind_slice(nodes, kind)] for kind in KINDS},
        )

    def neighbors(self, node: TypedNode) -> dict[TypedNode, float]:
        """A node's neighbors and edge weights, in edge order."""
        row = bisect_left(self.nodes, node)
        if row == len(self.nodes) or self.nodes[row] != node:
            raise KeyError(node)
        span = slice(*self.adjacency.indptr[row : row + 2])
        columns, weights = self.adjacency.indices[span], self.adjacency.data[span]
        return {self.nodes[j]: w for j, w in zip(columns.tolist(), weights.tolist())}

    def edges(self):
        """Yield each undirected edge once as (a, b, weight) with a < b."""
        from scipy import sparse

        upper = sparse.triu(self.adjacency, k=1, format="coo")
        for i, j, w in zip(upper.row.tolist(), upper.col.tolist(), upper.data.tolist()):
            yield self.nodes[i], self.nodes[j], w

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


def check_fix_links(reports: Sequence[BugReport], paths) -> None:
    """Reject a report that fixes a path outside the ranked universe."""
    for report in reports:
        for path in report.fixed_files:
            if path not in paths:
                raise ValidationError(f"report {report.id!r} fixes unknown path {path!r}")


def node_table(
    report_ids: Iterable[str],
    tfidf: sparse.csr_array,
    vocab: Vocabulary,
    paths: Iterable[str],
    buckets: Mapping[str, Sequence[MetricBucket]],
) -> tuple[TypedNode, ...]:
    """The sorted nodes of the network over a training corpus: B the report
    ids, M the keys of the paths' buckets, S the paths, and T the terms that
    weigh in some TF-IDF row. build_network links them, and check_model_nodes
    compares a model with them. Kinds sort as B < M < S < T, and vocabulary
    indices follow sorted term order, so each kind's block comes out sorted.
    """
    paths = set(paths)
    keys = {b.node_key for path, listed in buckets.items() if path in paths for b in listed}
    terms = [vocab.terms[j] for j in np.flatnonzero(np.bincount(tfidf.indices)).tolist()]
    blocks = zip("BMST", (sorted(report_ids), sorted(keys), sorted(paths), terms))
    return tuple(node for kind, block in blocks for node in map(TypedNode, repeat(kind), block))


def build_network(
    reports: Sequence[BugReport],
    tfidf: sparse.csr_array,
    vocab: Vocabulary,
    source_paths: Iterable[str],
    buckets: Mapping[str, Sequence[MetricBucket]],
) -> HeteroNetwork:
    """Assemble the typed network over node_table from a training corpus and
    its TF-IDF rows, in report order.

    T-B edges carry the report's TF-IDF weight for the term, in ascending
    term order; B-S edges (report fixed file) and S-M edges (file sits in
    bucket) carry weight 1. Every source path becomes an S node even when
    never fixed. A report whose row is empty still becomes a B node, and one
    warning counts such reports; a fix link to a path outside source_paths
    is a validation error.

    The edges come as T-B, then B-S in report order, then S-M in path
    order, so each row lists its neighbors in the order of one pass over the
    reports. tfidf_rows stores only positive finite weights.
    """
    if tfidf.shape[0] != len(reports):
        raise ValidationError(f"{tfidf.shape[0]} TF-IDF rows for {len(reports)} reports")
    paths = set(source_paths)
    check_fix_links(reports, paths)
    nodes = node_table([report.id for report in reports], tfidf, vocab, paths, buckets)
    row = dict(zip(nodes, range(len(nodes))))
    b_rows = [row["B", report.id] for report in reports]
    counts = np.diff(tfidf.indptr)
    t_rows = kind_slice(nodes, "T").start + np.unique(tfidf.indices, return_inverse=True)[1]
    term_pairs = np.column_stack((t_rows, np.repeat(np.array(b_rows, dtype=np.intp), counts)))
    fixes = [(b, row["S", path]) for b, r in zip(b_rows, reports) for path in r.fixed_files]
    # a file sits in a bucket once, however often the bucket is listed
    in_bucket = dict.fromkeys(
        (row["S", path], row["M", bucket.node_key])
        for path in sorted(buckets)
        if path in paths
        for bucket in buckets[path]
    )
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        logger.warning(
            "%d reports have an empty term vector (first %s); their B nodes have no T edges",
            empty.size, reports[empty[0]].id,
        )
    links = np.array(fixes + list(in_bucket), dtype=np.intp).reshape(-1, 2)
    return HeteroNetwork.from_pairs(
        nodes,
        np.concatenate((term_pairs, links)),
        np.concatenate((tfidf.data, np.ones(len(links)))),
    )


def validate_network(net: HeteroNetwork) -> list[Diagnostic]:
    """Scan the network and report diagnostics.

    Warnings: connected components that contain no T node (they can never
    receive term information). Info: per-kind node and edge counts. Kinds,
    pairs and weights need no check: build_network makes only valid ones.
    """
    diags = [
        Diagnostic(
            "warning",
            "isolated-component",
            f"component of {size} nodes (e.g. {sample.kind}:{sample.key}) "
            f"has no path to any T node",
        )
        for size, sample in net.components_without(kind_slice(net.nodes, "T"))[1]
    ]
    node_counts = Counter(node.kind for node in net.nodes)
    edge_counts = Counter("-".join(sorted((a.kind, b.kind))) for a, b, _ in net.edges())
    counts = " ".join(f"{k}={node_counts[k]}" for k in KINDS)
    edges = " ".join(f"{label}={edge_counts[label]}" for label in sorted(edge_counts))
    diags.append(Diagnostic("info", "counts", f"nodes {counts}; edges {edges}".rstrip()))
    return diags


def write_edge_csv(net: HeteroNetwork, path) -> None:
    """Dump the edge list as CSV kind1,key1,kind2,key2,weight (canonical order)."""
    rows = sorted(net.edges())
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["kind1", "key1", "kind2", "key2", "weight"])
        for a, b, w in rows:
            writer.writerow([a.kind, a.key, b.kind, b.key, repr(w)])
