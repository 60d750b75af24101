"""Heterogeneous network over bug reports (B), terms (T), source files (S),
and metric buckets (M).

Edges exist only between (T, B), (B, S), and (S, M); they are undirected,
carry positive finite weights, and at most one edge joins a node pair.
"""

from __future__ import annotations

import csv
import logging
import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .corpus import BugReport, Vocabulary
from .errors import ValidationError
from .metrics import MetricBucket

if TYPE_CHECKING:
    from scipy import sparse

logger = logging.getLogger(__name__)

KINDS = ("B", "T", "S", "M")

# canonical (min, max) kind pairs allowed to share an edge
ALLOWED_KIND_PAIRS = frozenset({("B", "T"), ("B", "S"), ("M", "S")})

_KIND_CODE = {kind: code for code, kind in enumerate(KINDS)}
# whether kinds with codes i and j may share an edge, in either order
_ALLOWED_CODES = np.zeros((len(KINDS),) * 2, dtype=bool)
for _pair in ALLOWED_KIND_PAIRS:
    _ALLOWED_CODES[_KIND_CODE[_pair[0]], _KIND_CODE[_pair[1]]] = True
_ALLOWED_CODES |= _ALLOWED_CODES.T


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


def _check_node(node: TypedNode) -> None:
    if node.kind not in KINDS:
        raise ValidationError(f"unknown node kind {node.kind!r}")
    if not node.key:
        raise ValidationError("node key must be nonempty")


def _check_edge(a: TypedNode, b: TypedNode, weight: float) -> None:
    if a == b:
        raise ValidationError(f"self-loop on {a}")
    if (min(a.kind, b.kind), max(a.kind, b.kind)) not in ALLOWED_KIND_PAIRS:
        raise ValidationError(f"edge between kinds {a.kind} and {b.kind} is not allowed")
    if not math.isfinite(weight) or weight <= 0.0:
        raise ValidationError(f"edge weight must be positive and finite, got {weight!r}")
    _check_node(a)
    _check_node(b)


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

    Built by from_edges; the graph never changes afterwards.
    """

    nodes: tuple[TypedNode, ...]  # sorted
    adjacency: sparse.csr_array  # symmetric edge weights
    degree: np.ndarray  # row sums of adjacency
    labels: np.ndarray  # connected-component label per row
    kind_rows: dict[str, sparse.csr_array]  # each kind's rows of adjacency

    @classmethod
    def from_edges(
        cls,
        edges: Sequence[tuple[TypedNode, TypedNode, float]],
        nodes: Iterable[TypedNode] = (),
    ) -> "HeteroNetwork":
        """The network of the given (a, b, weight) edges plus any further nodes.

        Rejects, naming the first offender, an unknown kind or empty key, a
        self-loop, a disallowed kind pair, a weight that is not positive and
        finite, and then a second edge between one node pair in either
        direction. Each row lists its neighbors in the order of the edges
        that join them, so sums over a row add in that order.
        """
        from scipy import sparse

        nodes = list(nodes)
        ends = [node for a, b, _ in edges for node in (a, b)]
        distinct = dict.fromkeys(nodes + ends)
        weights = np.array([w for _, _, w in edges], dtype=np.float64)
        valid = all(node.kind in KINDS and node.key for node in distinct)
        if valid:
            order = tuple(sorted(distinct))
            index = dict(zip(order, range(len(order))))
            pairs = np.fromiter(map(index.__getitem__, ends), dtype=np.intp, count=len(ends))
            pairs = pairs.reshape(-1, 2)
            kinds = np.array([_KIND_CODE[node.kind] for node in order], dtype=np.intp)
            # no allowed pair joins one kind, so this also flags every self-loop
            allowed = _ALLOWED_CODES[kinds[pairs[:, 0]], kinds[pairs[:, 1]]]
            valid = (allowed & np.isfinite(weights) & (weights > 0.0)).all()
        if not valid:
            # name the first offender, as checking each node and then each edge in turn does
            for node in nodes:
                _check_node(node)
            for edge in edges:
                _check_edge(*edge)
        _, first = np.unique(pairs.min(axis=1) * len(order) + pairs.max(axis=1), return_index=True)
        if len(first) < len(pairs):
            repeats = np.ones(len(pairs), dtype=bool)
            repeats[first] = False
            a, b, _ = edges[int(np.argmax(repeats))]
            raise ValidationError(f"duplicate edge between {a} and {b}")
        # each edge once per direction, a->b then b->a; a stable sort by row
        # keeps every row's entries in edge order
        rows, columns = pairs.ravel(), pairs[:, ::-1].ravel()
        by_row = np.argsort(rows, kind="stable")
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=len(order)))))
        adjacency = sparse.csr_array(
            (np.repeat(weights, 2)[by_row], columns[by_row], indptr),
            shape=(len(order),) * 2,
            dtype=np.float64,
        )
        return cls(
            nodes=order,
            adjacency=adjacency,
            degree=adjacency.sum(axis=1),
            labels=component_labels(len(order), pairs),
            kind_rows={kind: adjacency[kind_slice(order, kind)] for kind in KINDS},
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


def build_network(
    reports: Sequence[BugReport],
    tfidf: sparse.csr_array,
    vocab: Vocabulary,
    source_paths: Iterable[str],
    buckets: Mapping[str, Sequence[MetricBucket]],
) -> HeteroNetwork:
    """Assemble the typed network from a training corpus and its TF-IDF rows, in report order.

    T-B edges carry the report's TF-IDF weight for the term, in ascending
    term order; B-S edges (report fixed file) and S-M edges (file sits in
    bucket) carry weight 1. Every source path becomes an S node even when
    never fixed. A report whose row is empty still becomes a B node, and one
    warning counts such reports; a fix link to a path outside source_paths
    is a validation error.
    """
    if tfidf.shape[0] != len(reports):
        raise ValidationError(f"{tfidf.shape[0]} TF-IDF rows for {len(reports)} reports")
    paths = set(source_paths)
    check_fix_links(reports, paths)
    # one node object per term and file, however many edges name it
    terms = [TypedNode("T", term) for term in vocab.terms]
    files = {path: TypedNode("S", path) for path in paths}
    nodes = list(files.values())
    edges = []
    bounds = tfidf.indptr.tolist()
    columns, weights = tfidf.indices.tolist(), tfidf.data.tolist()
    for report, start, stop in zip(reports, bounds, bounds[1:]):
        b_node = TypedNode("B", report.id)
        nodes.append(b_node)
        for idx, weight in zip(columns[start:stop], weights[start:stop]):
            edges.append((terms[idx], b_node, weight))
        for path in report.fixed_files:
            edges.append((b_node, files[path], 1.0))
    empty = [report.id for report, start, stop in zip(reports, bounds, bounds[1:]) if start == stop]
    if empty:
        logger.warning(
            "%d reports have an empty term vector (first %s); their B nodes have no T edges",
            len(empty), empty[0],
        )
    # a file sits in a bucket once, however often the bucket is listed
    in_bucket = dict.fromkeys(
        (files[path], TypedNode("M", bucket.node_key))
        for path in sorted(buckets)
        if path in paths
        for bucket in buckets[path]
    )
    edges.extend((s_node, m_node, 1.0) for s_node, m_node in in_bucket)
    return HeteroNetwork.from_edges(edges, nodes)


def validate_network(net: HeteroNetwork) -> list[Diagnostic]:
    """Scan the network and report diagnostics.

    Warnings: connected components that contain no T node (they can never
    receive term information). Info: per-kind node and edge counts. The
    network's constructor already rejects bad kinds, pairs and weights.
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
