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
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .corpus import BowVector, BugReport, Vocabulary
from .errors import ValidationError
from .metrics import MetricBucket

logger = logging.getLogger(__name__)

KINDS = ("B", "T", "S", "M")

# canonical (min, max) kind pairs allowed to share an edge
ALLOWED_KIND_PAIRS = frozenset({("B", "T"), ("B", "S"), ("M", "S")})


class TypedNode(NamedTuple):
    kind: str
    key: str


def kind_slice(nodes: Sequence[TypedNode], kind: str) -> slice:
    """Positions of one kind's nodes in a sorted node sequence.

    TypedNode sorts by kind first, so each kind's nodes are contiguous.
    """
    return slice(bisect_left(nodes, (kind,)), bisect_left(nodes, (kind + "\0",)))


@dataclass(frozen=True)
class NetworkView:
    """Array form of a network: row i of every array belongs to nodes[i]."""

    nodes: tuple[TypedNode, ...]  # sorted
    adjacency: sparse.csr_array  # symmetric edge weights
    degree: np.ndarray  # row sums of adjacency
    labels: np.ndarray  # connected-component label per row
    kind_rows: dict[str, sparse.csr_array]  # each kind's rows of adjacency

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


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning" | "info"
    code: str
    message: str


class HeteroNetwork:
    """Undirected weighted graph over typed nodes with kind-pair constraints."""

    def __init__(self):
        self._adj: dict[TypedNode, dict[TypedNode, float]] = {}
        self._view: NetworkView | None = None

    @property
    def nodes(self):
        return self._adj.keys()

    def __contains__(self, node: TypedNode) -> bool:
        return node in self._adj

    def add_node(self, node: TypedNode) -> TypedNode:
        if node.kind not in KINDS:
            raise ValidationError(f"unknown node kind {node.kind!r}")
        if not node.key:
            raise ValidationError("node key must be nonempty")
        self._adj.setdefault(node, {})
        self._view = None
        return node

    def add_edge(self, a: TypedNode, b: TypedNode, weight: float) -> None:
        if a == b:
            raise ValidationError(f"self-loop on {a}")
        pair = (min(a.kind, b.kind), max(a.kind, b.kind))
        if pair not in ALLOWED_KIND_PAIRS:
            raise ValidationError(f"edge between kinds {a.kind} and {b.kind} is not allowed")
        if not math.isfinite(weight) or weight <= 0.0:
            raise ValidationError(f"edge weight must be positive and finite, got {weight!r}")
        self.add_node(a)
        self.add_node(b)
        if b in self._adj[a]:
            raise ValidationError(f"duplicate edge between {a} and {b}")
        self._adj[a][b] = weight
        self._adj[b][a] = weight

    def neighbors(self, node: TypedNode) -> Mapping[TypedNode, float]:
        return self._adj[node]

    def edges(self):
        """Yield each undirected edge once as (a, b, weight) with a < b."""
        for a, nbrs in self._adj.items():
            for b, w in nbrs.items():
                if a < b:
                    yield a, b, w

    def num_nodes(self) -> int:
        return len(self._adj)

    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def nodes_of_kind(self, kind: str) -> list[TypedNode]:
        return sorted(n for n in self._adj if n.kind == kind)

    def view(self) -> NetworkView:
        """The array view of the graph, built on first use after a change."""
        if self._view is None:
            nodes = tuple(sorted(self._adj))
            index = {node: i for i, node in enumerate(nodes)}
            indptr = np.cumsum([0] + [len(self._adj[node]) for node in nodes])
            columns = [index[b] for a in nodes for b in self._adj[a]]
            weights = [w for a in nodes for w in self._adj[a].values()]
            shape = (len(nodes), len(nodes))
            adjacency = sparse.csr_array((weights, columns, indptr), shape=shape, dtype=np.float64)
            _, labels = csgraph.connected_components(adjacency, directed=False)
            self._view = NetworkView(
                nodes=nodes,
                adjacency=adjacency,
                degree=adjacency.sum(axis=1),
                labels=labels,
                kind_rows={kind: adjacency[kind_slice(nodes, kind)] for kind in KINDS},
            )
        return self._view


def check_fix_links(reports: Sequence[BugReport], paths) -> None:
    """Reject a report that fixes a path outside the ranked universe."""
    for report in reports:
        for path in report.fixed_files:
            if path not in paths:
                raise ValidationError(f"report {report.id!r} fixes unknown path {path!r}")


def build_network(
    reports: Sequence[BugReport],
    bow_vectors: Mapping[str, BowVector],
    vocab: Vocabulary,
    source_paths: Iterable[str],
    buckets: Mapping[str, Sequence[MetricBucket]],
) -> HeteroNetwork:
    """Assemble the typed network from a training corpus.

    T-B edges carry the report's TF-IDF weight for the term, B-S edges
    (report fixed file) and S-M edges (file sits in bucket) carry weight 1.
    Every source path becomes an S node even when never fixed. A report
    whose vector is empty still becomes a B node and logs a warning; a fix
    link to a path outside source_paths is a validation error.
    """
    net = HeteroNetwork()
    paths = set(source_paths)
    check_fix_links(reports, paths)
    for path in sorted(paths):
        net.add_node(TypedNode("S", path))
    for report in reports:
        b_node = net.add_node(TypedNode("B", report.id))
        bow = bow_vectors.get(report.id)
        if bow is None:
            raise ValidationError(f"no vector for report {report.id!r}")
        if bow.is_empty():
            logger.warning("report %s has an empty term vector; B node has no T edges", report.id)
        for idx in sorted(bow.entries):
            term = vocab.term_of(idx)
            net.add_edge(TypedNode("T", term), b_node, bow.entries[idx])
        for path in report.fixed_files:
            net.add_edge(b_node, TypedNode("S", path), 1.0)
    for path in sorted(buckets):
        if path not in paths:
            continue
        for bucket in buckets[path]:
            s_node = TypedNode("S", path)
            m_node = TypedNode("M", bucket.node_key)
            if m_node in net and s_node in net.neighbors(m_node):
                continue
            net.add_edge(s_node, m_node, 1.0)
    return net


def validate_network(net: HeteroNetwork) -> list[Diagnostic]:
    """Scan the network and report diagnostics.

    Errors: disallowed kind pairs, non-positive or non-finite weights.
    Warnings: connected components that contain no T node (they can never
    receive term information). Info: per-kind node and edge counts.
    """
    diags: list[Diagnostic] = []
    node_counts = {k: 0 for k in KINDS}
    for node in net.nodes:
        if node.kind in node_counts:
            node_counts[node.kind] += 1
        else:
            diags.append(Diagnostic("error", "kind", f"unknown kind on node {node}"))
    edge_counts: dict[str, int] = {}
    for a, b, w in net.edges():
        pair = (min(a.kind, b.kind), max(a.kind, b.kind))
        label = f"{pair[0]}-{pair[1]}"
        edge_counts[label] = edge_counts.get(label, 0) + 1
        if pair not in ALLOWED_KIND_PAIRS:
            diags.append(
                Diagnostic("error", "kind-pair", f"edge {a} -- {b} joins kinds {label}")
            )
        if not math.isfinite(w) or w <= 0.0:
            diags.append(
                Diagnostic("error", "weight", f"edge {a} -- {b} has bad weight {w!r}")
            )
    view = net.view()
    for size, sample in view.components_without(kind_slice(view.nodes, "T"))[1]:
        diags.append(
            Diagnostic(
                "warning",
                "isolated-component",
                f"component of {size} nodes (e.g. {sample.kind}:{sample.key}) "
                f"has no path to any T node",
            )
        )
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
