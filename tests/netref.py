"""Edge-list reference of the network build, kept apart from the array code
in bugloc.network so that tests can compare the two.

One pass over the reports, in order, lists each report's T-B edges in the
order of its TF-IDF row and then its B-S fix links, as (a, b, weight)
tuples of typed nodes; the S-M links of every path in the universe follow
in path order, each path's in the order of its list of bucket keys. The
nodes are every report, every path and every edge end, sorted. Each node's
row lists its neighbors in edge order.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from bugloc.network import TypedNode


def kind_slice(nodes, kind):
    """The positions of one kind in sorted TypedNodes, which sort by kind first."""
    return slice(bisect_left(nodes, (kind,)), bisect_left(nodes, (kind + "\0",)))


def reference_edges(reports, tfidf, vocab, paths, buckets):
    """The (a, b, weight) edges, in the order of one pass over the inputs."""
    edges = []
    bounds = tfidf.indptr.tolist()
    columns, weights = tfidf.indices.tolist(), tfidf.data.tolist()
    for report, start, stop in zip(reports, bounds, bounds[1:]):
        b_node = TypedNode("B", report.id)
        for idx, weight in zip(columns[start:stop], weights[start:stop]):
            edges.append((TypedNode("T", vocab.terms[idx]), b_node, weight))
        for path in report.fixed_files:
            edges.append((b_node, TypedNode("S", path), 1.0))
    edges.extend(
        (TypedNode("S", path), TypedNode("M", key), 1.0)
        for path in sorted(paths)
        for key in buckets.get(path, ())
    )
    return edges


def reference_network(reports, tfidf, vocab, source_paths, buckets):
    """(nodes, adjacency, degree, labels) of the network over a training corpus."""
    paths = set(source_paths)
    edges = reference_edges(reports, tfidf, vocab, paths, buckets)
    nodes = {TypedNode("S", path) for path in paths}
    nodes.update(TypedNode("B", report.id) for report in reports)
    nodes.update(node for a, b, _ in edges for node in (a, b))
    order = tuple(sorted(nodes))
    row = {node: i for i, node in enumerate(order)}
    entries = [[] for _ in order]
    for a, b, weight in edges:
        entries[row[a]].append((row[b], weight))
        entries[row[b]].append((row[a], weight))
    indptr = np.cumsum([0] + [len(listed) for listed in entries])
    indices = np.array([j for listed in entries for j, _ in listed], dtype=np.intp)
    data = np.array([w for listed in entries for _, w in listed], dtype=np.float64)
    adjacency = sparse.csr_array((data, indices, indptr), shape=(len(order),) * 2)
    labels = csgraph.connected_components(adjacency, directed=False)[1]
    return order, adjacency, adjacency.sum(axis=1), labels
