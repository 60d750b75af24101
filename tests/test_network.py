import csv
import logging
import math
import tempfile
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from bugloc.corpus import build_vocabulary, tfidf_rows
from bugloc.errors import ValidationError
from bucketref import reference_buckets
from bugloc.metrics import MetricRecord, discretize
from bugloc.network import (
    KINDS,
    HeteroNetwork,
    TypedNode,
    build_network,
    component_labels,
    node_table,
    validate_network,
    write_edge_csv,
)
from bugloc.pipeline import fix_links
from netgen import edge_arrays, edge_lists, network_of, table_of
from netref import kind_slice, reference_edges, reference_network
from sparseref import (
    from_scipy,
    scipy_network,
    scipy_validate_network,
    scipy_write_edge_csv,
    to_scipy,
)


def _of_kind(net, kind):
    return tuple(net.nodes)[net.nodes.rows(kind)]


# the bucket count of every corpus here
_NB = 3


def _build(reports, tfidf, vocab, paths, records):
    """build_network over the link builders' matrices, fed as build_index
    feeds it: the sorted paths are the universe, and discretize buckets the
    metric records over it."""
    universe = tuple(sorted(paths))
    keys, in_bucket = discretize(records, _NB, universe)
    ids = [report.id for report in reports]
    links = fix_links(ids, [report.fixed_files for report in reports], universe)
    return build_network(ids, tfidf, vocab, universe, keys, links, in_bucket)


class TestHeteroNetwork:
    def test_add_edge_and_lookups(self):
        t = TypedNode("T", "null")
        b = TypedNode("B", "BUG-1")
        net = network_of([(t, b, 0.5)])
        assert tuple(net.nodes) == (b, t)
        assert net.neighbors(b) == {t: 0.5}
        assert net.num_nodes() == 2
        assert net.num_edges() == 1
        upper = sparse.triu(to_scipy(net.adjacency), k=1, format="coo")
        assert [
            (net.nodes[i], net.nodes[j], w)
            for i, j, w in zip(upper.row.tolist(), upper.col.tolist(), upper.data.tolist())
        ] == [(b, t, 0.5)]

    def test_duplicate_edge_rejected_either_direction(self):
        b, s, t = TypedNode("B", "b"), TypedNode("S", "a.java"), TypedNode("T", "x")
        nodes, weights = table_of((b, s, t)), np.ones(3)
        with pytest.raises(ValidationError, match="^duplicate edge between B:b and T:x$"):
            HeteroNetwork.from_pairs(nodes, np.array([[2, 0], [0, 1], [0, 2]]), weights)
        with pytest.raises(ValidationError, match="^duplicate edge between T:x and B:b$"):
            HeteroNetwork.from_pairs(nodes, np.array([[2, 0], [2, 0]]), weights[:2])

    def test_nodes_of_kind_sorted(self):
        net = network_of(
            [], nodes=[TypedNode("S", "b.java"), TypedNode("S", "a.java"), TypedNode("B", "BUG-1")]
        )
        assert _of_kind(net, "S") == (TypedNode("S", "a.java"), TypedNode("S", "b.java"))
        assert tuple(net.nodes) == (TypedNode("B", "BUG-1"), *_of_kind(net, "S"))
        assert net.num_edges() == 0 and not net.neighbors(TypedNode("B", "BUG-1"))

    def test_rows_list_neighbors_in_edge_order(self):
        b = TypedNode("B", "b")
        t1, t2, s1 = TypedNode("T", "z"), TypedNode("T", "a"), TypedNode("S", "m.java")
        net = network_of([(t1, b, 2.0), (b, s1, 1.0), (t2, b, 3.0)])
        assert list(net.neighbors(b).items()) == [(t1, 2.0), (s1, 1.0), (t2, 3.0)]
        row = net.nodes.row(b)
        span = slice(*net.adjacency.indptr[row : row + 2])
        assert [net.nodes[j] for j in net.adjacency.indices[span]] == [t1, s1, t2]
        assert net.degree[row] == 6.0
        adjacency = to_scipy(net.adjacency)
        assert (adjacency != adjacency.T).nnz == 0

    def test_unknown_node_has_no_neighbors_entry(self):
        net = network_of([(TypedNode("T", "x"), TypedNode("B", "b"), 1.0)])
        with pytest.raises(KeyError):
            net.neighbors(TypedNode("B", "c"))


def _csgraph_labels(num_nodes, pairs):
    from scipy.sparse import csgraph

    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    graph = sparse.coo_array(
        (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(num_nodes, num_nodes)
    )
    return csgraph.connected_components(graph, directed=False)[1]


class TestComponentLabels:
    @given(
        st.integers(0, 40).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=60)
                if n
                else st.just([]),
            )
        )
    )
    def test_matches_csgraph(self, graph):
        num_nodes, pairs = graph
        pairs = np.array(pairs, dtype=np.intp).reshape(-1, 2)
        labels = component_labels(num_nodes, pairs)
        np.testing.assert_array_equal(labels, _csgraph_labels(num_nodes, pairs))

    def test_empty_graph_and_isolated_nodes(self):
        assert component_labels(0, np.zeros((0, 2), dtype=np.intp)).tolist() == []
        isolated = component_labels(4, np.array([[1, 2]], dtype=np.intp))
        assert isolated.tolist() == [0, 1, 1, 2]

    @given(st.integers(2, 3000), st.randoms(use_true_random=False))
    def test_permuted_long_path_is_one_component(self, length, rnd):
        order = list(range(length))
        rnd.shuffle(order)
        pairs = np.array(list(zip(order, order[1:])), dtype=np.intp)
        labels = component_labels(length + 1, pairs)
        assert labels[:length].tolist() == [0] * length
        np.testing.assert_array_equal(labels, _csgraph_labels(length + 1, pairs))


def _tiny_corpus():
    """Two reports over three files; one file never fixed, one metric."""
    vocab = build_vocabulary([["leak", "socket"], ["leak", "widget"]])
    bows = tfidf_rows([["leak", "socket"], ["leak", "widget"]], vocab)

    class R:
        def __init__(self, rid, files):
            self.id = rid
            self.fixed_files = tuple(files)

    reports = [R("B-1", ["src/A.java"]), R("B-2", ["src/A.java", "src/B.java"])]
    paths = ["src/A.java", "src/B.java", "src/C.java"]
    records = [
        MetricRecord("src/A.java", "lines", 10.0),
        MetricRecord("src/B.java", "lines", 90.0),
    ]
    return reports, bows, vocab, paths, records


class TestBuildNetwork:
    def test_counts_and_weights(self):
        reports, bows, vocab, paths, records = _tiny_corpus()
        net = _build(reports, bows, vocab, paths, records)
        # leak appears in both docs so its weight is 0 and no T node exists
        assert _of_kind(net, "T") == (
            TypedNode("T", "socket"), TypedNode("T", "widget"),
        )
        assert len(_of_kind(net, "B")) == 2
        assert len(_of_kind(net, "S")) == 3  # src/C.java has no edges
        assert len(_of_kind(net, "M")) == 2
        b1 = TypedNode("B", "B-1")
        assert net.neighbors(b1)[TypedNode("T", "socket")] == pytest.approx(
            math.log(2), abs=1e-15
        )
        assert net.neighbors(b1)[TypedNode("S", "src/A.java")] == 1.0
        m0 = TypedNode("M", "lines:0")
        assert net.neighbors(m0) == {TypedNode("S", "src/A.java"): 1.0}

    def test_fix_share_splits_edges_not_weights(self):
        reports, bows, vocab, paths, records = _tiny_corpus()
        net = _build(reports, bows, vocab, paths, records)
        b2 = TypedNode("B", "B-2")
        assert net.neighbors(b2)[TypedNode("S", "src/A.java")] == 1.0
        assert net.neighbors(b2)[TypedNode("S", "src/B.java")] == 1.0

    def test_empty_vector_report_warns_but_builds(self, caplog):
        reports, _, vocab, paths, records = _tiny_corpus()
        bows = tfidf_rows([[], ["leak", "widget"]], vocab)
        with caplog.at_level(logging.WARNING, logger="bugloc.network"):
            net = _build(reports, bows, vocab, paths, records)
        assert "B-1" in caplog.text
        b1 = TypedNode("B", "B-1")
        assert all(n.kind == "S" for n in net.neighbors(b1))

    def test_empty_vector_reports_give_one_warning(self, caplog):
        reports, _, vocab, paths, records = _tiny_corpus()
        bows = tfidf_rows([[], []], vocab)
        with caplog.at_level(logging.WARNING, logger="bugloc.network"):
            _build(reports, bows, vocab, paths, records)
        assert len(caplog.records) == 1
        assert "2 reports" in caplog.text and "B-1" in caplog.text

    def test_fix_to_unknown_path_names_report_and_path(self):
        reports, bows, vocab, paths, records = _tiny_corpus()
        reports[0].fixed_files = ("src/Gone.java",)
        with pytest.raises(ValidationError, match=r"B-1.*src/Gone\.java"):
            _build(reports, bows, vocab, paths, records)

    def test_missing_vector_rejected(self):
        reports, bows, vocab, paths, records = _tiny_corpus()
        with pytest.raises(ValidationError, match="1 TF-IDF rows for 2 reports"):
            _build(reports, from_scipy(to_scipy(bows)[:1]), vocab, paths, records)


_KEYS = st.text(alphabet='az_Zé中-.,"', min_size=1, max_size=3)
_TERMS = ("leak", "null", "socket", "widget", "ünï", "日本")
_ALLOWED_KIND_PAIRS = {("B", "T"), ("B", "S"), ("M", "S")}


@st.composite
def _corpora(draw):
    """build_network's inputs: report ids in an order of their own, up to
    two fix links per report, TF-IDF rows that may be empty, and metric
    records on universe paths with unique (path, metric) pairs and tied
    values."""
    paths = draw(st.lists(_KEYS.map("src/{}".format), min_size=1, max_size=5, unique=True))
    fixes = st.lists(st.sampled_from(paths), max_size=2, unique=True).map(tuple)
    ids = draw(st.lists(_KEYS, min_size=1, max_size=6, unique=True))
    reports = [SimpleNamespace(id=rid, fixed_files=draw(fixes)) for rid in ids]
    tokens = [draw(st.lists(st.sampled_from(_TERMS), max_size=5)) for _ in ids]
    vocab = build_vocabulary(tokens)
    metrics = st.sampled_from(("lines", "fan-ö", 'a,"b"'))
    cells = draw(st.lists(st.tuples(st.sampled_from(paths), metrics), max_size=10, unique=True))
    records = [MetricRecord(path, metric, float(draw(st.integers(0, 4)))) for path, metric in cells]
    return reports, tfidf_rows(tokens, vocab), vocab, paths, records


def _reference_corpus(corpus):
    """The corpus as netref reads it: the records turned into per-path
    bucket key lists by the dict rule."""
    *rest, records = corpus
    return (*rest, reference_buckets(records, _NB))


def _reference_dump_and_counts(corpus, path):
    """Write the edge-list reference's edges to path as the sorted
    (smaller node, larger node, weight) tuples that define network.csv's
    order, and return the counts line, from Counters over the same tuples."""
    corpus = _reference_corpus(corpus)
    nodes = reference_network(*corpus)[0]
    edges = sorted((min(a, b), max(a, b), w) for a, b, w in reference_edges(*corpus))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["kind1", "key1", "kind2", "key2", "weight"])
        for a, b, w in edges:
            writer.writerow([a.kind, a.key, b.kind, b.key, repr(w)])
    node_counts = Counter(node.kind for node in nodes)
    edge_counts = Counter("-".join(sorted((a.kind, b.kind))) for a, b, _ in edges)
    counts = " ".join(f"{k}={node_counts[k]}" for k in KINDS)
    pairs = " ".join(f"{label}={edge_counts[label]}" for label in sorted(edge_counts))
    return f"nodes {counts}; edges {pairs}".rstrip()


def _assert_matches_reference(corpus):
    """build_network equals the edge-list reference bit for bit, holds
    node_table's nodes, and joins only allowed kinds, once, with positive
    finite weights; its edge dump and counts line equal those made from
    the reference's sorted edge tuples. The node table lists the
    reference's sorted nodes, each kind's rows where bisecting them finds
    it, and finds each node at its own row."""
    net = _build(*corpus)
    with tempfile.TemporaryDirectory() as tmp:
        dumped, expected = Path(tmp, "network.csv"), Path(tmp, "reference.csv")
        write_edge_csv(net, dumped)
        counts_line = _reference_dump_and_counts(corpus, expected)
        assert dumped.read_bytes() == expected.read_bytes()
    counts = {"severity": "info", "code": "counts", "message": counts_line}
    assert validate_network(net)[-1] == counts
    nodes, adjacency, degree, labels = reference_network(*_reference_corpus(corpus))
    assert tuple(net.nodes) == nodes
    reports, tfidf, vocab, paths, records = corpus
    universe = tuple(sorted(paths))
    keys = discretize(records, _NB, universe)[0]
    table = node_table([report.id for report in reports], tfidf, vocab, universe, keys)
    assert net.nodes == table
    assert tuple(table) == nodes and len(table) == len(nodes)
    for kind in KINDS:
        assert table.rows(kind) == kind_slice(nodes, kind)
    assert [table.row(table[row]) for row in range(len(table))] == list(range(len(table)))
    for kind, key in table:
        # sorts right after a key of the table, so inside its kind's block
        with pytest.raises(KeyError):
            table.row(TypedNode(kind, key + "\0"))
    for kind in ("A", "Z", "X"):
        for key in (*table.keys[:1], "x"):
            with pytest.raises(KeyError):
                table.row(TypedNode(kind, key))
    np.testing.assert_array_equal(net.adjacency.indptr, adjacency.indptr)
    np.testing.assert_array_equal(net.adjacency.indices, adjacency.indices)
    np.testing.assert_array_equal(
        net.adjacency.data.view(np.uint64), adjacency.data.view(np.uint64)
    )
    np.testing.assert_array_equal(net.degree.view(np.uint64), degree.view(np.uint64))
    np.testing.assert_array_equal(net.labels, labels)
    entries = to_scipy(net.adjacency).tocoo()
    ends = list(zip(entries.row.tolist(), entries.col.tolist()))
    assert len(set(ends)) == len(ends)
    kinds = {tuple(sorted((net.nodes[i].kind, net.nodes[j].kind))) for i, j in ends}
    assert kinds <= _ALLOWED_KIND_PAIRS
    assert (np.isfinite(entries.data) & (entries.data > 0.0)).all()


class TestAgainstEdgeListReference:
    @settings(max_examples=200)
    @given(_corpora())
    def test_array_build_matches_the_edge_list_build(self, corpus):
        _assert_matches_reference(corpus)

    def test_listed_cases(self):
        # chronological ids out of sorted order, an empty row, two-file
        # fixes, tied metric values, a path with no metrics, non-ASCII ids,
        # terms, paths and metrics, keys that CSV must quote
        paths = ["src/A.java", "src/ünï/日本.java", "src/Z.java", 'src/a,"b".java']
        reports = [
            SimpleNamespace(id="B-9", fixed_files=("src/Z.java", "src/A.java")),
            SimpleNamespace(id="B-10", fixed_files=("src/ünï/日本.java",)),
            SimpleNamespace(id="Ω-1", fixed_files=()),
            SimpleNamespace(id="A-1", fixed_files=("src/A.java", "src/ünï/日本.java")),
            SimpleNamespace(id='B,"7"', fixed_files=('src/a,"b".java',)),
        ]
        tokens = [
            ["leak", "socket", "日本"], [], ["leak", "widget"], ["ünï", "socket", "socket"],
            ["leak"],
        ]
        vocab = build_vocabulary(tokens)
        records = [
            MetricRecord("src/Z.java", "lines", 1.0),
            MetricRecord("src/Z.java", "fan-ö", 5.0),
            MetricRecord("src/A.java", "fan-ö", 1.0),
            MetricRecord("src/A.java", "lines", 1.0),
            MetricRecord('src/a,"b".java', "lines", 9.0),
            MetricRecord('src/a,"b".java', 'a,"b"', 0.0),
        ]
        # lines:0 for Z and A, lines:2, fan-ö:0 and fan-ö:1, a,"b":0
        assert discretize(records, _NB, sorted(paths))[0] == (
            'a,"b":0', "fan-ö:0", "fan-ö:1", "lines:0", "lines:2",
        )
        _assert_matches_reference((reports, tfidf_rows(tokens, vocab), vocab, paths, records))

    def test_edgeless_network(self):
        reports = [SimpleNamespace(id="B-1", fixed_files=())]
        tokens = [[]]
        vocab = build_vocabulary(tokens)
        corpus = (reports, tfidf_rows(tokens, vocab), vocab, ["src/A.java"], [])
        _assert_matches_reference(corpus)
        counts = validate_network(_build(*corpus))[-1]["message"]
        assert counts == "nodes B=1 T=0 S=1 M=0; edges"


def _assert_matches_scipy(edges, nodes):
    """from_pairs' CSR arrays and degrees equal scipy's construction from
    the same arrays bit for bit, and validate_network and write_edge_csv
    give what they gave when they read the scipy adjacency."""
    table, pairs, weights = edge_arrays(edges, nodes)
    net = HeteroNetwork.from_pairs(table, pairs, weights)
    adjacency, degree = scipy_network(table, pairs, weights)
    assert net.adjacency.shape == adjacency.shape
    np.testing.assert_array_equal(net.adjacency.indptr, adjacency.indptr)
    np.testing.assert_array_equal(net.adjacency.indices, adjacency.indices)
    np.testing.assert_array_equal(
        net.adjacency.data.view(np.uint64), adjacency.data.view(np.uint64)
    )
    np.testing.assert_array_equal(net.degree.view(np.uint64), degree.view(np.uint64))
    assert validate_network(net) == scipy_validate_network(net, adjacency)
    with tempfile.TemporaryDirectory() as tmp:
        dumped, expected = Path(tmp, "network.csv"), Path(tmp, "scipy.csv")
        write_edge_csv(net, dumped)
        scipy_write_edge_csv(table, adjacency, expected)
        assert dumped.read_bytes() == expected.read_bytes()


class TestAgainstScipyConstruction:
    @settings(max_examples=300)
    @given(edge_lists())
    def test_numpy_network_matches_scipy_bit_for_bit(self, drawn):
        _assert_matches_scipy(*drawn)

    def test_listed_cases(self):
        b1, b2 = TypedNode("B", "b1"), TypedNode("B", "b2")
        s1, m1 = TypedNode("S", "s1.java"), TypedNode("M", "lines:0")
        t1, t2 = TypedNode("T", "t1"), TypedNode("T", "t2")
        # no nodes; nodes without edges; no T node, so every component warns;
        # an isolated node of every kind beside an edge; a row whose sum
        # depends on its order (1e16 + 1 rounds back to 1e16)
        _assert_matches_scipy([], [])
        _assert_matches_scipy([], [b1, s1, t1, m1])
        _assert_matches_scipy([(b1, s1, 1.0), (s1, m1, 2.0)], [b2])
        _assert_matches_scipy([(t1, b1, 0.5)], [b2, s1, t2, m1])
        _assert_matches_scipy([(t1, b1, 1e16), (b1, s1, 1.0), (t2, b1, 1.0)], [])


class TestValidateNetwork:
    def test_clean_network_has_no_errors(self):
        reports, bows, vocab, paths, records = _tiny_corpus()
        net = _build(reports, bows, vocab, paths, records)
        diags = validate_network(net)
        assert not [d for d in diags if d["severity"] == "error"]
        info = [d for d in diags if d["code"] == "counts"]
        assert len(info) == 1
        assert "B=2" in info[0]["message"]

    def test_component_without_terms_warns(self):
        net = network_of([(TypedNode("S", "a.java"), TypedNode("M", "lines:0"), 1.0)])
        diags = validate_network(net)
        warned = [d for d in diags if d["code"] == "isolated-component"]
        assert len(warned) == 1
        assert "2 nodes" in warned[0]["message"]


class TestWriteEdgeCsv:
    def test_deterministic_and_round_trips(self, tmp_path):
        reports, bows, vocab, paths, records = _tiny_corpus()
        net = _build(reports, bows, vocab, paths, records)
        p1 = tmp_path / "edges1.csv"
        p2 = tmp_path / "edges2.csv"
        write_edge_csv(net, p1)
        write_edge_csv(net, p2)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "kind1,key1,kind2,key2,weight"
        assert len(lines) == 1 + net.num_edges()
        weights = {}
        for line in lines[1:]:
            k1, key1, k2, key2, w = line.split(",")
            weights[(k1, key1, k2, key2)] = float(w)
        assert weights[("B", "B-1", "T", "socket")] == math.log(2)
