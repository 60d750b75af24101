import logging
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from bugloc.corpus import build_vocabulary, tfidf_rows
from bugloc.errors import ValidationError
from bugloc.metrics import MetricBucket, MetricRecord, discretize
from bugloc.network import (
    HeteroNetwork,
    TypedNode,
    build_network,
    component_labels,
    kind_slice,
    node_table,
    validate_network,
    write_edge_csv,
)
from netgen import network_of
from netref import reference_network


def _of_kind(net, kind):
    return net.nodes[kind_slice(net.nodes, kind)]


class TestHeteroNetwork:
    def test_add_edge_and_lookups(self):
        t = TypedNode("T", "null")
        b = TypedNode("B", "BUG-1")
        net = network_of([(t, b, 0.5)])
        assert net.nodes == (b, t)
        assert net.neighbors(b) == {t: 0.5}
        assert net.num_nodes() == 2
        assert net.num_edges() == 1
        assert list(net.edges()) == [(b, t, 0.5)]

    def test_duplicate_edge_rejected_either_direction(self):
        b, s, t = TypedNode("B", "b"), TypedNode("S", "a.java"), TypedNode("T", "x")
        nodes, weights = (b, s, t), np.ones(3)
        with pytest.raises(ValidationError, match="duplicate edge between .*'B'.*'b'.* and .*'T'.*'x'"):
            HeteroNetwork.from_pairs(nodes, np.array([[2, 0], [0, 1], [0, 2]]), weights)
        with pytest.raises(ValidationError, match="duplicate"):
            HeteroNetwork.from_pairs(nodes, np.array([[2, 0], [2, 0]]), weights[:2])

    def test_nodes_of_kind_sorted(self):
        net = network_of(
            [], nodes=[TypedNode("S", "b.java"), TypedNode("S", "a.java"), TypedNode("B", "BUG-1")]
        )
        assert _of_kind(net, "S") == (TypedNode("S", "a.java"), TypedNode("S", "b.java"))
        assert net.nodes == (TypedNode("B", "BUG-1"), *_of_kind(net, "S"))
        assert net.num_edges() == 0 and not net.neighbors(TypedNode("B", "BUG-1"))

    def test_rows_list_neighbors_in_edge_order(self):
        b = TypedNode("B", "b")
        t1, t2, s1 = TypedNode("T", "z"), TypedNode("T", "a"), TypedNode("S", "m.java")
        net = network_of([(t1, b, 2.0), (b, s1, 1.0), (t2, b, 3.0)])
        assert list(net.neighbors(b).items()) == [(t1, 2.0), (s1, 1.0), (t2, 3.0)]
        row = net.nodes.index(b)
        span = slice(*net.adjacency.indptr[row : row + 2])
        assert [net.nodes[j] for j in net.adjacency.indices[span]] == [t1, s1, t2]
        assert net.degree[row] == 6.0
        assert (net.adjacency != net.adjacency.T).nnz == 0

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
    buckets = discretize(
        [
            MetricRecord("src/A.java", "lines", 10.0),
            MetricRecord("src/B.java", "lines", 90.0),
        ],
        2,
    )
    return reports, bows, vocab, paths, buckets


class TestBuildNetwork:
    def test_counts_and_weights(self):
        reports, bows, vocab, paths, buckets = _tiny_corpus()
        net = build_network(reports, bows, vocab, paths, buckets)
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
        reports, bows, vocab, paths, buckets = _tiny_corpus()
        net = build_network(reports, bows, vocab, paths, buckets)
        b2 = TypedNode("B", "B-2")
        assert net.neighbors(b2)[TypedNode("S", "src/A.java")] == 1.0
        assert net.neighbors(b2)[TypedNode("S", "src/B.java")] == 1.0

    def test_empty_vector_report_warns_but_builds(self, caplog):
        reports, _, vocab, paths, buckets = _tiny_corpus()
        bows = tfidf_rows([[], ["leak", "widget"]], vocab)
        with caplog.at_level(logging.WARNING, logger="bugloc.network"):
            net = build_network(reports, bows, vocab, paths, buckets)
        assert "B-1" in caplog.text
        b1 = TypedNode("B", "B-1")
        assert all(n.kind == "S" for n in net.neighbors(b1))

    def test_empty_vector_reports_give_one_warning(self, caplog):
        reports, _, vocab, paths, buckets = _tiny_corpus()
        bows = tfidf_rows([[], []], vocab)
        with caplog.at_level(logging.WARNING, logger="bugloc.network"):
            build_network(reports, bows, vocab, paths, buckets)
        assert len(caplog.records) == 1
        assert "2 reports" in caplog.text and "B-1" in caplog.text

    def test_fix_to_unknown_path_names_report_and_path(self):
        reports, bows, vocab, paths, buckets = _tiny_corpus()
        reports[0].fixed_files = ("src/Gone.java",)
        with pytest.raises(ValidationError, match=r"B-1.*src/Gone\.java"):
            build_network(reports, bows, vocab, paths, buckets)

    def test_missing_vector_rejected(self):
        reports, bows, vocab, paths, buckets = _tiny_corpus()
        with pytest.raises(ValidationError, match="1 TF-IDF rows for 2 reports"):
            build_network(reports, bows[:1], vocab, paths, buckets)

    def test_metrics_for_unknown_paths_ignored(self):
        reports, bows, vocab, paths, buckets = _tiny_corpus()
        buckets["src/Other.java"] = buckets["src/A.java"]
        net = build_network(reports, bows, vocab, paths, buckets)
        assert TypedNode("S", "src/Other.java") not in net.nodes

    def test_bucket_listed_twice_links_once(self):
        reports, bows, vocab, paths, buckets = _tiny_corpus()
        buckets["src/A.java"] = buckets["src/A.java"] * 2
        net = build_network(reports, bows, vocab, paths, buckets)
        m0 = TypedNode("M", "lines:0")
        assert net.neighbors(m0) == {TypedNode("S", "src/A.java"): 1.0}


_KEYS = st.text(alphabet="az_Zé中-.", min_size=1, max_size=3)
_TERMS = ("leak", "null", "socket", "widget", "ünï", "日本")
_ALLOWED_KIND_PAIRS = {("B", "T"), ("B", "S"), ("M", "S")}


@st.composite
def _corpora(draw):
    """build_network's inputs: report ids in an order of their own, up to
    two fix links per report, TF-IDF rows that may be empty, and buckets
    that may repeat or sit on paths outside the universe."""
    paths = draw(st.lists(_KEYS.map("src/{}".format), min_size=1, max_size=5, unique=True))
    fixes = st.lists(st.sampled_from(paths), max_size=2, unique=True).map(tuple)
    ids = draw(st.lists(_KEYS, min_size=1, max_size=6, unique=True))
    reports = [SimpleNamespace(id=rid, fixed_files=draw(fixes)) for rid in ids]
    tokens = [draw(st.lists(st.sampled_from(_TERMS), max_size=5)) for _ in ids]
    vocab = build_vocabulary(tokens)
    metric_paths = st.sampled_from(paths) | _KEYS.map("lib/{}".format)
    bucket = st.builds(MetricBucket, st.sampled_from(("lines", "fan-ö")), st.integers(0, 2))
    buckets = {
        path: draw(st.lists(bucket, max_size=3))
        for path in draw(st.lists(metric_paths, max_size=6, unique=True))
    }
    return reports, tfidf_rows(tokens, vocab), vocab, paths, buckets


def _assert_matches_reference(corpus):
    """build_network equals the edge-list reference bit for bit, holds
    node_table's nodes, and joins only allowed kinds, once, with positive
    finite weights."""
    net = build_network(*corpus)
    nodes, adjacency, degree, labels = reference_network(*corpus)
    assert net.nodes == nodes
    assert net.nodes == node_table([report.id for report in corpus[0]], *corpus[1:])
    np.testing.assert_array_equal(net.adjacency.indptr, adjacency.indptr)
    np.testing.assert_array_equal(net.adjacency.indices, adjacency.indices)
    np.testing.assert_array_equal(
        net.adjacency.data.view(np.uint64), adjacency.data.view(np.uint64)
    )
    np.testing.assert_array_equal(net.degree.view(np.uint64), degree.view(np.uint64))
    np.testing.assert_array_equal(net.labels, labels)
    entries = net.adjacency.tocoo()
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
        # fixes, a bucket listed twice, a metric path outside the universe,
        # non-ASCII ids, terms and paths
        paths = ["src/A.java", "src/ünï/日本.java", "src/Z.java"]
        reports = [
            SimpleNamespace(id="B-9", fixed_files=("src/Z.java", "src/A.java")),
            SimpleNamespace(id="B-10", fixed_files=("src/ünï/日本.java",)),
            SimpleNamespace(id="Ω-1", fixed_files=()),
            SimpleNamespace(id="A-1", fixed_files=("src/A.java", "src/ünï/日本.java")),
        ]
        tokens = [["leak", "socket", "日本"], [], ["leak", "widget"], ["ünï", "socket", "socket"]]
        vocab = build_vocabulary(tokens)
        lines = MetricBucket("lines", 0)
        buckets = {
            "src/Z.java": [lines, MetricBucket("fan-ö", 1), lines],
            "lib/Gone.java": [MetricBucket("lines", 2)],
            "src/A.java": [lines],
        }
        _assert_matches_reference((reports, tfidf_rows(tokens, vocab), vocab, paths, buckets))


class TestValidateNetwork:
    def test_clean_network_has_no_errors(self):
        reports, bows, vocab, paths, buckets = _tiny_corpus()
        net = build_network(reports, bows, vocab, paths, buckets)
        diags = validate_network(net)
        assert not [d for d in diags if d.severity == "error"]
        info = [d for d in diags if d.code == "counts"]
        assert len(info) == 1
        assert "B=2" in info[0].message

    def test_component_without_terms_warns(self):
        net = network_of([(TypedNode("S", "a.java"), TypedNode("M", "lines:0"), 1.0)])
        diags = validate_network(net)
        warned = [d for d in diags if d.code == "isolated-component"]
        assert len(warned) == 1
        assert "2 nodes" in warned[0].message


class TestWriteEdgeCsv:
    def test_deterministic_and_round_trips(self, tmp_path):
        reports, bows, vocab, paths, buckets = _tiny_corpus()
        net = build_network(reports, bows, vocab, paths, buckets)
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
