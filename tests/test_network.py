import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from bugloc.corpus import build_vocabulary, tfidf_rows
from bugloc.errors import ValidationError
from bugloc.metrics import MetricRecord, discretize
from bugloc.network import (
    HeteroNetwork,
    TypedNode,
    _check_edge,
    _check_node,
    build_network,
    component_labels,
    kind_slice,
    validate_network,
    write_edge_csv,
)


def _of_kind(net, kind):
    return net.nodes[kind_slice(net.nodes, kind)]


class TestHeteroNetwork:
    def test_add_edge_and_lookups(self):
        t = TypedNode("T", "null")
        b = TypedNode("B", "BUG-1")
        net = HeteroNetwork.from_edges([(t, b, 0.5)])
        assert net.nodes == (b, t)
        assert net.neighbors(b) == {t: 0.5}
        assert net.num_nodes() == 2
        assert net.num_edges() == 1
        assert list(net.edges()) == [(b, t, 0.5)]

    def test_disallowed_kind_pairs_rejected(self):
        with pytest.raises(ValidationError, match="not allowed"):
            HeteroNetwork.from_edges([(TypedNode("T", "x"), TypedNode("T", "y"), 1.0)])
        with pytest.raises(ValidationError, match="not allowed"):
            HeteroNetwork.from_edges([(TypedNode("T", "x"), TypedNode("S", "a.java"), 1.0)])
        with pytest.raises(ValidationError, match="not allowed"):
            HeteroNetwork.from_edges([(TypedNode("B", "b"), TypedNode("M", "lines:0"), 1.0)])

    def test_self_loop_rejected(self):
        node = TypedNode("B", "BUG-1")
        with pytest.raises(ValidationError, match="self-loop"):
            HeteroNetwork.from_edges([(node, node, 1.0)])

    def test_duplicate_edge_rejected_either_direction(self):
        t, b, s = TypedNode("T", "x"), TypedNode("B", "b"), TypedNode("S", "a.java")
        with pytest.raises(ValidationError, match="duplicate edge between .*'B'.*'b'.* and .*'T'.*'x'"):
            HeteroNetwork.from_edges([(t, b, 1.0), (b, s, 1.0), (b, t, 2.0)])
        with pytest.raises(ValidationError, match="duplicate"):
            HeteroNetwork.from_edges([(t, b, 1.0), (t, b, 1.0)])

    def test_bad_weights_rejected(self):
        t, b = TypedNode("T", "x"), TypedNode("B", "b")
        for weight in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValidationError, match="weight"):
                HeteroNetwork.from_edges([(t, b, weight)])

    def test_unknown_kind_and_empty_key_rejected(self):
        with pytest.raises(ValidationError, match="kind"):
            HeteroNetwork.from_edges([], nodes=[TypedNode("X", "x")])
        with pytest.raises(ValidationError, match="key"):
            HeteroNetwork.from_edges([], nodes=[TypedNode("B", "")])
        with pytest.raises(ValidationError, match="key"):
            HeteroNetwork.from_edges([(TypedNode("T", ""), TypedNode("B", "b"), 1.0)])

    def test_first_bad_edge_is_named(self):
        t, b = TypedNode("T", "x"), TypedNode("B", "b")
        with pytest.raises(ValidationError, match="-1.0"):
            HeteroNetwork.from_edges([(t, b, 1.0), (t, TypedNode("B", "c"), -1.0), (b, b, 1.0)])

    def test_nodes_of_kind_sorted(self):
        net = HeteroNetwork.from_edges(
            [], nodes=[TypedNode("S", "b.java"), TypedNode("S", "a.java"), TypedNode("B", "BUG-1")]
        )
        assert _of_kind(net, "S") == (TypedNode("S", "a.java"), TypedNode("S", "b.java"))
        assert net.nodes == (TypedNode("B", "BUG-1"), *_of_kind(net, "S"))
        assert net.num_edges() == 0 and not net.neighbors(TypedNode("B", "BUG-1"))

    def test_rows_list_neighbors_in_edge_order(self):
        b = TypedNode("B", "b")
        t1, t2, s1 = TypedNode("T", "z"), TypedNode("T", "a"), TypedNode("S", "m.java")
        net = HeteroNetwork.from_edges([(t1, b, 2.0), (b, s1, 1.0), (t2, b, 3.0)])
        assert list(net.neighbors(b).items()) == [(t1, 2.0), (s1, 1.0), (t2, 3.0)]
        row = net.nodes.index(b)
        span = slice(*net.adjacency.indptr[row : row + 2])
        assert [net.nodes[j] for j in net.adjacency.indices[span]] == [t1, s1, t2]
        assert net.degree[row] == 6.0
        assert (net.adjacency != net.adjacency.T).nnz == 0

    def test_unknown_node_has_no_neighbors_entry(self):
        net = HeteroNetwork.from_edges([(TypedNode("T", "x"), TypedNode("B", "b"), 1.0)])
        with pytest.raises(KeyError):
            net.neighbors(TypedNode("B", "c"))


def _first_offence(edges, nodes):
    """The error of checking each node and then each edge in turn, or None."""
    try:
        for node in nodes:
            _check_node(node)
        for edge in edges:
            _check_edge(*edge)
    except ValidationError as exc:
        return str(exc)
    return None


_NODE_POOL = [
    TypedNode(kind, key) for kind in ("B", "T", "S", "M", "X") for key in ("a", "b", "")
]
# node pairs that pass every check but the weight's, so that a bad weight is often the only fault
_ALLOWED_ENDS = [
    (TypedNode(x, key_x), TypedNode(y, key_y))
    for pair in (("B", "T"), ("B", "S"), ("M", "S"))
    for x, y in (pair, pair[::-1])
    for key_x in ("a", "b")
    for key_y in ("a", "b")
]
_WEIGHTS = st.sampled_from([1.0, 0.5, 2, 3.0, 0.0, -1.0, math.inf, math.nan])
_EDGES = st.one_of(
    st.tuples(st.sampled_from(_ALLOWED_ENDS), _WEIGHTS).map(lambda e: (*e[0], e[1])),
    st.tuples(st.sampled_from(_NODE_POOL), st.sampled_from(_NODE_POOL), _WEIGHTS),
)


@settings(max_examples=300)
@given(st.lists(_EDGES, max_size=8), st.lists(st.sampled_from(_NODE_POOL), max_size=3))
def test_array_checks_name_the_first_offence_of_a_loop(edges, nodes):
    expected = _first_offence(edges, nodes)
    if expected is None:
        try:
            HeteroNetwork.from_edges(edges, nodes)
        except ValidationError as exc:
            assert str(exc).startswith("duplicate edge")
    else:
        with pytest.raises(ValidationError) as info:
            HeteroNetwork.from_edges(edges, nodes)
        assert str(info.value) == expected


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
        net = HeteroNetwork.from_edges([(TypedNode("S", "a.java"), TypedNode("M", "lines:0"), 1.0)])
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
