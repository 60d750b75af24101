import hashlib
import logging
import os
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from bugloc import pipeline, regularizer, synthgen
from bugloc.errors import ValidationError, file_sha256
from bugloc.network import NodeTable, TypedNode
from bugloc.regularizer import (
    RepresentationModel,
    SolverConfig,
    clamp_rows,
    dump_model,
    energy,
    initialize_representation,
    load_model,
    solve,
    sweep_plan,
    sweep_update,
    record_path,
)
from netgen import components, edge_lists, network_of, random_network, sweep_energies, table_of
from recordref import read_raw, write_raw
from solveref import block_sweep, closed_form_solve
from sparseref import to_scipy
from tables import make_table
from test_golden import read_model

T1 = TypedNode("T", "t1")
T2 = TypedNode("T", "t2")
B1 = TypedNode("B", "b1")
S1 = TypedNode("S", "s1.java")
# what load_model says on any miss, naming the record file
REFUSED = r"model\.tsv\.bin: missing, damaged or not the record of .*model\.tsv; solve again$"


def _pair_net(*more_edges):
    net = network_of([(T1, B1, 2.0), *more_edges])
    table = make_table(1, {"t1": np.array([1.0])})
    return net, table


def _weighted_net():
    net = network_of([(T1, B1, 3.0), (T2, B1, 1.0)])
    table = make_table(1, {"t1": np.array([1.0]), "t2": np.array([0.0])})
    return net, table


class TestInitialize:
    def test_clamp_rows_name_the_table_row_of_known_terms_only(self):
        nodes = table_of((TypedNode("B", "t1"), TypedNode("S", "t2"), TypedNode("T", "oov"), T1, T2))
        table = make_table(1, {"t2": [0.0], "t1": [1.0]})
        # a B or S key that the table holds is no term: its node stays free
        assert clamp_rows(nodes, table).tolist() == [-1, -1, -1, 1, 0]

    def test_clamps_known_terms_and_zeros_the_rest(self):
        net, table = _pair_net((TypedNode("T", "oov"), B1, 1.0))
        model = initialize_representation(net, table)
        assert model.clamped == frozenset({T1})
        np.testing.assert_array_equal(model.vector(T1), [1.0])
        np.testing.assert_array_equal(model.vector(B1), [0.0])
        np.testing.assert_array_equal(model.vector(TypedNode("T", "oov")), [0.0])

    def test_clamped_vector_is_a_copy(self):
        net, table = _pair_net()
        model = initialize_representation(net, table)
        model.matrix[model.nodes.row(T1), 0] = 99.0
        assert table.get("t1")[0] == 1.0


class TestSweepAndEnergy:
    def test_single_neighbor_snaps_to_it(self):
        net, table = _pair_net()
        model = initialize_representation(net, table)
        disp = sweep_update(model, sweep_plan(model, net))
        np.testing.assert_array_equal(model.vector(B1), [1.0])
        assert disp == 1.0

    def test_weighted_average(self):
        net, table = _weighted_net()
        model = initialize_representation(net, table)
        sweep_update(model, sweep_plan(model, net))
        assert model.vector(B1)[0] == 0.75

    def test_clamped_nodes_never_move(self):
        net, table = _weighted_net()
        model = initialize_representation(net, table)
        plan = sweep_plan(model, net)
        for _ in range(5):
            sweep_update(model, plan)
        np.testing.assert_array_equal(model.vector(T1), [1.0])
        np.testing.assert_array_equal(model.vector(T2), [0.0])

    def test_energy_counts_each_edge_once(self):
        net = network_of([(T1, B1, 2.0)])
        model = RepresentationModel(
            table_of((B1, T1)), np.array([[0.5], [1.0]]), clamped_rows=np.zeros(2, bool)
        )
        assert energy(model, net) == 0.5  # 2.0 * (1.0 - 0.5)^2

    def test_energy_of_edgeless_network_is_zero(self):
        net = network_of([], nodes=[T1])
        model = RepresentationModel(
            nodes=table_of((T1,)), matrix=np.array([[1.0]]), clamped_rows=np.zeros(1, bool)
        )
        assert energy(model, net) == 0.0


def _node_by_node_sweep(net, vectors, clamped):
    """Reference: the sequential Gauss-Seidel sweep over neighbor dicts,
    one node at a time in sorted order within each kind."""
    max_disp = 0.0
    for kind in ("T", "B", "S", "M", "S", "B"):
        for node in tuple(net.nodes)[net.nodes.rows(kind)]:
            nbrs = net.neighbors(node)
            if node in clamped or not nbrs:
                continue
            acc = sum(w * vectors[other] for other, w in nbrs.items()) / sum(nbrs.values())
            max_disp = max(max_disp, float(np.linalg.norm(acc - vectors[node])))
            vectors[node] = acc
    return max_disp


class TestAgainstNodeByNodeReference:
    def test_block_sweep_and_energy_match_the_sequential_loops(self):
        rng = random.Random(2718)
        for _ in range(25):
            net, table = random_network(rng)
            model = initialize_representation(net, table)
            for row, node in enumerate(model.nodes):
                if node not in model.clamped:
                    model.matrix[row] = [rng.uniform(-5.0, 5.0) for _ in range(table.dim)]
            vectors = {node: model.vector(node).copy() for node in model.nodes}
            plan = sweep_plan(model, net)
            for _ in range(3):
                disp = sweep_update(model, plan)
                assert disp == pytest.approx(
                    _node_by_node_sweep(net, vectors, model.clamped), rel=1e-12, abs=1e-12
                )
                for node in model.nodes:
                    np.testing.assert_allclose(model.vector(node), vectors[node], rtol=0, atol=1e-12)
                upper = sparse.triu(to_scipy(net.adjacency), k=1, format="coo")
                rows, cols = upper.row.tolist(), upper.col.tolist()
                ends = [(net.nodes[i], net.nodes[j]) for i, j in zip(rows, cols)]
                edge_sum = sum(
                    w * float((vectors[a] - vectors[b]) @ (vectors[a] - vectors[b]))
                    for (a, b), w in zip(ends, upper.data.tolist())
                )
                assert energy(model, net) == pytest.approx(edge_sum, rel=1e-12, abs=1e-12)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _assert_sweeps_match_block_sweep(net, clamped, start, sweeps=3):
    """From the same start, run the planned sweep and block_sweep `sweeps`
    times each; the matrices and every displacement must match bit for bit."""
    planned = RepresentationModel(net.nodes, start.copy(), clamped)
    reference = RepresentationModel(net.nodes, start.copy(), clamped)
    plan = sweep_plan(planned, net)
    for _ in range(sweeps):
        moved, expected = sweep_update(planned, plan), block_sweep(reference, net)
        assert _bits(moved) == _bits(expected)
        np.testing.assert_array_equal(_bits(planned.matrix), _bits(reference.matrix))
    return plan, planned


class TestSweepPlan:
    @settings(max_examples=200, deadline=None)
    @given(edge_lists(), st.integers(1, 3), st.data())
    def test_planned_sweeps_match_the_block_sweep_bit_for_bit(self, drawn, dim, data):
        net = network_of(*drawn)
        n = len(net.nodes)
        clamped = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
        values = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=n * dim, max_size=n * dim))
        _assert_sweeps_match_block_sweep(net, clamped, np.array(values).reshape(n, dim))

    def test_every_node_clamped_plans_no_step(self):
        net = network_of([(T1, B1, 2.0), (B1, S1, 1.0)])
        start = np.array([[1.0], [2.0], [3.0]])
        plan, model = _assert_sweeps_match_block_sweep(net, np.ones(3, bool), start)
        assert plan == []
        assert sweep_update(model, plan) == 0.0
        np.testing.assert_array_equal(model.matrix, start)

    def test_an_isolated_free_node_never_moves(self):
        b2 = TypedNode("B", "b2")
        net = network_of([(T1, B1, 2.0)], nodes=[b2])
        start = np.array([[0.5], [-4.0], [1.0]])  # rows B1, b2, T1
        plan, model = _assert_sweeps_match_block_sweep(net, np.array([False, False, True]), start)
        assert all(net.nodes.row(b2) not in rows for rows, _, _ in plan)
        np.testing.assert_array_equal(model.vector(b2), [-4.0])

    def test_a_kind_with_only_clamped_or_edgeless_rows_takes_no_step(self):
        # T rows: t1 clamped, t2 free but edgeless; so only B steps, at both B visits
        net = network_of([(T1, B1, 2.0)], nodes=[T2])
        start = np.array([[0.0], [1.0], [7.0]])  # rows B1, T1, T2
        plan, model = _assert_sweeps_match_block_sweep(net, np.array([False, True, False]), start)
        assert [rows.tolist() for rows, _, _ in plan] == [[net.nodes.row(B1)]] * 2
        np.testing.assert_array_equal(model.matrix, [[1.0], [1.0], [7.0]])


class TestSolve:
    def test_chain_converges_to_clamp(self):
        net = network_of([(T1, B1, 1.0), (B1, S1, 1.0)])
        table = make_table(1, {"t1": np.array([1.0])})
        model = solve(net, table, SolverConfig(max_iters=50, tolerance=1e-12))
        assert model.convergence.converged
        np.testing.assert_allclose(model.vector(B1), [1.0], atol=1e-12)
        np.testing.assert_allclose(model.vector(S1), [1.0], atol=1e-12)

    def test_weighted_fixed_point(self):
        net, table = _weighted_net()
        model = solve(net, table)
        assert model.vector(B1)[0] == 0.75

    def test_report_fields(self):
        net, table = _pair_net()
        model = solve(net, table, SolverConfig(max_iters=10, tolerance=1e-9))
        rep = model.convergence
        assert rep.converged and rep.iterations == 2
        assert rep.final_displacement < 1e-9
        assert rep.final_energy == pytest.approx(0.0, abs=1e-15)
        d = rep.to_dict()
        assert d["iterations"] == 2 and d["converged"] is True

    def test_non_convergence_warns(self, caplog):
        b2 = TypedNode("B", "b2")
        net = network_of(
            [(T1, B1, 1.0), (B1, S1, 1.0), (b2, S1, 1.0), (TypedNode("T", "t2"), b2, 1.0)]
        )
        table = make_table(1, {"t1": np.array([1.0]), "t2": np.array([-1.0])})
        with caplog.at_level(logging.WARNING, logger="bugloc.regularizer"):
            model = solve(net, table, SolverConfig(max_iters=1, tolerance=1e-12))
        assert not model.convergence.converged
        assert "did not converge" in caplog.text

    def test_energy_tracking_is_monotone(self):
        rng = random.Random(4242)
        net, table = random_network(rng)
        config = SolverConfig(max_iters=200, tolerance=1e-14)
        model = solve(net, table, config)
        energies = sweep_energies(net, table, config)
        assert len(energies) == model.convergence.iterations
        for prev, nxt in zip(energies, energies[1:]):
            assert nxt <= prev + 1e-12 * max(1.0, abs(prev))

    def test_isolated_component_stays_zero_with_diagnostic(self, caplog):
        b2, s2 = TypedNode("B", "b2"), TypedNode("S", "s2.java")
        net = network_of([(T1, B1, 1.0), (b2, s2, 1.0)])
        table = make_table(1, {"t1": np.array([1.0])})
        model = solve(net, table)
        np.testing.assert_array_equal(model.vector(b2), [0.0])
        np.testing.assert_array_equal(model.vector(s2), [0.0])
        (message,) = model.convergence.isolated_components
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="bugloc.regularizer"):
            direct = closed_form_solve(net, table)
        np.testing.assert_array_equal(direct.vector(b2), [0.0])
        assert [r.getMessage() for r in caplog.records] == [message]

    def test_initial_model_over_other_nodes_rejected(self):
        net, table = _weighted_net()
        other, _ = _pair_net()
        with pytest.raises(ValidationError, match="nodes differ"):
            solve(net, table, initial=initialize_representation(other, table))

    def test_config_validation(self):
        net, table = _pair_net()
        with pytest.raises(ValidationError):
            solve(net, table, SolverConfig(max_iters=0))
        with pytest.raises(ValidationError):
            solve(net, table, SolverConfig(tolerance=0.0))


class TestClosedForm:
    def test_weighted_fixed_point(self):
        net, table = _weighted_net()
        model = closed_form_solve(net, table)
        assert model.vector(B1)[0] == 0.75

    def test_matches_iterative_solver_on_random_networks(self):
        rng = random.Random(1312)
        for _ in range(25):
            net, table = random_network(rng)
            iterative = solve(net, table, SolverConfig(max_iters=20000, tolerance=1e-10))
            direct = closed_form_solve(net, table)
            for node in net.nodes:
                np.testing.assert_allclose(
                    iterative.vector(node), direct.vector(node), atol=1e-6
                )

    def test_handles_the_m_scale_synthetic_network(self, tmp_path):
        spec = synthgen.SynthSpec(num_reports=1000, num_files=200, vocab_size=2000, dim=50)
        synthgen.generate(spec, tmp_path)
        cfg = pipeline.RunConfig()
        cfg.apply_dataset_dir(tmp_path)
        dataset = pipeline.load_dataset(cfg, use_cache=False)
        net = pipeline.build_index(dataset, cfg).network
        assert net.num_nodes() > 2000
        direct = closed_form_solve(net, dataset.table)
        iterative = solve(net, dataset.table, SolverConfig(tolerance=1e-10, max_iters=1000))
        assert iterative.convergence.converged
        assert direct.nodes == iterative.nodes
        np.testing.assert_allclose(direct.matrix, iterative.matrix, rtol=0.0, atol=1e-6)


class TestInvariants:
    def test_clamped_vectors_bit_identical_after_solve(self):
        rng = random.Random(777)
        for _ in range(5):
            net, table = random_network(rng)
            model = solve(net, table, SolverConfig(max_iters=5000, tolerance=1e-10))
            for node in model.clamped:
                np.testing.assert_array_equal(model.vector(node), table.get(node.key))

    def test_solution_within_clamped_range_per_component(self):
        rng = random.Random(888)
        for _ in range(10):
            net, table = random_network(rng)
            model = solve(net, table, SolverConfig(max_iters=5000, tolerance=1e-10))
            for comp in components(net):
                clamped = [n for n in comp if n in model.clamped]
                if not clamped:
                    continue
                lo = np.min([model.vector(n) for n in clamped], axis=0)
                hi = np.max([model.vector(n) for n in clamped], axis=0)
                for node in comp:
                    assert np.all(model.vector(node) >= lo - 1e-8)
                    assert np.all(model.vector(node) <= hi + 1e-8)

    def test_initialization_does_not_change_the_fixed_point(self):
        rng = random.Random(999)
        net, table = random_network(rng)
        cfg = SolverConfig(max_iters=50000, tolerance=1e-12)
        base = solve(net, table, cfg)
        init = initialize_representation(net, table)
        for row, node in enumerate(init.nodes):
            if node not in init.clamped:
                init.matrix[row] = [rng.uniform(-5.0, 5.0) for _ in range(table.dim)]
        other = solve(net, table, cfg, initial=init)
        for node in net.nodes:
            np.testing.assert_allclose(base.vector(node), other.vector(node), atol=1e-9)


class TestModelSerialization:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = random.Random(31337)
        net, table = random_network(rng)
        model = solve(net, table, SolverConfig(max_iters=5000, tolerance=1e-10))
        path = tmp_path / "model.tsv"
        dump_model(model, path)
        loaded = load_model(path)
        assert loaded.dim == model.dim
        assert loaded.clamped == model.clamped
        assert loaded.nodes == model.nodes
        np.testing.assert_array_equal(loaded.matrix, model.matrix)
        again = tmp_path / "again.tsv"
        dump_model(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_network_digest_round_trips(self, tmp_path):
        net, table = _weighted_net()
        model = solve(net, table)
        model.network_digest = hashlib.sha256(b"network").hexdigest()
        path = tmp_path / "model.tsv"
        dump_model(model, path)
        assert load_model(path).network_digest == model.network_digest

    def test_keys_holding_other_line_breaks_round_trip(self, tmp_path):
        # str.splitlines and universal newlines break lines at these; the
        # model format ends lines at "\n" only
        nodes = (
            TypedNode("B", "SYN\r0003"), TypedNode("S", "a\x85b.java"), TypedNode("T", "x\u2028y"),
        )
        model = RepresentationModel(
            table_of(nodes), np.array([[0.1, -2.0], [1.0 / 3.0, 0.0], [5e-324, 1.5]]),
            np.array([False, False, True]),
        )
        path = tmp_path / "model.tsv"
        dump_model(model, path)
        loaded = load_model(path)
        assert tuple(loaded.nodes) == nodes
        np.testing.assert_array_equal(loaded.clamped_rows, model.clamped_rows)
        np.testing.assert_array_equal(loaded.matrix.view(np.uint64), model.matrix.view(np.uint64))
        again = tmp_path / "again.tsv"
        dump_model(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_dump_is_deterministic(self, tmp_path):
        net, table = _weighted_net()
        model = solve(net, table)
        p1, p2 = tmp_path / "m1.tsv", tmp_path / "m2.tsv"
        dump_model(model, p1)
        dump_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert record_path(p1).read_bytes() == record_path(p2).read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["m1.tsv", "m1.tsv.bin", "m2.tsv", "m2.tsv.bin"]

    @pytest.mark.parametrize("edit", ["clamped-value", "free-value", "reformatted-value", "blank-line"])
    def test_an_edited_text_is_refused(self, tmp_path, edit):
        # the record is keyed by the text's sha256: an edit of any byte, even one
        # that writes a value in another form of the same float, leaves it stale
        net = network_of([(T1, B1, 1.0), (T2, B1, 1.0)])
        table = make_table(1, {"t1": np.array([0.5]), "t2": np.array([0.25])})
        path = tmp_path / "model.tsv"
        dump_model(solve(net, table), path)
        text = path.read_text(encoding="utf-8")
        assert "\tc\t0.5\n" in text
        free = next(line for line in text.split("\n") if "\tf\t" in line)
        edited = {
            "clamped-value": text.replace("\tc\t0.5\n", "\tc\t1.5\n"),
            "free-value": text.replace(free, free.rsplit("\t", 1)[0] + "\t0.125"),
            "reformatted-value": text.replace("\tc\t0.5\n", "\tc\t0.50\n"),
            "blank-line": text + "\n",
        }[edit]
        assert edited != text
        path.write_text(edited, encoding="utf-8")
        with pytest.raises(ValidationError, match=REFUSED):
            load_model(path)

    def test_vector_of_unknown_node_raises_key_error(self):
        model = RepresentationModel(
            nodes=table_of((B1, T1)), matrix=np.eye(2), clamped_rows=np.array([False, True])
        )
        np.testing.assert_array_equal(model.vector(T1), [0.0, 1.0])
        for node in (TypedNode("A", "a"), S1, TypedNode("Z", "z")):
            with pytest.raises(KeyError):
                model.vector(node)

    def test_tab_in_key_rejected(self):
        model = RepresentationModel(
            nodes=table_of((TypedNode("S", "bad\tname"),)),
            matrix=np.array([[0.0]]),
            clamped_rows=np.zeros(1, bool),
        )
        with pytest.raises(ValidationError, match="serialized"):
            dump_model(model, "/dev/null")


NODE_KEYS = st.text(alphabet="aZ Ř日\r\x85\u2028", max_size=3)


def _assert_same_model(a, b):
    """Equal nodes, digest and mask, and the matrices equal bit for bit."""
    assert a.nodes == b.nodes and a.network_digest == b.network_digest
    assert a.clamped_rows.dtype == b.clamped_rows.dtype == bool
    np.testing.assert_array_equal(a.clamped_rows, b.clamped_rows)
    assert a.matrix.dtype == b.matrix.dtype == np.float64 and a.matrix.shape == b.matrix.shape
    np.testing.assert_array_equal(a.matrix.view(np.uint64), b.matrix.view(np.uint64))


def _edit_header(**fields):
    """A change of the record's header: each field set, or removed when None."""

    def change(header):
        header = {**header, **fields}
        return {key: value for key, value in header.items() if value is not None}

    return change


# header edits that leave every record and the sha256 key whole
HEADER_EDITS = {
    "no-network-digest": _edit_header(network_digest=None),
    "network-digest-not-a-string": _edit_header(network_digest=5),
    "no-dim": _edit_header(dim=None),
    "fewer-nodes": lambda header: {**header, "nodes": header["nodes"] - 1},
    "more-nodes": lambda header: {**header, "nodes": header["nodes"] + 1},
    "huge-node-count": _edit_header(nodes=10**15),
    "a-fifth-kind": lambda header: {**header, "bounds": [*header["bounds"], header["nodes"]]},
    "bounds-out-of-order": lambda header: {**header, "bounds": [0, header["nodes"], 1, 1, header["nodes"]]},
    "a-bound-not-an-int": lambda header: {**header, "bounds": [0, 1.0, *header["bounds"][2:]]},
    "bounds-not-from-zero": lambda header: {**header, "bounds": [1, *header["bounds"][1:]]},
    "bounds-short-of-the-nodes": lambda header: {
        **header, "bounds": [*header["bounds"][:-1], header["nodes"] - 1]
    },
}


class TestModelRecord:
    @settings(max_examples=40, deadline=None)
    @given(
        blocks=st.fixed_dictionaries({kind: st.sets(NODE_KEYS, max_size=3) for kind in "BMST"}),
        dim=st.integers(0, 3),
        digest=st.text(alphabet="0af", max_size=4),
        data=st.data(),
    )
    def test_load_returns_the_dumped_model_and_the_text_holds_it(self, blocks, dim, digest, data):
        # bugloc reads the record and the benchmark reads the text: both must hold this model
        nodes = NodeTable.of({kind: sorted(keys) for kind, keys in blocks.items()})
        size = len(nodes)
        values = st.floats(allow_nan=False, allow_infinity=False)
        matrix = data.draw(st.lists(values, min_size=size * dim, max_size=size * dim))
        clamped = data.draw(st.lists(st.booleans(), min_size=size, max_size=size))
        model = RepresentationModel(
            nodes, np.array(matrix, dtype=np.float64).reshape(size, dim),
            np.array(clamped, dtype=bool), network_digest=digest,
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.tsv"
            dump_model(model, path)
            _assert_same_model(load_model(path), model)
            header, rows = read_model(path)
        assert (header["dim"], header["nodes"], header["network_digest"]) == (dim, size, digest)
        assert list(rows) == list(nodes)
        assert [flag == "c" for flag, _ in rows.values()] == clamped
        text_bits = np.array([vec for _, vec in rows.values()]).reshape(size, dim).view(np.uint64)
        np.testing.assert_array_equal(text_bits, model.matrix.view(np.uint64))

    def test_the_text_is_only_hashed(self, tmp_path, monkeypatch):
        path = tmp_path / "model.tsv"
        model = solve(*_weighted_net())
        dump_model(model, path)
        real_open = open

        def binary_open(file, mode="r", *args, **kwargs):
            assert "b" in mode, (file, mode)
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr("builtins.open", binary_open)
        _assert_same_model(load_model(path), model)

    def test_an_interrupted_dump_keeps_the_previous_model(self, tmp_path, monkeypatch):
        path = tmp_path / "model.tsv"
        model = solve(*random_network(random.Random(7)))
        dump_model(model, path)
        # the record is keyed by the finished text's sha256
        assert read_raw(record_path(path))[0]["sha256"] == file_sha256(path)
        before = {file: file.read_bytes() for file in (path, record_path(path))}
        format_row, rows = regularizer._format_row, []

        def interrupted(row):
            rows.append(row)
            if len(rows) == len(model.nodes) // 2:
                raise KeyboardInterrupt
            return format_row(row)

        monkeypatch.setattr(regularizer, "_format_row", interrupted)
        changed = RepresentationModel(model.nodes, model.matrix + 1.0, model.clamped_rows)
        with pytest.raises(KeyboardInterrupt):
            dump_model(changed, path)
        assert {file: file.read_bytes() for file in before} == before
        assert sorted(tmp_path.iterdir()) == [path, record_path(path)]
        _assert_same_model(load_model(path), model)

    @pytest.mark.parametrize(
        "damage", ["missing", "torn", "trailing", "foreign", "other_model", "directory"]
    )
    def test_a_damaged_record_is_refused(self, tmp_path, damage):
        path = tmp_path / "model.tsv"
        dump_model(solve(*_weighted_net()), path)
        record = record_path(path)
        if damage == "missing":
            record.unlink()
        elif damage == "torn":
            record.write_bytes(record.read_bytes()[:-8])
        elif damage == "trailing":
            record.write_bytes(record.read_bytes() + b"\0")
        elif damage == "foreign":
            with open(record, "wb") as fh:
                np.save(fh, np.arange(3))
        elif damage == "other_model":
            other = tmp_path / "other.tsv"
            dump_model(solve(*_pair_net()), other)
            os.replace(record_path(other), record)
        else:
            record.unlink()
            record.mkdir()
        with pytest.raises(ValidationError, match=REFUSED):
            load_model(path)

    @pytest.mark.parametrize("edit", HEADER_EDITS.values(), ids=HEADER_EDITS.keys())
    def test_a_record_header_that_does_not_fit_is_refused(self, tmp_path, edit):
        path = tmp_path / "model.tsv"
        dump_model(solve(*_weighted_net()), path)
        header, records = read_raw(record_path(path))
        write_raw(record_path(path), edit(header), records)
        with pytest.raises(ValidationError, match=REFUSED):
            load_model(path)

    @pytest.mark.parametrize(
        "model",
        [
            RepresentationModel(table_of((B1, T1)), np.array([[np.nan], [1.0]]), np.array([False, True])),
            RepresentationModel(table_of((B1, T1)), np.array([[0.0], [-np.inf]]), np.zeros(2, bool)),
            RepresentationModel(NodeTable(("b2", "b1"), (0, 2, 2, 2, 2)), np.zeros((2, 1)), np.zeros(2, bool)),
            RepresentationModel(NodeTable(("b1", "b1"), (0, 2, 2, 2, 2)), np.zeros((2, 1)), np.zeros(2, bool)),
        ],
        ids=["nan", "infinite", "out-of-order", "duplicate"],
    )
    def test_a_model_solve_never_writes_is_refused(self, tmp_path, model):
        path = tmp_path / "model.tsv"
        dump_model(model, path)
        assert record_path(path).exists()
        with pytest.raises(ValidationError, match=REFUSED):
            load_model(path)
