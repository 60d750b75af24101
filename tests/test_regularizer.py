import json
import logging
import random

import numpy as np
import pytest

from bugloc import pipeline, synthgen
from bugloc.errors import ParseError, ValidationError
from bugloc.network import TypedNode, kind_slice
from bugloc.regularizer import (
    RepresentationModel,
    SolverConfig,
    closed_form_solve,
    dump_model,
    energy,
    initialize_representation,
    load_model,
    solve,
    sweep_update,
)
from netgen import components, network_of, random_network, sweep_energies
from tables import make_table

T1 = TypedNode("T", "t1")
T2 = TypedNode("T", "t2")
B1 = TypedNode("B", "b1")
S1 = TypedNode("S", "s1.java")


def _pair_net(*more_edges):
    net = network_of([(T1, B1, 2.0), *more_edges])
    table = make_table(1, {"t1": np.array([1.0])})
    return net, table


def _weighted_net():
    net = network_of([(T1, B1, 3.0), (T2, B1, 1.0)])
    table = make_table(1, {"t1": np.array([1.0]), "t2": np.array([0.0])})
    return net, table


class TestInitialize:
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
        model.matrix[model.nodes.index(T1), 0] = 99.0
        assert table.get("t1")[0] == 1.0


class TestSweepAndEnergy:
    def test_single_neighbor_snaps_to_it(self):
        net, table = _pair_net()
        model = initialize_representation(net, table)
        disp = sweep_update(model, net)
        np.testing.assert_array_equal(model.vector(B1), [1.0])
        assert disp == 1.0

    def test_weighted_average(self):
        net, table = _weighted_net()
        model = initialize_representation(net, table)
        sweep_update(model, net)
        assert model.vector(B1)[0] == 0.75

    def test_clamped_nodes_never_move(self):
        net, table = _weighted_net()
        model = initialize_representation(net, table)
        for _ in range(5):
            sweep_update(model, net)
        np.testing.assert_array_equal(model.vector(T1), [1.0])
        np.testing.assert_array_equal(model.vector(T2), [0.0])

    def test_energy_counts_each_edge_once(self):
        net = network_of([(T1, B1, 2.0)])
        model = RepresentationModel(
            nodes=(B1, T1), matrix=np.array([[0.5], [1.0]]), clamped_rows=np.zeros(2, bool)
        )
        assert energy(model, net) == 0.5  # 2.0 * (1.0 - 0.5)^2

    def test_energy_of_edgeless_network_is_zero(self):
        net = network_of([], nodes=[T1])
        model = RepresentationModel(
            nodes=(T1,), matrix=np.array([[1.0]]), clamped_rows=np.zeros(1, bool)
        )
        assert energy(model, net) == 0.0


def _node_by_node_sweep(net, vectors, clamped):
    """Reference: the sequential Gauss-Seidel sweep over neighbor dicts,
    one node at a time in sorted order within each kind."""
    max_disp = 0.0
    for kind in ("T", "B", "S", "M", "S", "B"):
        for node in net.nodes[kind_slice(net.nodes, kind)]:
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
            for _ in range(3):
                disp = sweep_update(model, net)
                assert disp == pytest.approx(
                    _node_by_node_sweep(net, vectors, model.clamped), rel=1e-12, abs=1e-12
                )
                for node in model.nodes:
                    np.testing.assert_allclose(model.vector(node), vectors[node], rtol=0, atol=1e-12)
                edge_sum = sum(
                    w * float((vectors[a] - vectors[b]) @ (vectors[a] - vectors[b]))
                    for a, b, w in net.edges()
                )
                assert energy(model, net) == pytest.approx(edge_sum, rel=1e-12, abs=1e-12)


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

    def test_dump_is_deterministic(self, tmp_path):
        net, table = _weighted_net()
        model = solve(net, table)
        p1, p2 = tmp_path / "m1.tsv", tmp_path / "m2.tsv"
        dump_model(model, p1)
        dump_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_tampered_clamped_vector_fails_digest(self, tmp_path):
        net, table = _weighted_net()
        model = solve(net, table)
        path = tmp_path / "model.tsv"
        dump_model(model, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        for i, line in enumerate(lines):
            parts = line.split("\t")
            if len(parts) == 4 and parts[2] == "c":
                parts[3] = "1.5"
                lines[i] = "\t".join(parts)
                break
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="digest"):
            load_model(path)

    def test_bad_flag_and_shape_rejected(self, tmp_path):
        net, table = _weighted_net()
        model = solve(net, table)
        path = tmp_path / "model.tsv"
        dump_model(model, path)
        text = path.read_text(encoding="utf-8")
        bad_flag = tmp_path / "flag.tsv"
        bad_flag.write_text(text.replace("\tf\t", "\tq\t"), encoding="utf-8")
        with pytest.raises(ParseError, match="flag"):
            load_model(bad_flag)
        bad_vec = tmp_path / "vec.tsv"
        bad_vec.write_text(text.replace("\tf\t0.75", "\tf\t0.75 0.25"), encoding="utf-8")
        with pytest.raises(ParseError, match="components"):
            load_model(bad_vec)

    def test_header_node_count_checked(self, tmp_path):
        net, table = _weighted_net()
        model = solve(net, table)
        path = tmp_path / "model.tsv"
        dump_model(model, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="nodes"):
            load_model(path)

    def test_rows_out_of_node_order_rejected(self, tmp_path):
        net, table = _weighted_net()
        model = solve(net, table)
        path = tmp_path / "model.tsv"
        dump_model(model, path)
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join([header, *reversed(rows)]) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="order"):
            load_model(path)

    def test_clamped_row_in_non_repr_form_rejected(self, tmp_path):
        net = network_of([(T1, B1, 1.0), (T2, B1, 1.0)])
        table = make_table(1, {"t1": np.array([0.5]), "t2": np.array([0.25])})
        model = solve(net, table)
        path = tmp_path / "model.tsv"
        dump_model(model, path)
        text = path.read_text(encoding="utf-8")
        assert "\tc\t0.5\n" in text
        path.write_text(text.replace("\tc\t0.5\n", "\tc\t0.50\n"), encoding="utf-8")
        with pytest.raises(ValidationError, match="digest"):
            load_model(path)

    def test_blank_line_rejected(self, tmp_path):
        net, table = _weighted_net()
        model = solve(net, table)
        path = tmp_path / "model.tsv"
        dump_model(model, path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n")
        with pytest.raises(ParseError, match="4 tab-separated fields"):
            load_model(path)

    def test_duplicate_node_rejected(self, tmp_path):
        net, table = _weighted_net()
        model = solve(net, table)
        path = tmp_path / "model.tsv"
        dump_model(model, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[-1] = lines[-2]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="duplicate"):
            load_model(path)

    def test_more_rows_than_declared_rejected(self, tmp_path):
        net, table = _weighted_net()
        model = solve(net, table)
        path = tmp_path / "model.tsv"
        dump_model(model, path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("S\textra.java\tf\t0.0\n")
        with pytest.raises(ValidationError, match="nodes"):
            load_model(path)

    def test_header_declaring_huge_counts_rejected(self, tmp_path):
        net, table = _weighted_net()
        model = solve(net, table)
        path = tmp_path / "model.tsv"
        dump_model(model, path)
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        fields = json.loads(header)
        fields["nodes"] = 10**15
        path.write_text("\n".join([json.dumps(fields), *rows]) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="nodes"):
            load_model(path)

    def test_non_numeric_component_rejected(self, tmp_path):
        net, table = _weighted_net()
        model = solve(net, table)
        path = tmp_path / "model.tsv"
        dump_model(model, path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("\tf\t0.75", "\tf\tzero"), encoding="utf-8")
        with pytest.raises(ParseError, match="bad vector"):
            load_model(path)

    def test_unsorted_model_rejected(self):
        with pytest.raises(ValidationError, match="sorted"):
            RepresentationModel(
                nodes=(T1, B1), matrix=np.zeros((2, 1)), clamped_rows=np.zeros(2, bool)
            )

    def test_vector_of_unknown_node_raises_key_error(self):
        model = RepresentationModel(
            nodes=(B1, T1), matrix=np.eye(2), clamped_rows=np.array([False, True])
        )
        np.testing.assert_array_equal(model.vector(T1), [0.0, 1.0])
        for node in (TypedNode("A", "a"), S1, TypedNode("Z", "z")):
            with pytest.raises(KeyError):
                model.vector(node)

    def test_tab_in_key_rejected(self):
        model = RepresentationModel(
            nodes=(TypedNode("S", "bad\tname"),),
            matrix=np.array([[0.0]]),
            clamped_rows=np.zeros(1, bool),
        )
        with pytest.raises(ValidationError, match="serialized"):
            dump_model(model, "/dev/null")
