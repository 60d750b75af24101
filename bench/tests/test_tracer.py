"""Self time, layer metrics, the traced CLI and BENCHMARK.json's metric lists."""

import json
import subprocess

import pytest

import run
import tracer as tracing


def test_self_time_subtracts_direct_children():
    spans = [
        [0, -1, "outer", 0, 10_000_000_000],
        [1, 0, "inner", 2_000_000_000, 5_000_000_000],
        [2, 1, "leaf", 3_000_000_000, 4_000_000_000],
        [3, 0, "inner", 6_000_000_000, 7_000_000_000],
    ]
    own, total, calls = tracing.self_times(spans)
    assert own["outer"] == pytest.approx(6.0)
    assert own["inner"] == pytest.approx(3.0)
    assert total["inner"] == pytest.approx(4.0)
    assert calls == {"outer": 1, "inner": 2, "leaf": 1}


def test_layer_metrics_sum_processes_and_derive_ratios():
    trace = {
        "spans": [[0, -1, "ranker.bow", 0, 2_000_000], [1, -1, "ranker.bow", 0, 4_000_000]],
        "counts": {"ranker.bow_pairs": 10, "ranker.bow_pairs_nonzero": 4, "regularizer.model_mb": 2.0},
    }
    layers = tracing.layer_metrics([trace, trace])
    assert layers["ranker.bow_calls"] == 4
    assert layers["ranker.bow_s"] == pytest.approx(0.012)
    assert layers["ranker.bow_query_ms"] == pytest.approx(3.0)
    assert layers["ranker.bow_nonzero_ratio"] == pytest.approx(0.4)
    assert layers["regularizer.model_mb"] == 2.0
    assert layers["evaluation.evaluate_s"] == 0.0


def test_traced_cli_records_layers(tmp_path):
    from bugloc import synthgen

    data = tmp_path / "data"
    synthgen.generate(synthgen.SynthSpec(num_reports=60), data)
    trace = tmp_path / "trace.json"
    argv = run.bugloc_argv("solve", data, tmp_path / "out", trace=trace)
    done = subprocess.run(argv, cwd=run.ROOT, env=run._env(), capture_output=True, check=False)
    assert done.returncode == 0, done.stderr
    recorded = json.loads(trace.read_text())
    assert recorded["missing"] == []
    layers = tracing.layer_metrics([recorded])
    assert layers["regularizer.solve_calls"] == 1
    assert layers["regularizer.sweeps"] >= 1
    assert layers["network.nodes"] > 0 and layers["network.edges"] > 0
    assert layers["cli.import_s"] > 0.0
    assert layers["regularizer.model_mb"] > 0.0


def test_benchmark_json_lists_the_metrics_the_runs_print():
    config = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in config["end_to_end"]}
    assert e2e == run.E2E_UNITS
    layers = tracing.layer_metrics([])
    layers["trace.overhead_s"] = 0.0
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == {k: run.layer_unit(k) for k in layers}
    assert [w["name"] for w in config["workloads"]] == list(run.SPECS)


def test_a_function_not_found_fails_the_traced_run(tmp_path):
    trace = {"spans": [], "counts": {}, "missing": ["regularizer.sweep_update"]}
    result = run.Outcome()
    args = type("Args", (), {"workload": "solve-l", "seed": 1})()
    run.report_layers(result, [trace], 0.0, 1.0, tmp_path, args)
    assert any("regularizer.sweep_update" in p for p in result.problems)
