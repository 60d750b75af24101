"""Acceptance gates for the whole package.

Each test covers one numbered criterion and prints a single
"ACCEPTANCE <n> PASS" line with the measured values; run pytest with -rA
(the project default) to see the lines for passing tests.
"""

import csv
import math
import os
import random
import time
from pathlib import Path

import numpy as np
import pytest

from bugloc import evaluation, pipeline
from bugloc.cli import main as cli_main
from bugloc.evaluation import (
    average_precision_at_k,
    evaluate_methods,
    paired_t_test,
    sweep_alpha,
)
from bugloc.ranker import combine_and_rank
from bugloc.regularizer import SolverConfig, initialize_representation, solve
from netgen import components, random_network, sweep_energies
from solveref import closed_form_solve
from test_evaluation import AP_FIXTURES

# solver tolerance used for the oracle-equivalence runs; criterion 3's
# init-independence bound is ten times this value
ORACLE_TOLERANCE = 1e-10
ORACLE_NETWORKS = 100
ORACLE_SEED = 20240818
ORACLE_CONFIG = SolverConfig(max_iters=20000, tolerance=ORACLE_TOLERANCE)

# frozen at bring-up: observed netreg-over-bow margins on the planted
# corpus were 0.25 to 0.35 across seeds (0.13 at noise 0.2, ~0.03 at
# noise 1.0, 0.0 with synonyms off), so 0.05 separates signal from noise
MAP_MARGIN = 0.05


@pytest.fixture(scope="module")
def oracle_runs():
    rng = random.Random(ORACLE_SEED)
    runs = []
    start = time.monotonic()
    for _ in range(ORACLE_NETWORKS):
        net, table = random_network(rng)
        iterative = solve(net, table, ORACLE_CONFIG)
        direct = closed_form_solve(net, table)
        runs.append((net, table, iterative, direct))
    elapsed = time.monotonic() - start
    return runs, elapsed


def test_criterion_01_iterative_matches_direct_solution(oracle_runs):
    runs, elapsed = oracle_runs
    worst = 0.0
    for net, _, iterative, direct in runs:
        assert iterative.convergence.converged
        for node in net.nodes:
            gap = float(np.max(np.abs(iterative.vector(node) - direct.vector(node))))
            worst = max(worst, gap)
    assert worst <= 1e-6
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 1 PASS: iterative and direct solutions agree on "
        f"{len(runs)} random networks, worst gap {worst:.3e} <= 1e-6 "
        f"(runtime {elapsed:.2f}s < 60s)"
    )


def test_criterion_02_energy_never_increases(oracle_runs):
    runs, _ = oracle_runs
    iterations = 0
    for net, table, iterative, _ in runs:
        energies = sweep_energies(net, table, ORACLE_CONFIG)
        assert len(energies) == iterative.convergence.iterations
        for prev, nxt in zip(energies, energies[1:]):
            assert nxt <= prev + 1e-12 * max(1.0, abs(prev))
        iterations += len(energies)
    print(
        f"ACCEPTANCE 2 PASS: energy non-increasing across {iterations} solver iterations "
        f"of {len(runs)} runs (relative tolerance 1e-12)"
    )


def test_criterion_03_maximum_principle_clamps_and_init_independence(oracle_runs):
    runs, _ = oracle_runs
    for net, table, iterative, _ in runs:
        for node in iterative.clamped:
            assert np.array_equal(iterative.vector(node), table.get(node.key))
        for comp in components(net):
            clamped = [n for n in comp if n in iterative.clamped]
            if not clamped:
                continue
            lo = np.min([iterative.vector(n) for n in clamped], axis=0)
            hi = np.max([iterative.vector(n) for n in clamped], axis=0)
            for node in comp:
                assert np.all(iterative.vector(node) >= lo - 1e-8)
                assert np.all(iterative.vector(node) <= hi + 1e-8)
    bound = 10.0 * ORACLE_TOLERANCE
    tight = SolverConfig(max_iters=50000, tolerance=1e-12)
    init_rng = random.Random(424242)
    worst = 0.0
    for net, table, _, _ in runs[:10]:
        base = solve(net, table, tight)
        seeded = initialize_representation(net, table)
        for row, node in enumerate(seeded.nodes):
            if node not in seeded.clamped:
                seeded.matrix[row] = [init_rng.uniform(-5.0, 5.0) for _ in range(table.dim)]
        other = solve(net, table, tight, initial=seeded)
        for node in net.nodes:
            gap = float(np.max(np.abs(base.vector(node) - other.vector(node))))
            worst = max(worst, gap)
    assert worst <= bound
    print(
        f"ACCEPTANCE 3 PASS: maximum principle and bit-identical clamps on "
        f"{len(runs)} runs; init independence on 10 runs, worst gap "
        f"{worst:.3e} <= {bound:.0e}"
    )


def test_criterion_04_average_precision_fixtures_and_map_monotonicity(eval_bundle):
    for ranking, relevant, k, expected in AP_FIXTURES:
        value = average_precision_at_k(ranking, set(relevant), k)
        assert abs(value - expected) <= 1e-12
    by = {(r.method, r.k): r.map_value for r in eval_bundle.result.rows}
    for method in eval_bundle.cfg.methods:
        assert by[(method, 1)] <= by[(method, 5)] + 1e-12
        assert by[(method, 5)] <= by[(method, 10)] + 1e-12
    sweep_rows = sweep_alpha(eval_bundle.ctx, eval_bundle.cfg.eval_config())
    per_cell = {(r.method, r.alpha, r.k): r.map_value for r in sweep_rows}
    for (method, alpha, k), value in per_cell.items():
        if k == 1:
            assert value <= per_cell[(method, alpha, 5)] + 1e-12
        elif k == 5:
            assert value <= per_cell[(method, alpha, 10)] + 1e-12
    print(
        f"ACCEPTANCE 4 PASS: {len(AP_FIXTURES)} frozen AP fixtures exact to "
        f"1e-12; MAP@1 <= MAP@5 <= MAP@10 for every method and every grid alpha"
    )


def test_criterion_05_alpha_zero_reduces_every_method_to_bow(eval_bundle):
    ctx = eval_bundle.ctx
    depth = len(eval_bundle.scorer.index.universe)
    zeros = dict.fromkeys(ctx.universe, 0.0)
    checked = 0
    for row in range(len(ctx.query_ids)):
        bow = dict(zip(ctx.universe, ctx.bow[row].tolist()))
        reference = combine_and_rank(bow, zeros, 0.0, depth).ranking
        for method in ("embedding", "netreg"):
            learned = dict(zip(ctx.universe, ctx.learned[method][row].tolist()))
            ranking = combine_and_rank(bow, learned, 0.0, depth).ranking
            assert [path for path, _ in ranking] == [path for path, _ in reference]
            checked += 1
    print(
        f"ACCEPTANCE 5 PASS: alpha=0 rankings item-identical to the bow "
        f"baseline for all {len(ctx.query_ids)} queries x 2 methods "
        f"({checked} comparisons, full depth {depth})"
    )


def test_criterion_06_learned_space_beats_bow_on_planted_corpus(synth_dir, tmp_path):
    start = time.monotonic()
    cfg = pipeline.RunConfig(dataset_name="planted", out_dir=str(tmp_path))
    cfg.apply_dataset_dir(synth_dir)
    dataset = pipeline.load_dataset(cfg, use_cache=False)
    scorer = pipeline.prepare_scorer(dataset, cfg)
    ctx = pipeline.build_eval_context(dataset, cfg, scorer=scorer)
    result = evaluate_methods(ctx, cfg.eval_config())
    elapsed = time.monotonic() - start
    by = {(r.method, r.k): r for r in result.rows}
    bow = by[("bow", 10)].map_value
    netreg = by[("netreg", 10)].map_value
    margin = netreg - bow
    assert margin >= MAP_MARGIN
    assert elapsed < 300.0
    print(
        f"ACCEPTANCE 6 PASS: planted corpus MAP@10 netreg {netreg:.4f} "
        f"(alpha {by[('netreg', 10)].alpha:.2f}) vs bow {bow:.4f}, margin "
        f"{margin:.4f} >= {MAP_MARGIN} (runtime {elapsed:.1f}s < 300s)"
    )


def test_criterion_07_paired_t_test_reference_value():
    result = paired_t_test([0.1, 0.2, 0.3], [0.0, 0.0, 0.0])
    assert abs(result.t_statistic - 3.4641016151377544) < 1e-3
    assert not result.degenerate
    degenerate = paired_t_test([0.5, 0.5], [0.5, 0.5])
    assert degenerate.degenerate and not degenerate.significant
    shifted = paired_t_test([1.0, 1.5], [0.5, 1.0])
    assert shifted.degenerate and math.isinf(shifted.t_statistic)
    print(
        f"ACCEPTANCE 7 PASS: paired t on differences [0.1,0.2,0.3] gives "
        f"t={result.t_statistic:.6f} (reference 3.4641, tolerance 1e-3); "
        f"degenerate inputs handled without crashing"
    )


def test_criterion_08_end_to_end_determinism(tmp_path):
    data = tmp_path / "data"
    assert cli_main(["synth", "--out-dir", str(data), "--seed", "7"]) == 0

    run1, run2 = tmp_path / "run1", tmp_path / "run2"
    for out in (run1, run2):
        assert cli_main(["eval", "--dataset-dir", str(data), "--out-dir", str(out)]) == 0
    for name in ("results.csv", "ttests.csv"):
        assert (run1 / name).read_bytes() == (run2 / name).read_bytes()

    solved = tmp_path / "solved"
    assert cli_main(["solve", "--dataset-dir", str(data), "--out-dir", str(solved)]) == 0
    via_model = tmp_path / "via_model"
    assert cli_main([
        "eval", "--dataset-dir", str(data), "--out-dir", str(via_model),
        "--model", str(solved / "model.tsv"),
    ]) == 0
    for name in ("results.csv", "ttests.csv"):
        assert (via_model / name).read_bytes() == (run1 / name).read_bytes()
    print(
        "ACCEPTANCE 8 PASS: repeated eval runs byte-identical; "
        "solve/dump/load/eval equals the single-process result exactly"
    )


def test_criterion_09_external_dataset_hook(tmp_path):
    """With BUGLOC_REAL_DATA set to a dataset directory, the full pipeline
    must complete on it and emit the standard results table. Without real
    data the requirement is vacuous; the same code path is exercised on the
    synthetic corpus by criterion 8."""
    real = os.environ.get("BUGLOC_REAL_DATA")
    if not real:
        print(
            "ACCEPTANCE 9 PASS (vacuous): BUGLOC_REAL_DATA not set, no real "
            "dataset supplied; pipeline completeness is covered on the "
            "synthetic corpus by criterion 8"
        )
        return
    out = tmp_path / "real_out"
    assert cli_main(["eval", "--dataset-dir", real, "--out-dir", str(out)]) == 0
    with open(out / "results.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    assert {"method", "dataset", "alpha", "k", "map", "num_queries"} <= set(rows[0])
    print(
        f"ACCEPTANCE 9 PASS: pipeline completed on {Path(real).name} and "
        f"wrote {len(rows)} result rows"
    )
