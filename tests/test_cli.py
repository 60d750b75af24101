import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bugloc
from bugloc.cli import main


def _run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def cli_dataset(tmp_path_factory):
    """Dataset generated through the CLI itself, plus its config file."""
    root = tmp_path_factory.mktemp("cli_dataset")
    assert _run("synth", "--out-dir", str(root), "--seed", "7") == 0
    return root


def _read_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


class TestSynthCommand:
    def test_writes_dataset_and_config(self, cli_dataset):
        for name in ("reports.jsonl", "sources.jsonl", "metrics.csv",
                     "embeddings.txt", "config.json", "manifest.json"):
            assert (cli_dataset / name).exists(), name
        cfg = json.loads((cli_dataset / "config.json").read_text(encoding="utf-8"))
        assert cfg["reports"] == "reports.jsonl"

    def test_flags_reach_the_generator(self, tmp_path):
        out = tmp_path / "tiny"
        assert _run("synth", "--out-dir", str(out), "--seed", "3",
                    "--num-reports", "30", "--num-files", "8",
                    "--vocab-size", "120", "--topics", "4") == 0
        lines = (out / "reports.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 30

    def test_manifest_has_no_timestamps(self, cli_dataset):
        manifest = json.loads((cli_dataset / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["command"] == "synth"
        assert "time" not in json.dumps(manifest).lower()


class TestIngestAndBuild:
    def test_ingest_writes_cache_and_summary(self, cli_dataset, tmp_path, capsys):
        out = tmp_path / "out"
        assert _run("ingest", "--dataset-dir", str(cli_dataset), "--out-dir", str(out)) == 0
        summary = json.loads(capsys.readouterr().out)
        # 160 generated, 11 marked open and dropped by resolved_only
        assert summary["reports"] == 149
        assert summary["source_docs"] == 24
        assert (out / "corpus_cache.json").exists()
        assert (out / "manifest.json").exists()

    def test_build_writes_edges_and_diagnostics(self, cli_dataset, tmp_path, capsys):
        out = tmp_path / "out"
        assert _run("build", "--dataset-dir", str(cli_dataset), "--out-dir", str(out)) == 0
        printed = capsys.readouterr().out
        assert "info: counts:" in printed
        rows = (out / "network.csv").read_text(encoding="utf-8").splitlines()
        assert rows[0] == "kind1,key1,kind2,key2,weight"
        assert len(rows) > 100
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["network"]["nodes"] > 0


class TestSolveEvalSweepQuery:
    def test_solve_then_eval_matches_fresh_eval(self, cli_dataset, tmp_path):
        solve_out = tmp_path / "solved"
        assert _run("solve", "--dataset-dir", str(cli_dataset),
                    "--out-dir", str(solve_out), "--tolerance", "1e-8") == 0
        model_path = solve_out / "model.tsv"
        assert model_path.exists()

        from_model = tmp_path / "eval_model"
        fresh = tmp_path / "eval_fresh"
        assert _run("eval", "--dataset-dir", str(cli_dataset), "--out-dir",
                    str(from_model), "--model", str(model_path), "--tolerance", "1e-8") == 0
        assert _run("eval", "--dataset-dir", str(cli_dataset), "--out-dir",
                    str(fresh), "--tolerance", "1e-8") == 0
        assert (from_model / "results.csv").read_bytes() == (fresh / "results.csv").read_bytes()
        assert (from_model / "ttests.csv").read_bytes() == (fresh / "ttests.csv").read_bytes()

    def test_eval_with_model_still_rejects_fix_outside_universe(
        self, cli_dataset, tmp_path, capsys
    ):
        solved = tmp_path / "solved"
        assert _run("solve", "--dataset-dir", str(cli_dataset), "--out-dir", str(solved)) == 0
        data = tmp_path / "data"
        data.mkdir()
        for name in ("sources.jsonl", "metrics.csv", "embeddings.txt"):
            (data / name).write_bytes((cli_dataset / name).read_bytes())
        with open(cli_dataset / "reports.jsonl", encoding="utf-8") as src, \
                open(data / "reports.jsonl", "w", encoding="utf-8") as dst:
            for line in src:
                report = json.loads(line)
                report["fixed_files"].append("src/Ghost.java")
                dst.write(json.dumps(report) + "\n")
        capsys.readouterr()
        assert _run("eval", "--dataset-dir", str(data), "--out-dir", str(tmp_path / "out"),
                    "--model", str(solved / "model.tsv")) == 1
        assert "fixes unknown path 'src/Ghost.java'" in capsys.readouterr().err

    def test_eval_outputs_are_shaped_like_the_config(self, cli_dataset, tmp_path, capsys):
        out = tmp_path / "out"
        assert _run("eval", "--dataset-dir", str(cli_dataset), "--out-dir", str(out),
                    "--methods", "bow,netreg") == 0
        rows = _read_rows(out / "results.csv")
        assert [(r["method"], int(r["k"])) for r in rows] == [
            ("bow", 1), ("bow", 5), ("bow", 10),
            ("netreg", 1), ("netreg", 5), ("netreg", 10),
        ]
        for row in rows:
            assert 0.0 <= float(row["map"]) <= 1.0
            if row["method"] == "bow":
                assert row["alpha"] == "0.00"
        ttests = _read_rows(out / "ttests.csv")
        assert {(r["method_a"], r["method_b"]) for r in ttests} == {("bow", "netreg")}
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["convergence"]["converged"] is True
        printed = capsys.readouterr().out
        assert "netreg" in printed

    def test_sweep_covers_the_grid(self, cli_dataset, tmp_path):
        out = tmp_path / "out"
        assert _run("sweep", "--dataset-dir", str(cli_dataset), "--out-dir", str(out),
                    "--methods", "bow,netreg") == 0
        rows = _read_rows(out / "sweep.csv")
        assert len(rows) == 2 * 21 * 3
        bow_maps = {r["map"] for r in rows if r["method"] == "bow" and r["k"] == "10"}
        assert len(bow_maps) == 1

    def test_query_single_report_prints_ranking(self, cli_dataset, tmp_path, capsys):
        report = {
            "id": "Q-1",
            "summary": "top00w00a failure",
            "description": "fil00w00a throws on startup",
            "report_time": "2022-01-01T00:00:00Z",
            "status": "open",
            "fixed_files": [],
        }
        report_path = tmp_path / "query.jsonl"
        report_path.write_text(json.dumps(report) + "\n", encoding="utf-8")
        assert _run("query", "--dataset-dir", str(cli_dataset),
                    "--out-dir", str(tmp_path / "out"),
                    "--report", str(report_path), "--k", "5", "--alpha", "0.3") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "rank,path,score"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "1"
        assert first[1].startswith("src/")

    def test_query_batch_writes_files(self, cli_dataset, tmp_path):
        reports = [
            {
                "id": f"Q-{i}",
                "summary": "top01w00a regression",
                "description": "seen after deploy",
                "report_time": f"2022-01-0{i}T00:00:00Z",
                "status": "open",
                "fixed_files": [],
            }
            for i in (1, 2)
        ]
        report_path = tmp_path / "batch.jsonl"
        report_path.write_text(
            "".join(json.dumps(r) + "\n" for r in reports), encoding="utf-8"
        )
        out = tmp_path / "out"
        assert _run("query", "--dataset-dir", str(cli_dataset),
                    "--out-dir", str(out), "--report", str(report_path)) == 0
        assert (out / "query_Q-1.csv").exists()
        assert (out / "query_Q-2.csv").exists()


class TestDeterminism:
    def test_identical_eval_runs_are_byte_identical(self, cli_dataset, tmp_path):
        outs = [tmp_path / "run1", tmp_path / "run2"]
        for out in outs:
            assert _run("eval", "--dataset-dir", str(cli_dataset),
                        "--out-dir", str(out), "--methods", "bow,netreg") == 0
        for name in ("results.csv", "ttests.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_synth_reruns_are_byte_identical(self, cli_dataset, tmp_path):
        again = tmp_path / "again"
        assert _run("synth", "--out-dir", str(again), "--seed", "7") == 0
        for name in ("reports.jsonl", "sources.jsonl", "metrics.csv", "embeddings.txt"):
            assert (again / name).read_bytes() == (cli_dataset / name).read_bytes()


def test_cli_import_leaves_scipy_stats_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(bugloc.__file__).parent.parent))
    probe = "import sys, bugloc.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


class TestExitCodes:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["transmogrify"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_config_file_is_validation_error(self, tmp_path, capsys):
        assert main(["eval", "--config", str(tmp_path / "nope.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_flag_value_is_usage_error(self, capsys):
        assert main(["eval", "--k", "not-a-number"]) == 1
        capsys.readouterr()

    def test_unreadable_input_is_runtime_failure(self, tmp_path, capsys):
        reports_dir = tmp_path / "reports.jsonl"
        reports_dir.mkdir()
        cfg = {
            "reports": str(reports_dir),
            "embeddings": str(tmp_path / "embeddings.txt"),
        }
        (tmp_path / "embeddings.txt").write_text("1 1\nx 0.5\n", encoding="utf-8")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["eval", "--config", str(cfg_path)]) == 2
        capsys.readouterr()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "bugloc" in capsys.readouterr().out
