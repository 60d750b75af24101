import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bugloc
from bugloc import pipeline, regularizer
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

    def test_manifest_records_the_settings_and_the_dataset_config(self, tmp_path):
        out = tmp_path / "data"
        assert _run("synth", "--out-dir", str(out), "--seed", "5", "--num-reports", "30",
                    "--num-files", "8", "--vocab-size", "120", "--topics", "4") == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"]["seed"] == 5
        blob = json.dumps(manifest["config"], sort_keys=True).encode()
        assert manifest["config_sha256"] == hashlib.sha256(blob).hexdigest()
        assert manifest["dataset_config"] == str(out / "config.json")

    def test_manifest_records_the_allocation_rung(self, cli_dataset, tmp_path):
        manifest = json.loads((cli_dataset / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["allocation"] == {"topic_words": 6, "file_words": 3, "surfaces": 2}
        out = tmp_path / "tight"
        assert _run("synth", "--out-dir", str(out), "--num-reports", "30", "--vocab-size", "30") == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["allocation"] == {"topic_words": 1, "file_words": 0, "surfaces": 2}

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
        assert (out / "embeddings_cache.npz").exists()
        assert (out / "manifest.json").exists()

    def test_solve_writes_the_same_model_with_and_without_the_embedding_cache(
        self, cli_dataset, tmp_path
    ):
        out = tmp_path / "out"
        args = ("--dataset-dir", str(cli_dataset), "--out-dir", str(out))
        assert _run("ingest", *args) == 0
        assert _run("solve", *args) == 0
        with_cache = (out / "model.tsv").read_bytes()
        (out / "embeddings_cache.npz").unlink()
        assert _run("solve", *args) == 0
        assert (out / "model.tsv").read_bytes() == with_cache

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

    @pytest.mark.parametrize("command", ["eval", "query"])
    @pytest.mark.parametrize(
        "flags, config, shown",
        [
            ([], {"split": 0.6}, "the model's B nodes differ from the dataset's training reports"),
            (["--buckets", "3"], None,
             "the model's M nodes differ from the dataset's metric buckets"),
        ],
    )
    def test_model_solved_under_other_settings_rejected(
        self, cli_dataset, tmp_path, capsys, command, flags, config, shown
    ):
        solved = tmp_path / "solved"
        assert _run("solve", "--dataset-dir", str(cli_dataset), "--out-dir", str(solved)) == 0
        out = tmp_path / "out"
        argv = [command, "--dataset-dir", str(cli_dataset), "--out-dir", str(out),
                "--model", str(solved / "model.tsv"), *flags]
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
            argv += ["--config", str(tmp_path / "cfg.json")]
        if command == "query":
            report = (cli_dataset / "reports.jsonl").read_text(encoding="utf-8").splitlines()[0]
            (tmp_path / "bug.json").write_text(report, encoding="utf-8")
            argv += ["--report", str(tmp_path / "bug.json")]
        capsys.readouterr()
        assert _run(*argv) == 1
        captured = capsys.readouterr()
        assert shown in captured.err and "Traceback" not in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command", ["eval", "query"])
    def test_model_solved_with_other_embeddings_rejected(
        self, cli_dataset, tmp_path, capsys, command
    ):
        solved = tmp_path / "solved"
        assert _run("solve", "--dataset-dir", str(cli_dataset), "--out-dir", str(solved)) == 0
        model = regularizer.load_model(solved / "model.tsv")
        first = next(node for node, c in zip(model.nodes, model.clamped_rows) if c)
        # the same tokens and dim, every vector negated
        data = tmp_path / "data"
        data.mkdir()
        for name in ("reports.jsonl", "sources.jsonl", "metrics.csv"):
            (data / name).write_bytes((cli_dataset / name).read_bytes())
        header, *rows = (cli_dataset / "embeddings.txt").read_text(encoding="utf-8").splitlines()
        negated = [
            " ".join([token, *(repr(-float(x)) for x in values)])
            for token, *values in map(str.split, rows)
        ]
        (data / "embeddings.txt").write_text("\n".join([header, *negated]) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        argv = [command, "--dataset-dir", str(data), "--out-dir", str(out),
                "--model", str(solved / "model.tsv")]
        if command == "query":
            report = (cli_dataset / "reports.jsonl").read_text(encoding="utf-8").splitlines()[0]
            (tmp_path / "bug.json").write_text(report, encoding="utf-8")
            argv += ["--report", str(tmp_path / "bug.json")]
        capsys.readouterr()
        assert _run(*argv) == 1
        captured = capsys.readouterr()
        assert f"the model's clamped rows differ from the embeddings at T:{first.key}" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == "" and not out.exists()

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

    def test_sweep_is_an_alias_of_eval(self, cli_dataset, tmp_path, capsys):
        outs = {command: tmp_path / command for command in ("eval", "sweep")}
        for command, out in outs.items():
            assert _run(command, "--dataset-dir", str(cli_dataset), "--out-dir", str(out),
                        "--methods", "bow,netreg") == 0
        for name in ("results.csv", "ttests.csv", "sweep.csv"):
            assert (outs["sweep"] / name).read_bytes() == (outs["eval"] / name).read_bytes(), name
        manifests = {
            command: json.loads((out / "manifest.json").read_text(encoding="utf-8"))
            for command, out in outs.items()
        }
        assert [m["command"] for m in manifests.values()] == ["eval", "sweep"]
        for key in ("convergence", "num_queries", "excluded_queries"):
            assert manifests["sweep"][key] == manifests["eval"][key], key
        printed = capsys.readouterr().out
        assert f"wrote {outs['sweep'] / 'results.csv'}, " in printed
        assert f" and {outs['sweep'] / 'sweep.csv'}" in printed

    def test_sweep_with_model_matches_plain_sweep_without_solving(
        self, cli_dataset, tmp_path, monkeypatch
    ):
        solved = tmp_path / "solved"
        assert _run("solve", "--dataset-dir", str(cli_dataset), "--out-dir", str(solved)) == 0
        plain = tmp_path / "plain"
        assert _run("sweep", "--dataset-dir", str(cli_dataset), "--out-dir", str(plain)) == 0

        def refuse(*args, **kwargs):
            raise AssertionError("sweep --model solved the model")

        monkeypatch.setattr(regularizer, "solve", refuse)
        loaded = tmp_path / "loaded"
        assert _run("sweep", "--dataset-dir", str(cli_dataset), "--out-dir", str(loaded),
                    "--model", str(solved / "model.tsv")) == 0
        assert (loaded / "sweep.csv").read_bytes() == (plain / "sweep.csv").read_bytes()

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

    @pytest.mark.parametrize("bad_id", ["dir/../../escaped", "..", "dir\\escaped", "nul\0id"])
    def test_query_batch_rejects_ids_that_leave_the_out_dir(
        self, cli_dataset, tmp_path, capsys, bad_id
    ):
        reports = [
            {
                "id": rid,
                "summary": "top01w00a regression",
                "description": "seen after deploy",
                "report_time": f"2022-01-0{day}T00:00:00Z",
                "status": "open",
                "fixed_files": [],
            }
            for day, rid in ((1, "Q-1"), (2, bad_id))
        ]
        report_path = tmp_path / "batch.jsonl"
        report_path.write_text(
            "".join(json.dumps(r) + "\n" for r in reports), encoding="utf-8"
        )
        out = tmp_path / "a" / "b" / "out"
        out.mkdir(parents=True)
        (out / "query_dir").mkdir()
        assert _run("query", "--dataset-dir", str(cli_dataset),
                    "--out-dir", str(out), "--report", str(report_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "cannot name an output file" in err
        # rejected before the first ranking: nothing is written anywhere
        assert sorted(p.name for p in tmp_path.rglob("*.csv")) == []

    def test_query_rows_quote_paths_with_commas_and_quotes(self, cli_dataset, tmp_path, capsys):
        odd = 'src/topic00/File,00 "v2".java'
        data = tmp_path / "data"
        data.mkdir()
        # no metrics.csv, so the universe is the source paths
        for name in ("reports.jsonl", "sources.jsonl"):
            text = (cli_dataset / name).read_text(encoding="utf-8")
            text = text.replace("src/topic00/File00.java", json.dumps(odd)[1:-1])
            (data / name).write_text(text, encoding="utf-8")
        (data / "embeddings.txt").write_bytes((cli_dataset / "embeddings.txt").read_bytes())
        report = {
            "id": "Q-1", "summary": "top00w00a fil00w00a", "description": "fil00w01a",
            "report_time": "2022-01-01T00:00:00Z", "status": "open", "fixed_files": [],
        }
        report_path = tmp_path / "query.jsonl"
        report_path.write_text(json.dumps(report) + "\n", encoding="utf-8")
        assert _run("query", "--dataset-dir", str(data), "--out-dir", str(tmp_path / "out"),
                    "--report", str(report_path), "--k", "100") == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[0] == ["rank", "path", "score"]
        assert all(len(row) == 3 for row in rows)
        assert [row[0] for row in rows[1:]] == [str(i) for i in range(1, len(rows))]
        assert odd in {row[1] for row in rows[1:]}

    def test_query_with_an_empty_universe_writes_only_headers(self, cli_dataset, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        # no sources, no metrics and no fixed files, so no file can be ranked
        reports = [
            {
                "id": f"B-{i}", "summary": f"top0{i}w00a crash", "description": "fil00w00a",
                "report_time": f"2021-01-0{i}T00:00:00Z", "status": "resolved",
                "fixed_files": [],
            }
            for i in range(1, 6)
        ]
        (data / "reports.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in reports), encoding="utf-8"
        )
        (data / "embeddings.txt").write_bytes((cli_dataset / "embeddings.txt").read_bytes())
        report_path = tmp_path / "query.jsonl"
        report_path.write_text(json.dumps(reports[0]) + "\n", encoding="utf-8")
        args = ("--dataset-dir", str(data), "--out-dir", str(tmp_path / "out"))
        assert _run("query", *args, "--report", str(report_path)) == 0
        assert capsys.readouterr().out == "rank,path,score\n"
        report_path.write_text(
            "".join(json.dumps(r) + "\n" for r in reports[:2]), encoding="utf-8"
        )
        assert _run("query", *args, "--report", str(report_path)) == 0
        for rid in ("B-1", "B-2"):
            assert (tmp_path / "out" / f"query_{rid}.csv").read_text(encoding="utf-8") == (
                "rank,path,score\n"
            )


class TestDeterminism:
    def test_identical_eval_runs_are_byte_identical(self, cli_dataset, tmp_path):
        outs = [tmp_path / "run1", tmp_path / "run2"]
        for out in outs:
            assert _run("eval", "--dataset-dir", str(cli_dataset),
                        "--out-dir", str(out), "--methods", "bow,netreg") == 0
        for name in ("results.csv", "ttests.csv", "sweep.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_synth_reruns_are_byte_identical(self, cli_dataset, tmp_path):
        again = tmp_path / "again"
        assert _run("synth", "--out-dir", str(again), "--seed", "7") == 0
        for name in ("reports.jsonl", "sources.jsonl", "metrics.csv", "embeddings.txt"):
            assert (again / name).read_bytes() == (cli_dataset / name).read_bytes()


def test_cli_import_leaves_scipy_unloaded():
    # scipy loads when a command first builds or multiplies a sparse matrix
    env = dict(os.environ, PYTHONPATH=str(Path(bugloc.__file__).parent.parent))
    probe = "import sys, bugloc.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("command", ["ingest", "synth"])
def test_ingest_and_synth_leave_scipy_unloaded(cli_dataset, tmp_path, command):
    env = dict(os.environ, PYTHONPATH=str(Path(bugloc.__file__).parent.parent))
    source = ["--dataset-dir", str(cli_dataset)] if command == "ingest" else ["--seed", "3"]
    argv = [command, *source, "--out-dir", str(tmp_path)]
    probe = (
        "import sys; from bugloc.cli import main; "
        f"assert main({argv!r}) == 0; print('scipy' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert (tmp_path / "manifest.json").exists()
    assert out.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("command", ["build", "solve"])
def test_build_and_solve_leave_scipy_linalg_unloaded(cli_dataset, tmp_path, command):
    # labelling components with numpy keeps csgraph, and with it scipy.linalg, out
    env = dict(os.environ, PYTHONPATH=str(Path(bugloc.__file__).parent.parent))
    argv = [command, "--dataset-dir", str(cli_dataset), "--out-dir", str(tmp_path)]
    probe = (
        "import sys; from bugloc.cli import main; "
        f"assert main({argv!r}) == 0; print('scipy.linalg' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines()[-1] == "False"


def test_eval_leaves_scipy_stats_unloaded(cli_dataset, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(bugloc.__file__).parent.parent))
    argv = ["eval", "--dataset-dir", str(cli_dataset), "--out-dir", str(tmp_path)]
    probe = (
        "import sys; from bugloc.cli import main; "
        f"assert main({argv!r}) == 0; print('scipy.stats' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert len(_read_rows(tmp_path / "ttests.csv")) > 0
    assert out.stdout.splitlines()[-1] == "False"


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

    def test_wrongly_typed_config_value_is_validation_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"alpha": "0.5"}), encoding="utf-8")
        assert main(["solve", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "'alpha'" in err and "Traceback" not in err

    def test_missing_stopwords_file_is_validation_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"stopwords_file": "missing.txt"}), encoding="utf-8")
        assert main(["ingest", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        shown = f"stopwords_file path does not exist: {tmp_path / 'missing.txt'}"
        assert shown in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "flags, config, shown",
        [
            (["--methods", "foo"], None, "unknown methods ['foo']; choose from"),
            (["--max-iters", "0"], None, "max_iters must be >= 1"),
            (["--tolerance", "0"], None, "tolerance must be positive"),
            ([], {"ks": [10, 5]}, "ks must be ascending"),
            ([], {"alpha_grid": [0.0, 2.0]}, "alpha_grid values must lie in [0, 1]"),
            ([], {"split": 0.0}, "split must lie in (0, 1)"),
            (["--methods", "bow,bow"], None, "methods must not repeat, got ['bow'] more than once"),
            (["--tolerance", "nan"], None, "tolerance must be positive and finite, got nan"),
            (["--tolerance", "inf"], None, "tolerance must be positive and finite, got inf"),
            ([], {"tolerance": float("nan")}, "tolerance must be positive and finite, got nan"),
            ([], {"tolerance": float("inf")}, "tolerance must be positive and finite, got inf"),
        ],
    )
    def test_bad_evaluation_setting_fails_before_any_input_is_read(
        self, cli_dataset, tmp_path, capsys, monkeypatch, flags, config, shown
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("inputs read")

        monkeypatch.setattr(pipeline, "load_dataset", refuse)
        argv = ["eval", "--dataset-dir", str(cli_dataset), "--out-dir", str(tmp_path), *flags]
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
            argv += ["--config", str(tmp_path / "cfg.json")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert shown in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "name",
        ["config.json", "reports.jsonl", "sources.jsonl", "metrics.csv", "embeddings.txt", "stop.txt"],
    )
    def test_input_that_is_not_utf8_is_a_validation_error(self, cli_dataset, tmp_path, capsys, name):
        for base in ("reports.jsonl", "sources.jsonl", "metrics.csv", "embeddings.txt"):
            shutil.copy(cli_dataset / base, tmp_path / base)
        (tmp_path / "stop.txt").write_text("the\n", encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"stopwords_file": "stop.txt"}), encoding="utf-8")
        with open(tmp_path / name, "ab") as fh:
            fh.write(b"\xff\n")
        argv = ["ingest", "--config", str(config), "--dataset-dir", str(tmp_path)]
        assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"{tmp_path / name}: not UTF-8 text" in err and "Traceback" not in err

    def test_bad_flag_value_is_usage_error(self, capsys):
        assert main(["query", "--k", "not-a-number"]) == 1
        err = capsys.readouterr().err
        assert "usage error: argument --k: invalid int value" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["query", "--report", "r.jsonl", "--methods", "bow"],
            ["ingest", "--alpha", "0.5"],
            ["eval", "--k", "5"],
            ["build", "--seed", "3"],
            ["synth", "--dataset-dir", "d"],
        ],
    )
    def test_flag_the_command_does_not_read_is_usage_error(self, cli_dataset, tmp_path, capsys, argv):
        command, *flags = argv
        source = [] if command == "synth" else ["--dataset-dir", str(cli_dataset)]
        out = tmp_path / "out"
        assert main([command, *source, "--out-dir", str(out), *flags]) == 1
        err = capsys.readouterr().err
        assert "usage error: unrecognized arguments: " in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flags, key, value",
        [
            ("build", ["--buckets", "3"], "buckets_per_metric", 3),
            ("solve", ["--buckets", "3"], "buckets_per_metric", 3),
            ("solve", ["--max-iters", "7"], "max_iters", 7),
            ("solve", ["--tolerance", "0.001"], "tolerance", 0.001),
            ("query", ["--alpha", "0.4"], "alpha", 0.4),
            ("query", ["--k", "3"], "k", 3),
            ("query", ["--buckets", "2"], "buckets_per_metric", 2),
            ("eval", ["--methods", "bow, netreg"], "methods", ["bow", "netreg"]),
            ("sweep", ["--max-iters", "9"], "max_iters", 9),
            ("synth", ["--seed", "5"], "seed", 5),
            ("synth", ["--topics", "4"], "topic_count", 4),
            ("synth", ["--no-synonym-split"], "synonym_split", False),
        ],
    )
    def test_override_flag_reaches_the_manifest(self, cli_dataset, tmp_path, command, flags, key, value):
        out = tmp_path / "out"
        argv = [command, "--out-dir", str(out), *flags]
        if command != "synth":
            argv += ["--dataset-dir", str(cli_dataset)]
        if command == "query":
            # a batch of two writes the manifest
            reports = (cli_dataset / "reports.jsonl").read_text(encoding="utf-8").splitlines()[:2]
            (tmp_path / "batch.jsonl").write_text("\n".join(reports) + "\n", encoding="utf-8")
            argv += ["--report", str(tmp_path / "batch.jsonl")]
        assert main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        # synth's generator settings are SynthSpec fields, kept under spec
        assert manifest["spec" if command == "synth" else "config"][key] == value

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
