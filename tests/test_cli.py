import ast
import csv
import hashlib
import io
import json
import logging
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bugloc
from bugloc import pipeline, regularizer
from bugloc.cli import main
from recordref import read_dataset, write_dataset
from test_records import DATASET_DAMAGE


def _run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def cli_dataset(tmp_path_factory):
    """Dataset generated through the CLI itself, plus its config file."""
    root = tmp_path_factory.mktemp("cli_dataset")
    assert _run("synth", "--out-dir", str(root), "--seed", "7") == 0
    return root


@pytest.fixture(scope="module")
def seed3(tmp_path_factory):
    """synth --seed 3, ingested and solved into its out/ directory: 24 files."""
    root = tmp_path_factory.mktemp("seed3")
    assert _run("synth", "--out-dir", str(root), "--seed", "3") == 0
    for command in ("ingest", "solve"):
        assert _run(command, "--dataset-dir", str(root), "--out-dir", str(root / "out")) == 0
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
        assert summary["cache"] == str(out / "dataset_cache.bin")
        assert sorted(path.name for path in out.iterdir()) == ["dataset_cache.bin", "manifest.json"]

    def test_solve_writes_the_same_model_with_and_without_the_cache(self, cli_dataset, tmp_path):
        out = tmp_path / "out"
        args = ("--dataset-dir", str(cli_dataset), "--out-dir", str(out))
        assert _run("ingest", *args) == 0
        assert _run("solve", *args) == 0
        with_cache = [(out / name).read_bytes() for name in ("model.tsv", "model.tsv.bin")]
        (out / "dataset_cache.bin").unlink()
        assert _run("solve", *args) == 0
        assert [(out / name).read_bytes() for name in ("model.tsv", "model.tsv.bin")] == with_cache

    @pytest.mark.parametrize(
        "damage",
        [
            lambda header, records: (
                header,
                {**records, "report_token_ids": np.full_like(records["report_token_ids"], header["terms"])},
            ),
            lambda header, records: (np.frombuffer(b"[" * 100_000, dtype=np.uint8), records),
            DATASET_DAMAGE["repeated-report-id"],
        ],
        ids=["token-id-outside-the-dictionary", "too-deep", "repeated-report-id"],
    )
    def test_solve_over_a_damaged_cache_writes_the_uncached_model(
        self, cli_dataset, tmp_path, damage
    ):
        out = tmp_path / "out"
        args = ("--dataset-dir", str(cli_dataset), "--out-dir", str(out))
        assert _run("solve", *args) == 0
        uncached = (out / "model.tsv").read_bytes()
        assert _run("ingest", *args) == 0
        cache = out / "dataset_cache.bin"
        write_dataset(cache, *damage(*read_dataset(cache)))
        assert _run("solve", *args) == 0
        assert (out / "model.tsv").read_bytes() == uncached

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
        assert len(rows) == 1 + manifest["network"]["edges"]
        # build prints each diagnostic it records, in order, then where it wrote
        *diagnostic_lines, wrote = printed.splitlines()
        assert wrote == f"wrote {out / 'network.csv'}"
        recorded = manifest["network"]["diagnostics"]
        assert diagnostic_lines == [f"{d['severity']}: {d['code']}: {d['message']}" for d in recorded]


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

    def test_eval_with_a_model_over_a_report_id_holding_cr_matches_fresh_eval(
        self, cli_dataset, tmp_path
    ):
        data = tmp_path / "data"
        data.mkdir()
        for name in ("sources.jsonl", "metrics.csv", "embeddings.txt"):
            (data / name).write_bytes((cli_dataset / name).read_bytes())
        lines = (cli_dataset / "reports.jsonl").read_text(encoding="utf-8").splitlines()
        report = json.loads(lines[3])
        report["id"] = "SYN\r0003"
        lines[3] = json.dumps(report)
        (data / "reports.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        solved = tmp_path / "solved"
        assert _run("solve", "--dataset-dir", str(data), "--out-dir", str(solved)) == 0
        assert b"\tSYN\r0003\t" in (solved / "model.tsv").read_bytes()
        from_model, fresh = tmp_path / "eval_model", tmp_path / "eval_fresh"
        assert _run("eval", "--dataset-dir", str(data), "--out-dir", str(from_model),
                    "--model", str(solved / "model.tsv")) == 0
        assert _run("eval", "--dataset-dir", str(data), "--out-dir", str(fresh)) == 0
        for name in ("results.csv", "ttests.csv", "sweep.csv"):
            assert (from_model / name).read_bytes() == (fresh / name).read_bytes()

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

    @pytest.mark.parametrize("change", ["moved_fix", "token_count", "metric_bucket"])
    def test_model_solved_over_another_network_rejected(self, seed3, tmp_path, capsys, change):
        # the same ids, terms, files and buckets as the model's, other edges among them
        data = tmp_path / "data"
        data.mkdir()
        for name in ("reports.jsonl", "sources.jsonl", "metrics.csv", "embeddings.txt"):
            shutil.copy(seed3 / name, data / name)
        lines = (data / "reports.jsonl").read_text(encoding="utf-8").splitlines()
        first = json.loads(lines[0])  # the earliest report, which trains
        if change == "moved_fix":
            assert "src/topic00/File00.java" not in first["fixed_files"]
            first["fixed_files"][0] = "src/topic00/File00.java"
        elif change == "token_count":
            first["description"] += " " + first["summary"].split()[0]
        else:
            text = (data / "metrics.csv").read_text(encoding="utf-8")
            line = next(row for row in text.splitlines() if row.startswith("src/topic00/File00.java,lines,"))
            text = text.replace(line, "src/topic00/File00.java,lines,1000000.0")
            (data / "metrics.csv").write_text(text, encoding="utf-8")
        lines[0] = json.dumps(first)
        (data / "reports.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        capsys.readouterr()
        assert _run("eval", "--dataset-dir", str(data), "--out-dir", str(out),
                    "--model", str(seed3 / "out" / "model.tsv")) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: the model was solved over another network: its fix links, report text or "
            "metric buckets differ from the dataset's under the current settings\n"
        )
        assert not out.exists()

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
        self, cli_dataset, tmp_path, capsys, monkeypatch, bad_id
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("dataset loaded before the report ids were checked")

        monkeypatch.setattr(pipeline, "load_dataset", refuse)
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
        # a bare "\r" must be quoted too: a CSV reader takes it as a line end
        for case, odd in enumerate(['src/topic00/File,00 "v2".java', "src/topic00/File\r00.java"]):
            data = tmp_path / f"data{case}"
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
            rows = list(csv.reader(io.StringIO(capsys.readouterr().out, newline="")))
            assert rows[0] == ["rank", "path", "score"]
            assert all(len(row) == 3 for row in rows)
            assert [row[0] for row in rows[1:]] == [str(i) for i in range(1, len(rows))]
            assert odd in {row[1] for row in rows[1:]}

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["eval", "query"])
    def test_model_holding_a_value_that_is_not_finite_rejected(
        self, cli_dataset, cli_model, tmp_path, capsys, command, value
    ):
        # solve never writes one; a free row with it would change the rankings silently
        model = regularizer.load_model(cli_model)
        model.matrix[model.nodes.rows("S").start, 0] = float(value)
        path = tmp_path / "model.tsv"
        regularizer.dump_model(model, path)
        argv = [command, "--dataset-dir", str(cli_dataset), "--out-dir", str(tmp_path / "out"),
                "--model", str(path)]
        if command == "query":
            report = (cli_dataset / "reports.jsonl").read_text(encoding="utf-8").splitlines()[0]
            (tmp_path / "bug.json").write_text(report, encoding="utf-8")
            argv += ["--report", str(tmp_path / "bug.json")]
        capsys.readouterr()
        assert _run(*argv) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {path}.bin: missing, damaged or not the record of {path}; solve again\n"
        )
        assert captured.out == "" and not (tmp_path / "out").exists()

    def test_all_oov_query_ranks_the_universe_in_path_order_at_zero(
        self, seed3, tmp_path, capsys, caplog
    ):
        report = {
            "id": "Q-1", "summary": "qqqzzz", "description": "xxjjvv wwkkpp",
            "report_time": "2022-01-01T00:00:00Z", "status": "open", "fixed_files": [],
        }
        (tmp_path / "bug.json").write_text(json.dumps(report), encoding="utf-8")
        capsys.readouterr()
        with caplog.at_level(logging.WARNING):
            assert _run("query", "--dataset-dir", str(seed3), "--out-dir", str(seed3 / "out"),
                        "--report", str(tmp_path / "bug.json"),
                        "--model", str(seed3 / "out" / "model.tsv")) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))[1:]
        universe = sorted(
            json.loads(line)["path"]
            for line in (seed3 / "sources.jsonl").read_text(encoding="utf-8").splitlines()
        )
        assert [row[1] for row in rows] == universe[:10]
        assert {row[2] for row in rows} == {"0.00000000"}
        warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
        assert warnings == ["1 queries embed to the zero vector; all their file scores are 0"]

    @pytest.mark.parametrize("model", [False, True])
    def test_k_beyond_the_universe_writes_the_whole_universe(self, seed3, tmp_path, capsys, model):
        report = (seed3 / "reports.jsonl").read_text(encoding="utf-8").splitlines()[0]
        (tmp_path / "bug.json").write_text(report, encoding="utf-8")
        argv = ["query", "--dataset-dir", str(seed3), "--out-dir", str(seed3 / "out"),
                "--report", str(tmp_path / "bug.json"), "--k", "1000"]
        if model:
            argv += ["--model", str(seed3 / "out" / "model.tsv")]
        capsys.readouterr()
        assert _run(*argv) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))[1:]
        assert [row[0] for row in rows] == [str(rank) for rank in range(1, 25)]
        assert len({row[1] for row in rows}) == 24

    def test_pretty_printed_report_ranks_as_its_one_line_form(self, seed3, tmp_path, capsys):
        # the README's single-report file: one JSON object, here over several lines
        line = (seed3 / "reports.jsonl").read_text(encoding="utf-8").splitlines()[0]
        (tmp_path / "line.json").write_text(line, encoding="utf-8")
        pretty = json.dumps(json.loads(line), indent=2)
        (tmp_path / "pretty.json").write_text(pretty + "\n", encoding="utf-8")
        rankings = []
        for name in ("line.json", "pretty.json"):
            capsys.readouterr()
            assert _run("query", "--dataset-dir", str(seed3), "--out-dir", str(seed3 / "out"),
                        "--report", str(tmp_path / name),
                        "--model", str(seed3 / "out" / "model.tsv")) == 0
            rankings.append(capsys.readouterr().out)
        assert rankings[0] == rankings[1] and len(rankings[0].splitlines()) == 11

    @pytest.mark.parametrize(
        "texts, shown",
        [
            # one object over several lines goes through the per-report checks
            ([json.dumps({"id": "Q-1", "summary": "crash"}, indent=2)], ": missing key "),
            # two of them are neither one object nor JSONL
            ([json.dumps({"id": "Q-1"}, indent=2)] * 2, ": line 1: invalid JSON: "),
            ([], " holds no reports"),
            # too deep for the decoder as one text and as a line
            (["[" * 100_000], ": line 1: JSON nested too deep to decode"),
        ],
    )
    def test_bad_report_file_is_rejected_naming_the_file(
        self, seed3, tmp_path, capsys, monkeypatch, texts, shown
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("dataset loaded before the report file was checked")

        monkeypatch.setattr(pipeline, "load_dataset", refuse)
        path = tmp_path / "bug.json"
        path.write_text("".join(text + "\n" for text in texts), encoding="utf-8")
        capsys.readouterr()
        assert _run("query", "--dataset-dir", str(seed3), "--out-dir", str(seed3 / "out"),
                    "--report", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}{shown}") and err.count("\n") == 1, err

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


_WORDS = ("alpha", "beta", "gamma", "delta", "crash", "widget")
_TOPICS = ("alpha crash", "beta widget", "gamma delta")


def _bug(day, text, files, rid=None):
    return {
        "id": rid or f"B-{day}", "summary": text, "description": "",
        "report_time": f"2021-01-{day:02d}T00:00:00Z", "status": "resolved",
        "fixed_files": files,
    }


def _write_dataset(root, reports, sources=None, metrics=None):
    """A hand-built dataset: the reports, the (path, content) sources and
    (path, metric, value) metrics when given, and a 2-d embedding of _WORDS."""
    root.mkdir(parents=True)
    lines = {
        "reports.jsonl": [json.dumps(r, ensure_ascii=False) for r in reports],
        "sources.jsonl": sources and [
            json.dumps({"path": p, "content": c}, ensure_ascii=False) for p, c in sources
        ],
        "metrics.csv": metrics and ["path,metric,value", *(f"{p},{m},{v}" for p, m, v in metrics)],
        "embeddings.txt": [f"{len(_WORDS)} 2"] + [
            f"{word} {i + 1}.0 {len(_WORDS) - i}.0" for i, word in enumerate(_WORDS)
        ],
    }
    for name, listed in lines.items():
        if listed is not None:
            (root / name).write_text("".join(line + "\n" for line in listed), encoding="utf-8")
    return root


def _csv_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


class TestDegenerateInputs:
    """Inputs at the edge of what a run can use, each with a documented result."""

    _FILES = ("src/A.java", "src/B.java", "src/C.java")

    def test_empty_training_vocabulary(self, tmp_path, capsys, caplog):
        # every training text is stopwords, so T is empty, every component
        # lacks a term and every score is 0: each method ranks the universe
        # in path order, where the queries' fixes sit at ranks 2 and 3
        reports = [_bug(day, "the and of", [self._FILES[day % 3]]) for day in range(1, 9)]
        reports += [_bug(9, "crash widget", ["src/B.java"]), _bug(10, "alpha", ["src/C.java"])]
        data = _write_dataset(
            tmp_path / "data", reports, [(path, "alpha beta gamma") for path in self._FILES],
            [(path, "lines", i) for i, path in enumerate(self._FILES)],
        )
        args = ("--dataset-dir", str(data), "--out-dir", str(tmp_path / "out"))
        capsys.readouterr()
        assert _run("build", "--dataset-dir", str(data), "--out-dir", str(tmp_path / "net")) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:4] == [
            f"warning: isolated-component: component of {size} nodes (e.g. B:{rid}) "
            "has no path to any T node"
            for size, rid in ((5, "B-1"), (5, "B-2"), (4, "B-3"))
        ] + ["info: counts: nodes B=8 T=0 S=3 M=3; edges B-S=8 M-S=3"]
        assert _run("eval", *args) == 0
        assert [line.split(",")[-2] for line in _csv_lines(tmp_path / "out" / "results.csv")[1:]] == [
            "0.000000", "0.416667", "0.416667"
        ] * 3
        ttests = _csv_lines(tmp_path / "out" / "ttests.csv")[1:]
        assert len(ttests) == 9
        assert {tuple(row.split(",")[-3:]) for row in ttests} == {("nan", "0", "1")}
        (tmp_path / "bug.json").write_text(json.dumps(reports[-1]), encoding="utf-8")
        caplog.clear()
        capsys.readouterr()
        with caplog.at_level(logging.WARNING):
            assert _run("query", *args, "--report", str(tmp_path / "bug.json")) == 0
        assert capsys.readouterr().out.splitlines() == ["rank,path,score"] + [
            f"{rank},{path},0.00000000" for rank, path in enumerate(self._FILES, 1)
        ]
        warnings = [r.getMessage() for r in caplog.records if r.name == "bugloc.ranker"]
        assert warnings == ["1 queries embed to the zero vector; all their file scores are 0"]

    def test_one_file_universe(self, tmp_path, capsys):
        reports = [_bug(day, _TOPICS[day % 3], ["src/A.java"]) for day in range(1, 11)]
        data = _write_dataset(
            tmp_path / "data", reports, [("src/A.java", "alpha beta")], [("src/A.java", "lines", 3)]
        )
        args = ("--dataset-dir", str(data), "--out-dir", str(tmp_path / "out"))
        assert _run("eval", *args) == 0
        for name in ("results.csv", "sweep.csv"):
            assert {row["map"] for row in _read_rows(tmp_path / "out" / name)} == {"1.000000"}
        ttests = _csv_lines(tmp_path / "out" / "ttests.csv")[1:]
        assert len(ttests) == 9
        assert {tuple(row.split(",")[-3:]) for row in ttests} == {("nan", "0", "1")}
        (tmp_path / "bug.json").write_text(json.dumps(reports[-1]), encoding="utf-8")
        capsys.readouterr()
        assert _run("query", *args, "--report", str(tmp_path / "bug.json")) == 0
        # a constant score row min-maxes to 0
        assert capsys.readouterr().out == "rank,path,score\n1,src/A.java,0.00000000\n"

    def test_no_sources_and_no_metrics(self, tmp_path, capsys):
        reports = [_bug(day, _TOPICS[day % 3], [self._FILES[day % 3]]) for day in range(1, 11)]
        data = _write_dataset(tmp_path / "data", reports)
        args = ("--dataset-dir", str(data), "--out-dir", str(tmp_path / "out"))
        capsys.readouterr()
        assert _run("eval", *args) == 1
        assert capsys.readouterr().err == (
            "error: the embedding method needs source docs, none configured\n"
        )
        # the universe is the fixed files, and no record reaches discretize
        assert _run("eval", *args, "--methods", "bow,netreg") == 0
        rows = _read_rows(tmp_path / "out" / "results.csv")
        assert [(row["method"], row["k"], row["map"]) for row in rows] == [
            (method, k, "1.000000") for method in ("bow", "netreg") for k in ("1", "5", "10")
        ]
        ttests = _csv_lines(tmp_path / "out" / "ttests.csv")[1:]
        assert {tuple(row.split(",")[-3:]) for row in ttests} == {("nan", "0", "1")}

    def test_unicode_ids_and_paths_in_a_batch_query_with_a_model(self, tmp_path, capsys):
        files = ("src/日本.java", "src/b c.java", "src/A.java")
        reports = [
            _bug(day, _TOPICS[day % 3], [files[day % 3]], rid=f"Ř-{day}") for day in range(1, 13)
        ]
        data = _write_dataset(
            tmp_path / "data", reports, list(zip(files, _TOPICS)),
            [(path, "lines", i) for i, path in enumerate(files)],
        )
        out = tmp_path / "out"
        args = ("--dataset-dir", str(data), "--out-dir", str(out))
        assert _run("solve", *args) == 0
        batch = tmp_path / "batch.jsonl"
        batch.write_text(
            "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in reports[-2:]), encoding="utf-8"
        )
        assert _run("query", *args, "--report", str(batch), "--model", str(out / "model.tsv")) == 0
        assert _csv_lines(out / "query_Ř-11.csv") == [
            "rank,path,score", "1,src/A.java,1.00000000", "2,src/b c.java,0.00000000",
            "3,src/日本.java,0.00000000",
        ]
        assert _csv_lines(out / "query_Ř-12.csv")[1].split(",")[1] == "src/日本.java"


    @pytest.mark.parametrize("where", ["report id", "source path", "query id"])
    def test_lone_surrogate_in_an_id_or_path_is_an_error(self, tmp_path, capsys, where):
        # a JSON escape can name one, but no UTF-8 output can hold it
        reports = [_bug(day, _TOPICS[day % 3], [self._FILES[day % 3]]) for day in range(1, 11)]
        sources = [(path, "alpha beta") for path in self._FILES]
        data = _write_dataset(tmp_path / "data", reports, sources)
        batch = tmp_path / "batch.jsonl"
        queries = [dict(reports[-1], id="Q-1"), dict(reports[-1], id="Q-2")]
        if where == "report id":
            reports[4]["id"] = "B-\ud800"
            bad, line, shown = data / "reports.jsonl", 5, "id 'B-\\ud800'"
        elif where == "source path":
            sources.append(("src/\udcffD.java", "gamma"))
            bad, line, shown = data / "sources.jsonl", 4, "path 'src/\\udcffD.java'"
        else:
            queries[1]["id"] = "Q-\ud800"
            bad, line, shown = batch, 2, "id 'Q-\\ud800'"
        # JSON escapes keep the surrogate through a UTF-8 file
        for path, records in (
            (data / "reports.jsonl", reports),
            (data / "sources.jsonl", [{"path": p, "content": c} for p, c in sources]),
            (batch, queries),
        ):
            path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        args = ("--dataset-dir", str(data), "--out-dir", str(tmp_path / "out"))
        commands = [("query", *args, "--report", str(batch))]
        if where != "query id":
            commands = [("build", *args), ("solve", *args), *commands]
        for argv in commands:
            capsys.readouterr()
            assert _run(*argv) == 1
            shown_line = f"error: {bad}: line {line}: {shown} holds a lone surrogate\n"
            assert capsys.readouterr().err == shown_line
        assert not (tmp_path / "out").exists()


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


def test_no_package_module_imports_scipy():
    # scipy is a test dependency only; a lazy import inside a function counts too
    found = []
    for path in sorted(Path(bugloc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names if name.split(".")[0] == "scipy"]
    assert found == []


def test_cli_import_leaves_scipy_unloaded():
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


def _scipy_modules_after(argv) -> set[str]:
    """The scipy modules loaded after main(argv) exits 0 in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(bugloc.__file__).parent.parent))
    probe = (
        "import sys; from bugloc.cli import main; "
        f"assert main({argv!r}) == 0; "
        "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return set(out.stdout.splitlines()[-1].split()) if out.stdout.strip() else set()


@pytest.fixture(scope="module")
def cli_model(cli_dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_model")
    assert _run("solve", "--dataset-dir", str(cli_dataset), "--out-dir", str(out)) == 0
    return out / "model.tsv"


@pytest.mark.parametrize("command", ["eval", "sweep", "query"])
def test_commands_with_a_model_leave_scipy_unloaded(cli_dataset, cli_model, tmp_path, command):
    # ranking and the t-test run on numpy alone
    argv = [command, "--dataset-dir", str(cli_dataset), "--out-dir", str(tmp_path),
            "--model", str(cli_model)]
    if command == "query":
        report = (cli_dataset / "reports.jsonl").read_text(encoding="utf-8").splitlines()[0]
        (tmp_path / "bug.json").write_text(report, encoding="utf-8")
        argv += ["--report", str(tmp_path / "bug.json")]
    assert _scipy_modules_after(argv) == set()


def test_build_leaves_scipy_unloaded(cli_dataset, tmp_path):
    # the network, its diagnostics and its edge dump run on numpy alone
    argv = ["build", "--dataset-dir", str(cli_dataset), "--out-dir", str(tmp_path)]
    assert _scipy_modules_after(argv) == set()
    assert (tmp_path / "network.csv").exists()


@pytest.mark.parametrize("command", ["solve", "eval", "sweep", "query"])
def test_commands_that_solve_leave_scipy_unloaded(cli_dataset, tmp_path, command):
    # the solver's products run on numpy alone
    argv = [command, "--dataset-dir", str(cli_dataset), "--out-dir", str(tmp_path)]
    if command == "query":
        report = (cli_dataset / "reports.jsonl").read_text(encoding="utf-8").splitlines()[0]
        (tmp_path / "bug.json").write_text(report, encoding="utf-8")
        argv += ["--report", str(tmp_path / "bug.json")]
    assert _scipy_modules_after(argv) == set()


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

    @pytest.mark.parametrize("name", ["reports.jsonl", "sources.jsonl"])
    def test_input_nested_too_deep_is_a_parse_error(self, cli_dataset, tmp_path, capsys, name):
        data = tmp_path / "data"
        shutil.copytree(cli_dataset, data)
        (data / name).write_text("[" * 100_000 + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["ingest", "--dataset-dir", str(data), "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {data / name}: line 1: JSON nested too deep to decode\n"

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
            (["--methods", ""], None, "methods must name at least one of ('bow', 'embedding', 'netreg')"),
            (["--methods", ","], None, "methods must name at least one of ('bow', 'embedding', 'netreg')"),
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

    def test_unreadable_input_is_a_validation_error(self, tmp_path, capsys):
        reports_dir = tmp_path / "reports.jsonl"
        reports_dir.mkdir()
        cfg = {
            "reports": str(reports_dir),
            "embeddings": str(tmp_path / "embeddings.txt"),
        }
        (tmp_path / "embeddings.txt").write_text("1 1\nx 0.5\n", encoding="utf-8")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["eval", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot read file {reports_dir}: [Errno 21] Is a directory: '{reports_dir}'\n"

    @pytest.mark.parametrize(
        "kind", ["missing", "directory", "text_missing", "not_utf8", "record_aside"]
    )
    def test_model_that_cannot_be_read_is_a_validation_error(self, seed3, tmp_path, capsys, kind):
        model = tmp_path / "model.tsv"
        refused = f"{model}.bin: missing, damaged or not the record of {model}; solve again"
        if kind == "missing":
            refused = f"cannot read model {model}: [Errno 2] No such file or directory: '{model}'"
        elif kind == "directory":
            model.mkdir()
            refused = f"cannot read model {model}: [Errno 21] Is a directory: '{model}'"
        elif kind == "text_missing":
            # an intact record whose text is gone: the text is named, since it keys the record
            shutil.copy(seed3 / "out" / "model.tsv.bin", f"{model}.bin")
            refused = f"cannot read model {model}: [Errno 2] No such file or directory: '{model}'"
        elif kind == "not_utf8":
            model.write_bytes(b"\xff\xfe\n")
        else:
            shutil.copy(seed3 / "out" / "model.tsv", model)
        capsys.readouterr()
        assert main(["eval", "--dataset-dir", str(seed3), "--out-dir", str(tmp_path / "out"),
                     "--model", str(model)]) == 1
        assert capsys.readouterr().err == f"error: {refused}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["eval", "query"])
    def test_model_is_loaded_before_the_dataset(self, seed3, tmp_path, capsys, monkeypatch, command):
        # a model without its record fails at once, not after the dataset load
        def refuse(*args, **kwargs):
            raise AssertionError("the dataset was loaded before the model")

        monkeypatch.setattr(pipeline, "load_dataset", refuse)
        model = tmp_path / "model.tsv"
        shutil.copy(seed3 / "out" / "model.tsv", model)
        argv = [command, "--dataset-dir", str(seed3), "--out-dir", str(tmp_path / "out"),
                "--model", str(model)]
        if command == "query":
            report = (seed3 / "reports.jsonl").read_text(encoding="utf-8").splitlines()[0]
            (tmp_path / "bug.json").write_text(report, encoding="utf-8")
            argv += ["--report", str(tmp_path / "bug.json")]
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {model}.bin: missing, damaged or not the record of {model}; solve again\n"
        )

    def test_missing_report_file_is_a_validation_error(self, seed3, tmp_path, capsys):
        report = tmp_path / "missing.jsonl"
        capsys.readouterr()
        assert main(["query", "--dataset-dir", str(seed3), "--out-dir", str(tmp_path / "out"),
                     "--report", str(report)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot read file {report}: [Errno 2] No such file or directory: '{report}'\n"

    @pytest.mark.parametrize("route", ["config", "dataset_dir"])
    def test_dataset_name_that_is_not_valid_unicode_is_a_validation_error(
        self, seed3, tmp_path, capsys, route
    ):
        argv = ["eval", "--out-dir", str(tmp_path / "out"), "--methods", "bow"]
        if route == "config":
            (tmp_path / "cfg.json").write_text(json.dumps({"dataset_name": "x\ud800"}), encoding="utf-8")
            argv += ["--config", str(tmp_path / "cfg.json"), "--dataset-dir", str(seed3)]
            name = "x\ud800"
        else:
            # a directory name holding the byte 0xff, which Python reads as "\udcff"
            data = tmp_path / os.fsdecode(b"data\xff")
            data.mkdir()
            for base in ("reports.jsonl", "sources.jsonl", "metrics.csv", "embeddings.txt"):
                shutil.copy(seed3 / base, data / base)
            argv += ["--dataset-dir", str(data)]
            name = "data\udcff"
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: config key 'dataset_name' must be valid Unicode, got {name!r}\n"
        assert not (tmp_path / "out").exists()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "bugloc" in capsys.readouterr().out
