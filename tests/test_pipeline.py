import json

import pytest

from bugloc import evaluation, pipeline
from bugloc.corpus import BugReport
from bugloc.errors import ValidationError

from datetime import datetime, timezone


def _report(rid, hour, files=("src/A.java",)):
    return BugReport(
        id=rid,
        summary="s",
        description="d",
        report_time=datetime(2021, 1, 1, hour, tzinfo=timezone.utc),
        status="resolved",
        fixed_files=tuple(files),
    )


class TestRunConfig:
    def test_from_file_resolves_relative_paths(self, synth_dir):
        cfg_path = synth_dir / "cfg.json"
        cfg_path.write_text(json.dumps({
            "dataset_name": "synthetic",
            "reports": "reports.jsonl",
            "embeddings": "embeddings.txt",
        }), encoding="utf-8")
        cfg = pipeline.RunConfig.from_file(cfg_path)
        assert cfg.reports == str(synth_dir / "reports.jsonl")
        assert cfg.dataset_name == "synthetic"

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="mystery"):
            pipeline.RunConfig.from_dict({"mystery": 1})

    def test_missing_input_path_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="reports"):
            pipeline.RunConfig.from_dict({"reports": str(tmp_path / "nope.jsonl")})

    def test_bad_alpha_rejected(self):
        with pytest.raises(ValidationError, match="alpha"):
            pipeline.RunConfig.from_dict({"alpha": 2.0})

    def test_apply_dataset_dir_finds_conventional_names(self, synth_dir):
        cfg = pipeline.RunConfig()
        cfg.apply_dataset_dir(synth_dir)
        assert cfg.reports == str(synth_dir / "reports.jsonl")
        assert cfg.sources == str(synth_dir / "sources.jsonl")
        assert cfg.metrics == str(synth_dir / "metrics.csv")
        assert cfg.embeddings == str(synth_dir / "embeddings.txt")
        assert cfg.dataset_name == synth_dir.name

    def test_apply_dataset_dir_requires_directory(self, tmp_path):
        cfg = pipeline.RunConfig()
        with pytest.raises(ValidationError, match="dataset dir"):
            cfg.apply_dataset_dir(tmp_path / "missing")

    def test_to_dict_round_trips(self):
        cfg = pipeline.RunConfig(ks=(1, 3), methods=("bow",))
        again = pipeline.RunConfig.from_dict(cfg.to_dict())
        assert again.ks == (1, 3)
        assert again.methods == ("bow",)


class TestSplitReports:
    def test_chronological_cut(self):
        reports = [_report(f"B-{i}", hour=i) for i in range(10)]
        train, queries = pipeline.split_reports(reports, 0.8)
        assert [r.id for r in train] == [f"B-{i}" for i in range(8)]
        assert [r.id for r in queries] == ["B-8", "B-9"]

    def test_fraction_bounds(self):
        with pytest.raises(ValidationError):
            pipeline.split_reports([], 0.0)
        with pytest.raises(ValidationError):
            pipeline.split_reports([], 1.0)

    def test_small_corpus_rounds_down(self):
        reports = [_report(f"B-{i}", hour=i) for i in range(3)]
        train, queries = pipeline.split_reports(reports, 0.5)
        assert len(train) == 1 and len(queries) == 2


class TestFileUniverse:
    def test_inventory_from_sources_and_metrics(self, synth_dir):
        cfg = pipeline.RunConfig()
        cfg.apply_dataset_dir(synth_dir)
        dataset = pipeline.load_dataset(cfg, use_cache=False)
        universe = pipeline.file_universe(dataset)
        assert len(universe) == 24
        assert universe == tuple(sorted(universe))

    def test_falls_back_to_fixed_files(self):
        dataset = pipeline.Dataset(
            name="d",
            reports=[_report("B-1", 0, files=("x.java", "y.java")), _report("B-2", 1, files=("x.java",))],
            report_tokens={},
            source_tokens=None,
            metric_records=[],
            table=None,
        )
        assert pipeline.file_universe(dataset) == ("x.java", "y.java")


class TestDatasetLoadingAndCache:
    def test_cache_round_trip(self, synth_dir, tmp_path):
        cfg = pipeline.RunConfig(out_dir=str(tmp_path))
        cfg.apply_dataset_dir(synth_dir)
        fresh = pipeline.load_dataset(cfg, use_cache=False)
        pipeline.write_corpus_cache(cfg, fresh)
        cached = pipeline.load_dataset(cfg, use_cache=True)
        assert cached.report_tokens == fresh.report_tokens
        assert cached.source_tokens == fresh.source_tokens

    def test_stale_cache_ignored(self, synth_dir, tmp_path):
        cfg = pipeline.RunConfig(out_dir=str(tmp_path))
        cfg.apply_dataset_dir(synth_dir)
        fresh = pipeline.load_dataset(cfg, use_cache=False)
        pipeline.write_corpus_cache(cfg, fresh)
        cache_file = tmp_path / pipeline.CACHE_NAME
        payload = json.loads(cache_file.read_text(encoding="utf-8"))
        payload["key"]["reports_sha256"] = "0" * 64
        payload["report_tokens"] = {rid: ["poisoned"] for rid in payload["report_tokens"]}
        cache_file.write_text(json.dumps(payload), encoding="utf-8")
        reloaded = pipeline.load_dataset(cfg, use_cache=True)
        assert reloaded.report_tokens == fresh.report_tokens

    def test_requires_reports_and_embeddings(self, synth_dir):
        cfg = pipeline.RunConfig(embeddings=str(synth_dir / "embeddings.txt"))
        with pytest.raises(ValidationError, match="reports"):
            pipeline.load_dataset(cfg)
        cfg = pipeline.RunConfig(reports=str(synth_dir / "reports.jsonl"))
        with pytest.raises(ValidationError, match="embeddings"):
            pipeline.load_dataset(cfg)


class TestBuildIndex:
    def test_index_shapes(self, eval_bundle):
        index = eval_bundle.scorer.index
        # resolved_only drops the handful of open reports before the split
        assert len(index.train_reports) + len(index.query_reports) == len(
            eval_bundle.dataset.reports
        )
        assert len(index.universe) == 24
        assert index.network.nodes_of_kind("M")
        assert set(index.fix_links) == {r.id for r in index.train_reports}

    def test_vocabulary_covers_training_reports_only(self, eval_bundle):
        index = eval_bundle.scorer.index
        train_tokens = set()
        for r in index.train_reports:
            train_tokens.update(eval_bundle.dataset.report_tokens[r.id])
        assert set(index.vocab.terms) <= train_tokens

    def test_scorer_with_a_model_builds_no_network(self, eval_bundle, monkeypatch):
        def refuse(*args):
            raise AssertionError("network built")

        monkeypatch.setattr(pipeline, "build_network", refuse)
        scorer = pipeline.prepare_scorer(
            eval_bundle.dataset,
            eval_bundle.cfg,
            model=eval_bundle.scorer.model,
            methods=(evaluation.METHOD_NETREG,),
        )
        assert scorer.netreg_scores(["top00w00a"])

    def test_split_leaves_training_data(self, synth_dir):
        cfg = pipeline.RunConfig(split=0.9)
        cfg.apply_dataset_dir(synth_dir)
        dataset = pipeline.load_dataset(cfg, use_cache=False)
        index = pipeline.build_index(dataset, cfg)
        assert len(index.train_reports) > len(index.query_reports)


class TestEvalContext:
    def test_context_covers_methods_and_queries(self, eval_bundle):
        ctx = eval_bundle.ctx
        assert set(ctx.second_scores) == set(evaluation.ALL_METHODS)
        for method in evaluation.ALL_METHODS:
            assert set(ctx.second_scores[method]) == set(ctx.query_ids)
        for qid in ctx.query_ids:
            assert set(ctx.bow_scores[qid]) == set(eval_bundle.scorer.index.universe)
            assert ctx.relevant[qid]

    def test_bow_second_component_is_zero(self, eval_bundle):
        ctx = eval_bundle.ctx
        qid = ctx.query_ids[0]
        assert set(ctx.second_scores["bow"][qid].values()) == {0.0}

    def test_queries_follow_training_chronologically(self, eval_bundle):
        index = eval_bundle.scorer.index
        last_train = max(r.report_time for r in index.train_reports)
        for r in index.query_reports:
            assert r.report_time >= last_train
