import dataclasses
import hashlib
import json
import logging
import re
import shutil
from collections import Counter
from itertools import compress
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from bugloc import corpus, evaluation, pipeline, ranker
from bugloc.corpus import BugReport, load_bug_reports, tfidf_rows
from bugloc.embeddings import EmbeddingTable, embed_tokens
from bugloc.errors import ParseError, ValidationError
from linkref import bow_links, ground_truth
from recordref import read_dataset, write_dataset, write_raw
from sparseref import from_scipy, to_scipy
from tables import make_table
from test_records import assert_same_dataset

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


def test_sha256_file_hashes_once_and_sees_a_rewrite(tmp_path):
    path = tmp_path / "input.txt"
    path.write_text("one", encoding="utf-8")
    first = pipeline.sha256_file(path)
    hits = pipeline._sha256_file.cache_info().hits
    assert pipeline.sha256_file(path) == first == hashlib.sha256(b"one").hexdigest()
    assert pipeline._sha256_file.cache_info().hits == hits + 1
    path.write_text("three", encoding="utf-8")
    assert pipeline.sha256_file(path) == hashlib.sha256(b"three").hexdigest()


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

    def test_config_nested_too_deep_rejected(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("[" * 100_000, encoding="utf-8")
        with pytest.raises(ValidationError, match="cannot read config .*: maximum recursion depth"):
            pipeline.RunConfig.from_file(cfg_path)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="mystery"):
            pipeline.RunConfig.from_dict({"mystery": 1})
        # a removed key is unknown too, not silently ignored
        with pytest.raises(ValidationError, match="track_energy"):
            pipeline.RunConfig.from_dict({"track_energy": True})

    def test_wrongly_typed_value_rejected(self):
        for raw, shown in [
            ({"alpha": "0.5"}, "'alpha' must be float, got '0.5'"),
            ({"k": True}, "'k' must be int"),
            ({"k": 2.5}, "'k' must be int"),
            ({"ks": [1, "5"]}, r"'ks' must be tuple\[int, ...\]"),
            ({"methods": "bow"}, r"'methods' must be tuple\[str, ...\]"),
            ({"reports": 5}, r"'reports' must be str \| None"),
            ({"stem": 1}, "'stem' must be bool"),
        ]:
            with pytest.raises(ValidationError, match=shown):
                pipeline.RunConfig.from_dict(raw)

    def test_int_accepted_where_a_float_is_expected(self):
        cfg = pipeline.RunConfig.from_dict({"alpha": 1, "alpha_grid": [0, 0.5, 1], "reports": None})
        assert cfg.alpha == 1.0 and cfg.alpha_grid == (0, 0.5, 1)

    def test_missing_input_path_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="reports"):
            pipeline.RunConfig.from_dict({"reports": str(tmp_path / "nope.jsonl")})

    def test_bad_alpha_rejected(self):
        with pytest.raises(ValidationError, match="alpha"):
            pipeline.RunConfig.from_dict({"alpha": 2.0})

    @pytest.mark.parametrize(
        "raw, shown",
        [
            ({"methods": ["foo"]}, r"unknown methods \['foo'\]"),
            ({"methods": []}, "methods must name at least one of"),
            ({"ks": [5, 1]}, "ks must be ascending"),
            ({"ks": [0, 1]}, "ks must be ascending"),
            ({"alpha_grid": [0.5, 1.5]}, "alpha_grid values"),
            ({"alpha_grid": [1.0, 0.5]}, "alpha_grid must be strictly ascending"),
            ({"split": 1.0}, "split must lie"),
            ({"max_iters": 0}, "max_iters"),
            ({"tolerance": 0.0}, "tolerance"),
            ({"methods": ["bow", "netreg", "bow"]}, r"methods must not repeat, got \['bow'\]"),
            ({"tolerance": float("nan")}, "tolerance must be positive and finite, got nan"),
            ({"tolerance": float("inf")}, "tolerance must be positive and finite, got inf"),
        ],
    )
    def test_bad_evaluation_and_solver_settings_rejected_on_validate(self, raw, shown):
        with pytest.raises(ValidationError, match=shown):
            pipeline.RunConfig.from_dict(raw)
        cfg = pipeline.RunConfig()
        for key, value in raw.items():
            setattr(cfg, key, tuple(value) if isinstance(value, list) else value)
        with pytest.raises(ValidationError, match=shown):
            cfg.validate()

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
        train, queries = pipeline.split_reports([f"B-{i}" for i in range(10)], 0.8)
        assert train == [f"B-{i}" for i in range(8)]
        assert queries == ["B-8", "B-9"]

    def test_fraction_bounds(self):
        with pytest.raises(ValidationError):
            pipeline.split_reports([], 0.0)
        with pytest.raises(ValidationError):
            pipeline.split_reports([], 1.0)

    def test_small_corpus_rounds_down(self):
        train, queries = pipeline.split_reports([f"B-{i}" for i in range(3)], 0.5)
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
        reports = [_report("B-1", 0, files=("y.java", "x.java")), _report("B-2", 1, files=("x.java",))]
        dataset = pipeline.Dataset.of("d", reports, [[], []], None, [], make_table(1, {"a": [1.0]}))
        assert pipeline.file_universe(dataset) == ("x.java", "y.java")


class TestDatasetLoadingAndCache:
    def test_cache_round_trip(self, synth_dir, tmp_path):
        cfg, fresh = _cached(synth_dir, tmp_path)
        assert_same_dataset(pipeline.load_dataset(cfg, use_cache=True), fresh)

    def test_stale_cache_ignored(self, synth_dir, tmp_path):
        cfg, fresh = _cached(synth_dir, tmp_path)
        cache_file = tmp_path / pipeline.CACHE_NAME
        header, records = read_dataset(cache_file)
        header["key"]["inputs"]["reports"] = "0" * 64
        records["report_token_ids"] = np.zeros_like(records["report_token_ids"])
        write_dataset(cache_file, header, records)
        assert_same_dataset(pipeline.load_dataset(cfg, use_cache=True), fresh)

    @pytest.mark.parametrize("cached, use_cache", [(True, True), (False, True), (False, False)],
                             ids=["hit", "miss", "not-asked"])
    def test_a_cache_not_used_is_logged_naming_it(self, synth_dir, tmp_path, caplog, cached, use_cache):
        cfg = pipeline.RunConfig(out_dir=str(tmp_path))
        cfg.apply_dataset_dir(synth_dir)
        if cached:
            pipeline.write_dataset_cache(cfg, pipeline.load_dataset(cfg, use_cache=False))
        with caplog.at_level(logging.INFO, logger="bugloc.pipeline"):
            pipeline.load_dataset(cfg, use_cache=use_cache)
        logged = [record.getMessage() for record in caplog.records if record.name == "bugloc.pipeline"]
        missed = [f"not using {tmp_path / pipeline.CACHE_NAME}; reading the inputs"]
        assert logged == (missed if use_cache and not cached else [])

    def test_cache_hit_tokenizes_nothing(self, synth_dir, tmp_path, monkeypatch):
        cfg = pipeline.RunConfig(out_dir=str(tmp_path))
        cfg.apply_dataset_dir(synth_dir)
        fresh = pipeline.load_dataset(cfg, use_cache=False)
        # the first report's tokens, the first metric record and the first
        # embedding row changed, so that only the cache can give them
        rows = [-1, *range(1, len(fresh.report_ids))]
        matrix = fresh.table.matrix.copy()
        matrix[0] += 1.0
        changed = dataclasses.replace(
            fresh,
            report_tokens=fresh.report_tokens.take(rows),
            metric_records=[
                dataclasses.replace(fresh.metric_records[0], value=-1.0), *fresh.metric_records[1:]
            ],
            table=EmbeddingTable(fresh.table.tokens, matrix),
        )
        pipeline.write_dataset_cache(cfg, changed)

        def refuse(*args, **kwargs):
            raise AssertionError("an input parsed or tokenized on a cache hit")

        for module, name in [
            ("corpus", "tokenize"), ("corpus", "load_bug_reports"), ("corpus", "load_source_docs"),
            ("metrics", "load_metrics"), ("embeddings", "load_embeddings"),
        ]:
            monkeypatch.setattr(pipeline, name, refuse)
            monkeypatch.setattr(f"bugloc.{module}.{name}", refuse)
        reloaded = pipeline.load_dataset(cfg, use_cache=True)
        assert_same_dataset(reloaded, changed)
        assert reloaded.report_tokens != fresh.report_tokens and reloaded.metric_records != fresh.metric_records

    @pytest.mark.parametrize("name", ["metrics", "embeddings", "stopwords_file"])
    def test_an_input_changed_after_the_cache_is_one_logged_miss(self, synth_dir, tmp_path, caplog, name):
        data = tmp_path / "data"
        shutil.copytree(synth_dir, data)
        (data / "stopwords.txt").write_text("the\n", encoding="utf-8")
        cfg = pipeline.RunConfig(out_dir=str(tmp_path / "out"), stopwords_file=str(data / "stopwords.txt"))
        cfg.apply_dataset_dir(data)
        before = pipeline.load_dataset(cfg, use_cache=False)
        pipeline.write_dataset_cache(cfg, before)
        path = Path(getattr(cfg, name))
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        if name == "metrics":
            # the first record's value changed
            file, metric, value = lines[1].rstrip("\n").split(",")
            lines[1] = f"{file},{metric},{-float(value) - 1.0}\n"
        elif name == "embeddings":
            token, first, *rest = lines[1].split()
            lines[1] = " ".join([token, repr(float(first) + 1.0), *rest]) + "\n"
        else:
            # the first term of the first report a stop word
            lines.append(before.terms[before.report_tokens.ids[0]] + "\n")
        path.write_text("".join(lines), encoding="utf-8")
        with caplog.at_level(logging.INFO, logger="bugloc.pipeline"):
            loaded = pipeline.load_dataset(cfg)
        logged = [record.getMessage() for record in caplog.records if record.name == "bugloc.pipeline"]
        assert logged == [f"not using {tmp_path / 'out' / pipeline.CACHE_NAME}; reading the inputs"]
        fresh = pipeline.load_dataset(cfg, use_cache=False)
        assert_same_dataset(loaded, fresh)
        with pytest.raises(AssertionError):
            assert_same_dataset(loaded, before)

    def test_a_cache_under_another_builtin_stopword_list_is_one_logged_miss(
        self, synth_dir, tmp_path, caplog, monkeypatch
    ):
        cfg = pipeline.RunConfig(out_dir=str(tmp_path))
        cfg.apply_dataset_dir(synth_dir)
        before = pipeline.load_dataset(cfg, use_cache=False)
        pipeline.write_dataset_cache(cfg, before)
        # the first term of the first report joins the built-in list
        term = before.terms[before.report_tokens.ids[0]]
        builtin = corpus.default_stopwords()
        monkeypatch.setattr(corpus, "default_stopwords", lambda: builtin | {term})
        with caplog.at_level(logging.INFO, logger="bugloc.pipeline"):
            loaded = pipeline.load_dataset(cfg)
        logged = [record.getMessage() for record in caplog.records if record.name == "bugloc.pipeline"]
        assert logged == [f"not using {tmp_path / pipeline.CACHE_NAME}; reading the inputs"]
        assert term in before.terms and term not in loaded.terms
        assert_same_dataset(loaded, pipeline.load_dataset(cfg, use_cache=False))

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda header, records: (_json([1, 2]), records),
            lambda header, records: (_json("text"), records),
            lambda header, records: (_json(None), records),
            lambda header, records: ({k: v for k, v in header.items() if k != "key"}, records),
            lambda header, records: ({**header, "reports": None}, records),
            lambda header, records: (
                header, {k: v for k, v in records.items() if not k.startswith("report_token")}
            ),
            lambda header, records: (
                header, {**records, "report_token_ids": records["report_token_ids"].astype(np.float64)}
            ),
            lambda header, records: (
                header, {k: v for k, v in records.items() if not k.startswith("source")}
            ),
        ],
        ids=[
            "list",
            "string",
            "null",
            "no-key",
            "no-report-count",
            "no-report-tokens",
            "report-tokens-not-ids",
            "no-source-tokens",
        ],
    )
    def test_malformed_cache_ignored(self, synth_dir, tmp_path, mangle):
        cfg, fresh = _cached(synth_dir, tmp_path)
        cache_file = tmp_path / pipeline.CACHE_NAME
        write_dataset(cache_file, *mangle(*read_dataset(cache_file)))
        assert_same_dataset(pipeline.load_dataset(cfg, use_cache=True), fresh)

    def test_cache_that_is_not_utf8_ignored(self, synth_dir, tmp_path):
        cfg, fresh = _cached(synth_dir, tmp_path)
        cache_file = tmp_path / pipeline.CACHE_NAME
        header, records = read_dataset(cache_file)
        text = records["report_id_text"].copy()
        text[0] = 0xFF
        write_dataset(cache_file, header, {**records, "report_id_text": text})
        assert_same_dataset(pipeline.load_dataset(cfg, use_cache=True), fresh)

    def test_cached_table_equals_text_parse_bit_for_bit(self, synth_dir, tmp_path, monkeypatch):
        cfg, fresh = _cached(synth_dir, tmp_path)

        def no_text_parse(path):
            raise AssertionError("the cached table should have been used")

        monkeypatch.setattr(pipeline, "load_embeddings", no_text_parse)
        assert_same_dataset(pipeline.load_dataset(cfg), fresh)

    def test_foreign_npy_behind_the_cache_name_is_a_miss(self, synth_dir, tmp_path):
        cfg = pipeline.RunConfig(out_dir=str(tmp_path))
        cfg.apply_dataset_dir(synth_dir)
        write_raw(tmp_path / pipeline.CACHE_NAME, np.zeros((3, 2)), ())
        assert_same_dataset(pipeline.load_dataset(cfg), pipeline.load_dataset(cfg, use_cache=False))

    def test_invalid_embeddings_behind_a_cache_still_rejected(self, synth_dir, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(synth_dir, data)
        cfg = pipeline.RunConfig(out_dir=str(tmp_path / "out"))
        cfg.apply_dataset_dir(data)
        pipeline.write_dataset_cache(cfg, pipeline.load_dataset(cfg, use_cache=False))
        lines = (data / "embeddings.txt").read_text(encoding="utf-8").splitlines(keepends=True)
        token, _, *rest = lines[1].split()
        lines[1] = " ".join([token, "oops", *rest]) + "\n"
        (data / "embeddings.txt").write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ParseError, match=f"token '{token}' has a non-numeric component"):
            pipeline.load_dataset(cfg)

    def test_requires_reports_and_embeddings(self, synth_dir):
        cfg = pipeline.RunConfig(embeddings=str(synth_dir / "embeddings.txt"))
        with pytest.raises(ValidationError, match="reports"):
            pipeline.load_dataset(cfg)
        cfg = pipeline.RunConfig(reports=str(synth_dir / "reports.jsonl"))
        with pytest.raises(ValidationError, match="embeddings"):
            pipeline.load_dataset(cfg)


def _cached(synth_dir, tmp_path):
    """The config of the synthetic dataset writing to tmp_path, and its
    dataset loaded without the cache, which it has cached."""
    cfg = pipeline.RunConfig(out_dir=str(tmp_path))
    cfg.apply_dataset_dir(synth_dir)
    fresh = pipeline.load_dataset(cfg, use_cache=False)
    pipeline.write_dataset_cache(cfg, fresh)
    return cfg, fresh


def _json(value):
    """A header record holding value as JSON text, which need not be an object."""
    return np.frombuffer(json.dumps(value).encode(), dtype=np.uint8)


_PATHS = ["a.py", "b.py", "c.py", "d.py"]


class TestFileEmbeddingVectors:
    @given(
        st.dictionaries(
            st.sampled_from("abcdexy"),
            st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=3, max_size=3),
        ),
        st.dictionaries(
            st.sampled_from(_PATHS), st.lists(st.sampled_from("abcdexyz"), max_size=10)
        ),
        st.lists(st.sampled_from([*_PATHS, "no_doc.py"]), min_size=1, unique=True),
    )
    # repeated tokens in a one-file universe
    @example({"a": [1.0, 2.0, 3.0], "b": [0.1, 0.2, 0.3]}, {"a.py": list("abaab")}, ["a.py"])
    # a path without a source doc, and a file whose tokens the table lacks
    @example({"a": [1.0, 2.0, 3.0]}, {"a.py": ["y", "z"], "b.py": ["a"]}, ["no_doc.py", "a.py", "b.py"])
    def test_rows_match_embed_tokens_with_count_weights_bit_for_bit(
        self, vectors, sources, universe
    ):
        table = make_table(3, vectors)
        dataset = pipeline.Dataset.of("d", [], [], sources, [], table)
        rows = pipeline.file_embedding_vectors(dataset, universe)
        assert rows.shape == (len(universe), 3)
        for path, row in zip(universe, rows):
            tokens = sources.get(path, [])
            weights = {token: float(count) for token, count in Counter(tokens).items()}
            expected, _ = embed_tokens(tokens, weights, table)
            assert row.view(np.uint64).tolist() == expected.view(np.uint64).tolist()

    def test_needs_source_docs(self):
        dataset = pipeline.Dataset.of("d", [], [], None, [], make_table(1, {"a": [1.0]}))
        with pytest.raises(ValidationError, match="source docs"):
            pipeline.file_embedding_vectors(dataset, ["a.py"])


class TestBuildIndex:
    def test_index_shapes(self, eval_bundle):
        index = eval_bundle.scorer.index
        # resolved_only drops the handful of open reports before the split
        assert index.train_ids + index.query_ids == list(eval_bundle.dataset.report_ids)
        assert len(index.universe) == 24
        assert index.network.nodes.keys[index.network.nodes.rows("M")]
        assert index.tfidf.shape == (len(index.train_ids), len(index.vocab))

    def test_vocabulary_covers_training_reports_only(self, eval_bundle):
        index = eval_bundle.scorer.index
        dataset = eval_bundle.dataset
        train = dataset.report_tokens.take(range(len(index.train_ids)))
        assert set(index.vocab.terms) == {dataset.terms[i] for i in train.ids}

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
        assert len(index.train_ids) > len(index.query_ids)


class TestEvalContext:
    def test_context_covers_methods_and_queries(self, eval_bundle):
        ctx = eval_bundle.ctx
        assert ctx.universe == eval_bundle.scorer.index.universe
        shape = (len(ctx.query_ids), len(ctx.universe))
        assert set(ctx.learned) == set(evaluation.ALL_METHODS) - {"bow"}
        for matrix in (ctx.bow, ctx.relevant, *ctx.learned.values()):
            assert matrix.shape == shape
        assert ctx.relevant.any(axis=1).all()

    def test_bow_needs_no_learned_component(self, eval_bundle):
        ctx = eval_bundle.ctx
        assert "bow" not in ctx.learned
        config = evaluation.EvalConfig(methods=("bow",))
        assert evaluation.evaluate_methods(ctx, config).rows == [
            row for row in eval_bundle.result.rows if row.method == "bow"
        ]

    def test_scorer_rejects_a_model_over_other_files(self, eval_bundle):
        model = eval_bundle.scorer.model
        index = eval_bundle.scorer.index
        other = dataclasses.replace(index, universe=index.universe[1:])
        with pytest.raises(ValidationError, match="universe"):
            pipeline.Scorer(other, eval_bundle.dataset.table, model=model)

    def test_scorer_rejects_a_model_under_other_token_rules(self, eval_bundle, tmp_path):
        model = eval_bundle.scorer.model
        # a stop list of one of the model's terms, in place of the built-in list
        stopwords = tmp_path / "stop.txt"
        term = model.nodes.keys[model.nodes.rows("T")][0]
        stopwords.write_text(term + "\n", encoding="utf-8")
        cfg = dataclasses.replace(eval_bundle.cfg, stopwords_file=str(stopwords))
        index = pipeline.build_index(pipeline.load_dataset(cfg, use_cache=False), cfg)
        with pytest.raises(ValidationError, match="the model's T nodes differ"):
            pipeline.Scorer(index, eval_bundle.dataset.table, model=model)

    @pytest.mark.parametrize("change", ["vectors", "last", "drop", "dim"])
    def test_scorer_rejects_a_model_solved_with_other_embeddings(self, eval_bundle, change):
        model, table = eval_bundle.scorer.model, eval_bundle.dataset.table
        clamped = [node.key for node in compress(model.nodes, model.clamped_rows)]
        tokens, matrix = list(table.tokens), table.matrix.copy()
        first, last = table.row[clamped[0]], table.row[clamped[-1]]
        if change == "vectors":
            matrix *= 0.5
            shown = f"the model's clamped rows differ from the embeddings at T:{clamped[0]}"
        elif change == "last":
            # one ulp in a row past the first 256-row block
            assert len(clamped) > 256
            matrix[last, -1] = np.nextafter(matrix[last, -1], np.inf)
            shown = f"the model's clamped rows differ from the embeddings at T:{clamped[-1]}"
        elif change == "drop":
            del tokens[first]
            matrix = np.delete(matrix, first, axis=0)
            shown = f"the model's clamped rows differ from the embeddings at T:{clamped[0]}"
        else:
            matrix = matrix[:, :-1]
            shown = f"the model has {model.dim} dimensions, the embeddings {model.dim - 1}"
        other = EmbeddingTable(tokens, matrix)
        with pytest.raises(ValidationError, match=re.escape(shown)):
            pipeline.Scorer(eval_bundle.scorer.index, other, model=model)

    def test_queries_follow_training_chronologically(self, eval_bundle):
        index = eval_bundle.scorer.index
        reports = load_bug_reports(eval_bundle.cfg.reports, resolved_only=True)
        time_of = {report.id: report.report_time for report in reports}
        assert index.train_ids + index.query_ids == [report.id for report in reports]
        last_train = max(time_of[rid] for rid in index.train_ids)
        for rid in index.query_ids:
            assert time_of[rid] >= last_train


_PATHS = st.text(alphabet="aZé中Ω/.,_", min_size=1, max_size=4)


@st.composite
def _linked_datasets(draw):
    """Reports, their token lists and a universe of source paths: training
    reports fix files of the universe or none, and queries fix files in or
    out of it, some or all of them outside; paths and ids may be non-ASCII."""
    universe = draw(st.lists(_PATHS.map("src/{}".format), min_size=1, max_size=5, unique=True))
    outside = draw(st.lists(_PATHS.map("lib/{}".format), min_size=1, max_size=3, unique=True))
    ids = draw(st.lists(_PATHS, min_size=2, max_size=8, unique=True))
    cut = len(ids) // 2
    reports = []
    for i, rid in enumerate(ids):
        paths = universe if i < cut else universe + outside
        files = draw(st.lists(st.sampled_from(paths), max_size=3, unique=True))
        reports.append(_report(rid, 0, files))
    words = st.lists(st.sampled_from(("leak", "socket", "widget")), max_size=4)
    return reports, [draw(words) for _ in ids], universe


def _assert_links_match_the_dict_loops(reports, tokens, universe):
    """Build the index and eval context of the reports, with their tokens,
    over sources at the universe paths, and check the link matrices and
    the ground truth against linkref's per-report loops."""
    sources = {path: [] for path in universe}
    dataset = pipeline.Dataset.of("links", reports, tokens, sources, [], make_table(1, {"leak": [1.0]}))
    cfg = pipeline.RunConfig(split=0.5, methods=(evaluation.METHOD_BOW,))
    index = pipeline.build_index(dataset, cfg)
    cut = len(index.train_ids)
    bow = index.bow_index
    indptr, indices, counts = bow_links([r.fixed_files for r in reports[:cut]], index.universe)
    np.testing.assert_array_equal(bow.links.indptr, indptr)
    np.testing.assert_array_equal(bow.links.indices, indices)
    np.testing.assert_array_equal(bow.links.data, np.ones(len(indices)))
    assert bow.counts.dtype == np.float64
    np.testing.assert_array_equal(bow.counts, counts)
    ctx = pipeline.build_eval_context(dataset, cfg, pipeline.Scorer(index, dataset.table))
    query_ids, relevant, excluded = ground_truth(reports[cut:], index.universe)
    assert ctx.query_ids == query_ids
    assert ctx.excluded == excluded
    assert ctx.relevant.dtype == np.bool_
    np.testing.assert_array_equal(ctx.relevant, relevant)
    # each link row keeps its fixed-file order; a row sorted by column
    # gives the same scores, bit for bit
    token_of = dict(zip(dataset.report_ids, tokens))
    rows = tfidf_rows([token_of[qid] for qid in query_ids], index.vocab)
    by_column = dataclasses.replace(bow, links=from_scipy(to_scipy(bow.links).sorted_indices()))
    np.testing.assert_array_equal(
        ctx.bow.view(np.uint64), ranker.bow_file_scores(rows, by_column).view(np.uint64)
    )
    return ctx


class TestLinksAgainstDictLoops:
    @given(_linked_datasets())
    def test_link_matrices_match_the_per_report_loops(self, drawn):
        _assert_links_match_the_dict_loops(*drawn)

    def test_listed_cases(self):
        # a training report without fixes, one fixing two files out of path
        # order, a query with one fix outside the universe, one with all
        # fixes outside, one with none; non-ASCII paths and ids
        universe = ["src/A.java", "src/ünï/日本.java", "src/Z.java"]
        files = [
            (), ("src/Z.java", "src/A.java"), ("src/ünï/日本.java",),
            ("lib/Gone.java", "src/Z.java"), ("lib/Gone.java", "lib/ß.java"), (),
        ]
        ids = ["B-1", "B-2", "Ω-3", "B-4", "B-5", "B-6"]
        tokens = [["leak"], ["leak", "socket"], ["socket"], ["leak"], ["socket"], []]
        reports = [_report(rid, 0, fixed) for rid, fixed in zip(ids, files)]
        ctx = _assert_links_match_the_dict_loops(reports, tokens, universe)
        assert (ctx.query_ids, ctx.excluded) == (["B-4"], ["B-5", "B-6"])
