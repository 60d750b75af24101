import dataclasses
import hashlib
import json
import re
import shutil
from collections import Counter
from itertools import compress

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from bugloc import evaluation, pipeline
from bugloc.corpus import BugReport
from bugloc.embeddings import EmbeddingTable, embed_tokens, load_embeddings
from bugloc.errors import ParseError, ValidationError
from bugloc.network import TypedNode, kind_slice
from bugloc.regularizer import RepresentationModel
from tables import make_table

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
            ({"methods": []}, "unknown methods"),
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

    def test_cache_lacking_a_report_is_a_miss(self, synth_dir, tmp_path):
        cfg = pipeline.RunConfig(out_dir=str(tmp_path))
        cfg.apply_dataset_dir(synth_dir)
        fresh = pipeline.load_dataset(cfg, use_cache=False)
        pipeline.write_corpus_cache(cfg, fresh)
        cache_file = tmp_path / pipeline.CACHE_NAME
        payload = json.loads(cache_file.read_text(encoding="utf-8"))
        payload["report_tokens"] = {rid: ["poisoned"] for rid in list(payload["report_tokens"])[1:]}
        cache_file.write_text(json.dumps(payload), encoding="utf-8")
        reloaded = pipeline.load_dataset(cfg, use_cache=True)
        assert reloaded.report_tokens == fresh.report_tokens

    def test_cache_hit_tokenizes_nothing(self, synth_dir, tmp_path, monkeypatch):
        cfg = pipeline.RunConfig(out_dir=str(tmp_path))
        cfg.apply_dataset_dir(synth_dir)
        fresh = pipeline.load_dataset(cfg, use_cache=False)
        emptied = next(iter(fresh.report_tokens))
        fresh.report_tokens[emptied] = []
        pipeline.write_corpus_cache(cfg, fresh)

        def refuse(*args):
            raise AssertionError("tokenize called on a cache hit")

        monkeypatch.setattr(pipeline, "tokenize", refuse)
        monkeypatch.setattr("bugloc.corpus.tokenize", refuse)
        reloaded = pipeline.load_dataset(cfg, use_cache=True)
        assert reloaded.report_tokens == fresh.report_tokens
        assert reloaded.source_tokens == fresh.source_tokens

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda payload: [1, 2],
            lambda payload: "text",
            lambda payload: None,
            lambda payload: {"key": payload["key"]},
            lambda payload: {**payload, "report_tokens": [1, 2]},
            lambda payload: {
                **payload,
                "report_tokens": {**payload["report_tokens"], next(iter(payload["report_tokens"])): 5},
            },
            lambda payload: {**payload, "source_tokens": [1, 2]},
        ],
        ids=[
            "list",
            "string",
            "null",
            "no-report-tokens",
            "report-tokens-not-an-object",
            "report-entry-not-a-list",
            "source-tokens-not-an-object",
        ],
    )
    def test_malformed_cache_ignored(self, synth_dir, tmp_path, mangle):
        cfg = pipeline.RunConfig(out_dir=str(tmp_path))
        cfg.apply_dataset_dir(synth_dir)
        fresh = pipeline.load_dataset(cfg, use_cache=False)
        pipeline.write_corpus_cache(cfg, fresh)
        cache_file = tmp_path / pipeline.CACHE_NAME
        payload = json.loads(cache_file.read_text(encoding="utf-8"))
        cache_file.write_text(json.dumps(mangle(payload)), encoding="utf-8")
        reloaded = pipeline.load_dataset(cfg, use_cache=True)
        assert reloaded.report_tokens == fresh.report_tokens
        assert reloaded.source_tokens == fresh.source_tokens

    def test_cache_that_is_not_utf8_ignored(self, synth_dir, tmp_path):
        cfg = pipeline.RunConfig(out_dir=str(tmp_path))
        cfg.apply_dataset_dir(synth_dir)
        fresh = pipeline.load_dataset(cfg, use_cache=False)
        pipeline.write_corpus_cache(cfg, fresh)
        with open(tmp_path / pipeline.CACHE_NAME, "ab") as fh:
            fh.write(b"\xff")
        reloaded = pipeline.load_dataset(cfg, use_cache=True)
        assert reloaded.report_tokens == fresh.report_tokens
        assert reloaded.source_tokens == fresh.source_tokens

    def test_embedding_cache_equals_text_parse_bit_for_bit(self, synth_dir, tmp_path, monkeypatch):
        cfg = pipeline.RunConfig(out_dir=str(tmp_path))
        cfg.apply_dataset_dir(synth_dir)
        parsed = load_embeddings(cfg.embeddings)
        pipeline.write_embedding_cache(cfg, parsed)

        def no_text_parse(path):
            raise AssertionError("the cached table should have been used")

        monkeypatch.setattr(pipeline, "load_embeddings", no_text_parse)
        cached = pipeline.load_dataset(cfg).table
        _assert_same_table(cached, parsed)

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda arrays: {**arrays, "sha256": np.array("0" * 64)},
            lambda arrays: {**arrays, "matrix": arrays["matrix"].astype(np.float32)},
            lambda arrays: {**arrays, "matrix": arrays["matrix"][:-1]},
            lambda arrays: {**arrays, "matrix": arrays["matrix"].reshape(-1)},
            lambda arrays: {**arrays, "matrix": np.where(arrays["matrix"] > 0, np.inf, arrays["matrix"])},
            lambda arrays: {**arrays, "tokens": _tokens_array(["dup", "dup", *_cached_tokens(arrays)[2:]])},
            lambda arrays: {**arrays, "tokens": np.array(_cached_tokens(arrays), dtype=object)},
            lambda arrays: {key: value for key, value in arrays.items() if key != "sha256"},
        ],
        ids=[
            "stale-sha",
            "float32",
            "row-missing",
            "flat-matrix",
            "non-finite",
            "duplicate-token",
            "needs-pickle",
            "no-key",
        ],
    )
    def test_embedding_cache_misses_fall_back_to_text_parse(self, synth_dir, tmp_path, mangle):
        cfg = pipeline.RunConfig(out_dir=str(tmp_path))
        cfg.apply_dataset_dir(synth_dir)
        parsed = load_embeddings(cfg.embeddings)
        pipeline.write_embedding_cache(cfg, parsed)
        path = tmp_path / pipeline.EMBEDDING_CACHE_NAME
        with np.load(path) as npz:
            arrays = dict(npz)
        # poisoned values: a table read from this cache would differ from the parse
        arrays["matrix"] = arrays["matrix"] + 1.0
        with open(path, "wb") as fh:
            np.savez(fh, **mangle(arrays))
        _assert_same_table(pipeline.load_dataset(cfg).table, parsed)

    @pytest.mark.parametrize("size", [0, 1, 100, "half", "all-but-one"])
    def test_torn_embedding_cache_falls_back_to_text_parse(self, synth_dir, tmp_path, size):
        cfg = pipeline.RunConfig(out_dir=str(tmp_path))
        cfg.apply_dataset_dir(synth_dir)
        parsed = load_embeddings(cfg.embeddings)
        pipeline.write_embedding_cache(cfg, parsed)
        path = tmp_path / pipeline.EMBEDDING_CACHE_NAME
        data = path.read_bytes()
        size = {"half": len(data) // 2, "all-but-one": len(data) - 1}.get(size, size)
        path.write_bytes(data[:size])
        _assert_same_table(pipeline.load_dataset(cfg).table, parsed)

    def test_foreign_npy_behind_the_cache_name_is_a_miss(self, synth_dir, tmp_path):
        cfg = pipeline.RunConfig(out_dir=str(tmp_path))
        cfg.apply_dataset_dir(synth_dir)
        with open(tmp_path / pipeline.EMBEDDING_CACHE_NAME, "wb") as fh:
            np.save(fh, np.zeros((3, 2)))
        _assert_same_table(pipeline.load_dataset(cfg).table, load_embeddings(cfg.embeddings))

    def test_invalid_embeddings_behind_a_cache_still_rejected(self, synth_dir, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(synth_dir, data)
        cfg = pipeline.RunConfig(out_dir=str(tmp_path / "out"))
        cfg.apply_dataset_dir(data)
        pipeline.write_embedding_cache(cfg, load_embeddings(cfg.embeddings))
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


def _tokens_array(tokens):
    return np.frombuffer("\n".join(tokens).encode("utf-8"), dtype=np.uint8)


def _cached_tokens(arrays):
    return arrays["tokens"].tobytes().decode("utf-8").split("\n")


def _assert_same_table(table, parsed):
    assert table.dim == parsed.dim
    assert table.tokens == parsed.tokens
    assert table.matrix.dtype == parsed.matrix.dtype == np.float64
    np.testing.assert_array_equal(table.matrix.view(np.int64), parsed.matrix.view(np.int64))


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
        dataset = pipeline.Dataset("d", [], {}, sources, [], table)
        rows = pipeline.file_embedding_vectors(dataset, universe)
        assert rows.shape == (len(universe), 3)
        for path, row in zip(universe, rows):
            tokens = sources.get(path, [])
            weights = {token: float(count) for token, count in Counter(tokens).items()}
            expected, _ = embed_tokens(tokens, weights, table)
            assert row.view(np.uint64).tolist() == expected.view(np.uint64).tolist()

    def test_needs_source_docs(self):
        dataset = pipeline.Dataset("d", [], {}, None, [], make_table(1, {"a": [1.0]}))
        with pytest.raises(ValidationError, match="source docs"):
            pipeline.file_embedding_vectors(dataset, ["a.py"])


class TestBuildIndex:
    def test_index_shapes(self, eval_bundle):
        index = eval_bundle.scorer.index
        # resolved_only drops the handful of open reports before the split
        assert len(index.train_reports) + len(index.query_reports) == len(
            eval_bundle.dataset.reports
        )
        assert len(index.universe) == 24
        assert index.network.nodes[kind_slice(index.network.nodes, "M")]
        assert index.tfidf.shape == (len(index.train_reports), len(index.vocab))

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
        term = model.nodes[kind_slice(model.nodes, "T")][0].key
        stopwords.write_text(term + "\n", encoding="utf-8")
        cfg = dataclasses.replace(eval_bundle.cfg, stopwords_file=str(stopwords))
        index = pipeline.build_index(pipeline.load_dataset(cfg, use_cache=False), cfg)
        with pytest.raises(ValidationError, match="the model's T nodes differ"):
            pipeline.Scorer(index, eval_bundle.dataset.table, model=model)

    def test_scorer_rejects_a_model_with_a_node_of_unknown_kind(self, eval_bundle):
        model = eval_bundle.scorer.model
        extra = RepresentationModel(
            (*model.nodes, TypedNode("X", "x")),
            np.vstack([model.matrix, np.zeros((1, model.dim))]),
            np.append(model.clamped_rows, False),
        )
        with pytest.raises(ValidationError, match="unknown kind"):
            pipeline.Scorer(eval_bundle.scorer.index, eval_bundle.dataset.table, model=extra)

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
        last_train = max(r.report_time for r in index.train_reports)
        for r in index.query_reports:
            assert r.report_time >= last_train
