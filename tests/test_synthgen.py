import json
import logging

import numpy as np
import pytest

from bugloc.corpus import default_token_rules, load_bug_reports, load_source_docs
from bugloc.embeddings import load_embeddings
from bugloc.errors import ValidationError
from bugloc.metrics import load_metrics
from bugloc.synthgen import SynthSpec, generate


class TestSynthSpec:
    def test_defaults_valid(self):
        spec = SynthSpec()
        assert spec.num_reports == 160 and spec.synonym_split

    def test_rejects_bad_values(self):
        with pytest.raises(ValidationError):
            SynthSpec(num_reports=0)
        with pytest.raises(ValidationError):
            SynthSpec(noise_rate=1.5)
        with pytest.raises(ValidationError):
            SynthSpec(topic_count=10, num_files=5)
        with pytest.raises(ValidationError):
            SynthSpec(topic_count=50, vocab_size=40, num_files=60)
        with pytest.raises(ValidationError):
            SynthSpec(late_synonym_fraction=-0.1)


class TestGenerate:
    def test_same_spec_same_bytes(self, tmp_path):
        spec = SynthSpec(seed=5, num_reports=40, num_files=8, vocab_size=120, topic_count=4)
        a = generate(spec, tmp_path / "a")
        b = generate(spec, tmp_path / "b")
        for pa, pb in zip(
            (a.reports_path, a.sources_path, a.metrics_path, a.embeddings_path),
            (b.reports_path, b.sources_path, b.metrics_path, b.embeddings_path),
        ):
            assert pa.read_bytes() == pb.read_bytes()

    def test_different_seed_different_reports(self, tmp_path):
        a = generate(SynthSpec(seed=1, num_reports=30, num_files=8, vocab_size=120, topic_count=4), tmp_path / "a")
        b = generate(SynthSpec(seed=2, num_reports=30, num_files=8, vocab_size=120, topic_count=4), tmp_path / "b")
        assert a.reports_path.read_bytes() != b.reports_path.read_bytes()

    def test_outputs_pass_the_ingestion_validators(self, synth_dir):
        rules = default_token_rules()
        reports = load_bug_reports(synth_dir / "reports.jsonl")
        assert len(reports) == 160
        assert [r.id for r in reports] == sorted(r.id for r in reports)
        docs = load_source_docs(synth_dir / "sources.jsonl", rules)
        assert len(docs) == 24
        records = load_metrics(synth_dir / "metrics.csv")
        assert len(records) == 24 * 3
        table = load_embeddings(synth_dir / "embeddings.txt")
        assert len(table) == 420 and table.dim == 16

    def test_fixed_files_point_at_generated_paths(self, synth_dir):
        reports = load_bug_reports(synth_dir / "reports.jsonl")
        paths = {json.loads(line)["path"] for line in
                 (synth_dir / "sources.jsonl").read_text(encoding="utf-8").splitlines()}
        for report in reports:
            assert report.fixed_files
            assert set(report.fixed_files) <= paths

    def test_synonym_surfaces_share_one_vector(self, synth_dir):
        table = load_embeddings(synth_dir / "embeddings.txt")
        np.testing.assert_array_equal(
            table.get("top00w00a"), table.get("top00w00b")
        )
        np.testing.assert_array_equal(
            table.get("fil00w00a"), table.get("fil00w00b")
        )

    def test_late_reports_switch_surface_form(self, synth_dir):
        reports = load_bug_reports(synth_dir / "reports.jsonl")

        def b_form_words(report):
            return [
                w for w in report.text.split()
                if w.startswith(("top", "fil")) and w.endswith("b")
            ]

        # 160 reports, late fraction 0.3: the switch happens at index 112
        early = reports[:112]
        late = reports[112:]
        assert all(not b_form_words(r) for r in early)
        assert all(not [w for w in r.text.split()
                        if w.startswith(("top", "fil")) and w.endswith("a")]
                   for r in late)
        assert sum(1 for r in late if b_form_words(r)) == len(late)

    def test_no_synonym_split_uses_single_surface(self, tmp_path):
        spec = SynthSpec(seed=3, num_reports=20, num_files=8, vocab_size=120,
                         topic_count=4, synonym_split=False)
        corpus = generate(spec, tmp_path)
        table = load_embeddings(corpus.embeddings_path)
        assert "top00w00a" in table
        assert "top00w00b" not in table

    def test_metric_values_track_topic(self, synth_dir):
        records = load_metrics(synth_dir / "metrics.csv")
        lines = {r.path: r.value for r in records if r.metric == "lines"}
        topic0 = [v for p, v in lines.items() if "/topic00/" in p]
        topic7 = [v for p, v in lines.items() if "/topic07/" in p]
        assert topic0 and topic7
        assert max(topic0) < min(topic7)

    def test_tight_vocab_degrades_without_error(self, tmp_path):
        spec = SynthSpec(seed=9, num_reports=12, num_files=4, vocab_size=5,
                         topic_count=2, dim=4)
        corpus = generate(spec, tmp_path)
        table = load_embeddings(corpus.embeddings_path)
        assert len(table) <= 5
        reports = load_bug_reports(corpus.reports_path)
        assert len(reports) == 12

    def test_tight_vocab_warns_that_files_have_no_words(self, tmp_path, caplog):
        spec = SynthSpec(num_reports=12, vocab_size=30)
        with caplog.at_level(logging.WARNING, logger="bugloc.synthgen"):
            corpus = generate(spec, tmp_path)
        assert corpus.allocation == {"topic_words": 1, "file_words": 0, "surfaces": 2}
        assert "leaves files no words of their own" in caplog.text

    def test_default_vocab_takes_a_rung_with_file_words_and_does_not_warn(self, tmp_path, caplog):
        with caplog.at_level(logging.WARNING, logger="bugloc.synthgen"):
            corpus = generate(SynthSpec(num_reports=12), tmp_path)
        assert corpus.allocation == {"topic_words": 6, "file_words": 3, "surfaces": 2}
        assert not caplog.records
