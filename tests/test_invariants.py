"""End-to-end invariants of the CLI over tiny generated datasets with
mutated inputs.

Each example writes a small synth dataset, applies up to three mutations
from MUTATIONS to its files, and runs ingest, build, solve (twice), eval
and query (one report and a batch), fresh and with the solved model,
through cli.main in process. Whatever the inputs:

- every command exits 0 or 1, and exit 1 prints exactly one `error:` line
  and no traceback;
- after solve, eval --model writes a fresh eval's three CSVs byte for byte,
  and query --model prints and writes what a fresh query does; with the
  model's record file moved aside, each exits 1;
- two identical solve runs write identical model.tsv, record file and
  manifest.json;
- every manifest is strict JSON;
- a ranking lists distinct universe paths, and its scores never rise;
- a query ranking lists the top k files by raw blended score descending,
  then path ascending, the raw scores recomputed in process, since the
  printed ones are rounded;
- once one training fix has moved to another file, eval with the model
  solved before the move exits 1.

Stdout is a strict UTF-8 stream, as a terminal's is, so text that cannot be
encoded fails as it would in a real run.

Over the same mutations, and a "\n" or "\t" inside an id or a path, or no
sources.jsonl or metrics.csv at all, a dataset loaded from ingest's cache
equals the one loaded without it, and builds a bit-identical index.
"""

import contextlib
import csv
import io
import json
import random
import re
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import find, given, settings, strategies as st

from bugloc import pipeline, ranker, synthgen
from bugloc.cli import main
from bugloc.corpus import load_query_reports, tfidf_rows, tokenize
from bugloc.errors import ValidationError
from bugloc.regularizer import record_path
from test_records import assert_same_dataset

SPEC = dict(num_reports=20, num_files=5, vocab_size=60, dim=3, topic_count=2)
MUTATIONS = (
    "one_file",  # every report fixes one file, the only one with sources and metrics
    "odd_id",  # unicode, commas, quotes or "\r" inside a report id
    "odd_path",  # the same inside a path, everywhere it is named
    "drop_embeddings",  # some embedding rows gone, so some T nodes are free
    "drop_metrics",  # some metrics rows gone
    "stopword_report",  # a report whose text is all stopwords
    "surrogate",  # a lone surrogate, from a JSON escape, inside an id or a path
    "drop_source",  # one source file gone
    "fix_outside",  # a report fixes a path outside the universe
    "repeated_fix",  # a report lists one fixed file twice
    "stale_model",  # after solve, a training fix moves to another file
    "stopword_query",  # the queried report's text is all stopwords, so every file ties
)
ODD_CHARACTERS = "Ř日,\"' \r"
ODD = st.text(alphabet=ODD_CHARACTERS, min_size=1, max_size=3)
QUERY_BATCH = 3


def _strict(constant):
    raise ValueError(f"{constant} is not strict JSON")


class Inputs:
    """A synth dataset's files as records, mutated in place, then written back."""

    def __init__(self, root: Path):
        self.root = root
        read = lambda name: (root / name).read_text(encoding="utf-8").splitlines()  # noqa: E731
        self.reports = [json.loads(line) for line in read("reports.jsonl")]
        self.sources = [json.loads(line) for line in read("sources.jsonl")]
        with open(root / "metrics.csv", encoding="utf-8", newline="") as fh:
            self.metrics = list(csv.reader(fh))[1:]
        self.embeddings = read("embeddings.txt")[1:]

    def rename_path(self, old: str, new: str, metrics: bool = True) -> None:
        for doc in self.sources:
            doc["path"] = new if doc["path"] == old else doc["path"]
        for report in self.reports:
            report["fixed_files"] = [new if p == old else p for p in report["fixed_files"]]
        self.metrics = [
            [new, *row[1:]] if row[0] == old else row
            for row in self.metrics
            if metrics or row[0] != old
        ]

    def universe(self) -> set[str]:
        """The paths a ranking may list: the source and metrics paths or,
        with neither, every fixed file, as pipeline.file_universe falls back."""
        paths = {doc["path"] for doc in self.sources} | {row[0] for row in self.metrics}
        return paths or {path for report in self.reports for path in report["fixed_files"]}

    def write(self) -> None:
        # JSON escapes every non-ASCII character, so a lone surrogate survives
        def jsonl(name, records):
            text = "".join(json.dumps(record) + "\n" for record in records)
            (self.root / name).write_text(text, encoding="utf-8")

        jsonl("reports.jsonl", self.reports)
        jsonl("sources.jsonl", self.sources)
        jsonl("query.jsonl", self.reports[-1:])
        jsonl("batch.jsonl", self.reports[-QUERY_BATCH:])
        with open(self.root / "metrics.csv", "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([["path", "metric", "value"], *self.metrics])
        dim = SPEC["dim"]
        lines = [f"{len(self.embeddings)} {dim}", *self.embeddings]
        (self.root / "embeddings.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _insert(text: str, at: int, piece: str) -> str:
    return text[:at] + piece + text[at:]


def _mutate(data: Inputs, name: str, draw) -> None:
    pick = lambda items: items[draw(st.integers(0, len(items) - 1))]  # noqa: E731
    if name == "one_file":
        keep = data.sources[0]["path"]
        data.sources = data.sources[:1]
        data.metrics = [row for row in data.metrics if row[0] == keep]
        for report in data.reports:
            report["fixed_files"] = [keep]
    elif name == "odd_id":
        report = pick(data.reports)
        report["id"] = _insert(report["id"], 2, draw(ODD))
    elif name == "odd_path":
        path = pick(data.sources)["path"]
        data.rename_path(path, _insert(path, 4, draw(ODD)))
    elif name in ("drop_embeddings", "drop_metrics"):
        rng = random.Random(draw(st.integers(0, 2**16)))
        share = draw(st.sampled_from((0.3, 0.7)))
        rows = data.embeddings if name == "drop_embeddings" else data.metrics
        rows[:] = [row for row in rows if rng.random() >= share]
    elif name in ("stopword_report", "stopword_query"):
        report = pick(data.reports) if name == "stopword_report" else data.reports[-1]
        report["summary"], report["description"] = "the of and", "is a"
    elif name == "surrogate":
        lone = draw(st.sampled_from(("\ud800", "\udcff")))
        if draw(st.booleans()):
            report = pick(data.reports)
            report["id"] = _insert(report["id"], 2, lone)
        else:
            # metrics.csv is UTF-8 text and cannot hold it: that path loses its metrics
            path = pick(data.sources)["path"]
            data.rename_path(path, _insert(path, 4, lone), metrics=False)
    elif name == "drop_source" and data.sources:
        data.sources.remove(pick(data.sources))
    elif name == "fix_outside":
        pick(data.reports)["fixed_files"].append("src/Ghost.java")
    elif name == "repeated_fix":
        report = pick([report for report in data.reports if report["fixed_files"]])
        report["fixed_files"].append(report["fixed_files"][0])


def _move_training_fix(data: Inputs) -> bool:
    """Move the first fixed file of the earliest resolved report, which
    trains, to a universe file it does not fix; False when there is none."""
    resolved = [report for report in data.reports if report["status"].lower() == "resolved"]
    first = min(resolved, key=lambda report: report["report_time"])
    others = sorted(data.universe() - set(first["fixed_files"]))
    if not first["fixed_files"] or not others:
        return False
    first["fixed_files"][0] = others[0]
    return True


def _run(*argv) -> tuple[int, str]:
    """Run one command; check its exit code and stderr; return both the
    code and what it printed."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    out.flush()
    printed, errors = out.buffer.getvalue().decode("utf-8"), err.getvalue()
    assert code in (0, 1), (argv[0], code, errors)
    assert "Traceback" not in errors, errors
    if code == 1:
        assert re.fullmatch(r"error: [^\n]*\n", errors), errors
    return code, printed


def _manifest(out: Path) -> None:
    with open(out / "manifest.json", encoding="utf-8") as fh:
        json.loads(fh.read(), parse_constant=_strict)


def _ranking(text: str, universe: set[str], expected: list[list[str]]) -> None:
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert rows[0] == ["rank", "path", "score"], rows
    assert rows[1:] == expected
    paths = [row[1] for row in rows[1:]]
    scores = [float(row[2]) for row in rows[1:]]
    assert [row[0] for row in rows[1:]] == [str(rank) for rank in range(1, len(rows))]
    assert len(set(paths)) == len(paths) and set(paths) <= universe, paths
    assert all(a >= b for a, b in zip(scores, scores[1:])), scores


class RawRankings:
    """query's ranking of each report in a report file, restated over the
    raw blended scores: the components from prepare_scorer, bow_matrix and
    learned_matrix, each through minmax_rows, then blended with alpha. The
    scorer is prepared on first use, as a fresh query prepares it."""

    def __init__(self, dataset: Path):
        self.cfg = pipeline.RunConfig()
        self.cfg.apply_dataset_dir(dataset)
        self.scorer = None

    def __call__(self, report_path: Path) -> dict[str, list[list[str]]]:
        """Report id -> the rows of its ranking: the top k files by raw
        blended score descending, then path ascending."""
        cfg = self.cfg
        if self.scorer is None:
            dataset = pipeline.load_dataset(cfg, use_cache=False)
            self.scorer = pipeline.prepare_scorer(dataset, cfg, methods=("netreg",))
        reports = load_query_reports(report_path)
        tokens = [tokenize(report.text, cfg.token_rules()) for report in reports]
        rows = tfidf_rows(tokens, self.scorer.index.vocab)
        bow = ranker.minmax_rows(self.scorer.bow_matrix(rows))
        learned = ranker.minmax_rows(self.scorer.learned_matrix("netreg", rows))
        blended = ((1.0 - cfg.alpha) * bow + cfg.alpha * learned).tolist()
        rankings = {}
        for report, scores in zip(reports, blended):
            best = sorted(zip(scores, self.scorer.index.universe), key=lambda s: (-s[0], s[1]))
            rankings[report.id] = [
                [str(rank), path, f"{score:.8f}"]
                for rank, (score, path) in enumerate(best[: cfg.k], 1)
            ]
        return rankings


def _batch(out: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in out.glob("query_*.csv")}


def _record_states(model: Path):
    """Yield True with the model's record file in place, then False with it
    moved aside, so that a --model run has no model to load; then restore it."""
    record = record_path(model)
    aside = record.with_name(record.name + ".aside")
    yield True
    record.rename(aside)
    try:
        yield False
    finally:
        aside.rename(record)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    mutations=st.lists(st.sampled_from(MUTATIONS), max_size=3, unique=True),
    data=st.data(),
)
def test_cli_invariants_under_mutated_inputs(seed, mutations, data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        dataset = root / "data"
        synthgen.generate(synthgen.SynthSpec(seed=seed, **SPEC), dataset)
        inputs = Inputs(dataset)
        for name in sorted(mutations, key=MUTATIONS.index):
            _mutate(inputs, name, data.draw)
        inputs.write()
        universe = inputs.universe()
        out, fresh, net = root / "out", root / "fresh", root / "net"

        def run(command, target, *extra):
            return _run(command, "--dataset-dir", dataset, "--out-dir", target, *extra)

        if run("ingest", out)[0] == 0:
            _manifest(out)
        if run("build", net)[0] == 0:
            _manifest(net)

        solved = run("solve", out)[0] == 0
        if solved:
            _manifest(out)
            solved_files = ("model.tsv", "model.tsv.bin", "manifest.json")
            first = [(out / name).read_bytes() for name in solved_files]
            assert run("solve", out)[0] == 0
            assert [(out / name).read_bytes() for name in solved_files] == first
        model = ("--model", out / "model.tsv")

        names = ("results.csv", "ttests.csv", "sweep.csv")
        if run("eval", fresh)[0] == 0:
            _manifest(fresh)
            for present in _record_states(out / "model.tsv") if solved else ():
                assert run("eval", out, *model)[0] == (0 if present else 1)
                if present:
                    _manifest(out)
                    assert [(out / n).read_bytes() for n in names] == [
                        (fresh / n).read_bytes() for n in names
                    ]

        raw = RawRankings(dataset)
        single = ("--report", dataset / "query.jsonl")
        code, printed = run("query", fresh, *single)
        if code == 0:
            (expected,) = raw(dataset / "query.jsonl").values()
            _ranking(printed, universe, expected)
            for present in _record_states(out / "model.tsv") if solved else ():
                assert run("query", out, *single, *model) == ((0, printed) if present else (1, ""))

        batch = ("--report", dataset / "batch.jsonl")
        if run("query", fresh, *batch)[0] == 0:
            _manifest(fresh)
            rankings = _batch(fresh)
            assert len(rankings) == QUERY_BATCH
            for rid, expected in raw(dataset / "batch.jsonl").items():
                _ranking(rankings[f"query_{rid}.csv"].decode("utf-8"), universe, expected)
            for present in _record_states(out / "model.tsv") if solved else ():
                for stale in out.glob("query_*.csv"):
                    stale.unlink()
                assert run("query", out, *batch, *model)[0] == (0 if present else 1)
                if present:
                    _manifest(out)
                assert _batch(out) == (rankings if present else {})

        if solved and "stale_model" in mutations and _move_training_fix(inputs):
            inputs.write()
            assert run("eval", root / "stale", *model)[0] == 1


# the mutations a cache must survive besides MUTATIONS: characters that
# cannot sit in a "\n"-joined record, and a run without sources or metrics
CACHE_MUTATIONS = (
    *MUTATIONS,
    "control_id",  # "\n" or "\t" inside a report id
    "control_path",  # the same inside a path, everywhere it is named
    "control_metric_path",  # the same inside the path of one metrics row
    "no_sources",  # no sources.jsonl
    "no_metrics",  # no metrics.csv
)
CONTROL = st.sampled_from(("\n", "\t", "a\nb", "\r\n"))


def _mutate_for_cache(data: Inputs, name: str, draw) -> None:
    pick = lambda items: items[draw(st.integers(0, len(items) - 1))]  # noqa: E731
    if name == "control_id":
        report = pick(data.reports)
        report["id"] = _insert(report["id"], 2, draw(CONTROL))
    elif name == "control_path" and data.sources:
        path = pick(data.sources)["path"]
        data.rename_path(path, _insert(path, 4, draw(CONTROL)))
    elif name == "control_metric_path" and data.metrics:
        row = pick(data.metrics)
        row[0] = _insert(row[0], 4, draw(CONTROL))
    elif name not in ("no_sources", "no_metrics"):
        _mutate(data, name, draw)


def _bits(rows) -> list:
    """A CSR's arrays as (dtype, bytes), floats by their bits."""
    return [(array.dtype.str, array.tobytes()) for array in (rows.data, rows.indices, rows.indptr)]


def _index_bits(dataset, cfg):
    """build_index's universe, vocabulary, idf bits and TF-IDF and fix-link
    arrays, or the message it rejects the dataset with."""
    try:
        index = pipeline.build_index(dataset, cfg)
    except ValidationError as exc:
        return str(exc)
    idf = index.vocab.idf
    return (index.universe, index.vocab.terms, idf.dtype.str, idf.tobytes(),
            _bits(index.tfidf), _bits(index.fix_links))


def _assert_a_hit_equals_a_fresh_load(seed, mutations, draw):
    """Mutate a tiny synth dataset, ingest it and check that the cached
    load equals the fresh one; return it, or None when the inputs are
    rejected."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        synthgen.generate(synthgen.SynthSpec(seed=seed, **SPEC), root / "data")
        inputs = Inputs(root / "data")
        for name in sorted(mutations, key=CACHE_MUTATIONS.index):
            _mutate_for_cache(inputs, name, draw)
        inputs.write()
        for name in ("sources", "metrics"):
            if f"no_{name}" in mutations:
                (root / "data" / pipeline.DATASET_FILES[name]).unlink()
        cfg = pipeline.RunConfig(out_dir=str(root / "out"))
        cfg.apply_dataset_dir(root / "data")
        try:
            fresh = pipeline.load_dataset(cfg, use_cache=False)
        except ValidationError:
            return  # an input ingest rejects, so no cache is written
        pipeline.write_dataset_cache(cfg, fresh)
        refuse = mock.Mock(side_effect=AssertionError("an input parsed on a cache hit"))
        with mock.patch.multiple(
            pipeline, load_bug_reports=refuse, load_source_docs=refuse, tokenize=refuse,
            load_metrics=refuse, load_embeddings=refuse,
        ):
            hit = pipeline.load_dataset(cfg)
        assert_same_dataset(hit, fresh)
        assert _index_bits(hit, cfg) == _index_bits(fresh, cfg)
        return hit


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    mutations=st.lists(st.sampled_from(CACHE_MUTATIONS), max_size=3, unique=True),
    data=st.data(),
)
def test_a_cache_hit_equals_a_fresh_load(seed, mutations, data):
    _assert_a_hit_equals_a_fresh_load(seed, mutations, data.draw)


@pytest.mark.parametrize(
    "mutations, control",
    [
        (("control_id",), "\n"),
        (("control_id",), "\t"),
        (("control_path",), "\n"),
        (("control_path",), "\t"),
        (("control_metric_path",), "\n"),
        (("stopword_report",), None),
        (("no_sources",), None),
        (("no_metrics",), None),
        (("odd_id", "odd_path"), None),
    ],
    ids=[
        "newline-id", "tab-id", "newline-path", "tab-path", "newline-metric-path",
        "no-tokens", "no-sources", "no-metrics", "odd-id-and-path",
    ],
)
def test_a_cache_hit_equals_a_fresh_load_in_listed_cases(mutations, control):
    # every other draw is the simplest value, the one hypothesis shrinks to
    def draw(strategy):
        return control if strategy is CONTROL else find(strategy, lambda value: True)

    dataset = _assert_a_hit_equals_a_fresh_load(0, mutations, draw)
    corpus = dataset.corpus
    # the listed case reached the cache
    fixed = [path for files in corpus.fixed_files for path in files]
    reached = {
        "control_id": lambda: any(control in rid for rid in corpus.report_ids),
        "control_path": lambda: any(control in path for path in fixed),
        "control_metric_path": lambda: any(control in rec.path for rec in dataset.metric_records),
        "stopword_report": lambda: (corpus.report_tokens.lengths() == 0).any(),
        "no_sources": lambda: corpus.source_paths is None,
        "no_metrics": lambda: dataset.metric_records == [],
        "odd_id": lambda: any(set(rid) & set(ODD_CHARACTERS) for rid in corpus.report_ids),
    }
    assert reached[mutations[0]]()
