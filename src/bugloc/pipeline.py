"""Run configuration, dataset loading, and index construction shared by the
CLI and the evaluation harness."""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import os
import types
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from . import evaluation, ranker, regularizer
from .corpus import (
    BugReport,
    TokenRules,
    Vocabulary,
    bow_vectorize,
    build_vocabulary,
    count_rows,
    default_token_rules,
    load_bug_reports,
    load_source_docs,
    tfidf_rows,
    tokenize,
)
from .embeddings import (
    EmbeddingTable,
    load_embeddings,
    read_table_cache,
    write_table_cache,
)
from .errors import ValidationError, read_text
from .metrics import MetricBucket, MetricRecord, discretize, load_metrics
from .network import KINDS, HeteroNetwork, build_network, check_fix_links, kind_slice, node_table
from .regularizer import RepresentationModel, SolverConfig

if TYPE_CHECKING:
    from scipy import sparse

logger = logging.getLogger(__name__)

CACHE_NAME = "corpus_cache.json"
EMBEDDING_CACHE_NAME = "embeddings_cache.npz"

DATASET_FILES = {
    "reports": "reports.jsonl",
    "sources": "sources.jsonl",
    "metrics": "metrics.csv",
    "embeddings": "embeddings.txt",
}
# the config keys that name input files: resolved against the config's
# directory, checked to exist, and hashed into each manifest
INPUT_PATHS = ("reports", "sources", "metrics", "embeddings", "stopwords_file")


def _has_type(value, hint) -> bool:
    """Whether a JSON value fits a config field's type; an int fits a float,
    a list fits a tuple, and a bool is no number."""
    if get_origin(hint) is types.UnionType:
        return any(_has_type(value, arg) for arg in get_args(hint))
    if get_origin(hint) is tuple:
        return isinstance(value, (list, tuple)) and all(
            _has_type(item, get_args(hint)[0]) for item in value
        )
    if hint is float:
        hint = (int, float)
    return isinstance(value, hint) and (hint is bool or not isinstance(value, bool))


def sha256_file(path) -> str:
    """Hex sha256 of a file's bytes, hashed once per process while the file's
    size and modification time stay the same."""
    st = os.stat(path)
    return _sha256_file(os.path.abspath(path), st.st_ino, st.st_size, st.st_mtime_ns)


@functools.lru_cache(maxsize=32)
def _sha256_file(path: str, inode: int, size: int, mtime_ns: int) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunConfig:
    """Resolved run settings. Serializes to the documented JSON config schema."""

    dataset_name: str = "dataset"
    reports: str | None = None
    sources: str | None = None
    metrics: str | None = None
    embeddings: str | None = None
    out_dir: str = "out"
    resolved_only: bool = True
    min_length: int = 2
    stopwords_file: str | None = None
    stem: bool = False
    buckets_per_metric: int = 5
    max_iters: int = 100
    tolerance: float = 1e-6
    ks: tuple[int, ...] = (1, 5, 10)
    alpha_grid: tuple[float, ...] | None = None
    split: float = 0.8
    methods: tuple[str, ...] = evaluation.ALL_METHODS
    alpha: float = 0.2
    k: int = 10
    seed: int = 7

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            with read_text(path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValidationError(f"config {path} must hold a JSON object")
        return cls.from_dict(raw, base=Path(path).parent)

    @classmethod
    def from_dict(cls, raw: Mapping, base: Path | None = None) -> "RunConfig":
        cfg = cls()
        hints = get_type_hints(cls)
        for key, value in raw.items():
            if key not in hints:
                raise ValidationError(f"unknown config key {key!r}")
            hint = hints[key]
            if not _has_type(value, hint):
                expected = hint.__name__ if isinstance(hint, type) else hint
                raise ValidationError(f"config key {key!r} must be {expected}, got {value!r}")
            setattr(cfg, key, tuple(value) if isinstance(value, list) else value)
        if base is not None:
            for key in INPUT_PATHS:
                value = getattr(cfg, key)
                if value is not None and not Path(value).is_absolute():
                    setattr(cfg, key, str(base / value))
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.buckets_per_metric < 1:
            raise ValidationError("buckets_per_metric must be >= 1")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValidationError("alpha must lie in [0, 1]")
        if self.k < 1:
            raise ValidationError("k must be >= 1")
        self.eval_config()
        self.solver_config()
        split_reports((), self.split)
        for key in INPUT_PATHS:
            value = getattr(self, key)
            if value is not None and not Path(value).exists():
                raise ValidationError(f"{key} path does not exist: {value}")

    def to_dict(self) -> dict:
        out = {}
        for key, value in self.__dict__.items():
            out[key] = list(value) if isinstance(value, tuple) else value
        return out

    def token_rules(self) -> TokenRules:
        return default_token_rules(
            min_length=self.min_length, stem=self.stem, stopwords_file=self.stopwords_file
        )

    def solver_config(self) -> SolverConfig:
        return SolverConfig(max_iters=self.max_iters, tolerance=self.tolerance)

    def eval_config(self) -> evaluation.EvalConfig:
        grid = (
            tuple(self.alpha_grid)
            if self.alpha_grid is not None
            else evaluation.default_alpha_grid()
        )
        return evaluation.EvalConfig(
            ks=tuple(self.ks), alpha_grid=grid, methods=tuple(self.methods)
        )

    def apply_dataset_dir(self, dataset_dir) -> None:
        root = Path(dataset_dir)
        if not root.is_dir():
            raise ValidationError(f"dataset dir does not exist: {dataset_dir}")
        for key, name in DATASET_FILES.items():
            candidate = root / name
            if candidate.exists():
                setattr(self, key, str(candidate))
        if self.dataset_name == "dataset":
            self.dataset_name = root.name


@dataclass
class Dataset:
    """Loaded and tokenized inputs for one run."""

    name: str
    reports: list[BugReport]
    report_tokens: dict[str, list[str]]
    source_tokens: dict[str, list[str]] | None
    metric_records: list[MetricRecord]
    table: EmbeddingTable


def _cache_key(cfg: RunConfig) -> dict:
    key = {
        "version": 1,
        "reports_sha256": sha256_file(cfg.reports),
        "rules": {
            "min_length": cfg.min_length,
            "stem": cfg.stem,
            "stopwords_sha256": sha256_file(cfg.stopwords_file) if cfg.stopwords_file else "builtin",
        },
        "resolved_only": cfg.resolved_only,
    }
    if cfg.sources:
        key["sources_sha256"] = sha256_file(cfg.sources)
    return key


def write_corpus_cache(cfg: RunConfig, dataset: Dataset) -> Path:
    """Persist tokenized text so later subcommands skip re-tokenization."""
    path = Path(cfg.out_dir) / CACHE_NAME
    payload = {
        "key": _cache_key(cfg),
        "report_tokens": dataset.report_tokens,
        "source_tokens": dataset.source_tokens,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    # dumps runs the C encoder; dump to a file would run the pure-Python one
    path.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8", newline="\n")
    return path


def write_embedding_cache(cfg: RunConfig, table: EmbeddingTable) -> None:
    """Persist the parsed embedding table so later subcommands skip the text parse."""
    path = Path(cfg.out_dir) / EMBEDDING_CACHE_NAME
    path.parent.mkdir(parents=True, exist_ok=True)
    write_table_cache(table, path, sha256_file(cfg.embeddings))


def _is_token_map(value) -> bool:
    return isinstance(value, dict) and all(isinstance(tokens, list) for tokens in value.values())


def _read_corpus_cache(cfg: RunConfig):
    path = Path(cfg.out_dir) / CACHE_NAME
    if not path.exists():
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        # anything but an object holding this run's key and token maps is a miss
        fits = (
            isinstance(payload, dict)
            and _is_token_map(payload.get("report_tokens"))
            and (payload.get("source_tokens") is None or _is_token_map(payload["source_tokens"]))
            and payload.get("key") == _cache_key(cfg)
        )
    except (OSError, UnicodeDecodeError, json.JSONDecodeError):
        return None
    return payload if fits else None


def load_dataset(cfg: RunConfig, use_cache: bool = True) -> Dataset:
    """Load, validate, and tokenize everything the configuration references."""
    if not cfg.reports:
        raise ValidationError("config sets no reports path")
    if not cfg.embeddings:
        raise ValidationError("config sets no embeddings path")
    rules = cfg.token_rules()
    reports = load_bug_reports(cfg.reports, resolved_only=cfg.resolved_only)
    cache = _read_corpus_cache(cfg) if use_cache else None
    # a cache that lacks any loaded report is a miss; a hit is used as it is
    if cache is not None and all(r.id in cache["report_tokens"] for r in reports):
        report_tokens = {r.id: cache["report_tokens"][r.id] for r in reports}
        source_tokens = cache.get("source_tokens")
    else:
        report_tokens = {r.id: tokenize(r.text, rules) for r in reports}
        source_tokens = None
    if cfg.sources:
        if source_tokens is None:
            source_tokens = {
                doc.path: list(doc.tokens) for doc in load_source_docs(cfg.sources, rules)
            }
    else:
        source_tokens = None
    metric_records = load_metrics(cfg.metrics) if cfg.metrics else []
    table = None
    if use_cache:
        path = Path(cfg.out_dir) / EMBEDDING_CACHE_NAME
        table = read_table_cache(path, sha256_file(cfg.embeddings))
    if table is None:
        table = load_embeddings(cfg.embeddings)
    return Dataset(
        name=cfg.dataset_name,
        reports=reports,
        report_tokens=report_tokens,
        source_tokens=source_tokens,
        metric_records=metric_records,
        table=table,
    )


def split_reports(
    reports: Sequence[BugReport], fraction: float
) -> tuple[list[BugReport], list[BugReport]]:
    """Chronological split: the first `fraction` of reports train, the rest query."""
    if not 0.0 < fraction < 1.0:
        raise ValidationError(f"split must lie in (0, 1), got {fraction!r}")
    cut = int(len(reports) * fraction)
    return list(reports[:cut]), list(reports[cut:])


@dataclass
class Index:
    """Training-side artifacts: vocabulary, TF-IDF rows, universe, network."""

    train_reports: list[BugReport]
    query_reports: list[BugReport]
    vocab: Vocabulary
    tfidf: sparse.csr_array  # one row per training report, in training order
    universe: tuple[str, ...]
    buckets: dict[str, list[MetricBucket]]

    @cached_property
    def network(self) -> HeteroNetwork:
        """Built on first use: a run that loads its model never needs it."""
        return build_network(
            self.train_reports, self.tfidf, self.vocab, self.universe, self.buckets
        )

    @cached_property
    def bow_index(self) -> ranker.BowIndex:
        """Built on first use: solving and building the network never need it."""
        return ranker.build_bow_index(
            self.tfidf, [r.fixed_files for r in self.train_reports], self.universe
        )


def file_universe(dataset: Dataset) -> tuple[str, ...]:
    """Inventory paths when sources or metrics exist, else all fixed files."""
    inventory: set[str] = set()
    if dataset.source_tokens is not None:
        inventory.update(dataset.source_tokens)
    inventory.update(rec.path for rec in dataset.metric_records)
    if not inventory:
        for report in dataset.reports:
            inventory.update(report.fixed_files)
    return tuple(sorted(inventory))


def build_index(dataset: Dataset, cfg: RunConfig) -> Index:
    """Split chronologically and assemble the training-side index; the
    network is built when first used."""
    train, queries = split_reports(dataset.reports, cfg.split)
    if not train:
        raise ValidationError("the chronological split leaves no training reports")
    universe = file_universe(dataset)
    check_fix_links(train, set(universe))
    token_lists = [dataset.report_tokens[r.id] for r in train]
    vocab = build_vocabulary(token_lists)
    return Index(
        train_reports=train,
        query_reports=queries,
        vocab=vocab,
        tfidf=tfidf_rows(token_lists, vocab),
        universe=universe,
        buckets=discretize(dataset.metric_records, cfg.buckets_per_metric),
    )


def file_embedding_vectors(dataset: Dataset, universe: Sequence[str]) -> np.ndarray:
    """Token-count-weighted embedding mean per source file, one row per path:
    embed_rows over the files' term counts, as queries over their TF-IDF rows."""
    if dataset.source_tokens is None:
        raise ValidationError("the embedding method needs source docs, none configured")
    token_lists = [dataset.source_tokens.get(path, []) for path in universe]
    vocab = build_vocabulary(token_lists)
    terms = ranker.term_matrix(vocab, dataset.table)
    return ranker.embed_rows(count_rows(token_lists, vocab), terms)


def check_model_nodes(model: RepresentationModel, index: Index, table: EmbeddingTable) -> None:
    """Reject a model whose nodes differ from network.node_table over the
    index, naming the first kind that differs, or whose clamped rows differ
    from the embedding table's, naming the first term that differs.

    A model solved under another split, bucket count, token rules or
    embeddings file would not fit this run. The network is not built, and
    the rows are compared 256 at a time, so no second copy is made at once.
    """
    ids = [report.id for report in index.train_reports]
    expected = node_table(ids, index.tfidf, index.vocab, index.universe, index.buckets)
    what = {"B": "training reports", "T": "terms with a nonzero TF-IDF weight",
            "S": "file universe", "M": "metric buckets"}
    for kind in KINDS:
        if model.nodes[kind_slice(model.nodes, kind)] != expected[kind_slice(expected, kind)]:
            raise ValidationError(
                f"the model's {kind} nodes differ from the dataset's {what[kind]} "
                "under the current settings"
            )
    if len(model.nodes) != len(expected):
        raise ValidationError("the model holds nodes of an unknown kind")
    if model.dim != table.dim:
        raise ValidationError(f"the model has {model.dim} dimensions, the embeddings {table.dim}")
    terms = kind_slice(model.nodes, "T")
    rows = np.full(len(model.nodes), -1)
    rows[terms] = table.rows_of(node.key for node in model.nodes[terms])
    differs = model.clamped_rows != (rows >= 0)
    clamped = np.flatnonzero(model.clamped_rows & (rows >= 0))
    for block in np.split(clamped, range(256, len(clamped), 256)):
        bits = model.matrix[block].view(np.uint64) != table.matrix[rows[block]].view(np.uint64)
        differs[block] = bits.any(axis=1)
    if differs.any():
        node = model.nodes[np.argmax(differs)]
        raise ValidationError(
            f"the model's clamped rows differ from the embeddings at {node.kind}:{node.key}"
        )


class Scorer:
    """Computes the raw per-file score components of queries given as
    TF-IDF rows, with files in universe order (ascending path)."""

    def __init__(
        self,
        index: Index,
        table: EmbeddingTable,
        model: RepresentationModel | None = None,
        file_vectors: np.ndarray | None = None,
    ):
        self.index = index
        self.model = model
        self.terms = ranker.term_matrix(index.vocab, table)
        # each learned method's file rows, prepared once for file_cosines
        self.files = {}
        if model is not None:
            check_model_nodes(model, index, table)
            rows = kind_slice(model.nodes, "S")
            self.files[evaluation.METHOD_NETREG] = ranker.prepare_rows(model.matrix[rows])
        if file_vectors is not None:
            self.files[evaluation.METHOD_EMBEDDING] = ranker.prepare_rows(file_vectors)

    def bow_matrix(self, query_rows: sparse.csr_array) -> np.ndarray:
        """SimiScore of each query, one row per TF-IDF row."""
        return ranker.bow_file_scores(query_rows, self.index.bow_index)

    def learned_matrix(self, method: str, query_rows: sparse.csr_array) -> np.ndarray:
        """The learned-space component of the netreg or embedding method."""
        if method not in self.files:
            raise ValidationError(f"no file vectors for the {method} method available")
        if method == evaluation.METHOD_NETREG:
            return ranker.netreg_file_scores(query_rows, self.terms, self.files[method])
        return ranker.file_cosines(ranker.embed_rows(query_rows, self.terms), self.files[method])

    def bow_scores(self, query_tokens: Sequence[str]) -> dict[str, float]:
        row = bow_vectorize(query_tokens, self.index.vocab)
        return dict(zip(self.index.universe, self.bow_matrix(row)[0].tolist()))

    def netreg_scores(self, query_tokens: Sequence[str]) -> dict[str, float]:
        row = bow_vectorize(query_tokens, self.index.vocab)
        scores = self.learned_matrix(evaluation.METHOD_NETREG, row)[0]
        return dict(zip(self.index.universe, scores.tolist()))


def prepare_scorer(
    dataset: Dataset,
    cfg: RunConfig,
    model: RepresentationModel | None = None,
    methods: Sequence[str] | None = None,
) -> Scorer:
    """Build the index, solve the model unless given one, embed files as needed."""
    methods = tuple(methods) if methods is not None else tuple(cfg.methods)
    index = build_index(dataset, cfg)
    if model is None and evaluation.METHOD_NETREG in methods:
        model = regularizer.solve(index.network, dataset.table, cfg.solver_config())
    file_vectors = None
    if evaluation.METHOD_EMBEDDING in methods:
        file_vectors = file_embedding_vectors(dataset, index.universe)
    return Scorer(index, dataset.table, model=model, file_vectors=file_vectors)


def build_eval_context(dataset: Dataset, cfg: RunConfig, scorer: Scorer) -> evaluation.EvalContext:
    """Precompute the raw components of every query for the configured methods.

    Queries with no ground-truth file inside the ranked universe are
    excluded from scoring and listed in the context.
    """
    index = scorer.index
    column = {path: j for j, path in enumerate(index.universe)}
    queries: list[BugReport] = []
    truth: list[list[int]] = []
    excluded: list[str] = []
    for report in index.query_reports:
        columns = [column[path] for path in report.fixed_files if path in column]
        if columns:
            queries.append(report)
            truth.append(columns)
        else:
            excluded.append(report.id)
    if excluded:
        logger.warning(
            "excluded %d of %d queries with no ground-truth file in the universe",
            len(excluded),
            len(index.query_reports),
        )
    shape = (len(queries), len(index.universe))
    relevant = np.zeros(shape, dtype=bool)
    for row, columns in enumerate(truth):
        relevant[row, columns] = True
    rows = tfidf_rows([dataset.report_tokens[report.id] for report in queries], index.vocab)
    methods = [method for method in cfg.methods if method != evaluation.METHOD_BOW]
    learned = {method: scorer.learned_matrix(method, rows) for method in methods}
    return evaluation.EvalContext(
        dataset_name=dataset.name,
        query_ids=[report.id for report in queries],
        universe=index.universe,
        relevant=relevant,
        bow=scorer.bow_matrix(rows),
        learned=learned,
        excluded=excluded,
    )
