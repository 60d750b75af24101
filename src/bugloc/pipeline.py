"""Run configuration, dataset loading, and index construction shared by the
CLI and the evaluation harness."""

from __future__ import annotations

import hashlib
import json
import logging
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import evaluation, ranker, regularizer
from .corpus import (
    BowVector,
    BugReport,
    TokenRules,
    Vocabulary,
    bow_vectorize,
    build_vocabulary,
    default_token_rules,
    load_bug_reports,
    load_source_docs,
    tokenize,
)
from .embeddings import EmbeddingTable, embed_tokens, load_embeddings
from .errors import ValidationError
from .metrics import MetricBucket, MetricRecord, discretize, load_metrics
from .network import HeteroNetwork, build_network, check_fix_links
from .regularizer import RepresentationModel, SolverConfig

logger = logging.getLogger(__name__)

CACHE_NAME = "corpus_cache.json"

DATASET_FILES = {
    "reports": "reports.jsonl",
    "sources": "sources.jsonl",
    "metrics": "metrics.csv",
    "embeddings": "embeddings.txt",
}


def sha256_file(path) -> str:
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
    track_energy: bool = False
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
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValidationError(f"config {path} must hold a JSON object")
        return cls.from_dict(raw, base=Path(path).parent)

    @classmethod
    def from_dict(cls, raw: Mapping, base: Path | None = None) -> "RunConfig":
        cfg = cls()
        known = set(cfg.__dict__)
        for key, value in raw.items():
            if key not in known:
                raise ValidationError(f"unknown config key {key!r}")
            if key in ("ks", "alpha_grid", "methods") and value is not None:
                value = tuple(value)
            setattr(cfg, key, value)
        if base is not None:
            for key in ("reports", "sources", "metrics", "embeddings", "stopwords_file"):
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
        # EvalConfig re-validates ks/alpha_grid/split/methods on use
        for key in ("reports", "sources", "metrics", "embeddings"):
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
        return SolverConfig(
            max_iters=self.max_iters,
            tolerance=self.tolerance,
            track_energy=self.track_energy,
        )

    def eval_config(self) -> evaluation.EvalConfig:
        grid = (
            tuple(self.alpha_grid)
            if self.alpha_grid is not None
            else evaluation.default_alpha_grid()
        )
        return evaluation.EvalConfig(
            ks=tuple(self.ks), alpha_grid=grid, split=self.split, methods=tuple(self.methods)
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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")
    return path


def _read_corpus_cache(cfg: RunConfig):
    path = Path(cfg.out_dir) / CACHE_NAME
    if not path.exists():
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if payload.get("key") != _cache_key(cfg):
            return None
        return payload
    except (OSError, json.JSONDecodeError):
        return None


def load_dataset(cfg: RunConfig, use_cache: bool = True) -> Dataset:
    """Load, validate, and tokenize everything the configuration references."""
    if not cfg.reports:
        raise ValidationError("config sets no reports path")
    if not cfg.embeddings:
        raise ValidationError("config sets no embeddings path")
    rules = cfg.token_rules()
    reports = load_bug_reports(cfg.reports, resolved_only=cfg.resolved_only)
    cache = _read_corpus_cache(cfg) if use_cache else None
    if cache is not None:
        cached_tokens = cache["report_tokens"]
        report_tokens = {
            r.id: list(cached_tokens.get(r.id) or tokenize(r.text, rules)) for r in reports
        }
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
    """Training-side artifacts: vocabulary, vectors, universe, network."""

    dataset_name: str
    train_reports: list[BugReport]
    query_reports: list[BugReport]
    vocab: Vocabulary
    train_bows: dict[str, BowVector]
    fix_links: dict[str, tuple[str, ...]]
    universe: tuple[str, ...]
    buckets: dict[str, list[MetricBucket]]

    @cached_property
    def network(self) -> HeteroNetwork:
        """Built on first use: a run that loads its model never needs it."""
        return build_network(
            self.train_reports, self.train_bows, self.vocab, self.universe, self.buckets
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
    vocab = build_vocabulary(dataset.report_tokens[r.id] for r in train)
    train_bows = {r.id: bow_vectorize(dataset.report_tokens[r.id], vocab) for r in train}
    return Index(
        dataset_name=dataset.name,
        train_reports=train,
        query_reports=queries,
        vocab=vocab,
        train_bows=train_bows,
        fix_links={r.id: r.fixed_files for r in train},
        universe=universe,
        buckets=discretize(dataset.metric_records, cfg.buckets_per_metric),
    )


def solve_index(index: Index, table: EmbeddingTable, cfg: RunConfig) -> RepresentationModel:
    return regularizer.solve(index.network, table, cfg.solver_config())


def file_embedding_vectors(dataset: Dataset, universe: Sequence[str]) -> np.ndarray:
    """Token-frequency-weighted embedding mean per source file, one row per path."""
    if dataset.source_tokens is None:
        raise ValidationError("the embedding method needs source docs, none configured")
    vectors = np.zeros((len(universe), dataset.table.dim), dtype=np.float64)
    for row, path in enumerate(universe):
        tokens = dataset.source_tokens.get(path, [])
        weights = {t: float(c) for t, c in Counter(tokens).items()}
        vectors[row], _ = embed_tokens(tokens, weights, dataset.table)
    return vectors


class Scorer:
    """Computes the raw per-file score components for one query's tokens."""

    def __init__(
        self,
        index: Index,
        table: EmbeddingTable,
        model: RepresentationModel | None = None,
        file_vectors: np.ndarray | None = None,
    ):
        self.index = index
        self.table = table
        self.model = model
        self.file_vectors = file_vectors
        self.zero_scores = {path: 0.0 for path in index.universe}

    def bow_scores(self, query_tokens: Sequence[str]) -> dict[str, float]:
        query_bow = bow_vectorize(query_tokens, self.index.vocab)
        return ranker.bow_file_scores(
            query_bow, self.index.train_bows, self.index.fix_links, self.index.universe
        )

    def netreg_scores(self, query_tokens: Sequence[str]) -> dict[str, float]:
        if self.model is None:
            raise ValidationError("no representation model available")
        return ranker.netreg_file_scores(
            query_tokens, self.model, self.table, self.index.vocab
        )

    def embedding_scores(self, query_tokens: Sequence[str]) -> dict[str, float]:
        if self.file_vectors is None:
            raise ValidationError("no file embedding vectors available")
        query_vec, _ = ranker.embed_query(query_tokens, self.table, self.index.vocab)
        return ranker.file_cosines(query_vec, self.index.universe, self.file_vectors)


def prepare_scorer(
    dataset: Dataset,
    cfg: RunConfig,
    index: Index | None = None,
    model: RepresentationModel | None = None,
    methods: Sequence[str] | None = None,
) -> Scorer:
    """Build (or reuse) the index, solve the model, embed files as needed."""
    methods = tuple(methods) if methods is not None else tuple(cfg.methods)
    if index is None:
        index = build_index(dataset, cfg)
    if model is None and evaluation.METHOD_NETREG in methods:
        model = solve_index(index, dataset.table, cfg)
    file_vectors = None
    if evaluation.METHOD_EMBEDDING in methods:
        file_vectors = file_embedding_vectors(dataset, index.universe)
    return Scorer(index, dataset.table, model=model, file_vectors=file_vectors)


def build_eval_context(
    dataset: Dataset,
    cfg: RunConfig,
    model: RepresentationModel | None = None,
    scorer: Scorer | None = None,
) -> evaluation.EvalContext:
    """Precompute per-query raw components for the configured methods.

    Queries with no ground-truth file inside the ranked universe are
    excluded from scoring and listed in the context.
    """
    if scorer is None:
        scorer = prepare_scorer(dataset, cfg, model=model)
    index = scorer.index
    universe = set(index.universe)
    query_ids: list[str] = []
    excluded: list[str] = []
    relevant: dict[str, set[str]] = {}
    bow_scores: dict[str, dict[str, float]] = {}
    second: dict[str, dict[str, dict[str, float]]] = {m: {} for m in cfg.methods}
    for report in index.query_reports:
        rel = set(report.fixed_files) & universe
        if not rel:
            excluded.append(report.id)
            continue
        tokens = dataset.report_tokens[report.id]
        query_ids.append(report.id)
        relevant[report.id] = rel
        bow_scores[report.id] = scorer.bow_scores(tokens)
        for method in cfg.methods:
            if method == evaluation.METHOD_BOW:
                second[method][report.id] = scorer.zero_scores
            elif method == evaluation.METHOD_NETREG:
                second[method][report.id] = scorer.netreg_scores(tokens)
            elif method == evaluation.METHOD_EMBEDDING:
                second[method][report.id] = scorer.embedding_scores(tokens)
    if excluded:
        logger.warning(
            "excluded %d of %d queries with no ground-truth file in the universe",
            len(excluded),
            len(index.query_reports),
        )
    return evaluation.EvalContext(
        dataset_name=dataset.name,
        query_ids=query_ids,
        relevant=relevant,
        bow_scores=bow_scores,
        second_scores=second,
        excluded=excluded,
        num_train=len(index.train_reports),
    )
