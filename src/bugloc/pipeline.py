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
from itertools import chain, compress
from pathlib import Path
from typing import Mapping, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from . import evaluation, ranker, regularizer
from .corpus import (
    CSR,
    BugReport,
    TokenIds,
    TokenRules,
    Vocabulary,
    bow_vectorize,
    default_token_rules,
    id_vocabulary,
    link_matrix,
    load_bug_reports,
    load_source_docs,
    tokenize,
    weigh_counts,
)
from .embeddings import EmbeddingTable, load_embeddings
from .errors import (
    ValidationError, file_sha256, read_array, read_offsets, read_records, read_strings, read_text,
    write_records,
)
from .metrics import MetricRecord, discretize, load_metrics
from .network import KINDS, HeteroNetwork, build_network, node_table
from .regularizer import RepresentationModel, SolverConfig

logger = logging.getLogger(__name__)

CACHE_NAME = "dataset_cache.bin"

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
    return file_sha256(path)


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
            with read_text(path, what="config") as fh:
                raw = json.load(fh)
        # a config nested too deep for the decoder raises RecursionError
        except (OSError, json.JSONDecodeError, RecursionError) as exc:
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
        # results.csv is UTF-8 text, which a lone surrogate cannot be written in
        try:
            self.dataset_name.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ValidationError(
                f"config key 'dataset_name' must be valid Unicode, got {self.dataset_name!r}"
            ) from exc
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
    """Loaded inputs for one run: the kept reports, in chronological order,
    with their fixed files and token lists; the source files' paths and
    token lists (None without sources), the lists as ids into one sorted
    dictionary, terms; the metric records and the embedding table."""

    name: str
    report_ids: tuple[str, ...]
    fixed_files: tuple[tuple[str, ...], ...]
    terms: tuple[str, ...]
    report_tokens: TokenIds
    source_paths: tuple[str, ...] | None
    source_tokens: TokenIds | None
    metric_records: list[MetricRecord]
    table: EmbeddingTable

    @classmethod
    def of(
        cls, name: str, reports: Sequence[BugReport], report_tokens: Sequence[Sequence[str]],
        sources: Mapping[str, Sequence[str]] | None, metric_records: list[MetricRecord],
        table: EmbeddingTable,
    ) -> "Dataset":
        """The dataset of reports with the token list of each, sources, each
        path mapped to its token list, metric records and the table."""
        groups = [report_tokens, *([] if sources is None else [list(sources.values())])]
        terms = tuple(sorted({term for lists in groups for tokens in lists for term in tokens}))
        index = {term: i for i, term in enumerate(terms)}
        encoded = []
        for lists in groups:
            indptr = np.cumsum([0, *map(len, lists)], dtype=np.int64)
            tokens = map(index.__getitem__, chain.from_iterable(lists))
            encoded.append(TokenIds(indptr, np.fromiter(tokens, dtype=np.int32, count=indptr[-1])))
        return cls(
            name=name,
            report_ids=tuple(report.id for report in reports),
            fixed_files=tuple(report.fixed_files for report in reports),
            terms=terms,
            report_tokens=encoded[0],
            source_paths=None if sources is None else tuple(sources),
            source_tokens=None if sources is None else encoded[1],
            metric_records=metric_records,
            table=table,
        )


def input_hashes(cfg: RunConfig) -> dict:
    """The sha256 of each input file that cfg names, by config key."""
    return {key: sha256_file(getattr(cfg, key)) for key in INPUT_PATHS if getattr(cfg, key)}


def _cache_key(cfg: RunConfig) -> dict:
    """The dataset cache's key: the inputs' hashes, the token rules (the
    effective stopword set as a digest, the built-in list included) and
    the report filter."""
    stopwords = "\n".join(sorted(cfg.token_rules().stopwords)).encode("utf-8")
    return {
        "inputs": input_hashes(cfg),
        "min_length": cfg.min_length,
        "stem": cfg.stem,
        "stopwords": hashlib.sha256(stopwords).hexdigest(),
        "resolved_only": cfg.resolved_only,
    }


def write_dataset_cache(cfg: RunConfig, dataset: Dataset) -> Path:
    """Persist the loaded dataset so later subcommands skip every parse and
    the tokenizer, as a record file (errors.write_records): a header holding
    the key of the inputs and rules and the record counts; then the report
    ids, the fixed files as offsets per report and their paths, the
    dictionary, the report token ids as offsets and ids, and, with sources,
    their paths and token ids likewise; then the metric records' paths,
    metric names and values; then the embedding tokens and matrix. Every
    list of strings is a string table (errors.write_records)."""
    path = Path(cfg.out_dir) / CACHE_NAME
    metric_records, table = dataset.metric_records, dataset.table
    sources = dataset.source_paths
    header = {
        "key": _cache_key(cfg),
        "reports": len(dataset.report_ids),
        "terms": len(dataset.terms),
        "sources": None if sources is None else len(sources),
        "metric_records": len(metric_records),
        "tokens": len(table),
    }
    fixed_offsets = np.cumsum([0, *map(len, dataset.fixed_files)], dtype=np.int64)
    records = [
        dataset.report_ids,
        fixed_offsets,
        tuple(chain.from_iterable(dataset.fixed_files)),
        dataset.terms,
        dataset.report_tokens.indptr,
        dataset.report_tokens.ids,
    ]
    if sources is not None:
        records += [sources, dataset.source_tokens.indptr, dataset.source_tokens.ids]
    records += [
        tuple(rec.path for rec in metric_records),
        tuple(rec.metric for rec in metric_records),
        np.array([rec.value for rec in metric_records], dtype=np.float64),
        table.tokens,
        table.matrix,
    ]
    write_records(path, header, records)
    return path


def _read_token_ids(fh, count: int, num_terms: int) -> TokenIds:
    indptr = read_offsets(fh, count)
    ids = read_array(fh, np.int32, (int(indptr[-1]),))
    if ids.size and not (0 <= ids.min() and ids.max() < num_terms):
        raise ValueError("token id outside the dictionary")
    return TokenIds(indptr, ids)


def _distinct(keys: Sequence) -> bool:
    """Whether keys are distinct and none is empty, as each loader keeps them."""
    held = set(keys)
    return len(held) == len(keys) and "" not in held


def _parse_dataset_cache(cfg: RunConfig, header: dict, fh) -> Dataset:
    """The dataset in a dataset cache of cfg's inputs and rules; ValueError
    unless it is one that _read_inputs could build, so that every array
    built from it is sound: its offsets ascend, its ids lie in its
    dictionary and the dictionary ascends; the report ids, each report's
    fixed files, the source paths and the (path, metric) pairs are distinct
    and nonempty; the embedding tokens are distinct and the matrix at
    least one column wide; and every value is finite."""
    if header.get("key") != _cache_key(cfg):
        raise ValueError("stale cache")
    report_ids = read_strings(fh, header.get("reports"))
    fixed_offsets = read_offsets(fh, len(report_ids)).tolist()
    fixed = read_strings(fh, fixed_offsets[-1])
    fixed_files = tuple(fixed[a:b] for a, b in zip(fixed_offsets, fixed_offsets[1:]))
    terms = read_strings(fh, header.get("terms"))
    if any(a >= b for a, b in zip(terms, terms[1:])):
        raise ValueError("dictionary out of order")
    report_tokens = _read_token_ids(fh, len(report_ids), len(terms))
    source_paths = source_tokens = None
    if cfg.sources:
        source_paths = read_strings(fh, header.get("sources"))
        source_tokens = _read_token_ids(fh, len(source_paths), len(terms))
    paths = read_strings(fh, header.get("metric_records"))
    metrics = read_strings(fh, len(paths))
    values = read_array(fh, np.float64, (len(paths),))
    tokens = read_strings(fh, header.get("tokens"))
    matrix = read_array(fh, np.float64, (len(tokens), None))
    table = EmbeddingTable(tokens, matrix)
    keys = (report_ids, *fixed_files, source_paths or (), tuple(zip(paths, metrics)))
    if (
        not all(map(_distinct, keys)) or "" in paths or "" in metrics
        or not matrix.shape[1] >= 1 or len(table.row) != len(tokens)
        or not (np.isfinite(values).all() and np.isfinite(matrix).all())
    ):
        raise ValueError("not a dataset the loaders would build")
    metric_records = list(map(MetricRecord, paths, metrics, values.tolist()))
    return Dataset(
        cfg.dataset_name, report_ids, fixed_files, terms, report_tokens,
        source_paths, source_tokens, metric_records, table,
    )


def _read_inputs(cfg: RunConfig) -> Dataset:
    """The dataset of cfg's input files, each parsed and checked by its loader."""
    rules = cfg.token_rules()
    reports = load_bug_reports(cfg.reports, resolved_only=cfg.resolved_only)
    report_tokens = [tokenize(report.text, rules) for report in reports]
    sources = load_source_docs(cfg.sources, rules) if cfg.sources else None
    metric_records = load_metrics(cfg.metrics) if cfg.metrics else []
    table = load_embeddings(cfg.embeddings)
    return Dataset.of(cfg.dataset_name, reports, report_tokens, sources, metric_records, table)


def load_dataset(cfg: RunConfig, use_cache: bool = True) -> Dataset:
    """Load, validate, and tokenize everything the configuration references.
    With use_cache, the dataset cache in cfg.out_dir stands in for the
    inputs, which are then only hashed; one that is missing, stale or
    damaged is logged at INFO, naming the file, and the inputs are read."""
    if not cfg.reports:
        raise ValidationError("config sets no reports path")
    if not cfg.embeddings:
        raise ValidationError("config sets no embeddings path")
    if use_cache:
        path = Path(cfg.out_dir) / CACHE_NAME
        # the key is computed in the reader, so inputs it cannot hash make a
        # miss, and the loaders name the file
        dataset = read_records(path, functools.partial(_parse_dataset_cache, cfg))
        if dataset is not None:
            return dataset
        logger.info("not using %s; reading the inputs", path)
    return _read_inputs(cfg)


def split_reports(report_ids: Sequence[str], fraction: float) -> tuple[list[str], list[str]]:
    """Chronological split: the first `fraction` of reports train, the rest query."""
    if not 0.0 < fraction < 1.0:
        raise ValidationError(f"split must lie in (0, 1), got {fraction!r}")
    cut = int(len(report_ids) * fraction)
    return list(report_ids[:cut]), list(report_ids[cut:])


@dataclass
class Index:
    """Training-side artifacts: vocabulary, TF-IDF rows, universe, the link
    matrices over it, and the network."""

    train_ids: list[str]  # the dataset's first reports, in dataset order
    query_ids: list[str]  # the reports after them
    vocab: Vocabulary
    tfidf: CSR  # one row per training report, in training order
    universe: tuple[str, ...]
    fix_links: CSR  # training report x universe file, see fix_links
    bucket_keys: tuple[str, ...]  # sorted
    bucket_links: CSR  # universe file x bucket key, see metrics.discretize

    @cached_property
    def network(self) -> HeteroNetwork:
        """Built on first use: a run that loads its model never needs it."""
        return build_network(
            self.train_ids, self.tfidf, self.vocab,
            self.universe, self.bucket_keys, self.fix_links, self.bucket_links,
        )

    @cached_property
    def bow_index(self) -> ranker.BowIndex:
        """Built on first use: solving and building the network never need it."""
        return ranker.build_bow_index(self.tfidf, self.fix_links)


def file_universe(dataset: Dataset) -> tuple[str, ...]:
    """Inventory paths when sources or metrics exist, else all fixed files."""
    inventory: set[str] = set(dataset.source_paths or ())
    inventory.update(rec.path for rec in dataset.metric_records)
    if not inventory:
        inventory.update(chain.from_iterable(dataset.fixed_files))
    return tuple(sorted(inventory))


def fix_links(
    report_ids: Sequence[str], fixed_files: Sequence[Sequence[str]], universe: Sequence[str]
) -> CSR:
    """The training reports' fix links, link_matrix over the universe: one
    row per report, its fixed files in listed order. Rejects, naming it, a
    report that fixes a path outside the universe."""
    links = link_matrix(fixed_files, universe)
    short = np.flatnonzero(np.diff(links.indptr) < [len(files) for files in fixed_files])
    if short.size:
        files = fixed_files[short[0]]
        path = next(path for path in files if path not in universe)
        raise ValidationError(f"report {report_ids[short[0]]!r} fixes unknown path {path!r}")
    return links


def build_index(dataset: Dataset, cfg: RunConfig) -> Index:
    """Split chronologically and assemble the training-side index from the
    dataset's token ids, each path resolved to its universe column once; the
    network is built when first used."""
    train, queries = split_reports(dataset.report_ids, cfg.split)
    if not train:
        raise ValidationError("the chronological split leaves no training reports")
    universe = file_universe(dataset)
    fixes = fix_links(train, dataset.fixed_files[: len(train)], universe)
    vocab, counts = id_vocabulary(dataset.report_tokens.take(range(len(train))), dataset.terms)
    keys, in_bucket = discretize(dataset.metric_records, cfg.buckets_per_metric, universe)
    return Index(
        train_ids=train,
        query_ids=queries,
        vocab=vocab,
        tfidf=weigh_counts(counts, vocab),
        universe=universe,
        fix_links=fixes,
        bucket_keys=keys,
        bucket_links=in_bucket,
    )


def network_digest(index: Index) -> str:
    """sha256 of everything the network is built from: the training ids in
    order, the vocabulary, the universe and the bucket keys, then the
    tfidf, fix_links and bucket_links arrays, each array as its length
    and its values in a fixed dtype. A model solved over another network
    has another digest; the index alone is read, so no network is built.
    """
    # JSON escapes every non-ASCII character, so a lone surrogate hashes too
    names = [index.train_ids, list(index.vocab.terms), list(index.universe), list(index.bucket_keys)]
    digest = hashlib.sha256(json.dumps(names).encode())
    for rows in (index.tfidf, index.fix_links, index.bucket_links):
        for values, dtype in ((rows.indptr, "<i8"), (rows.indices, "<i8"), (rows.data, "<f8")):
            digest.update(len(values).to_bytes(8, "little"))
            digest.update(np.asarray(values, dtype=dtype).tobytes())
    return digest.hexdigest()


def solve_model(index: Index, table: EmbeddingTable, cfg: RunConfig) -> RepresentationModel:
    """Solve the model over the index's network, stamped with its network_digest."""
    model = regularizer.solve(index.network, table, cfg.solver_config())
    model.network_digest = network_digest(index)
    return model


def file_embedding_vectors(dataset: Dataset, universe: Sequence[str]) -> np.ndarray:
    """Token-count-weighted embedding mean per source file, one row per path:
    embed_rows over the files' term counts, as queries over their TF-IDF rows."""
    if dataset.source_tokens is None:
        raise ValidationError("the embedding method needs source docs, none configured")
    row_of = {path: row for row, path in enumerate(dataset.source_paths)}
    lists = dataset.source_tokens.take([row_of.get(path, -1) for path in universe])
    vocab, counts = id_vocabulary(lists, dataset.terms)
    rows = dataset.table.rows_of(vocab.terms)
    return ranker.embed_rows(counts, rows, dataset.table.matrix)


def check_model_nodes(model: RepresentationModel, index: Index, table: EmbeddingTable) -> None:
    """Reject a model whose nodes differ from network.node_table over the
    index, naming the first kind that differs; whose network_digest
    differs from the index's; or whose clamped rows differ from those of
    regularizer.clamp_rows, naming the first term that differs.

    A model solved under another split, bucket count, token rules, fix
    links, report text, metrics or embeddings file would not fit this run.
    The network is not built, and the rows are compared 256 at a time, so
    no second copy is made at once.
    """
    expected = node_table(
        index.train_ids, index.tfidf, index.vocab, index.universe, index.bucket_keys
    )
    what = {"B": "training reports", "T": "terms with a nonzero TF-IDF weight",
            "S": "file universe", "M": "metric buckets"}
    nodes = model.nodes
    for kind in KINDS:
        if nodes.keys[nodes.rows(kind)] != expected.keys[expected.rows(kind)]:
            raise ValidationError(
                f"the model's {kind} nodes differ from the dataset's {what[kind]} "
                "under the current settings"
            )
    if model.network_digest != network_digest(index):
        raise ValidationError(
            "the model was solved over another network: its fix links, report text or "
            "metric buckets differ from the dataset's under the current settings"
        )
    if model.dim != table.dim:
        raise ValidationError(f"the model has {model.dim} dimensions, the embeddings {table.dim}")
    rows = regularizer.clamp_rows(nodes, table)
    differs = model.clamped_rows != (rows >= 0)
    clamped = np.flatnonzero(model.clamped_rows & (rows >= 0))
    for block in np.split(clamped, range(256, len(clamped), 256)):
        bits = model.matrix[block].view(np.uint64) != table.matrix[rows[block]].view(np.uint64)
        differs[block] = bits.any(axis=1)
    if differs.any():
        node = nodes[np.argmax(differs)]
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
        self.rows, self.matrix = table.rows_of(index.vocab.terms), table.matrix
        # each learned method's file rows, prepared once for file_cosines
        self.files = {}
        if model is not None:
            check_model_nodes(model, index, table)
            rows = model.nodes.rows("S")
            self.files[evaluation.METHOD_NETREG] = ranker.prepare_rows(model.matrix[rows])
        if file_vectors is not None:
            self.files[evaluation.METHOD_EMBEDDING] = ranker.prepare_rows(file_vectors)

    def bow_matrix(self, query_rows: CSR) -> np.ndarray:
        """SimiScore of each query, one row per TF-IDF row."""
        return ranker.bow_file_scores(query_rows, self.index.bow_index)

    def learned_matrix(self, method: str, query_rows: CSR) -> np.ndarray:
        """The learned-space component of the netreg or embedding method."""
        if method not in self.files:
            raise ValidationError(f"no file vectors for the {method} method available")
        if method == evaluation.METHOD_NETREG:
            return ranker.netreg_file_scores(query_rows, self.rows, self.matrix, self.files[method])
        queries = ranker.embed_rows(query_rows, self.rows, self.matrix)
        return ranker.file_cosines(queries, self.files[method])

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
        model = solve_model(index, dataset.table, cfg)
    file_vectors = None
    if evaluation.METHOD_EMBEDDING in methods:
        file_vectors = file_embedding_vectors(dataset, index.universe)
    return Scorer(index, dataset.table, model=model, file_vectors=file_vectors)


def build_eval_context(dataset: Dataset, cfg: RunConfig, scorer: Scorer) -> evaluation.EvalContext:
    """Precompute the raw components of every query for the configured methods.

    A query's ground truth is link_matrix over its fixed files, as for the
    training fix links, with the paths outside the ranked universe
    dropped; queries left with none are excluded from scoring and listed
    in the context.
    """
    index = scorer.index
    cut = len(index.train_ids)
    truth = link_matrix(dataset.fixed_files[cut:], index.universe)
    kept = np.diff(truth.indptr) > 0
    query_ids = list(compress(index.query_ids, kept))
    excluded = list(compress(index.query_ids, ~kept))
    if excluded:
        logger.warning(
            "excluded %d of %d queries with no ground-truth file in the universe",
            len(excluded),
            len(index.query_ids),
        )
    relevant = np.zeros(truth.shape, dtype=bool)
    relevant[truth.row_ids(), truth.indices] = True
    relevant = relevant[kept]
    # each dictionary id's vocabulary column, -1 for a term no training report holds
    columns = np.array([index.vocab.index.get(term, -1) for term in dataset.terms], dtype=np.intp)
    queries = dataset.report_tokens.take(cut + np.flatnonzero(kept))
    rows = weigh_counts(queries.count_rows(columns, len(index.vocab)), index.vocab)
    methods = [method for method in cfg.methods if method != evaluation.METHOD_BOW]
    learned = {method: scorer.learned_matrix(method, rows) for method in methods}
    return evaluation.EvalContext(
        dataset_name=dataset.name,
        query_ids=query_ids,
        universe=index.universe,
        relevant=relevant,
        bow=scorer.bow_matrix(rows),
        learned=learned,
        excluded=excluded,
    )
