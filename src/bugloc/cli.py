"""Command-line interface.

Subcommands: ingest, build, solve, query, eval, synth, and sweep, an alias
of eval. eval writes results.csv, ttests.csv and sweep.csv from one
evaluation pass. Settings come from defaults, then an optional JSON config
file, then the flags each subcommand reads. Each run writes a
machine-readable manifest next to its outputs. Exit codes: 0 success, 1
validation failure, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import sys
import traceback
from pathlib import Path

from . import __version__, evaluation, pipeline, ranker, regularizer, synthgen
from .corpus import load_query_reports, tfidf_rows, tokenize
from .errors import ValidationError, write_csv
from .network import validate_network, write_edge_csv

logger = logging.getLogger(__name__)

MODEL_NAME = "model.tsv"


class _UsageError(ValidationError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _methods(text: str) -> tuple[str, ...]:
    return tuple(m.strip() for m in text.split(",") if m.strip())


# Every flag, declared once. An override flag's dest is the RunConfig field
# it sets, and a synth spec flag's dest is the SynthSpec field it sets.
_FLAGS = {
    "--config": dict(help="JSON config file"),
    "--dataset-dir": dict(help="directory holding reports.jsonl, sources.jsonl, metrics.csv, embeddings.txt"),
    "--out-dir": dict(help="output directory"),
    "--report": dict(required=True, help="JSON file with one report object, or JSONL batch"),
    "--model": dict(help="model dump to load (defaults to solving fresh)"),
    "--alpha": dict(type=float, help="combination weight in [0, 1]"),
    "--k": dict(type=int, help="ranking depth"),
    "--methods": dict(type=_methods, help="comma-separated subset of bow,embedding,netreg"),
    "--buckets": dict(dest="buckets_per_metric", metavar="BUCKETS", type=int, help="quantile buckets per metric"),
    "--max-iters": dict(type=int, help="solver iteration limit"),
    "--tolerance": dict(type=float, help="solver convergence tolerance"),
    "--seed": dict(type=int, help="random seed"),
    "--num-reports": dict(type=int),
    "--num-files": dict(type=int),
    "--vocab-size": dict(type=int),
    "--dim": dict(type=int),
    "--topics": dict(dest="topic_count", metavar="TOPICS", type=int),
    "--noise-rate": dict(type=float),
    "--no-synonym-split": dict(dest="synonym_split", action="store_false", default=None),
}
_INPUTS = ("--config", "--dataset-dir", "--out-dir")
_SOLVE = (*_INPUTS, "--buckets", "--max-iters", "--tolerance")
_EVAL = (*_SOLVE, "--model", "--methods")
_RUN_FIELDS = {f.name for f in dataclasses.fields(pipeline.RunConfig)}
_SPEC_FIELDS = {f.name for f in dataclasses.fields(synthgen.SynthSpec)}


def _build_parser() -> _Parser:
    parser = _Parser(prog="bugloc", description=__doc__)
    parser.add_argument("--version", action="version", version=f"bugloc {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, (_, flags, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def _resolve_config(args) -> pipeline.RunConfig:
    """Defaults, then --config, then --dataset-dir, then each override flag given."""
    cfg = pipeline.RunConfig.from_file(args.config) if args.config else pipeline.RunConfig()
    if getattr(args, "dataset_dir", None):
        cfg.apply_dataset_dir(args.dataset_dir)
    for name, value in vars(args).items():
        if name in _RUN_FIELDS and value is not None:
            setattr(cfg, name, value)
    cfg.validate()
    return cfg


def _write_manifest(cfg: pipeline.RunConfig, command: str, extra: dict | None = None) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    config_dict = cfg.to_dict()
    blob = json.dumps(config_dict, sort_keys=True).encode()
    manifest = {
        "command": command,
        "package_version": __version__,
        "config": config_dict,
        "config_sha256": hashlib.sha256(blob).hexdigest(),
        "inputs": pipeline.input_hashes(cfg),
    }
    extra = extra or {}
    clash = sorted(manifest.keys() & extra.keys())
    if clash:
        raise ValueError(f"manifest keys {clash} are set by every command")
    manifest.update(extra)
    path = out / "manifest.json"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


_MAP_HEADER = ("method", "dataset", "alpha", "k", "map", "num_queries")
_TTEST_HEADER = (
    "method_a", "method_b", "k", "alpha_a", "alpha_b",
    "t_statistic", "p_value", "significant", "degenerate",
)


def _map_rows(rows):
    for row in rows:
        yield (
            row.method, row.dataset, f"{row.alpha:.2f}", row.k,
            f"{row.map_value:.6f}", row.num_queries,
        )


def _ttest_rows(result: evaluation.EvalResult, ks):
    methods = sorted({method for method, _ in result.per_query_ap})
    for i, method_a in enumerate(methods):
        for method_b in methods[i + 1 :]:
            for k in ks:
                alpha_a, aps_a = result.per_query_ap[(method_a, k)]
                alpha_b, aps_b = result.per_query_ap[(method_b, k)]
                if len(aps_a) < 2:
                    continue
                test = evaluation.paired_t_test(aps_a, aps_b)
                yield (
                    method_a, method_b, k,
                    f"{alpha_a:.2f}", f"{alpha_b:.2f}",
                    f"{test.t_statistic:.6f}", f"{test.p_value:.6f}",
                    int(test.significant), int(test.degenerate),
                )


def _load_model_arg(args):
    return regularizer.load_model(args.model) if args.model else None


def cmd_ingest(args) -> int:
    cfg = _resolve_config(args)
    dataset = pipeline.load_dataset(cfg, use_cache=False)
    corpus = dataset.corpus
    cache_path = pipeline.write_dataset_cache(cfg, dataset)
    summary = {
        "reports": len(corpus.report_ids),
        "reports_without_tokens": int((corpus.report_tokens.lengths() == 0).sum()),
        "source_docs": len(corpus.source_paths or ()),
        "metric_records": len(dataset.metric_records),
        "embedding_tokens": len(dataset.table),
        "cache": str(cache_path),
    }
    _write_manifest(cfg, "ingest", {"summary": summary})
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_build(args) -> int:
    cfg = _resolve_config(args)
    dataset = pipeline.load_dataset(cfg)
    index = pipeline.build_index(dataset, cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    edge_path = out / "network.csv"
    write_edge_csv(index.network, edge_path)
    diags = validate_network(index.network)
    for diag in diags:
        print(f"{diag['severity']}: {diag['code']}: {diag['message']}")
    _write_manifest(
        cfg,
        "build",
        {
            "network": {
                "nodes": index.network.num_nodes(),
                "edges": index.network.num_edges(),
                "diagnostics": diags,
            }
        },
    )
    print(f"wrote {edge_path}")
    return 0


def cmd_solve(args) -> int:
    cfg = _resolve_config(args)
    dataset = pipeline.load_dataset(cfg)
    index = pipeline.build_index(dataset, cfg)
    model = pipeline.solve_model(index, dataset.table, cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model_path = out / MODEL_NAME
    regularizer.dump_model(model, model_path)
    report = model.convergence.to_dict() if model.convergence else None
    _write_manifest(cfg, "solve", {"convergence": report, "model": str(model_path)})
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"wrote {model_path}")
    return 0


_UNSAFE_ID_PARTS = ("/", "\\", "..", "\0")


def cmd_query(args) -> int:
    cfg = _resolve_config(args)
    # check the report file before the dataset load, the slow part of the set-up
    queries = load_query_reports(args.report)
    if not queries:
        raise ValidationError(f"{args.report} holds no reports")
    batch = len(queries) > 1
    if batch:
        # each id names its output file, so it must not leave --out-dir
        for report in queries:
            if any(part in report.id for part in _UNSAFE_ID_PARTS):
                raise ValidationError(
                    f"{args.report}: report id {report.id!r} cannot name an output file"
                )
    # and the model, so that one that cannot be loaded fails before the load too
    model = _load_model_arg(args)
    dataset = pipeline.load_dataset(cfg)
    scorer = pipeline.prepare_scorer(
        dataset, cfg, model=model, methods=(evaluation.METHOD_NETREG,)
    )
    rules = cfg.token_rules()
    rows = tfidf_rows([tokenize(report.text, rules) for report in queries], scorer.index.vocab)
    top, scores = ranker.blend_and_rank(
        ranker.minmax_rows(scorer.bow_matrix(rows)),
        ranker.minmax_rows(scorer.learned_matrix(evaluation.METHOD_NETREG, rows)),
        cfg.alpha,
        cfg.k,
    )
    out = Path(cfg.out_dir)
    if batch:
        out.mkdir(parents=True, exist_ok=True)
    paths = scorer.index.universe
    for report, columns, values in zip(queries, top.tolist(), scores.tolist()):
        write_csv(
            out / f"query_{report.id}.csv" if batch else sys.stdout,
            ("rank", "path", "score"),
            ((rank, paths[j], f"{s:.8f}") for rank, (j, s) in enumerate(zip(columns, values), 1)),
        )
    if batch:
        _write_manifest(cfg, "query", {"queries": [r.id for r in queries]})
        print(f"wrote {len(queries)} rankings to {out}")
    return 0


def cmd_eval(args) -> int:
    cfg = _resolve_config(args)
    # a model that cannot be loaded fails before the dataset load, the slow part
    model = _load_model_arg(args)
    dataset = pipeline.load_dataset(cfg)
    scorer = pipeline.prepare_scorer(dataset, cfg, model=model)
    ctx = pipeline.build_eval_context(dataset, cfg, scorer=scorer)
    result = evaluation.evaluate_methods(ctx, cfg.eval_config())
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results_path = out / "results.csv"
    write_csv(results_path, _MAP_HEADER, _map_rows(result.rows))
    ttests_path = out / "ttests.csv"
    write_csv(ttests_path, _TTEST_HEADER, _ttest_rows(result, cfg.ks))
    sweep_path = out / "sweep.csv"
    write_csv(sweep_path, _MAP_HEADER, _map_rows(result.sweep))
    convergence = (
        scorer.model.convergence.to_dict()
        if scorer.model is not None and scorer.model.convergence is not None
        else None
    )
    _write_manifest(
        cfg,
        args.command,
        {
            "convergence": convergence,
            "num_queries": len(ctx.query_ids),
            "excluded_queries": ctx.excluded,
        },
    )
    for row in result.rows:
        print(
            f"{row.method:10s} k={row.k:<3d} alpha={row.alpha:.2f} "
            f"map={row.map_value:.4f} queries={row.num_queries}"
        )
    print(f"wrote {results_path}, {ttests_path} and {sweep_path}")
    return 0


def cmd_synth(args) -> int:
    cfg = _resolve_config(args)
    given = {
        name: value for name, value in vars(args).items()
        if name in _SPEC_FIELDS and value is not None
    }
    spec = synthgen.SynthSpec(**{**given, "seed": cfg.seed})
    corpus = synthgen.generate(spec, cfg.out_dir)
    config_path = Path(cfg.out_dir) / "config.json"
    dataset_cfg = {
        "dataset_name": Path(cfg.out_dir).name or "synthetic",
        "reports": corpus.reports_path.name,
        "sources": corpus.sources_path.name,
        "metrics": corpus.metrics_path.name,
        "embeddings": corpus.embeddings_path.name,
        "out_dir": str(Path(cfg.out_dir) / "out"),
    }
    with open(config_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(dataset_cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")
    extra = {"spec": spec.__dict__, "allocation": corpus.allocation}
    _write_manifest(cfg, "synth", {**extra, "dataset_config": str(config_path)})
    print(f"wrote dataset to {cfg.out_dir} (config: {config_path})")
    return 0


# name: (handler, the flags it reads, help); any other flag is a usage error
_COMMANDS = {
    "ingest": (cmd_ingest, _INPUTS, "validate inputs and cache the loaded dataset"),
    "build": (cmd_build, (*_INPUTS, "--buckets"), "build the typed network and dump its edges"),
    "solve": (cmd_solve, _SOLVE, "solve the representation model and dump it"),
    "query": (cmd_query, (*_SOLVE, "--report", "--model", "--alpha", "--k"), "rank files for one report"),
    "eval": (
        cmd_eval,
        _EVAL,
        "MAP of each method at its best alpha, paired t-tests, and MAP at every grid alpha",
    ),
    "sweep": (cmd_eval, _EVAL, "alias of eval; kept while the benchmark's eval-m round calls it"),
    "synth": (
        cmd_synth,
        ("--config", "--out-dir", "--seed", "--num-reports", "--num-files", "--vocab-size",
         "--dim", "--topics", "--noise-rate", "--no-synonym-split"),
        "generate a synthetic dataset",
    ),
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            parser.print_help()
            return 1
        return _COMMANDS[args.command][0](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 2
    except Exception as exc:  # noqa: BLE001
        traceback.print_exc()
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
