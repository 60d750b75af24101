"""Spans and counts recorded around calls into bugloc's modules.

The package itself is not edited: install() replaces public functions of
bugloc's modules with timing wrappers, in every bugloc module that holds a
reference to them, so calls made through `from .x import f` names are seen
too. A span is [id, parent id, name, start ns, end ns]; spans stay in memory
and are written once, when the process ends. A layer's self time is its
span's duration minus the time covered by its direct child spans.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.stack: list[int] = []

    def begin(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else -1
        rec = [len(self.spans), parent, name, 0, 0]
        self.spans.append(rec)
        self.stack.append(rec[0])
        rec[3] = _now()
        return rec

    def end(self, rec: list) -> None:
        rec[4] = _now()
        self.stack.pop()

    def wrap(self, fn, name: str, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(rec)
            if after is not None:
                after(self.counts, args, result)
            return result

        return traced

    def count(self, fn, after):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(self.counts, args, result)
            return result

        return counted

    def dump(self, path, **extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts), **extra}, fh)


def _tokens(counts, args, result):
    counts["corpus.tokens"] += len(result)


def _network(counts, args, net):
    counts["network.nodes"] += net.num_nodes()
    counts["network.edges"] += net.num_edges()


def _solve(counts, args, model):
    net = args[0]
    sweeps = model.convergence.iterations if model.convergence else 0
    movable = sum(1 for n in net.nodes if n not in model.clamped and net.neighbors(n))
    counts["regularizer.sweeps"] += sweeps
    counts["regularizer.node_updates"] += sweeps * movable


def _model_file(position):
    def after(counts, args, result):
        size = os.path.getsize(args[position]) / 1e6
        counts["regularizer.model_mb"] = max(counts["regularizer.model_mb"], size)

    return after


def _pair(counts, args, sim):
    counts["ranker.bow_pairs"] += 1
    if sim != 0.0:
        counts["ranker.bow_pairs_nonzero"] += 1


def _ap(counts, args, result):
    counts["evaluation.ap_calls"] += 1


# (module, function) -> (span name, hook run after the call)
SPANS = {
    ("corpus", "load_bug_reports"): ("corpus.load_reports", None),
    ("corpus", "load_source_docs"): ("corpus.load_sources", None),
    ("corpus", "tokenize"): ("corpus.tokenize", _tokens),
    ("corpus", "build_vocabulary"): ("corpus.vectorize", None),
    ("corpus", "bow_vectorize"): ("corpus.vectorize", None),
    ("embeddings", "load_embeddings"): ("embeddings.load", None),
    ("embeddings", "embed_tokens"): ("embeddings.embed", None),
    ("metrics", "load_metrics"): ("metrics.load_discretize", None),
    ("metrics", "discretize"): ("metrics.load_discretize", None),
    ("network", "build_network"): ("network.build", _network),
    ("regularizer", "solve"): ("regularizer.solve", _solve),
    ("regularizer", "sweep_update"): ("regularizer.sweep", None),
    ("regularizer", "energy"): ("regularizer.energy", None),
    ("regularizer", "dump_model"): ("regularizer.dump", _model_file(1)),
    ("regularizer", "load_model"): ("regularizer.load", _model_file(0)),
    ("pipeline", "load_dataset"): ("pipeline.load_dataset", None),
    ("pipeline", "build_index"): ("pipeline.build_index", None),
    ("pipeline", "prepare_scorer"): ("pipeline.prepare_scorer", None),
    ("pipeline", "file_embedding_vectors"): ("pipeline.file_vectors", None),
    ("pipeline", "build_eval_context"): ("pipeline.eval_context", None),
    ("ranker", "bow_file_scores"): ("ranker.bow", None),
    ("ranker", "netreg_file_scores"): ("ranker.netreg", None),
    ("ranker", "combine_and_rank"): ("ranker.combine", None),
    ("evaluation", "evaluate_methods"): ("evaluation.evaluate", None),
    ("evaluation", "sweep_alpha"): ("evaluation.sweep", None),
    ("evaluation", "paired_t_test"): ("evaluation.ttest", None),
}

# called too often for a span each: counted only
COUNTED = {
    ("ranker", "cosine_bow"): _pair,
    ("evaluation", "average_precision_at_k"): _ap,
}


def install(tracer: Tracer) -> list[str]:
    """Wrap every listed function that the loaded bugloc modules define.

    Returns the "module.function" names that were not found, so a renamed
    function shows as a missing span instead of an error.
    """
    missing = []
    plan = [(key, tracer.wrap, (name, hook)) for key, (name, hook) in SPANS.items()]
    plan += [(key, tracer.count, (hook,)) for key, hook in COUNTED.items()]
    loaded = [m for n, m in list(sys.modules.items()) if n == "bugloc" or n.startswith("bugloc.")]
    for (module, func), make, extra in plan:
        owner = sys.modules.get(f"bugloc.{module}")
        original = getattr(owner, func, None)
        if original is None:
            missing.append(f"{module}.{func}")
            continue
        replacement = make(original, *extra)
        for mod in loaded:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
    return missing


def self_times(spans) -> tuple[Counter, Counter, Counter]:
    """Per span name: summed self seconds, summed inclusive seconds, calls."""
    child = Counter()
    for sid, parent, name, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    own, total, calls = Counter(), Counter(), Counter()
    for sid, parent, name, start, end in spans:
        own[name] += (end - start - child[sid]) / 1e9
        total[name] += (end - start) / 1e9
        calls[name] += 1
    return own, total, calls


# per-layer metric -> span names whose self time it sums
SELF_SECONDS = {
    "cli.import_s": ("cli.import",),
    "corpus.load_reports_s": ("corpus.load_reports",),
    "corpus.load_sources_s": ("corpus.load_sources",),
    "corpus.tokenize_s": ("corpus.tokenize",),
    "corpus.vectorize_s": ("corpus.vectorize",),
    "embeddings.load_s": ("embeddings.load",),
    "embeddings.embed_s": ("embeddings.embed",),
    "metrics.load_discretize_s": ("metrics.load_discretize",),
    "network.build_s": ("network.build",),
    "regularizer.solve_s": ("regularizer.solve",),
    "regularizer.energy_s": ("regularizer.energy",),
    "regularizer.dump_s": ("regularizer.dump",),
    "regularizer.load_s": ("regularizer.load",),
    "pipeline.load_dataset_s": ("pipeline.load_dataset",),
    "pipeline.build_index_s": ("pipeline.build_index",),
    "pipeline.prepare_scorer_s": ("pipeline.prepare_scorer",),
    "pipeline.file_vectors_s": ("pipeline.file_vectors",),
    "pipeline.eval_context_s": ("pipeline.eval_context",),
    "ranker.bow_s": ("ranker.bow",),
    "ranker.netreg_s": ("ranker.netreg",),
    "ranker.combine_s": ("ranker.combine",),
    "evaluation.evaluate_s": ("evaluation.evaluate",),
    "evaluation.sweep_s": ("evaluation.sweep",),
    "evaluation.ttest_s": ("evaluation.ttest",),
}

# per-layer metric -> span whose mean inclusive duration per call it reports, in ms
PER_CALL_MS = {
    "regularizer.sweep_ms": "regularizer.sweep",
    "ranker.bow_query_ms": "ranker.bow",
    "ranker.netreg_query_ms": "ranker.netreg",
    "ranker.combine_ms": "ranker.combine",
}

# per-layer metric -> span whose calls it counts
CALLS = {
    "embeddings.embed_calls": "embeddings.embed",
    "regularizer.solve_calls": "regularizer.solve",
    "pipeline.eval_context_builds": "pipeline.eval_context",
    "ranker.bow_calls": "ranker.bow",
    "ranker.combine_calls": "ranker.combine",
}

COUNTS = (
    "corpus.tokens",
    "network.nodes",
    "network.edges",
    "regularizer.sweeps",
    "regularizer.node_updates",
    "regularizer.model_mb",
    "ranker.bow_pairs",
    "evaluation.ap_calls",
)


def layer_metrics(traces) -> dict[str, float]:
    """Per-layer metrics summed over the traced processes of one run."""
    own, total, calls, counts = Counter(), Counter(), Counter(), Counter()
    for trace in traces:
        o, t, c = self_times(trace["spans"])
        own.update(o)
        total.update(t)
        calls.update(c)
        for key, value in trace["counts"].items():
            if key == "regularizer.model_mb":
                counts[key] = max(counts[key], value)
            else:
                counts[key] += value
    out: dict[str, float] = {}
    for metric, names in SELF_SECONDS.items():
        out[metric] = sum(own[n] for n in names)
    for metric, name in PER_CALL_MS.items():
        out[metric] = 1000.0 * total[name] / calls[name] if calls[name] else 0.0
    for metric, name in CALLS.items():
        out[metric] = calls[name]
    for metric in COUNTS:
        out[metric] = counts[metric]
    pairs = counts["ranker.bow_pairs"]
    out["ranker.bow_nonzero_ratio"] = counts["ranker.bow_pairs_nonzero"] / pairs if pairs else 0.0
    return out
