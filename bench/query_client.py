"""One client of the query-l stream.

Sets up the way `bugloc query --model` does (load_dataset, load_model,
prepare_scorer with the netreg method), prints "ready" once the first
report can be ranked, then ranks its slice of the stream one report at a
time, each after the previous one is done (a closed loop with one client).

Usage: python bench/query_client.py SPEC_JSON

The spec holds dataset_dir, out_dir, model, stream (JSONL of reports),
slice [lo, hi), seconds, min_queries, sample_every, result (output JSON)
and, for a traced client, trace (output JSON of spans and counts).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

# a client ranks whole rounds of this many reports
ROUND = 10


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    tracer = None
    if spec.get("trace"):
        import tracer as tracing

        tracer = tracing.Tracer()
        span = tracer.begin("cli.import")
    from bugloc import corpus, evaluation, pipeline, ranker, regularizer

    missing = []
    if tracer:
        tracer.end(span)
        missing = tracing.install(tracer)
        span = tracer.begin("setup")
    cfg = pipeline.RunConfig()
    cfg.apply_dataset_dir(spec["dataset_dir"])
    cfg.out_dir = spec["out_dir"]
    cfg.validate()
    dataset = pipeline.load_dataset(cfg)
    model = regularizer.load_model(spec["model"])
    scorer = pipeline.prepare_scorer(
        dataset, cfg, model=model, methods=(evaluation.METHOD_NETREG,)
    )
    rules = cfg.token_rules()
    if tracer:
        tracer.end(span)
    print("ready", flush=True)

    with open(spec["stream"], encoding="utf-8") as fh:
        stream = [json.loads(line) for line in fh if line.strip()]
    lo, hi = spec["slice"]
    reports = stream[lo:hi]
    universe = sorted(scorer.index.universe)
    latencies, rankings, components = [], [], {}
    failed = 0
    done = 0
    start = time.perf_counter()
    deadline = start + spec["seconds"]
    while done < spec["min_queries"] or time.perf_counter() < deadline:
        for _ in range(ROUND):
            report = reports[done % len(reports)]
            done += 1
            text = report["summary"] + "\n" + report["description"]
            span = tracer.begin("query") if tracer else None
            t0 = time.perf_counter()
            try:
                tokens = corpus.tokenize(text, rules)
                bow = scorer.bow_scores(tokens)
                learned = scorer.netreg_scores(tokens)
                result = ranker.combine_and_rank(bow, learned, cfg.alpha, cfg.k, query_id=report["id"])
            except Exception as exc:  # noqa: BLE001 - a failed ranking is counted, not fatal
                failed += 1
                print(f"{report['id']}: {exc!r}", file=sys.stderr)
                continue
            finally:
                if span:
                    tracer.end(span)
            latencies.append(time.perf_counter() - t0)
            rankings.append([report["id"], result.ranking])
            if (done - 1) % spec["sample_every"] == 0:
                components[report["id"]] = {
                    "bow": [bow[p] for p in universe],
                    "learned": [learned[p] for p in universe],
                }
    elapsed = time.perf_counter() - start

    result = {
        "attempted": done,
        "failed": failed,
        "elapsed": elapsed,
        "latencies": latencies,
        "rankings": rankings,
        "components": components,
        "universe": universe,
        "alpha": cfg.alpha,
        "k": cfg.k,
    }
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    if tracer:
        tracer.dump(spec["trace"], missing=missing)
    return 0


if __name__ == "__main__":
    sys.exit(main())
