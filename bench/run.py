#!/usr/bin/env python3
"""The bugloc benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (README.md says why each was chosen):

* eval-m   offline evaluation at M: `bugloc ingest`, `solve`, `eval --model`
           and `sweep` as subprocesses, in whole rounds;
* solve-l  the model build at L: `bugloc ingest` and `bugloc solve`;
* query-l  online ranking at L: clients that set up like `bugloc query
           --model` and rank held-out reports one at a time.

Inputs come from bugloc.synthgen with --seed, untimed. Every output is
checked against the references in reference.py or against properties it
must have. Human-readable lines go first; the last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones; with --trace 1 the run does one
untraced and one traced round and reports the per-layer ones.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import reference as ref
import tracer as tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# SynthSpec fields per workload; topic_count and the rest keep their defaults
SPECS = {
    "eval-m": dict(num_reports=1000, num_files=200, vocab_size=2000, dim=50),
    "solve-l": dict(num_reports=5000, num_files=1000, vocab_size=5000, dim=100),
    "query-l": dict(num_reports=5000, num_files=1000, vocab_size=5000, dim=100),
}
# CLI commands of one round, and the ones that make up the timed operation
ROUNDS = {"eval-m": ("ingest", "solve", "eval", "sweep"), "solve-l": ("ingest", "solve")}
OPERATION = {"eval-m": ("solve", "eval", "sweep"), "solve-l": ("solve",)}
# outputs that must be byte-identical in every round
DETERMINISTIC = {"eval-m": ("model.tsv", "results.csv", "ttests.csv", "sweep.csv"), "solve-l": ("model.tsv",)}

QUERY_CLIENTS = 3  # sequential clients, so set-up is measured three times
QUERY_MIN = 70  # rankings per client at least; query MAP@10 is over these
QUERY_SAMPLE_EVERY = 25  # keep the score components of every 25th ranking
TRACE_QUERIES = 100  # rankings of each client in a --trace 1 run

E2E_UNITS = {"setup_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@dataclass
class Proc:
    seconds: float
    rss_mb: float
    code: int


def run_process(argv, log: Path, wait_ready: bool = False) -> tuple[Proc, float | None]:
    """Run argv to its end; wall time, peak RSS and exit code via wait4.

    With wait_ready, also return the time until the child printed its
    "ready" line (None if it never did).
    """
    ready = None
    with open(log, "ab") as log_file:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=_env(), stderr=log_file,
            stdout=subprocess.PIPE if wait_ready else log_file,
        )
        try:
            if wait_ready:
                for line in proc.stdout:
                    if line.strip() == b"ready":
                        ready = time.perf_counter() - start
                        break
                proc.stdout.read()
                proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(seconds, usage.ru_maxrss * 1024 / 1e6, proc.returncode), ready


def bugloc_argv(command, data, out, *extra, trace=None) -> list[str]:
    if trace is None:
        head = [sys.executable, "-m", "bugloc"]
    else:
        head = [sys.executable, str(BENCH / "traced_cli.py"), str(trace)]
    return head + [command, "--dataset-dir", str(data), "--out-dir", str(out), *extra]


def generate(workload: str, seed: int, data: Path) -> None:
    sys.path.insert(0, str(SRC))
    from bugloc import synthgen

    synthgen.generate(synthgen.SynthSpec(seed=seed, **SPECS[workload]), data)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Outcome:
    problems: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    info: list = field(default_factory=list)  # human-readable lines


def cli_round(workload, data, out, log, trace_dir=None) -> dict[str, Proc]:
    if out.exists():
        shutil.rmtree(out)
    procs = {}
    for command in ROUNDS[workload]:
        extra = ("--model", str(out / "model.tsv")) if command == "eval" else ()
        trace = trace_dir / f"{command}.json" if trace_dir else None
        procs[command], _ = run_process(bugloc_argv(command, data, out, *extra, trace=trace), log)
    return procs


def run_cli_workload(workload, args, work, data, result: Outcome) -> None:
    log = work / "log.txt"
    out = work / "out"
    network = work / "network"
    if workload == "solve-l":
        proc, _ = run_process(bugloc_argv("build", data, network), log)
        if proc.code:
            raise RuntimeError("bugloc build failed; see .bench_work/solve-l/log.txt")

    rounds, digests = [], set()
    trace_dir = work / "trace"
    start = time.perf_counter()
    while True:
        traced = args.trace and len(rounds) == 1
        if traced:
            trace_dir.mkdir()
        rounds.append(cli_round(workload, data, out, log, trace_dir if traced else None))
        result.attempted += len(rounds[-1])
        result.failed += sum(1 for p in rounds[-1].values() if p.code)
        if not result.failed:
            digests.add(tuple(_digest(out / name) for name in DETERMINISTIC[workload]))
        done = len(rounds) == 2 if args.trace else time.perf_counter() - start >= args.seconds
        if done:
            break
    if result.failed:
        result.problems.append(f"{result.failed} bugloc processes failed; see .bench_work/{workload}/log.txt")
        return
    if len(digests) != 1:
        result.problems.append(f"{', '.join(DETERMINISTIC[workload])} differ between rounds")

    if workload == "eval-m":
        figures = checks.check_eval(data, out, result.problems)
    else:
        tolerance = json.loads((out / "manifest.json").read_text())["config"]["tolerance"]
        figures = checks.check_model(data, out / "model.tsv", network / "network.csv", tolerance, result.problems)

    if args.trace:
        untraced, traced = (sum(p.seconds for p in r.values()) for r in rounds)
        traces = [json.loads((trace_dir / f"{c}.json").read_text()) for c in ROUNDS[workload]]
        report_layers(result, traces, traced - untraced, untraced, work, args)
        return
    by_command = {c: [r[c].seconds for r in rounds] for c in ROUNDS[workload]}
    operations = [sum(r[c].seconds for c in OPERATION[workload]) for r in rounds]
    metrics = {
        "setup_s": statistics.median(by_command["ingest"]),
        "op_p50_ms": 1000.0 * statistics.median(operations),
        "peak_rss_mb": max(p.rss_mb for r in rounds for p in r.values()),
    }
    result.metrics = {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}
    result.info.append(f"{workload}: {len(rounds)} rounds of {', '.join(ROUNDS[workload])}")
    for command, times in by_command.items():
        name = "setup_s" if command == "ingest" else f"{command}_s"
        result.info.append(f"{name} {statistics.median(times):.4f} s (median of {len(times)} `bugloc {command}`)")
    for name, value in figures.items():
        result.info.append(f"{name} {value:.6g}")


def run_query_workload(args, work, data, result: Outcome) -> None:
    log = work / "log.txt"
    out = work / "out"
    for command in ("ingest", "solve"):
        proc, _ = run_process(bugloc_argv(command, data, out), log)
        if proc.code:
            raise RuntimeError(f"bugloc {command} failed; see .bench_work/query-l/log.txt")

    queries, _ = checks.scored_queries(ref.load_split(data))
    random.Random(args.seed).shuffle(queries)
    stream = work / "stream.jsonl"
    with open(stream, "w", encoding="utf-8") as fh:
        for q in queries:
            fh.write(json.dumps({k: q[k] for k in ("id", "summary", "description")}) + "\n")
    n = len(queries)
    slices = [(i * n // QUERY_CLIENTS, (i + 1) * n // QUERY_CLIENTS) for i in range(QUERY_CLIENTS)]

    def client(name, slice_, seconds, minimum, trace=False):
        spec = {
            "dataset_dir": str(data), "out_dir": str(out), "model": str(out / "model.tsv"),
            "stream": str(stream), "slice": slice_, "seconds": seconds, "min_queries": minimum,
            "sample_every": QUERY_SAMPLE_EVERY, "result": str(work / f"{name}.result.json"),
            "trace": str(work / f"{name}.trace.json") if trace else None,
        }
        spec_path = work / f"{name}.spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        proc, ready = run_process([sys.executable, str(BENCH / "query_client.py"), str(spec_path)], log, wait_ready=True)
        outcome = json.loads(Path(spec["result"]).read_text()) if proc.code == 0 else None
        result.attempted += 1 + (outcome["attempted"] if outcome else 0)
        result.failed += (proc.code != 0) + (outcome["failed"] if outcome else 0)
        return proc, ready, outcome

    if args.trace:
        runs = [client(name, slices[0], 0, TRACE_QUERIES, trace=name == "traced") for name in ("untraced", "traced")]
    else:
        runs = [client(f"client{i}", s, args.seconds / QUERY_CLIENTS, QUERY_MIN) for i, s in enumerate(slices)]
    if result.failed:
        result.problems.append(f"{result.failed} set-ups or rankings failed; see .bench_work/query-l/log.txt")
        return
    outcomes = [o for _, _, o in runs]
    alpha, k = outcomes[0]["alpha"], outcomes[0]["k"]
    figures = checks.check_rankings(data, out / "model.tsv", outcomes, alpha, k, QUERY_MIN, result.problems)

    if args.trace:
        untraced, traced = (p.seconds for p, _, _ in runs)
        trace = json.loads((work / "traced.trace.json").read_text())
        report_layers(result, [trace], traced - untraced, untraced, work, args)
        return
    latencies = [x for o in outcomes for x in o["latencies"]]
    p95 = statistics.quantiles(latencies, n=20)[18]
    beyond = sum(1 for x in latencies if x > p95)
    setups = [ready for _, ready, _ in runs]
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": 1000.0 * statistics.median(latencies),
        "peak_rss_mb": max(p.rss_mb for p, _, _ in runs),
    }
    result.metrics = {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}
    result.info += [
        f"query-l: {QUERY_CLIENTS} clients, {len(latencies)} rankings of {n} distinct held-out reports",
        f"setup_s {metrics['setup_s']:.4f} s (median of {len(setups)})",
        f"query_p50_ms {metrics['op_p50_ms']:.4f} ms",
        f"query_p95_ms {1000.0 * p95:.4f} ms ({beyond} of {len(latencies)} rankings beyond it)",
        f"query_qps {len(latencies) / sum(o['elapsed'] for o in outcomes):.4f} 1/s",
        f"query_map10 {figures['query_map10']:.6f} (first {QUERY_MIN} rankings of each client)",
        f"checked {figures['rankings_checked']} rankings, {figures['components_checked']} with their components",
    ]


def report_layers(result: Outcome, traces, overhead, untraced, work, args) -> None:
    layers = tracing.layer_metrics(traces)
    layers["trace.overhead_s"] = overhead
    missing = sorted({m for t in traces for m in t.get("missing", ())})
    if missing:
        # a layer that is not traced would read 0, which looks like a gain
        result.problems.append(f"bugloc functions not found, so their layer metrics would read 0: {', '.join(missing)};"
                               " bench/tracer.py lists the functions it wraps")
    result.info.append(f"tracing overhead {overhead:.3f} s on {untraced:.3f} s untraced ({100 * overhead / untraced:.1f} %)")
    with open(work / "trace.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "layers": layers, "processes": traces}, fh)
    result.metrics = {k: (v, layer_unit(k)) for k, v in layers.items()}


def layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_mb", "MB"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bugloc" / "__init__.py").is_file():
        print(f"error: no bugloc sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    compileall.compile_dir(SRC / "bugloc", quiet=1)  # the first run of a checkout would pay it
    work = WORK / args.workload
    if work.exists():
        shutil.rmtree(work)
    data = work / "data"
    generate(args.workload, args.seed, data)
    result = Outcome()
    if args.workload == "query-l":
        run_query_workload(args, work, data, result)
    else:
        run_cli_workload(args.workload, args, work, data, result)

    for problem in result.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for line in result.info:
        print(line)
    for name, (value, unit) in result.metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
