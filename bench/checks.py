"""Checks of bugloc's outputs against the references in reference.py and
against properties the outputs must have. Each check appends a message to
`problems` for every violation it finds and returns the figures it read."""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

import reference as ref

METHODS = ("bow", "embedding", "netreg")
KS = (1, 5, 10)
ALPHAS = tuple(f"{i / 20:.2f}" for i in range(21))
# the planted-signal margin of netreg over bow that the acceptance suite uses
PLANTED_MARGIN = 0.05
# Gauss-Seidel stops once no node moves by tolerance in a sweep. With a
# contraction rate rho the remaining error is at most rho / (1 - rho) times
# that move, so 10 x tolerance holds for any rate up to 10/11.
SOLVER_GAP_FACTOR = 10.0


def _rows(path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def scored_queries(split: ref.Split) -> tuple[list[dict], list[set]]:
    """Held-out reports with at least one fixed file in the universe."""
    universe = set(split.universe)
    queries, relevant = [], []
    for report in split.queries:
        rel = set(report["fixed_files"]) & universe
        if rel:
            queries.append(report)
            relevant.append(rel)
    return queries, relevant


def check_eval(dataset_dir, out_dir, problems: list) -> dict:
    """results.csv and sweep.csv of `bugloc eval` / `bugloc sweep`."""
    out = Path(out_dir)
    results = _rows(out / "results.csv")
    got = [(r["method"], int(r["k"])) for r in results]
    want = [(m, k) for m in METHODS for k in KS]
    if got != want:
        problems.append(f"results.csv rows {got} are not one per method x k {want}")
        return {}
    maps = {(r["method"], int(r["k"])): r for r in results}
    for r in results:
        if not 0.0 <= float(r["map"]) <= 1.0:
            problems.append(f"results.csv MAP {r['map']} outside [0, 1]")
        if r["method"] == "bow" and r["alpha"] != "0.00":
            problems.append(f"bow is reported at alpha {r['alpha']}, not 0")

    sweep: dict[tuple, str] = {}
    for r in _rows(out / "sweep.csv"):
        sweep[(r["method"], r["alpha"], int(r["k"]))] = r["map"]
    if set(sweep) != {(m, a, k) for m in METHODS for a in ALPHAS for k in KS}:
        problems.append("sweep.csv does not hold one row per method x grid alpha x k")
        return {}
    for m in METHODS:
        for k in KS:
            if sweep[(m, "0.00", k)] != sweep[("bow", "0.00", k)]:
                problems.append(f"sweep.csv: {m} at alpha 0 differs from bow at k={k}")
            grid = [(float(sweep[(m, a, k)]), a) for a in ALPHAS]
            best = max(v for v, _ in grid)
            first = min(a for v, a in grid if v == best)
            row = maps[(m, k)]
            if float(row["map"]) != best or row["alpha"] != first:
                problems.append(
                    f"results.csv {m} k={k} reads {row['map']} at {row['alpha']}, "
                    f"but the sweep maximum is {best:.6f} first reached at {first}"
                )

    split = ref.load_split(dataset_dir)
    tfidf = ref.TfIdf([ref.report_tokens(r) for r in split.train])
    queries, relevant = scored_queries(split)
    scores = ref.simi_scores(
        tfidf.vectorize([ref.report_tokens(q) for q in queries]),
        tfidf,
        ref.link_matrix(split.train, split.universe),
    )
    top = [ref.top_k(ref.minmax(row), max(KS)) for row in scores]
    for k in KS:
        rankings = [[split.universe[j] for j in cols] for cols in top]
        expected = f"{ref.map_at_k(rankings, relevant, k):.6f}"
        if maps[("bow", k)]["map"] != expected:
            problems.append(f"bow MAP@{k} is {maps[('bow', k)]['map']}, SimiScore reference gives {expected}")
        if int(maps[("bow", k)]["num_queries"]) != len(queries):
            problems.append(f"results.csv counts {maps[('bow', k)]['num_queries']} queries, expected {len(queries)}")

    learned = _learned_scores(dataset_dir, ref.read_model(out / "model.tsv"), split, tfidf, queries, problems)
    if learned is not None:
        for alpha in ALPHAS:
            top = [ref.top_k(ref.blend(b, l, float(alpha)), max(KS)) for b, l in zip(scores, learned)]
            for k in KS:
                rankings = [[split.universe[j] for j in cols] for cols in top]
                expected = f"{ref.map_at_k(rankings, relevant, k):.6f}"
                if sweep[("netreg", alpha, k)] != expected:
                    problems.append(f"netreg MAP@{k} at alpha {alpha} is {sweep[('netreg', alpha, k)]}, the reference gives {expected}")

    bow10 = float(maps[("bow", 10)]["map"])
    netreg10 = float(maps[("netreg", 10)]["map"])
    if netreg10 - bow10 < PLANTED_MARGIN:
        problems.append(f"netreg MAP@10 {netreg10} does not beat bow {bow10} by {PLANTED_MARGIN}")
    return {"bow_map10": bow10, "netreg_map10": netreg10, "netreg_alpha10": float(maps[("netreg", 10)]["alpha"])}


def _learned_scores(dataset_dir, model, split, tfidf, queries, problems) -> np.ndarray | None:
    """Q x F cosines between the embedded queries and the model's file vectors."""
    index = {node: i for i, node in enumerate(model.nodes)}
    files = [index.get(("S", path)) for path in split.universe]
    if None in files:
        problems.append("a universe file has no model vector")
        return None
    tokens, table = ref.read_embeddings(Path(dataset_dir) / "embeddings.txt")
    embedded = ref.embed_queries([ref.report_tokens(q) for q in queries], tfidf, tokens, table)
    return ref.cosine_matrix(embedded, model.vectors[files])


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def check_model(dataset_dir, model_path, network_csv, tolerance: float, problems: list) -> dict:
    """model.tsv of `bugloc solve` against the embeddings and a direct solve."""
    try:
        model = ref.read_model(model_path)
    except (ValueError, KeyError) as exc:
        problems.append(f"model.tsv does not reload: {exc}")
        return {}
    tokens, table = ref.read_embeddings(Path(dataset_dir) / "embeddings.txt")
    should_clamp = np.array([kind == "T" and key in tokens for kind, key in model.nodes])
    if not np.array_equal(should_clamp, model.clamped):
        problems.append("clamped nodes are not exactly the T nodes with an embedding")
        return {}
    rows = [tokens[key] for (kind, key), c in zip(model.nodes, model.clamped) if c]
    if not np.array_equal(_bits(model.vectors[model.clamped]), _bits(table[rows])):
        problems.append("clamped vectors differ from embeddings.txt")

    index = {node: i for i, node in enumerate(model.nodes)}
    try:
        src, dst, weights = ref.read_edges(network_csv, index)
    except KeyError as exc:
        problems.append(f"network node {exc} has no model vector")
        return {}
    adj = ref.adjacency(len(model.nodes), src, dst, weights)
    direct = ref.harmonic_solve(adj, model.clamped, model.vectors)
    free = ~model.clamped
    gap = float(np.abs(direct.vectors[free] - model.vectors[free]).max()) if free.any() else 0.0
    if gap > SOLVER_GAP_FACTOR * tolerance:
        problems.append(f"free vectors differ from the direct solve by {gap:.3g} > {SOLVER_GAP_FACTOR} x {tolerance}")
    violation = ref.maximum_principle_violation(direct, model.clamped, model.vectors)
    if violation > 1e-12:
        problems.append(f"a free vector leaves its component's clamped range by {violation:.3g}")
    if np.any(model.vectors[~direct.anchored]):
        problems.append("a node in a component without clamped terms is not zero")

    split = ref.load_split(dataset_dir)
    tfidf = ref.TfIdf([ref.report_tokens(r) for r in split.train])
    queries, relevant = scored_queries(split)
    cos = _learned_scores(dataset_dir, model, split, tfidf, queries, problems)
    if cos is None:
        return {"solver_gap": gap}
    rankings = [[split.universe[j] for j in ref.top_k(ref.minmax(row), 10)] for row in cos]
    return {"solver_gap": gap, "learned_map10": ref.map_at_k(rankings, relevant, 10)}


def check_rankings(dataset_dir, model_path, clients: list[dict], alpha: float, k: int, map_prefix: int, problems: list) -> dict:
    """Rankings and sampled score components returned by the query clients."""
    split = ref.load_split(dataset_dir)
    universe = split.universe
    members = set(universe)
    by_id = {q["id"]: q for q in split.queries}
    for client in clients:
        if client["universe"] != universe:
            problems.append("the scorer's universe differs from the dataset's files")
            return {}
    checked = 0
    for client in clients:
        for qid, ranking in client["rankings"]:
            paths = [p for p, _ in ranking]
            scores = [s for _, s in ranking]
            if len(paths) != k or len(set(paths)) != k or not members.issuperset(paths):
                problems.append(f"{qid}: ranking is not {k} distinct universe paths")
            elif any(not 0.0 <= s <= 1.0 for s in scores):
                problems.append(f"{qid}: a score lies outside [0, 1]")
            elif any(a[1] < b[1] or (a[1] == b[1] and a[0] > b[0]) for a, b in zip(ranking, ranking[1:])):
                problems.append(f"{qid}: scores increase or ties are not ordered by path")
            checked += 1

    tfidf = ref.TfIdf([ref.report_tokens(r) for r in split.train])
    links = ref.link_matrix(split.train, universe)
    sampled = [(qid, comp) for client in clients for qid, comp in client["components"].items()]
    returned = {qid: ranking for client in clients for qid, ranking in client["rankings"]}
    simi = ref.simi_scores(
        tfidf.vectorize([ref.report_tokens(by_id[qid]) for qid, _ in sampled]), tfidf, links
    )
    cosines = _learned_scores(dataset_dir, ref.read_model(model_path), split, tfidf, [by_id[qid] for qid, _ in sampled], problems)
    if cosines is None:
        return {}
    for row, cos, (qid, comp) in zip(simi, cosines, sampled):
        bow = np.array(comp["bow"])
        learned = np.array(comp["learned"])
        if not np.allclose(bow, row, rtol=1e-9, atol=1e-12):
            problems.append(f"{qid}: Scorer.bow_scores differs from the SimiScore reference")
        if not np.allclose(learned, cos, rtol=1e-9, atol=1e-12):
            problems.append(f"{qid}: Scorer.netreg_scores differs from the reference cosines")
        final = ref.blend(bow, learned, alpha)
        expected = [[universe[j], float(final[j])] for j in ref.top_k(final, k)]
        if [list(item) for item in returned[qid]] != expected:
            problems.append(f"{qid}: blending the returned components does not give the returned ranking")

    rankings, relevant = [], []
    for client in clients:
        for qid, ranking in client["rankings"][:map_prefix]:
            rankings.append([p for p, _ in ranking])
            relevant.append(set(by_id[qid]["fixed_files"]) & members)
    return {"rankings_checked": checked, "components_checked": len(sampled),
            "query_map10": ref.map_at_k(rankings, relevant, 10)}
