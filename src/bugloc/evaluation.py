"""Evaluation protocol: precision@k, AP@k, MAP, method comparison, alpha
sweeps, and a paired Student's t-test on per-query average precision.

Rankings are produced per query from precomputed raw score components; the
combination weight alpha only affects the blend, so one component pass per
query serves the whole grid.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

from .errors import ValidationError
from .ranker import combine_and_rank

logger = logging.getLogger(__name__)

METHOD_BOW = "bow"
METHOD_EMBEDDING = "embedding"
METHOD_NETREG = "netreg"
ALL_METHODS = (METHOD_BOW, METHOD_EMBEDDING, METHOD_NETREG)


def default_alpha_grid() -> tuple[float, ...]:
    """0 to 1 in steps of 0.05."""
    return tuple(i / 20 for i in range(21))


@dataclass(frozen=True)
class EvalConfig:
    ks: tuple[int, ...] = (1, 5, 10)
    alpha_grid: tuple[float, ...] = field(default_factory=default_alpha_grid)
    split: float = 0.8
    methods: tuple[str, ...] = ALL_METHODS

    def __post_init__(self):
        if not self.ks or list(self.ks) != sorted(set(self.ks)) or self.ks[0] < 1:
            raise ValidationError(f"ks must be ascending positive integers, got {self.ks!r}")
        if not self.alpha_grid or any(not 0.0 <= a <= 1.0 for a in self.alpha_grid):
            raise ValidationError("alpha_grid values must lie in [0, 1]")
        if not 0.0 < self.split < 1.0:
            raise ValidationError(f"split must lie in (0, 1), got {self.split!r}")
        bad = [m for m in self.methods if m not in ALL_METHODS]
        if bad or not self.methods:
            raise ValidationError(f"unknown methods {bad!r}; choose from {ALL_METHODS}")


@dataclass(frozen=True)
class EvalRow:
    method: str
    dataset: str
    alpha: float
    k: int
    map_value: float
    num_queries: int


class TTestResult(NamedTuple):
    t_statistic: float
    significant: bool
    p_value: float
    degenerate: bool


@dataclass
class EvalContext:
    """Precomputed per-query raw score components over one dataset split.

    second_scores holds the learned-space component per method ("bow" maps
    to an all-zero component so the same blend code serves every method).
    """

    dataset_name: str
    query_ids: list[str]
    relevant: dict[str, set[str]]
    bow_scores: dict[str, dict[str, float]]
    second_scores: dict[str, dict[str, dict[str, float]]]
    excluded: list[str] = field(default_factory=list)
    num_train: int = 0


@dataclass
class EvalResult:
    rows: list[EvalRow]
    # (method, k) -> (alpha, per-query AP list aligned with query_ids)
    per_query_ap: dict[tuple[str, int], tuple[float, list[float]]]
    query_ids: list[str]
    excluded: list[str]


def precision_at_k(ranking: Sequence[str], relevant: set[str], k: int) -> float:
    """|top-k intersect relevant| / k; short rankings count what exists, still over k."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k!r}")
    hits = sum(1 for path in ranking[:k] if path in relevant)
    return hits / k


def average_precision_at_k(ranking: Sequence[str], relevant: set[str], k: int) -> float:
    """Mean of precision-at-i over relevant positions i <= k, divided by |relevant|.

    An empty relevant set warns and returns 0.0; callers exclude such
    queries from MAP.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k!r}")
    if not relevant:
        warnings.warn("query has no relevant files; exclude it from MAP", stacklevel=2)
        return 0.0
    hits = 0
    total = 0.0
    for i, path in enumerate(ranking[:k], 1):
        if path in relevant:
            hits += 1
            total += hits / i
    return total / len(relevant)


def mean_average_precision(values: Sequence[float]) -> float:
    """Arithmetic mean of AP values; empty input is an error."""
    if not values:
        raise ValidationError("mean_average_precision needs at least one value")
    return math.fsum(values) / len(values)


def paired_t_test(
    ap_a: Sequence[float], ap_b: Sequence[float], confidence: float = 0.95
) -> TTestResult:
    """Paired Student's t-test on per-query AP differences.

    t = mean(d) / (sd(d) / sqrt(n)) with the sample standard deviation.
    Zero-variance differences yield a degenerate result that is never
    significant (t is 0 when the mean is also 0, otherwise signed infinity).
    """
    if len(ap_a) != len(ap_b):
        raise ValidationError(f"paired lists differ in length: {len(ap_a)} vs {len(ap_b)}")
    n = len(ap_a)
    if n < 2:
        raise ValidationError("paired t-test needs at least 2 pairs")
    if not 0.0 < confidence < 1.0:
        raise ValidationError(f"confidence must lie in (0, 1), got {confidence!r}")
    diffs = [a - b for a, b in zip(ap_a, ap_b)]
    mean = math.fsum(diffs) / n
    var = math.fsum((d - mean) ** 2 for d in diffs) / (n - 1)
    if var == 0.0:
        t_stat = 0.0 if mean == 0.0 else math.copysign(math.inf, mean)
        return TTestResult(t_stat, False, math.nan, True)
    t_stat = mean / math.sqrt(var / n)
    from scipy import stats  # imported here: it costs most of the CLI's start-up

    p_value = 2.0 * float(stats.t.sf(abs(t_stat), n - 1))
    return TTestResult(t_stat, p_value < 1.0 - confidence, p_value, False)


def _rankings_for(
    ctx: EvalContext, method: str, alpha: float, k: int
) -> dict[str, list[str]]:
    effective = 0.0 if method == METHOD_BOW else alpha
    second = ctx.second_scores[method]
    out = {}
    for qid in ctx.query_ids:
        result = combine_and_rank(
            ctx.bow_scores[qid], second[qid], effective, k, query_id=qid
        )
        out[qid] = result.paths()
    return out


def _ap_table(ctx: EvalContext, method: str, alpha: float, ks: Sequence[int]):
    """AP per query per k, from one ranking at the largest k."""
    rankings = _rankings_for(ctx, method, alpha, max(ks))
    table = {k: [] for k in ks}
    for qid in ctx.query_ids:
        ranking = rankings[qid]
        rel = ctx.relevant[qid]
        for k in ks:
            table[k].append(average_precision_at_k(ranking, rel, k))
    return table


def evaluate_methods(ctx: EvalContext, config: EvalConfig) -> EvalResult:
    """Score each configured method at its best grid alpha for each k.

    The bow method is pinned to alpha 0; other methods take, per k, the
    grid alpha maximizing MAP@k (ties go to the smallest alpha). Rows are
    ordered by configured method order, then ascending k.
    """
    if not ctx.query_ids:
        raise ValidationError("no queries to evaluate")
    rows: list[EvalRow] = []
    per_query: dict[tuple[str, int], tuple[float, list[float]]] = {}
    m = len(ctx.query_ids)
    for method in config.methods:
        grid = (0.0,) if method == METHOD_BOW else tuple(config.alpha_grid)
        by_alpha = {alpha: _ap_table(ctx, method, alpha, config.ks) for alpha in grid}
        for k in config.ks:
            best_alpha = None
            best_map = -1.0
            for alpha in grid:
                value = mean_average_precision(by_alpha[alpha][k])
                if value > best_map:
                    best_map = value
                    best_alpha = alpha
            rows.append(
                EvalRow(
                    method=method,
                    dataset=ctx.dataset_name,
                    alpha=best_alpha,
                    k=k,
                    map_value=best_map,
                    num_queries=m,
                )
            )
            per_query[(method, k)] = (best_alpha, by_alpha[best_alpha][k])
    return EvalResult(
        rows=rows,
        per_query_ap=per_query,
        query_ids=list(ctx.query_ids),
        excluded=list(ctx.excluded),
    )


def sweep_alpha(ctx: EvalContext, config: EvalConfig) -> list[EvalRow]:
    """MAP@k for every configured method at every grid alpha.

    The bow method ignores alpha, so its rows repeat one value across the
    grid; at alpha 0 every method's row matches bow's exactly.
    """
    if not ctx.query_ids:
        raise ValidationError("no queries to evaluate")
    rows: list[EvalRow] = []
    m = len(ctx.query_ids)
    for method in config.methods:
        if method == METHOD_BOW:
            table = _ap_table(ctx, method, 0.0, config.ks)
            maps = {k: mean_average_precision(table[k]) for k in config.ks}
            for alpha in config.alpha_grid:
                for k in config.ks:
                    rows.append(EvalRow(method, ctx.dataset_name, alpha, k, maps[k], m))
            continue
        for alpha in config.alpha_grid:
            table = _ap_table(ctx, method, alpha, config.ks)
            for k in config.ks:
                rows.append(
                    EvalRow(
                        method, ctx.dataset_name, alpha, k,
                        mean_average_precision(table[k]), m,
                    )
                )
    return rows
