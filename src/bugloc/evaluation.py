"""Evaluation protocol: AP@k, MAP, method comparison, alpha sweeps, and a
paired Student's t-test on per-query average precision.

Rankings come from precomputed query x file score matrices; the
combination weight alpha only affects the blend, so one component pass
serves the whole grid. evaluate_methods reduces one table of per-query AP
over (method, alpha, k) to one MAP per cell, and reads both the best-alpha
rows and the full alpha sweep from it.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import ranker
from .errors import ValidationError

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
    methods: tuple[str, ...] = ALL_METHODS

    def __post_init__(self):
        if not self.ks or list(self.ks) != sorted(set(self.ks)) or self.ks[0] < 1:
            raise ValidationError(f"ks must be ascending positive integers, got {self.ks!r}")
        if not self.alpha_grid or any(not 0.0 <= a <= 1.0 for a in self.alpha_grid):
            raise ValidationError("alpha_grid values must lie in [0, 1]")
        # the best-alpha rule (ties go to the smallest) reads the grid in order
        if list(self.alpha_grid) != sorted(set(self.alpha_grid)):
            raise ValidationError(
                f"alpha_grid must be strictly ascending, got {self.alpha_grid!r}"
            )
        bad = [m for m in self.methods if m not in ALL_METHODS]
        if bad or not self.methods:
            raise ValidationError(f"unknown methods {bad!r}; choose from {ALL_METHODS}")
        repeated = sorted({m for m in self.methods if self.methods.count(m) > 1})
        if repeated:
            raise ValidationError(f"methods must not repeat, got {repeated!r} more than once")


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
    """Precomputed raw score components over one dataset split, as
    query x file matrices: row i belongs to query_ids[i], column j to
    universe[j] (ascending path).

    relevant marks each query's ground-truth files; learned holds the
    learned-space component of each non-bow method.
    """

    dataset_name: str
    query_ids: list[str]
    universe: tuple[str, ...]
    relevant: np.ndarray
    bow: np.ndarray
    learned: dict[str, np.ndarray]
    excluded: list[str] = field(default_factory=list)


@dataclass
class EvalResult:
    # each method at its best grid alpha, per k
    rows: list[EvalRow]
    # every method at every grid alpha, per k
    sweep: list[EvalRow]
    # (method, k) -> (best alpha, per-query AP list aligned with ctx.query_ids)
    per_query_ap: dict[tuple[str, int], tuple[float, list[float]]]


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
    if len(values) == 0:
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
    # the t distribution's survival function, as scipy.stats computes it;
    # scipy.stats itself would cost most of the CLI's start-up
    from scipy.special import stdtr

    p_value = 2.0 * float(stdtr(n - 1, -abs(t_stat)))
    return TTestResult(t_stat, p_value < 1.0 - confidence, p_value, False)


def _ap_at_ks(top: np.ndarray, relevant: np.ndarray, ks: Sequence[int]) -> dict[int, np.ndarray]:
    """Per-query AP@k of the ranked columns top for every k (a k past the
    ranking's depth reads all of it); the arithmetic is average_precision_at_k's."""
    depth = top.shape[1]
    hits = np.take_along_axis(relevant, top, axis=1)
    precision = np.cumsum(hits, axis=1) / np.arange(1, depth + 1)
    running = np.cumsum(np.where(hits, precision, 0.0), axis=1)
    num_relevant = relevant.sum(axis=1)
    return {k: running[:, min(k, depth) - 1] / num_relevant for k in ks}


def ap_table(ctx: EvalContext, config: EvalConfig) -> dict[tuple[str, float, int], np.ndarray]:
    """Per-query AP for every (method, alpha, k), aligned with ctx.query_ids.

    Rankings follow ranker.blend_and_rank, the rule bugloc query uses. The
    bow method ignores alpha and is ranked once, at alpha 0.
    """
    if not ctx.query_ids:
        raise ValidationError("no queries to evaluate")
    if not ctx.relevant.any(axis=1).all():
        raise ValidationError("every query needs a relevant file in the universe")
    bow_n = ranker.minmax_rows(ctx.bow)
    table: dict[tuple[str, float, int], np.ndarray] = {}
    for method in config.methods:
        if method == METHOD_BOW:
            grid, learned_n = (0.0,), bow_n
        else:
            grid, learned_n = config.alpha_grid, ranker.minmax_rows(ctx.learned[method])
        for alpha in grid:
            top, _ = ranker.blend_and_rank(bow_n, learned_n, alpha, max(config.ks))
            for k, aps in _ap_at_ks(top, ctx.relevant, config.ks).items():
                table[(method, alpha, k)] = aps
    return table


def evaluate_methods(ctx: EvalContext, config: EvalConfig) -> EvalResult:
    """MAP@k of each configured method at every grid alpha, and at its best.

    Each (method, alpha, k) MAP is computed once. The bow method ignores
    alpha: it is scored at alpha 0, and its sweep rows repeat that value
    across the grid, so at alpha 0 every method's sweep row matches bow's.
    Other methods take, per k, the grid alpha maximizing MAP@k (ties go to
    the smallest alpha). Rows are ordered by configured method order, then
    ascending alpha (sweep only), then ascending k.
    """
    table = ap_table(ctx, config)
    m = len(ctx.query_ids)
    rows: list[EvalRow] = []
    sweep: list[EvalRow] = []
    per_query: dict[tuple[str, int], tuple[float, list[float]]] = {}
    for method in config.methods:
        grid = (0.0,) if method == METHOD_BOW else config.alpha_grid
        maps = {(a, k): mean_average_precision(table[(method, a, k)]) for a in grid for k in config.ks}
        for k in config.ks:
            # max keeps the first of equal values, so ties go to the smallest alpha
            best = max(grid, key=lambda a: maps[(a, k)])
            rows.append(EvalRow(method, ctx.dataset_name, best, k, maps[(best, k)], m))
            per_query[(method, k)] = (best, table[(method, best, k)].tolist())
        for alpha in config.alpha_grid:
            effective = 0.0 if method == METHOD_BOW else alpha
            for k in config.ks:
                sweep.append(EvalRow(method, ctx.dataset_name, alpha, k, maps[(effective, k)], m))
    return EvalResult(rows=rows, sweep=sweep, per_query_ap=per_query)


def sweep_alpha(ctx: EvalContext, config: EvalConfig) -> list[EvalRow]:
    """The sweep rows of evaluate_methods; kept while bench/tracer.py wraps it."""
    return evaluate_methods(ctx, config).sweep
