"""The per-path dict rule of metric bucketing, kept apart from
bugloc.metrics.discretize so that tests can compare the two.

Each metric's values are sorted, boundary j is the ceil(j * n / nb)-th
smallest value, and a value goes to the first bucket whose boundary is not
below it. Each path maps to its buckets' `metric:index` keys, sorted by
metric name.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import defaultdict


def reference_buckets(records, buckets_per_metric):
    """path -> the keys of its buckets, in metric order."""
    by_metric = defaultdict(list)
    for rec in records:
        by_metric[rec.metric].append(rec)
    result = defaultdict(list)
    for metric, recs in by_metric.items():
        values = sorted(r.value for r in recs)
        n, nb = len(values), buckets_per_metric
        boundaries = [values[min(math.ceil(j * n / nb), n) - 1] for j in range(1, nb)]
        for rec in recs:
            result[rec.path].append((metric, bisect_left(boundaries, rec.value)))
    return {
        path: [f"{metric}:{index}" for metric, index in sorted(buckets, key=lambda b: b[0])]
        for path, buckets in result.items()
    }
