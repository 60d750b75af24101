"""Per-file code metrics and equal-frequency bucketing.

A bucket is the pair (metric, bucket index); the network names its node by
MetricBucket.node_key, `metric:index`.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

from .errors import ParseError, ValidationError, read_text

_HEADER = ["path", "metric", "value"]


@dataclass(frozen=True)
class MetricRecord:
    path: str
    metric: str
    value: float


@dataclass(frozen=True)
class MetricBucket:
    """One quantile bucket of one metric; the network names it by node_key."""

    metric: str
    bucket_index: int

    @property
    def node_key(self) -> str:
        return f"{self.metric}:{self.bucket_index}"


def load_metrics(path) -> list[MetricRecord]:
    """Load a metrics CSV with header exactly path,metric,value.

    Rejects a missing or wrong header, duplicate (path, metric) pairs, and
    non-numeric or non-finite values, naming the offending row.
    """
    records = []
    seen: dict[tuple[str, str], int] = {}
    with read_text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file, expected header path,metric,value") from None
        if [h.strip() for h in header] != _HEADER:
            raise ParseError(f"{path}: header must be path,metric,value, got {header!r}")
        for row in reader:
            rowno = reader.line_num
            if not row:
                continue
            if len(row) != 3:
                raise ParseError(f"{path}: row {rowno}: expected 3 fields, got {len(row)}")
            fpath, metric, raw = row[0].strip(), row[1].strip(), row[2].strip()
            if not fpath or not metric:
                raise ParseError(f"{path}: row {rowno}: empty path or metric")
            try:
                value = float(raw)
            except ValueError as exc:
                raise ParseError(f"{path}: row {rowno}: non-numeric value {raw!r}") from exc
            if not math.isfinite(value):
                raise ValidationError(f"{path}: row {rowno}: non-finite value {raw!r}")
            key = (fpath, metric)
            if key in seen:
                raise ValidationError(
                    f"{path}: row {rowno}: duplicate (path, metric) {key!r} "
                    f"(first seen on row {seen[key]})"
                )
            seen[key] = rowno
            records.append(MetricRecord(fpath, metric, value))
    return records


def discretize(
    records: Iterable[MetricRecord], buckets_per_metric: int = 5
) -> dict[str, list[MetricBucket]]:
    """Assign each (path, metric) value to an equal-frequency quantile bucket.

    Buckets are computed per metric over all observed values; a value equal
    to a bucket boundary goes to the lower bucket. A constant metric puts
    every file in bucket 0. Returns path -> buckets sorted by metric name.
    """
    if buckets_per_metric < 1:
        raise ValidationError("buckets_per_metric must be >= 1")
    by_metric: dict[str, list[MetricRecord]] = defaultdict(list)
    for rec in records:
        by_metric[rec.metric].append(rec)

    result: dict[str, list[MetricBucket]] = defaultdict(list)
    for metric in sorted(by_metric):
        recs = by_metric[metric]
        values = sorted(r.value for r in recs)
        n = len(values)
        nb = buckets_per_metric
        # boundary j is the top of bucket j-1: the ceil(j*n/nb)-th smallest value
        boundaries = [values[min(math.ceil(j * n / nb), n) - 1] for j in range(1, nb)]
        for rec in recs:
            result[rec.path].append(MetricBucket(metric, bisect_left(boundaries, rec.value)))
    return {path: sorted(buckets, key=lambda b: b.metric) for path, buckets in result.items()}
