"""Per-file code metrics and equal-frequency bucketing.

A bucket is the pair (metric, bucket index); its key, `metric:index`, names
its node in the network.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .corpus import CSR, link_matrix
from .errors import ParseError, ValidationError, read_text

_HEADER = ["path", "metric", "value"]


@dataclass(frozen=True)
class MetricRecord:
    path: str
    metric: str
    value: float


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
    records: Iterable[MetricRecord], buckets_per_metric: int, paths: Sequence[str]
) -> tuple[tuple[str, ...], CSR]:
    """Assign each (path, metric) value to an equal-frequency quantile bucket.

    Per metric, a value with r of the metric's n values strictly below it
    goes to bucket floor(r * nb / n), nb being buckets_per_metric. Equal
    values share a bucket, a constant metric puts every file in bucket 0,
    and nothing is built per bucket, so the cost does not grow with nb.
    Returns the sorted keys, `metric:index`, of the buckets some value falls
    in, and the link_matrix from each of paths (a row, in the given order)
    to its buckets in metric order.
    """
    if buckets_per_metric < 1:
        raise ValidationError("buckets_per_metric must be >= 1")
    by_metric: dict[str, list[MetricRecord]] = defaultdict(list)
    for rec in records:
        by_metric[rec.metric].append(rec)

    listed: dict[str, list[str]] = defaultdict(list)
    for metric in sorted(by_metric):
        recs = by_metric[metric]
        values = np.array([rec.value for rec in recs])
        below = np.searchsorted(np.sort(values), values).tolist()
        # Python ints, so r * nb is exact for any bucket count
        index = [r * buckets_per_metric // len(recs) for r in below]
        names = {i: f"{metric}:{i}" for i in set(index)}
        for rec, i in zip(recs, index):
            listed[rec.path].append(names[i])
    keys = tuple(sorted({key for row in listed.values() for key in row}))
    return keys, link_matrix([listed.get(path, ()) for path in paths], keys)
