"""Per-report dict loops over fixed files, kept apart from
bugloc.corpus.link_matrix so that tests can compare the two.

bow_links is SimiScore's training side: each report's fixed files inside
the universe as columns, in fixed-file order, and its count of fixed
files floored at 1. ground_truth is the evaluation's: the ids of the
queries that fix a file inside the universe, their relevant columns, and
the ids of the others.
"""

from __future__ import annotations

import numpy as np


def bow_links(fixed_files, universe):
    """(indptr, indices, counts) of the report x file links."""
    column = {path: j for j, path in enumerate(universe)}
    indptr, indices, counts = [0], [], []
    for files in fixed_files:
        counts.append(len(files))
        for path in files:
            if path in column:
                indices.append(column[path])
        indptr.append(len(indices))
    return indptr, indices, np.maximum(np.array(counts, dtype=np.float64), 1.0)


def ground_truth(reports, universe):
    """(query ids, Q x F relevance mask, excluded ids)."""
    column = {path: j for j, path in enumerate(universe)}
    query_ids, truth, excluded = [], [], []
    for report in reports:
        columns = [column[path] for path in report.fixed_files if path in column]
        if columns:
            query_ids.append(report.id)
            truth.append(columns)
        else:
            excluded.append(report.id)
    relevant = np.zeros((len(query_ids), len(universe)), dtype=bool)
    for row, columns in enumerate(truth):
        relevant[row, columns] = True
    return query_ids, relevant, excluded
