"""Dict reference of the blend-and-rank rule, kept apart from the array code
in bugloc.ranker so that tests can compare the two.

Each component is min-max normalized over the query's files (a constant
map becomes all zeros), blended as (1 - alpha) * bow + alpha * model, and
sorted by descending score with ties by ascending path.
"""

from __future__ import annotations


def minmax(scores: dict) -> dict:
    if not scores:
        return {}
    lo = min(scores.values())
    hi = max(scores.values())
    if hi == lo:
        return {key: 0.0 for key in scores}
    return {key: (value - lo) / (hi - lo) for key, value in scores.items()}


def reference_rank(bow: dict, model: dict, alpha: float, k: int) -> list[tuple[str, float]]:
    """The top-k (path, score) pairs."""
    bow_n = minmax(bow)
    model_n = minmax(model)
    final = {path: (1.0 - alpha) * bow_n[path] + alpha * model_n[path] for path in bow_n}
    return sorted(final.items(), key=lambda item: (-item[1], item[0]))[:k]
