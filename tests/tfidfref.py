"""Dict reference of the TF-IDF rule, kept apart from the sparse rows of
bugloc.corpus.tfidf_rows so that tests can compare the two.

A token list maps each vocabulary term it holds, in ascending index order,
to tf * ln(num_docs / doc_freq). Tokens outside the vocabulary are skipped;
a term whose df equals the corpus size weighs zero and is not stored.
"""

from __future__ import annotations

import math
from collections import Counter


def reference_tfidf(tokens, vocab) -> dict[int, float]:
    """Vocabulary index -> positive weight."""
    entries: dict[int, float] = {}
    for term, tf in sorted(Counter(tokens).items()):
        idx = vocab.index.get(term)
        if idx is None:
            continue
        weight = tf * math.log(vocab.num_docs / vocab.doc_freq[term])
        if weight > 0.0:
            entries[idx] = weight
    return entries
