"""Two-level reference of the tokenizer, kept apart from the one-pass
bugloc.corpus.tokenize so that tests can compare the two.

Text splits into words, the runs of ASCII letters and digits; each word
splits at case transitions into pieces; each piece is lowercased, stemmed
when the rules say so, and kept unless it is shorter than min_length or a
stopword. Order and multiplicity are preserved.
"""

from __future__ import annotations

import re

from bugloc.corpus import _stem

WORD_RE = re.compile(r"[A-Za-z0-9]+")
CAMEL_RE = re.compile(r"[A-Z]+(?![a-z])|[A-Z][a-z0-9]*|[a-z0-9]+")


def reference_tokenize(text: str, rules) -> list[str]:
    out = []
    for word in WORD_RE.findall(text):
        for piece in CAMEL_RE.findall(word):
            term = piece.lower()
            if rules.stem:
                term = _stem(term)
            if len(term) < rules.min_length or term in rules.stopwords:
                continue
            out.append(term)
    return out
