"""bugloc: localize buggy source files from bug-report text.

Combines TF-IDF retrieval over past reports with vectors learned by
clamped graph regularization over a typed network of reports, terms,
files, and metric buckets.
"""

__version__ = "0.1.0"
