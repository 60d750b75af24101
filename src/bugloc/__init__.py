"""bugloc: localize buggy source files from bug-report text.

Combines TF-IDF retrieval over past reports with vectors learned by
clamped graph regularization over a typed network of reports, terms,
files, and metric buckets.
"""

__version__ = "0.1.0"

from .corpus import (
    BowVector,
    BugReport,
    SourceDoc,
    TokenRules,
    Vocabulary,
    bow_vectorize,
    build_vocabulary,
    default_token_rules,
    load_bug_reports,
    load_source_docs,
    tokenize,
)
from .embeddings import EmbeddingTable, embed_tokens, load_embeddings
from .errors import ParseError, ValidationError
from .evaluation import (
    EvalConfig,
    EvalRow,
    average_precision_at_k,
    evaluate_methods,
    mean_average_precision,
    paired_t_test,
    precision_at_k,
    sweep_alpha,
)
from .metrics import MetricBucket, MetricRecord, discretize, load_metrics
from .network import HeteroNetwork, TypedNode, build_network, validate_network
from .ranker import QueryResult, bow_file_scores, combine_and_rank, file_cosines, netreg_file_scores
from .regularizer import (
    RepresentationModel,
    SolverConfig,
    closed_form_solve,
    dump_model,
    energy,
    initialize_representation,
    load_model,
    solve,
    sweep_update,
)
from .synthgen import SynthSpec, generate
