"""Regularized expected-utility (MBR) reranking of n-best translation lists."""

from types import ModuleType as _ModuleType

from .analysis import (
    OracleReport,
    TokenProbTable,
    corpus_objective,
    grid_search_lambdas,
    oracle_histogram,
    oracle_select,
    token_prob_by_length,
    tune_l,
)
from .core import (
    DEFAULT_LAMBDA_GRID,
    REGULARIZER_NAMES,
    Candidate,
    CoarseToFine,
    NBestList,
    RerankConfig,
    RerankResult,
    UtilityMatrix,
    combine_scores,
    rank_candidates,
)
from .errors import (
    ConfigError,
    DimensionError,
    InvalidInputError,
    MissingScoreError,
    ParseError,
    RmbrError,
    ScoringError,
    TransportError,
)
from .io import (
    ScorerClient,
    load_nbest,
    load_utility_matrices,
    read_results,
    write_nbest,
    write_results,
    write_utility_matrices,
    write_utility_matrix,
)
from .mbr import (
    BleuUtility,
    ChrfUtility,
    MatrixUtility,
    ServiceUtility,
    UtilitySession,
    build_utility_matrix,
    check_list,
    coarse_to_fine,
    mbr_scores,
    regularizer_values,
    rerank,
    token_entropy,
)
from .metrics import (
    MetricConfig,
    corpus_bleu,
    sentence_bleu,
    sentence_chrf,
)

__version__ = "0.1.0"

#: Every public name imported above, so each is listed once.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
