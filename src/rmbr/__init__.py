"""Regularized expected-utility (MBR) reranking of n-best translation lists.

Each public name is imported from its home module on first access, so
``import rmbr`` loads no submodule and a command loads only what it runs.
"""

import importlib as _importlib

#: Home module of each public name.
_HOMES = {
    "analysis": (
        "OracleReport",
        "TokenProbTable",
        "corpus_objective",
        "grid_search_lambdas",
        "oracle_histogram",
        "oracle_select",
        "token_prob_by_length",
        "tune_l",
    ),
    "core": (
        "DEFAULT_LAMBDA_GRID",
        "REGULARIZER_NAMES",
        "Candidate",
        "CoarseToFine",
        "MetricConfig",
        "NBestList",
        "RerankConfig",
        "RerankResult",
        "UtilityMatrix",
        "combine_scores",
        "rank_candidates",
    ),
    "errors": (
        "ConfigError",
        "DimensionError",
        "InvalidInputError",
        "MissingScoreError",
        "ParseError",
        "RmbrError",
        "ScoringError",
        "TransportError",
    ),
    "io": (
        "load_nbest",
        "load_utility_matrices",
        "read_results",
        "write_nbest",
        "write_results",
        "write_utility_matrices",
        "write_utility_matrix",
    ),
    "mbr": (
        "BleuUtility",
        "ChrfUtility",
        "MatrixUtility",
        "ServiceUtility",
        "UtilitySession",
        "build_utility_matrix",
        "check_reranking",
        "mbr_scores",
        "regularizer_values",
        "rerank",
        "rerank_lists",
        "token_entropy",
    ),
    "scorer": ("ScorerClient",),
    "metrics": (
        "corpus_bleu",
        "sentence_bleu",
        "sentence_chrf",
    ),
}

_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

# Submodules that ``rmbr.<name>`` imports on first access, so they stay
# reachable as attributes after a bare ``import rmbr``.
_SUBMODULES = frozenset({*_HOMES, "cli", "kernels"})

__version__ = "0.1.0"

__all__ = sorted(_HOME_OF)


def __getattr__(name):
    if name in _SUBMODULES:
        return _importlib.import_module(f".{name}", __name__)
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME_OF})
