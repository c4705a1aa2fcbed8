"""Dev-set analysis and tuning.

Oracle selection bounds what any reranker could achieve on a list; the
oracle-rank histogram shows where in the beam those best candidates sit.
The token-probability table relates sentence length to mean per-token
probability.  ``grid_search_lambdas`` and ``tune_l`` pick regularizer
weights and the truncation depth by maximizing a corpus objective on a dev
set, along one path: the utility spec is resolved once for the whole dev
set in a :class:`~rmbr.mbr.UtilitySession` (one scorer per ``service:``
spec, closed when the call returns), and each list goes through
:func:`~rmbr.mbr.checked_values` once, before the first score, with every
weight vector the run tries at every depth it ranks, so a total that is
not finite after scoring is a scoring failure.  Each list is then scored
once, with the regularizer values the check returned, and each
candidate's objective statistics (corpus BLEU sufficient statistics or
sentence chrF) are computed once.  At each depth, one array pass per list
over blocks of weight vectors gives every vector's selection, the
selected statistics are summed per vector, list by list, and the
objective formula takes all vectors' sums at once.  Both tune a one-stage
rerank and reject a coarse-to-fine config.  Every function that takes a
utility accepts a spec string, one provider shared by all lists, or a
list with one provider per list.  Objectives use the default
:class:`~rmbr.metrics.MetricConfig`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DEFAULT_LAMBDA_GRID, NBestList, RerankConfig
from .errors import ConfigError, InvalidInputError, MissingScoreError
from .mbr import (
    ChrfUtility,
    UtilitySession,
    build_utility_matrix,
    check_scored,
    checked_values,
    expected_utilities,
)
from .metrics import (
    OBJECTIVE_METRICS,
    bleu_stats,
    corpus_bleu,
    corpus_bleu_scores,
    sentence_chrf,
)


def check_objective(lists: Sequence[NBestList], metric: str) -> None:
    """Check the metric name, and that every list has a non-blank reference."""
    if metric not in OBJECTIVE_METRICS:
        raise ConfigError(f"metric must be one of {OBJECTIVE_METRICS}, got {metric!r}")
    for i, lst in enumerate(lists):
        if lst.reference is None or not lst.reference.strip():
            raise InvalidInputError(f"list {i} has no reference")


def corpus_objective(
    lists: Sequence[NBestList],
    selections: Sequence[int],
    metric: str = "bleu",
) -> float:
    """Corpus score of one selected candidate per list against the references.

    ``metric`` is "bleu" (corpus BLEU over whitespace-tokenized references)
    or "chrf" (mean sentence chrF).
    """
    check_objective(lists, metric)
    if len(selections) != len(lists):
        raise InvalidInputError(
            f"got {len(selections)} selections for {len(lists)} lists"
        )
    picked = [lst.candidates[sel] for lst, sel in zip(lists, selections)]
    if metric == "bleu":
        return corpus_bleu(
            [list(c.tokens) for c in picked],
            [lst.reference.split() for lst in lists],
        )
    scores = [sentence_chrf(c.text, lst.reference) for c, lst in zip(picked, lists)]
    return sum(scores) / len(scores)


def oracle_select(nbest: NBestList, utility="bleu") -> tuple[int, float]:
    """The candidate closest to the true reference, and its score.

    Ties go to the earlier (better beam rank) candidate.
    """
    if nbest.reference is None:
        raise InvalidInputError("oracle selection needs a reference")
    with UtilitySession() as session:
        (provider,) = session.providers(utility, 1)
        scores = provider.score_against(nbest, nbest.reference)
    best_index = max(range(len(scores)), key=scores.__getitem__)
    return best_index, scores[best_index]


@dataclass(frozen=True)
class OracleReport:
    """Where the oracle candidates sit in the beam, and what they score."""

    indices: tuple[int, ...]
    scores: tuple[float, ...]
    bin_width: int
    bin_counts: tuple[int, ...]
    proportions: tuple[float, ...]
    corpus_metric: float

    def to_record(self) -> dict:
        return {
            "bin_width": self.bin_width,
            "bin_counts": list(self.bin_counts),
            "proportions": list(self.proportions),
            "corpus_metric": self.corpus_metric,
            "indices": list(self.indices),
            "scores": list(self.scores),
        }

    def format_table(self) -> str:
        lines = ["rank      lists  proportion"]
        for b, (count, prop) in enumerate(zip(self.bin_counts, self.proportions)):
            lo = b * self.bin_width + 1
            hi = (b + 1) * self.bin_width
            lines.append(f"{lo:>4}-{hi:<4} {count:>6}  {prop:10.4f}")
        lines.append(f"oracle corpus metric: {self.corpus_metric:.4f}")
        return "\n".join(lines)


def oracle_histogram(
    lists: Sequence[NBestList],
    utility="bleu",
    bin_width: int = 5,
    objective_metric: str = "bleu",
) -> OracleReport:
    """Oracle-rank histogram over a corpus.

    Beam positions (1-based) are binned into intervals of ``bin_width``;
    proportions sum to 1.  ``corpus_metric`` is the corpus objective of the
    oracle selections — the reranking ceiling.
    """
    check_objective(lists, objective_metric)
    if not lists:
        raise InvalidInputError("no lists")
    if bin_width < 1:
        raise ConfigError(f"bin_width must be >= 1, got {bin_width}")
    with UtilitySession() as session:
        providers = session.providers(utility, len(lists))
        picks = [oracle_select(lst, p) for lst, p in zip(lists, providers)]
    indices = tuple(i for i, _ in picks)
    scores = tuple(s for _, s in picks)
    n_bins = (max(lst.n for lst in lists) + bin_width - 1) // bin_width
    counts = [0] * n_bins
    for idx in indices:
        counts[idx // bin_width] += 1
    proportions = tuple(c / len(lists) for c in counts)
    corpus_metric = corpus_objective(lists, indices, objective_metric)
    return OracleReport(
        indices=indices,
        scores=scores,
        bin_width=bin_width,
        bin_counts=tuple(counts),
        proportions=proportions,
        corpus_metric=corpus_metric,
    )


@dataclass(frozen=True)
class TokenProbRow:
    lo: int
    hi: int
    count: int
    mean_prob: float


@dataclass(frozen=True)
class TokenProbTable:
    """Mean per-token probability bucketed by sentence length."""

    interval_width: int
    which: str
    rows: tuple[TokenProbRow, ...]

    def to_record(self) -> dict:
        return {
            "interval_width": self.interval_width,
            "which": self.which,
            "rows": [
                {"lo": r.lo, "hi": r.hi, "count": r.count, "mean_prob": r.mean_prob}
                for r in self.rows
            ],
        }

    def format_table(self) -> str:
        lines = ["length    lists  mean token prob"]
        for r in self.rows:
            lines.append(f"{r.lo:>4}-{r.hi:<4} {r.count:>6}  {r.mean_prob:15.4f}")
        return "\n".join(lines)


def token_prob_by_length(
    lists: Sequence[NBestList],
    interval_width: int = 10,
    which: str = "top1",
) -> TokenProbTable:
    """Mean per-token probability versus sentence length.

    ``which="top1"`` reads each list's beam-top candidate (needs
    ``token_log_probs``); ``which="reference"`` reads the force-decoded
    reference (needs ``reference_token_log_probs``).  Lengths l fall in the
    interval ``(k*w, (k+1)*w]``; probabilities are exp of the per-token
    log-probabilities, averaged per sentence and then over the bucket.
    """
    if which not in ("top1", "reference"):
        raise ConfigError(f"which must be 'top1' or 'reference', got {which!r}")
    if interval_width < 1:
        raise ConfigError(f"interval_width must be >= 1, got {interval_width}")
    if not lists:
        raise InvalidInputError("no lists")
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for i, lst in enumerate(lists):
        if which == "top1":
            cand = lst.candidates[0]
            if cand.token_log_probs is None:
                raise MissingScoreError(
                    f"list {i}: top candidate has no token_log_probs"
                )
            log_probs = cand.token_log_probs
        else:
            log_probs = lst.reference_token_log_probs
            if not log_probs:
                raise MissingScoreError(
                    f"list {i} has no reference_token_log_probs"
                )
        mean_prob = sum(math.exp(v) for v in log_probs) / len(log_probs)
        bucket = (len(log_probs) - 1) // interval_width
        sums[bucket] = sums.get(bucket, 0.0) + mean_prob
        counts[bucket] = counts.get(bucket, 0) + 1
    rows = tuple(
        TokenProbRow(
            lo=b * interval_width + 1,
            hi=(b + 1) * interval_width,
            count=counts[b],
            mean_prob=sums[b] / counts[b],
        )
        for b in sorted(counts)
    )
    return TokenProbTable(interval_width=interval_width, which=which, rows=rows)


def lambda_grid(weights) -> list[float]:
    """The distinct weights of a tuning grid, ascending; none may be non-finite."""
    grid = sorted({float(w) for w in weights})
    if not grid:
        raise ConfigError("empty weight grid")
    if not all(math.isfinite(w) for w in grid):
        raise ConfigError(f"weight grid values must be finite, got {grid}")
    return grid


def _weight_vectors(grid, r: int) -> np.ndarray:
    """Every weight vector over ``grid``, one row each, in ``itertools.product`` order."""
    return np.array(list(itertools.product(grid, repeat=r)), dtype=np.float64).reshape(-1, r)


# Cells of one block of totals (weight vectors x candidates) in
# _grid_selections.  Six regularizers over a 5-point grid are 15625 vectors;
# at n = 400 their totals at once would take 50 MB, a block takes 512 KB.
_GRID_BLOCK_CELLS = 1 << 16


def _grid_selections(consensus, values, weights: np.ndarray, nbest) -> np.ndarray:
    """The candidate each weight vector selects on the scored list ``nbest``.

    ``values`` holds r rows of regularizer values, one per candidate, and
    ``weights`` one row of r weights per vector, in the same order.  A
    vector's totals are ``consensus + w_1 * v_1 + ... + w_r * v_r`` in
    float64, added in that order: the operations :func:`combine_scores`
    performs, so they are bit-identical.  The selection is the first
    maximum, as in :func:`~rmbr.core.rank_candidates` (the lower index
    wins a tie, and +0.0 equals -0.0).  Vectors are taken a block at a
    time; a block of totals that is not finite raises as
    :func:`~rmbr.mbr.check_scored` does.
    """
    base = np.asarray(consensus, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64).reshape(-1, base.size)
    step = max(1, _GRID_BLOCK_CELLS // base.size)
    picks = np.empty(len(weights), dtype=np.int64)
    for start in range(0, len(weights), step):
        block = weights[start : start + step]
        totals = np.repeat(base[None, :], len(block), axis=0)
        with np.errstate(over="ignore", invalid="ignore"):
            for k, row in enumerate(values):
                totals += np.multiply.outer(block[:, k], row)
        check_scored(nbest, totals)
        picks[start : start + len(block)] = totals.argmax(axis=1)
    return picks


def _checked_tuning(session, lists, config, grid):
    """Make :func:`check_tuning`'s checks, resolving the spec in ``session``.

    Returns the run's depths (None keeps every scored column), its weight
    vectors, one per row, and each list's provider and regularizer rows.
    """
    if not lists:
        raise InvalidInputError("no dev lists")
    if config.coarse_to_fine is not None:
        raise ConfigError("tuning reranks in one stage; coarse_to_fine must be None")
    names = config.regularizers
    if grid is not None:
        if not names:
            raise ConfigError("grid search needs at least one active regularizer")
        depths, weights = [None], _weight_vectors(lambda_grid(grid), len(names))
    elif config.l != "full":
        raise ConfigError("the truncation sweep sets l itself")
    else:
        depths = range(1, min(lst.n for lst in lists) + 1)
        weights = np.array([list(config.lambdas.values())], dtype=np.float64)
    utilities = session.providers(config.utility, len(lists))
    checked = [
        (u, checked_values(lst, u, config.resolve_l(lst.n), names, weights, depths))
        for lst, u in zip(lists, utilities)
    ]
    return depths, weights, checked


def check_tuning(lists: Sequence[NBestList], config: RerankConfig, grid=None) -> None:
    """Make every check a tuning run makes before its first score.

    With a ``grid`` the run is :func:`grid_search_lambdas`', without one
    :func:`tune_l`'s.  Each list goes through :func:`~rmbr.mbr.checked_values`
    once, with every weight vector the run tries and every depth it ranks:
    a stored matrix must cover the list at the scored depth, the weighted
    fields must exist, and every vector's totals must rank at every depth.
    The objective metric and the references are :func:`check_objective`'s
    to check.
    """
    with UtilitySession() as session:
        _checked_tuning(session, lists, config, grid)


def _grid_objectives(scored, weights: np.ndarray, metric: str) -> list[float]:
    """The objective of the selections each weight vector makes on the dev lists.

    ``scored`` holds each scored list's consensus scores, its regularizer
    rows, the list and its per-candidate objective statistics; ``weights``
    holds one weight vector per row.  The selected candidates' statistics
    are summed per vector by Python's ``sum``, list by list in list order as
    :func:`corpus_objective` sums chrF, with no (vectors x lists) array,
    and the formula :func:`corpus_objective` applies takes all vectors'
    sums at once (BLEU statistics are integers), so the two agree bit for bit.
    """
    sums = sum(
        stats[_grid_selections(consensus, values, weights, lst)]
        for consensus, values, lst, stats in scored
    )
    if metric == "chrf":
        return (sums / len(scored)).tolist()
    return corpus_bleu_scores(sums).tolist()


def _tune(lists, config, grid, metric):
    """Check, score each dev list once, then try every weight vector at every depth.

    The run is the one :func:`check_tuning` checks for ``grid``, and it
    scores with the regularizer rows that check returns.  Each list is
    scored at depth ``config.l`` with the config's utility spec resolved
    once for all lists; then each candidate's objective statistics are
    taken against the list's reference: the rows of :func:`bleu_stats`,
    or its sentence chrF.  Returns the first ``(l, weights row)`` setting
    with the highest objective, that objective, and the objective of every
    setting, depth by depth.
    """
    with UtilitySession() as session:
        depths, weights, checked = _checked_tuning(session, lists, config, grid)
        scored = [
            (build_utility_matrix(lst, u, config.resolve_l(lst.n)).values, regs)
            for lst, (u, regs) in zip(lists, checked)
        ]
    if metric == "chrf":
        stats = [np.array(ChrfUtility().score_against(lst, lst.reference)) for lst in lists]
    else:
        stats = [
            bleu_stats([c.tokens for c in lst.candidates], lst.reference.split()) for lst in lists
        ]
    curve = []
    for l in depths:
        at_l = [
            (expected_utilities(v, l or v.shape[1]), regs, lst, s)
            for lst, (v, regs), s in zip(lists, scored, stats)
        ]
        curve += _grid_objectives(at_l, weights, metric)
    best = max(range(len(curve)), key=curve.__getitem__)
    depth, row = divmod(best, len(weights))
    return (depths[depth], weights[row]), curve[best], curve


def grid_search_lambdas(
    lists: Sequence[NBestList],
    config: RerankConfig,
    grid: Sequence[float] = DEFAULT_LAMBDA_GRID,
    objective_metric: str = "bleu",
) -> tuple[dict, float]:
    """Exhaustive weight search over ``grid^r`` for the r active regularizers.

    The utility spec is resolved once, for the grid check and the scoring
    pass alike.  Maximizes the corpus objective of the induced selections
    at depth ``config.l``; ties prefer the combination that enumerates
    first over the ascending grid (i.e. the lexicographically smallest
    weight vector).
    """
    check_objective(lists, objective_metric)
    (_, best), objective, _ = _tune(lists, config, grid, objective_metric)
    return dict(zip(config.regularizers, best.tolist())), objective


def tune_l(
    lists: Sequence[NBestList],
    config: RerankConfig,
    objective_metric: str = "bleu",
) -> tuple[int, float, list[float]]:
    """Sweep the truncation depth l = 1..min(n) and pick the best.

    Returns ``(best_l, best_objective, curve)`` with ``curve[l-1]`` the
    corpus objective at depth l.  Each list's full n x n utility matrix is
    scored once; per-depth scores are column-prefix means of it, exactly
    what a fresh depth-l matrix would give.  Ties prefer smaller l.  The
    sweep sets l itself: ``config.l`` must be "full".
    """
    check_objective(lists, objective_metric)
    (best_l, _), objective, curve = _tune(lists, config, None, objective_metric)
    return best_l, objective, curve
