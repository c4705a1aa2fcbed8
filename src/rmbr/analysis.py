"""Dev-set analysis and tuning.

Oracle selection bounds what any reranker could achieve on a list; the
oracle-rank histogram shows where in the beam those best candidates sit.
The token-probability table relates sentence length to mean per-token
probability.  ``grid_search_lambdas`` and ``tune_l`` pick regularizer
weights and the truncation depth by maximizing a corpus objective on a dev
set.  Both resolve the utility spec once for the whole dev set in a
:class:`~rmbr.mbr.UtilitySession` (one scorer per ``service:`` spec, closed
when the call returns), do the per-list utility work once, and per setting
only re-combine scores and sum per-candidate objective statistics (corpus
BLEU sufficient statistics or sentence chrF), each computed once.  Every
function that takes a utility accepts a spec string, one provider shared
by all lists, or a list with one provider per list.  Objectives use the
default :class:`~rmbr.metrics.MetricConfig`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

from .core import (
    DEFAULT_LAMBDA_GRID,
    NBestList,
    RerankConfig,
    combine_scores,
    rank_candidates,
)
from .errors import ConfigError, InvalidInputError, MissingScoreError
from .mbr import (
    UtilitySession,
    build_utility_matrix,
    expected_utilities,
    regularizer_values,
    rerank,
)
from .metrics import bleu_from_stats, bleu_stats, corpus_bleu, sentence_chrf

OBJECTIVE_METRICS = ("bleu", "chrf")


def _check_objective(lists: Sequence[NBestList], metric: str) -> None:
    if metric not in OBJECTIVE_METRICS:
        raise ConfigError(f"metric must be one of {OBJECTIVE_METRICS}, got {metric!r}")
    for i, lst in enumerate(lists):
        if lst.reference is None:
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
    _check_objective(lists, metric)
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


class _ObjectiveStats:
    """Per-candidate statistics of the corpus objective over a dev set.

    Each candidate's statistics are computed once, on first use: its
    :func:`bleu_stats` against the reference, or its sentence chrF.  The
    objective of a selection sums the selected candidates' statistics in
    list order and applies the formula :func:`corpus_objective` applies
    (BLEU statistics are integers), so the two agree bit for bit.
    """

    def __init__(self, lists: Sequence[NBestList], metric: str):
        _check_objective(lists, metric)
        self._lists = lists
        self._metric = metric
        self._stats: list[dict] = [{} for _ in lists]

    def _candidate(self, pos: int, index: int):
        stats = self._stats[pos]
        if index not in stats:
            lst = self._lists[pos]
            cand = lst.candidates[index]
            if self._metric == "chrf":
                stats[index] = sentence_chrf(cand.text, lst.reference)
            else:
                ref = lst.reference.split()
                if not ref:
                    raise InvalidInputError(f"empty sentence at corpus position {pos}")
                stats[index] = bleu_stats(cand.tokens, ref)
        return stats[index]

    def __call__(self, selections: Sequence[int]) -> float:
        picked = [self._candidate(pos, index) for pos, index in enumerate(selections)]
        if self._metric == "chrf":
            return sum(picked) / len(picked)
        return bleu_from_stats([sum(column) for column in zip(*picked)])


def _selection_objective(skeletons, lambdas: dict, objective: _ObjectiveStats) -> float:
    """Objective of the selections a weight vector induces on precomputed
    score skeletons (λ-independent MBR + regularizer values)."""
    selections = []
    for skel in skeletons:
        totals = combine_scores(skel.mbr_scores, skel.regularizer_scores, lambdas)
        _, row = rank_candidates(totals)
        selections.append(skel.candidate_indices[row])
    return objective(selections)


def grid_search_lambdas(
    lists: Sequence[NBestList],
    config: RerankConfig,
    grid: Sequence[float] = DEFAULT_LAMBDA_GRID,
    objective_metric: str = "bleu",
) -> tuple[dict, float]:
    """Exhaustive weight search over ``grid^r`` for the r active regularizers.

    Maximizes the corpus objective of the induced selections; ties prefer
    the combination that enumerates first over the ascending grid (i.e. the
    lexicographically smallest weight vector).  Utility matrices are
    computed once per list, not once per combination, with the config's
    utility specs resolved once for all lists (see :class:`UtilitySession`);
    each candidate's objective statistics are computed once.
    """
    if not lists:
        raise InvalidInputError("no dev lists")
    if not config.regularizers:
        raise ConfigError("grid search needs at least one active regularizer")
    grid_values = sorted({float(g) for g in grid})
    if not grid_values:
        raise ConfigError("empty weight grid")
    objective_of = _ObjectiveStats(lists, objective_metric)
    zero_config = replace(config, lambdas={name: 0.0 for name in config.regularizers})
    with UtilitySession() as session:
        configs = session.configs(zero_config, len(lists))
        skeletons = [rerank(lst, c) for lst, c in zip(lists, configs)]
    best_lambdas: dict = {}
    best_objective = -math.inf
    for combo in itertools.product(grid_values, repeat=len(config.regularizers)):
        lambdas = dict(zip(config.regularizers, combo))
        objective = _selection_objective(skeletons, lambdas, objective_of)
        if objective > best_objective:
            best_lambdas, best_objective = lambdas, objective
    return best_lambdas, best_objective


def tune_l(
    lists: Sequence[NBestList],
    config: RerankConfig,
    objective_metric: str = "bleu",
) -> tuple[int, float, list[float]]:
    """Sweep the truncation depth l = 1..min(n) and pick the best.

    Returns ``(best_l, best_objective, curve)`` with ``curve[l-1]`` the
    corpus objective at depth l.  Each list's full n x n utility matrix is
    built once, with the config's utility spec resolved once for all lists;
    per-depth scores are column-prefix means of it, exactly what a fresh
    depth-l matrix would give.  Ties prefer smaller l.
    """
    if not lists:
        raise InvalidInputError("no dev lists")
    if config.coarse_to_fine is not None:
        raise ConfigError("truncation sweep does not apply to coarse-to-fine configs")
    objective_of = _ObjectiveStats(lists, objective_metric)
    with UtilitySession() as session:
        providers = session.providers(config.utility, len(lists))
        matrices = [
            build_utility_matrix(lst, p, lst.n) for lst, p in zip(lists, providers)
        ]
    regularizers = [
        {name: regularizer_values(lst, name) for name in config.regularizers}
        for lst in lists
    ]
    n_sweep = min(lst.n for lst in lists)
    curve = []
    best_l = 1
    best_objective = -math.inf
    for l in range(1, n_sweep + 1):
        selections = []
        for matrix, regs in zip(matrices, regularizers):
            consensus = expected_utilities(matrix.values, l)
            totals = combine_scores(consensus, regs, config.lambdas)
            _, selected = rank_candidates(totals)
            selections.append(selected)
        objective = objective_of(selections)
        curve.append(objective)
        if objective > best_objective:
            best_l, best_objective = l, objective
    return best_l, best_objective, curve
