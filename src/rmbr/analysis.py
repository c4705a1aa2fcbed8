"""Dev-set analysis and tuning.

Oracle selection bounds what any reranker could achieve on a list; the
oracle-rank histogram shows where in the beam those best candidates sit.
The token-probability table relates sentence length to mean per-token
probability.  ``grid_search_lambdas`` and ``tune_l`` pick regularizer
weights and the truncation depth by maximizing a corpus objective on a dev
set.  The oracle and the tuners each check and score in one
:class:`~rmbr.mbr.UtilitySession`, the one the library call or the CLI
handler opened, through the providers resolved there once for all lists
(one scorer per ``service:`` spec, closed with the session): one check
pass takes every list before the first score, then one body scores each
list with what the check returned, and a dry run stops between them.
Both checks start with :func:`check_objective`: lists, each with a
non-blank reference.  The oracle's, :func:`_checked_oracle`, then wants
a bin width of at least 1 and providers that are not a stored matrix;
its body, :func:`_oracle_picks`, scores each list against its reference,
one :func:`~rmbr.mbr.reference_scores` call per list.  The
tuners', :func:`_checked_tuning`, checks the weight grid and the tuning
rules, then makes reranking's, :func:`~rmbr.mbr._checked_lists`, so a
total that is not finite after scoring is a scoring failure.  Their body,
:func:`tune`, scores each list once, takes its candidates' objective
statistics once, and at each depth gives every weight vector's selection
in one array pass per list.  Both tune a one-stage rerank and reject a
coarse-to-fine config.  What an objective is, its statistics and their
formula, is decided in :mod:`rmbr.metrics` alone
(:func:`~rmbr.metrics.objective_stats`, :func:`~rmbr.metrics.objective`),
with the default :class:`~rmbr.core.MetricConfig`; nothing here branches
on the metric.  A utility is a spec string, one provider shared by all
lists, or a list of one provider per list.  numpy and :mod:`rmbr.metrics`
are imported by the functions that score, where they run, so every check
here, and the dry run of a tuning or oracle command, loads neither.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .core import DEFAULT_LAMBDA_GRID, OBJECTIVE_METRICS, NBestList, RerankConfig, _integer, _number
from .errors import ConfigError, InvalidInputError, MissingScoreError, in_list
from .mbr import MatrixUtility, UtilitySession, _checked_lists, check_scored
from .mbr import reference_scores, scored_consensus


def check_objective(lists: Sequence[NBestList], metric: str) -> None:
    """Check the metric name, that there are lists, and that each has a non-blank reference."""
    if metric not in OBJECTIVE_METRICS:
        raise ConfigError(f"metric must be one of {OBJECTIVE_METRICS}, got {metric!r}")
    if not lists:
        raise InvalidInputError("no lists")
    for i, lst in enumerate(lists):
        with in_list(i):
            if lst.reference is None or not lst.reference.strip():
                raise InvalidInputError("no reference")


def corpus_objective(
    lists: Sequence[NBestList],
    selections: Sequence[int],
    metric: str = "bleu",
) -> float:
    """Corpus score of one selected candidate per list against the references:
    :func:`~rmbr.metrics.corpus_score` of ``metric``, "bleu" or "chrf"."""
    from .metrics import corpus_score

    check_objective(lists, metric)
    if len(selections) != len(lists):
        raise InvalidInputError(
            f"got {len(selections)} selections for {len(lists)} lists"
        )
    picked = [lst.candidates[sel] for lst, sel in zip(lists, selections)]
    refs = [lst.reference for lst in lists]
    return corpus_score(metric, [c.text for c in picked], refs, [list(c.tokens) for c in picked])


def _checked_oracle(session, lists, utility, bin_width, metric) -> tuple[int, list]:
    """The oracle's pre-scoring check: :func:`check_objective` of ``metric``, an integer
    bin width >= 1, returned as an int, and providers, resolved in ``session`` and
    returned, that are not a stored matrix."""
    check_objective(lists, metric)
    bin_width = _integer(bin_width, "bin_width", 1, ConfigError)
    providers = session.providers(utility, len(lists))
    if any(isinstance(provider, MatrixUtility) for provider in providers):
        raise ConfigError("a precomputed utility matrix cannot score against new references")
    return bin_width, providers


def _oracle_picks(lists, providers) -> list[tuple[int, float]]:
    """Each list's best candidate against its reference, the first on a tie, and its score."""
    picks = []
    for i, (lst, provider) in enumerate(zip(lists, providers)):
        with in_list(i):
            picks.append(max(enumerate(reference_scores(lst, provider)), key=lambda p: p[1]))
    return picks


def oracle_select(nbest: NBestList, utility="bleu") -> tuple[int, float]:
    """The candidate closest to the true reference, and its score.

    Ties go to the earlier (better beam rank) candidate.
    """
    with UtilitySession() as session:
        return _oracle_picks([nbest], _checked_oracle(session, [nbest], utility, 1, "bleu")[1])[0]


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
    lists: Sequence[NBestList], utility="bleu", bin_width: int = 5, objective_metric: str = "bleu"
) -> OracleReport:
    """Oracle-rank histogram over a corpus.

    Beam positions (1-based) are binned into intervals of ``bin_width``;
    proportions sum to 1.  ``corpus_metric`` is the corpus objective of the
    oracle selections — the reranking ceiling.
    """
    with UtilitySession() as session:
        width, providers = _checked_oracle(session, lists, utility, bin_width, objective_metric)
        picks = _oracle_picks(lists, providers)
    return _oracle_report(lists, picks, width, objective_metric)


def _oracle_report(lists, picks, bin_width, objective_metric) -> OracleReport:
    """The histogram and corpus metric of the oracle's ``picks``, one per list."""
    indices, scores = zip(*picks)
    counts = [0] * ((max(lst.n for lst in lists) + bin_width - 1) // bin_width)
    for idx in indices:
        counts[idx // bin_width] += 1
    proportions = tuple(c / len(lists) for c in counts)
    corpus_metric = corpus_objective(lists, indices, objective_metric)
    return OracleReport(indices, scores, bin_width, tuple(counts), proportions, corpus_metric)


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
    interval_width = _integer(interval_width, "interval_width", 1, ConfigError)
    if not lists:
        raise InvalidInputError("no lists")
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for i, lst in enumerate(lists):
        with in_list(i):
            if which == "top1":
                log_probs = lst.candidates[0].token_log_probs
                if log_probs is None:
                    raise MissingScoreError("top candidate has no token_log_probs")
            else:
                log_probs = lst.reference_token_log_probs
                if not log_probs:
                    raise MissingScoreError("no reference_token_log_probs")
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
    """The distinct weights of a tuning grid, ascending; each a number, none non-finite
    (a bad grid is named as given: each nan hashes by identity, so a set has no order)."""
    weights = [_number(w, "weight grid value", ConfigError, finite=False) for w in weights]
    if not weights:
        raise ConfigError("empty weight grid")
    if not all(math.isfinite(w) for w in weights):
        raise ConfigError(f"weight grid values must be finite, got {weights}")
    return sorted(set(weights))


def _weight_vectors(grid, r: int) -> np.ndarray:
    """Every weight vector over ``grid``, one row each, in ``itertools.product`` order."""
    import numpy as np

    return np.array(list(itertools.product(grid, repeat=r)), dtype=np.float64).reshape(-1, r)


# Cells of one block of totals (weight vectors x candidates) in
# _grid_selections.  Six regularizers over a 5-point grid are 15625 vectors;
# at n = 400 their totals at once would take 50 MB, a block takes 512 KB.
_GRID_BLOCK_CELLS = 1 << 16


def _grid_selections(consensus, values, weights: np.ndarray) -> np.ndarray:
    """The candidate each weight vector selects on one scored list.

    ``values`` holds r rows of regularizer values, one per candidate, and
    ``weights`` one row of r weights per vector, in the same order.  A
    vector's totals are ``consensus + w_1 * v_1 + ... + w_r * v_r`` in
    float64, added in that order: the operations :func:`combine_scores`
    performs, so they are bit-identical.  The selection is the first
    maximum, as in :func:`~rmbr.core.rank_candidates` (the lower index
    wins a tie, and +0.0 equals -0.0).  Vectors are taken a block at a
    time; a block of totals that is not finite raises
    :func:`~rmbr.mbr.check_scored`'s error, for the caller to name the list.
    """
    import numpy as np

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
        check_scored(totals)
        picks[start : start + len(block)] = totals.argmax(axis=1)
    return picks


def _checked_tuning(session, lists, config, grid, metric):
    """The tuners' whole pre-scoring check, in ``session``.

    :func:`check_objective` of ``metric``, then :func:`lambda_grid` of
    ``grid`` (None is the truncation sweep), then the tuning rules, then
    :func:`~rmbr.mbr._checked_lists`' checks, each list once at every depth
    the run ranks: a stored matrix must cover the list at the scored depth,
    the weighted fields must exist, and every vector's totals must rank at
    every depth.  A grid's vectors are checked through the two that take
    its smallest and its largest weight in every column: they hold each
    column's extremes, which is all :func:`~rmbr.mbr.checked_values` reads
    of the vectors, so the check equals checking all ``len(grid) ** r`` of
    them.  Returns what :func:`tune` takes after the metric: the checked
    grid, the run's depths (None keeps every scored column), the resolved
    config and each list's checked rows.
    """
    check_objective(lists, metric)
    grid = None if grid is None else lambda_grid(grid)
    if config.coarse_to_fine is not None:
        raise ConfigError("tuning reranks in one stage; coarse_to_fine must be None")
    weights = None
    if grid is not None:
        if not config.regularizers:
            raise ConfigError("grid search needs at least one active regularizer")
        depths = [None]
        weights = [(w,) * len(config.regularizers) for w in (min(grid), max(grid))]
    elif config.l != "full":
        raise ConfigError("the truncation sweep sets l itself")
    else:
        depths = range(1, min(lst.n for lst in lists) + 1)
    return (grid, depths, *_checked_lists(session, lists, config, weights, depths))


def check_tuning(lists, config: RerankConfig, grid=None, objective_metric="bleu") -> None:
    """Make every check a tuning run makes before its first score:
    :func:`_checked_tuning`, in a session of its own.  With a ``grid`` the
    run is :func:`grid_search_lambdas`', without one :func:`tune_l`'s."""
    with UtilitySession() as session:
        _checked_tuning(session, lists, config, grid, objective_metric)


def _grid_objectives(scored, weights: np.ndarray, metric: str) -> list[float]:
    """The objective of the selections each weight vector makes on the dev lists.

    ``scored`` holds each list's consensus scores, regularizer rows and
    :func:`~rmbr.metrics.objective_stats` rows; ``weights`` one vector per
    row.  Each vector's selected rows add up list by list, in list order,
    with no (vectors x lists) array, and :func:`~rmbr.metrics.objective`
    takes all vectors' sums at once: :func:`corpus_objective`'s sums and
    formula, so the two agree bit for bit.
    """
    from .metrics import objective

    sums = 0
    for i, (consensus, values, stats) in enumerate(scored):
        with in_list(i):
            sums = sums + stats[_grid_selections(consensus, values, weights)]
    return objective(metric, sums, len(scored)).tolist()


def tune(lists, metric, grid, depths, config, checked):
    """Score each dev list once, then try every weight vector at every depth.

    The body of both tuners, over what :func:`_checked_tuning` returned for
    ``lists`` and ``metric``: the checked ``grid`` (None is the truncation
    sweep), the ``depths``, the resolved ``config`` and the rows the check
    returned: the regularizer values, and a stored matrix's consensus at
    every depth.  Any other utility scores each list at depth ``config.l``
    (:func:`~rmbr.mbr.scored_consensus`, as reranking does) through the
    providers the check resolved, in one pass under :func:`~rmbr.errors.in_list`
    that also takes each candidate's objective statistics against the list's
    reference, one :func:`~rmbr.metrics.objective_stats` call per list.
    Returns the first setting with the highest objective, as its depth
    (None for a grid search) and its weights by name, that objective, and
    the objective of every setting, depth by depth.
    """
    import numpy as np

    from .metrics import objective_stats

    scored = []
    for i, (lst, u, (_, consensus, regs)) in enumerate(zip(lists, config.utility, checked)):
        with in_list(i):
            l = config.resolve_l(lst.n)
            consensus = scored_consensus(lst, u, range(lst.n), l, consensus, depths)
            texts, tokens = zip(*[(c.text, c.tokens) for c in lst.candidates])
            stats = objective_stats(metric, texts, [lst.reference] * lst.n, tokens)
        scored.append((consensus, regs, stats))
    if grid is None:
        weights = np.array([list(config.lambdas.values())], dtype=np.float64)
    else:
        weights = _weight_vectors(grid, len(config.regularizers))
    curve = []
    for d in range(len(depths)):
        at_d = [(consensus[d], regs, stats) for consensus, regs, stats in scored]
        curve += _grid_objectives(at_d, weights, metric)
    best = max(range(len(curve)), key=curve.__getitem__)
    depth, row = divmod(best, len(weights))
    lambdas = dict(zip(config.regularizers, weights[row].tolist()))
    return (depths[depth], lambdas), curve[best], curve


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
    with UtilitySession() as session:
        checked = _checked_tuning(session, lists, config, grid, objective_metric)
        (_, best), objective, _ = tune(lists, objective_metric, *checked)
    return best, objective


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
    with UtilitySession() as session:
        checked = _checked_tuning(session, lists, config, None, objective_metric)
        (best_l, _), objective, curve = tune(lists, objective_metric, *checked)
    return best_l, objective, curve
