"""Expected-utility reranking of n-best lists.

A candidate's consensus score is its mean utility against the top-l
candidates of the same list (beam order, diagonal included):

    score(i) = (1/l) * sum_{j < l} U(candidate_i, candidate_j)

Regularizer terms are added on top with per-name weights; the combined
score is maximized.  A coarse-to-fine mode first ranks the full list with a
cheap proxy utility over all n pseudo-references and keeps the best k;
:func:`rerank_lists` then reranks the survivors against the first l of them
with the target utility as a one-stage rerank would, for n^2 + k^2 pair
evaluations instead of n^2.  A stored matrix can be the proxy but not the
target: the check pass cannot know the survivors before the proxy scores.

Utilities are pluggable: the built-in BLEU/chrF matrix builders share one
builder, which counts a list's n-grams into one matrix per order
(:func:`rmbr.kernels.encode_ngram_blocks`), gets every pairwise clipped
match count from one kernel, :func:`rmbr.kernels.pair_match_counts` (0/1
indicator matrix products in BLAS, exact in integers), and turns the whole
count tensor into scores with one array routine per metric,
:func:`~rmbr.metrics.bleu_scores` or :func:`~rmbr.metrics.chrf_scores`,
whose 1 x 1 calls are the sentence metrics, so a pair's score is the same
bit for bit on every path; a precomputed matrix can be loaded from disk;
and an external scorer process can be attached over the line-JSON
protocol (:mod:`rmbr.scorer`, imported only for a ``service:`` spec),
with one batch of pairs per list.  The built-in metrics use the default
:class:`~rmbr.core.MetricConfig`; pass a provider such as
``BleuUtility(MetricConfig(...))`` in place of a spec for another.

A run checks and scores in one :class:`UtilitySession`, through the
providers resolved there once per spec, starting nothing (a scorer opens
on its first batch, never after the session has closed it): one check
pass, :func:`_checked_lists`, then one body, :func:`_reranked`.
:func:`rerank_lists` opens a session for both, :func:`check_reranking`
one for the check alone, and the CLI runs both in its own and stops
between them on a dry run, so a dry run is the real run stopped just
before scoring.  :func:`checked_values` is the one exact pre-scoring
check of every scoring command: it raises exactly when some weight
vector's totals would not rank, and returns the rows the run scores
with, so a consensus or total that is not finite after scoring is a
scoring failure (:func:`check_scored`).  :func:`scored_matrix` is the
one scoring call, and a provider has no other: rows against the first l
of them, or against a reference text (:func:`reference_scores`); and
:func:`consensus_rows` takes every consensus from the values it gives.

numpy, :mod:`rmbr.kernels` and :mod:`rmbr.metrics` are imported by the
functions that compute on arrays, where they run, so resolving specs and
every check up to and including :func:`checked_values` load none of them:
numpy loads at the first score, or with a stored matrix, whose file is
read into an array.  :func:`encode_ngram_blocks` and
:func:`pair_match_counts` are forwarders to :mod:`rmbr.kernels`, kept
under the names the builders call because the benchmark's span tracer
(``perfbench/spans.py``) wraps those names on this module; they go when
that tracer does.
"""

from __future__ import annotations

import math
from contextlib import ExitStack
from dataclasses import replace
from typing import Protocol

from .core import (
    REGULARIZER_NAMES,
    MetricConfig,
    NBestList,
    RerankConfig,
    RerankResult,
    UtilityMatrix,
    _integer,
    combine_scores,
    rank_candidates,
)
from .errors import (
    ConfigError,
    DimensionError,
    InvalidInputError,
    MissingScoreError,
    ScoringError,
    TransportError,
    in_list,
)
from .io import load_utility_matrices


class Utility(Protocol):
    """A pairwise utility over candidates: a provider has a ``name`` and ``matrix``.

    ``matrix(nbest, rows, refs)`` scores the candidates at ``rows`` (ascending
    indices) against the first ``refs`` of them (an int) or the text ``refs``.
    """

    name: str

    def matrix(self, nbest: NBestList, rows, refs: int | str) -> np.ndarray: ...


def encode_ngram_blocks(seqs, order):
    """:func:`rmbr.kernels.encode_ngram_blocks`, under the name the builders call."""
    from .kernels import encode_ngram_blocks

    return encode_ngram_blocks(seqs, order)


def pair_match_counts(counts, lengths, l):
    """:func:`rmbr.kernels.pair_match_counts`, under the name the builders call."""
    from .kernels import pair_match_counts

    return pair_match_counts(counts, lengths, l)


# Count tensor cells scored per call of a count->score routine.  Its float
# temporaries are a few times the cells it is given, so scoring a block of
# rows at a time keeps them near a megabyte however large n * l grows.
_SCORE_BLOCK_CELLS = 1 << 14


def _ngram_matrix(seqs, refs, order, scores, config) -> np.ndarray:
    """Score each sequence against the first ``refs`` of them, or against the
    sequence ``refs`` as item 0 at depth 1, its own row unscored."""
    import numpy as np

    outside = not isinstance(refs, int)
    seqs, l = ([refs, *seqs], 1) if outside else (seqs, refs)
    counts, lengths = encode_ngram_blocks(seqs, order)
    matches = pair_match_counts(counts, lengths, l)
    rows = max(1, _SCORE_BLOCK_CELLS // (l * order))
    blocks = [
        scores(matches[i : i + rows], lengths[i : i + rows], lengths[:l], config)
        for i in range(int(outside), len(seqs), rows)
    ]
    return np.concatenate(blocks)


class BleuUtility:
    """Sentence BLEU between tokenized candidates, via the match-count kernel."""

    name = "bleu"

    def __init__(self, config: MetricConfig | None = None):
        self.config = config or MetricConfig()

    def matrix(self, nbest: NBestList, rows, refs: int | str) -> np.ndarray:
        from .metrics import bleu_scores

        seqs = [nbest.candidates[i].tokens for i in rows]
        refs = refs.split() if isinstance(refs, str) else refs
        return _ngram_matrix(seqs, refs, self.config.bleu_max_order, bleu_scores, self.config)


class ChrfUtility:
    """Character n-gram F-score between candidate texts, via the match-count kernel."""

    name = "chrf"

    def __init__(self, config: MetricConfig | None = None):
        self.config = config or MetricConfig()

    def matrix(self, nbest: NBestList, rows, refs: int | str) -> np.ndarray:
        from .metrics import chrf_characters, chrf_scores

        seqs = [chrf_characters(nbest.candidates[i].text) for i in rows]
        refs = chrf_characters(refs) if isinstance(refs, str) else refs
        return _ngram_matrix(seqs, refs, self.config.chrf_char_order, chrf_scores, self.config)


class MatrixUtility:
    """Precomputed, stored utility values of pairs of the list's candidates."""

    def __init__(self, matrix: UtilityMatrix):
        self._matrix = matrix
        self.name = matrix.utility_name

    def matrix(self, nbest: NBestList, rows, refs: int | str) -> np.ndarray:
        if isinstance(refs, str):
            raise ConfigError("a precomputed utility matrix cannot score against new references")
        # rows ascend, so the first refs of them end at rows[refs - 1]; more
        # refs than rows ask for refs columns
        n, l = max(rows) + 1, max(refs, rows[:refs][-1] + 1)
        if self._matrix.n < n or self._matrix.l < l:
            raise DimensionError(
                f"stored matrix is {self._matrix.n}x{self._matrix.l}, need at least {n}x{l}"
            )
        return self._matrix.values[rows][:, rows[:refs]]


class ServiceUtility:
    """A utility backed by an external scorer over the line-JSON protocol.

    ``client`` is anything with the ``score_pairs`` of
    :class:`rmbr.scorer.ScorerClient`.
    """

    def __init__(self, client, name: str = "service"):
        self.client = client
        self.name = name

    def matrix(self, nbest: NBestList, rows, refs: int | str) -> np.ndarray:
        hyps = [nbest.candidates[i].text for i in rows]
        refs = [refs] if isinstance(refs, str) else hyps[:refs]
        pairs = [(nbest.source, hyp, ref) for hyp in hyps for ref in refs]
        import numpy as np

        scores = self.client.score_pairs(pairs)
        return np.array(scores, dtype=np.float64).reshape(len(hyps), len(refs))


class _Scorer:
    """One resolved ``service:`` spec's scorer, opened through its session on the first
    batch; a first batch after the session has closed raises :class:`TransportError`."""

    def __init__(self, session: "UtilitySession", connect):
        self.session, self.connect, self.client = session, connect, None

    def score_pairs(self, pairs):
        if self.client is None:
            if self.session._closed:
                raise TransportError("the session that resolved this scorer has closed")
            self.client = self.session._closers.enter_context(self.connect())
        return self.client.score_pairs(pairs)


class UtilitySession:
    """Resolves utility specs into providers once per run and owns them.

    This is the one place a spec string becomes a provider, and resolving
    starts and connects nothing.  :meth:`providers` gives one provider per
    list.  A spec string is resolved once: a matrix file holding one
    matrix per list gives one provider each; every other spec, and a file
    holding a single matrix, gives one provider shared by all lists (a
    ``service:`` spec gets one scorer, started or connected on its first
    batch).  A ready provider is shared by all lists, and a list or tuple
    must hold one provider per list.  Scorers the session opened are closed
    when it exits, on success, on error and on interrupt, and its providers
    start none after that; providers passed in are left open, so a session
    opened inside a call handed providers closes nothing of its caller's.
    """

    def __init__(self):
        #: one record per ``service:`` spec this session resolved
        self._scorers: list[_Scorer] = []
        self._closers = ExitStack()
        self._closed = False

    def __enter__(self) -> "UtilitySession":
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        """Close every scorer the session opened (idempotent)."""
        self._closed = True
        self._closers.close()

    def providers(self, spec, num_lists: int) -> list:
        """One provider per list for a spec string, provider or provider list.

        A spec string is ``"bleu"``, ``"chrf"``, ``"matrix:PATH"`` (a file
        holding one matrix, shared, or one per list), ``"service:exec:COMMAND"``
        or ``"service:HOST:PORT"`` with a port in 1..65535; any other value
        raises :class:`ConfigError`, as does a list element that is not a
        provider.  A ``service:`` spec also needs a valid scorer timeout
        (:class:`InvalidInputError` if not).  Only a
        ``service:`` spec imports :mod:`rmbr.scorer`, whose
        :func:`~rmbr.scorer.service_opener` parses it.
        """
        if isinstance(spec, (list, tuple)):
            if len(spec) != num_lists:
                raise InvalidInputError(
                    f"got {len(spec)} utility providers for {num_lists} lists"
                )
            for provider in spec:
                if not (hasattr(provider, "matrix") and hasattr(provider, "name")):
                    raise ConfigError(f"a per-list utility must be a provider, got {provider!r}")
            return list(spec)
        if hasattr(spec, "matrix"):
            if not hasattr(spec, "name"):
                raise ConfigError(f"a utility provider needs a name, got {spec!r}")
            return [spec] * num_lists
        if not isinstance(spec, str):
            raise ConfigError(f"unknown utility spec {spec!r}")
        if spec == "bleu":
            return [BleuUtility()] * num_lists
        if spec == "chrf":
            return [ChrfUtility()] * num_lists
        scheme, _, rest = spec.partition(":")
        if scheme == "matrix":
            utilities = [MatrixUtility(m) for m in load_utility_matrices(rest)]
            if len(utilities) not in (1, num_lists):
                raise ConfigError(
                    f"{rest} holds {len(utilities)} matrices for {num_lists} lists; "
                    "it must hold 1 or one per list"
                )
            return utilities * (num_lists // len(utilities))
        if scheme != "service":
            raise ConfigError(f"unknown utility spec {spec!r}")
        from .scorer import service_opener

        self._scorers.append(_Scorer(self, service_opener(rest)))
        return [ServiceUtility(self._scorers[-1])] * num_lists

    def resolve(self, config: RerankConfig, num_lists: int) -> RerankConfig:
        """The config with its target and proxy resolved, one provider per list each."""
        utility, stages = self.providers(config.utility, num_lists), config.coarse_to_fine
        if stages is not None:
            stages = replace(stages, proxy=self.providers(stages.proxy, num_lists))
        return replace(config, utility=utility, coarse_to_fine=stages)

    def counters(self) -> dict:
        """Scorers this session opened and the pairs they scored."""
        clients = [s.client for s in self._scorers if s.client is not None]
        pairs = sum(c.pairs_scored for c in clients)
        return {"scorer_processes": len(clients), "scorer_pairs": pairs}


def scored_matrix(nbest: NBestList, provider, rows, refs: int | str) -> UtilityMatrix:
    """The one scoring call: a resolved provider's checked :class:`Utility` matrix.

    A value that is not finite is a :class:`ScoringError`, as a scorer's is."""
    import numpy as np

    values = provider.matrix(nbest, rows, refs)
    shape = (len(rows), 1 if isinstance(refs, str) else refs)
    if np.shape(values) != shape:
        raise DimensionError(f"{provider.name} gave shape {np.shape(values)}, not {shape}")
    values = np.asarray(values)
    if values.dtype.kind == "f" and not np.isfinite(values).all():
        raise ScoringError(f"{provider.name} gave non-finite scores")
    return UtilityMatrix(values=values, utility_name=provider.name)


def reference_scores(nbest: NBestList, provider) -> list[float]:
    """Each candidate's score against the list's reference (:func:`scored_matrix`)."""
    if nbest.reference is None or not nbest.reference.strip():
        raise InvalidInputError("no reference")
    return scored_matrix(nbest, provider, range(nbest.n), nbest.reference).values[:, 0].tolist()


def build_utility_matrix(nbest: NBestList, utility, l: int) -> UtilityMatrix:
    """Score every candidate against the list's top-l candidates (:func:`scored_matrix`)."""
    l = _integer(l, "l", 1)
    if l > nbest.n:
        raise InvalidInputError(f"l must be in 1..{nbest.n}, got {l}")
    with UtilitySession() as session:
        return scored_matrix(nbest, session.providers(utility, 1)[0], range(nbest.n), l)


def consensus_rows(values: np.ndarray, l: int, depths=(None,)) -> np.ndarray:
    """The consensus scores at each of ``depths`` (None is ``l``), one row each.

    At depth d, each row's sum over its first d columns divided by d in float64,
    so a stored n x n matrix cut to d columns gives what a fresh n x d one would.
    """
    import numpy as np

    depths = [d or l for d in depths]
    # rank_candidates rejects an inf sum, and a nan one (inf + -inf in numpy's pairwise sum)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.array([values[:, :d].sum(axis=1).astype(np.float64) / d for d in depths])


def scored_consensus(nbest: NBestList, utility, rows, l: int, checked, depths=(None,)):
    """The consensus rows :func:`checked_values` returned, else those of ``rows``.

    ``checked`` is None unless ``utility`` is a stored matrix; then ``rows``
    are scored against the first ``l`` of them and :func:`consensus_rows` taken.
    """
    if checked is not None:
        return checked
    return consensus_rows(scored_matrix(nbest, utility, rows, l).values, l, depths)


def mbr_scores(matrix: UtilityMatrix) -> list[float]:
    """Consensus score of each candidate: mean utility over the matrix columns."""
    return consensus_rows(matrix.values, matrix.l)[0].tolist()


def _negated_mean(values) -> float:
    """``-sum(values) / len(values)``, finite where that sum overflows.

    The entries are finite and >= 0 (the :class:`~rmbr.core.Candidate`
    constructor checks), so their mean is finite and at most their
    largest entry; only a sum that overflows takes the mean of the
    entries divided first, capped at that entry.
    """
    total = sum(values)
    if math.isfinite(total):
        return -total / len(values)
    return -min(sum(v / len(values) for v in values), max(values))


def regularizer_values(nbest: NBestList, name: str) -> list[float]:
    """One higher-is-better score per candidate for a single regularizer.

    ``lp`` reads the decoder log-probability; ``lm``/``bt``/``qe`` read the
    identically named external score; ``mc_dropout`` and ``entropy`` average
    the per-pass / per-token uncertainty values and negate them.
    """
    if name not in REGULARIZER_NAMES:
        raise ConfigError(f"unknown regularizer {name!r}; known: {REGULARIZER_NAMES}")
    out = []
    for i, cand in enumerate(nbest.candidates):
        if name == "lp":
            value = cand.log_prob
        elif name == "mc_dropout":
            if cand.mc_pass_scores is None:
                raise MissingScoreError(f"candidate {i} has no mc_pass_scores")
            value = _negated_mean(cand.mc_pass_scores)
        elif name == "entropy":
            if cand.token_entropies is None:
                raise MissingScoreError(f"candidate {i} has no token_entropies")
            value = _negated_mean(cand.token_entropies)
        else:
            if name not in cand.external_scores:
                raise MissingScoreError(f"candidate {i} has no external score {name!r}")
            value = cand.external_scores[name]
        out.append(value)
    return out


def token_entropy(distribution) -> float:
    """Shannon entropy (nats) of one next-token distribution.

    Entries must be non-negative and sum to 1 within 1e-6; zero
    probabilities contribute nothing.
    """
    import numpy as np

    p = np.asarray(distribution, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise InvalidInputError("distribution must be a non-empty 1-D array")
    if not np.all(np.isfinite(p)) or np.any(p < 0.0):
        raise InvalidInputError("distribution entries must be finite and >= 0")
    total = float(p.sum())
    if abs(total - 1.0) > 1e-6:
        raise InvalidInputError(f"distribution sums to {total!r}, not 1")
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log(nz)))


def checked_values(nbest: NBestList, utility, l: int, names, weights, depths=(None,)):
    """Check that every weight vector's totals rank; return the rows it checked.

    The one pre-scoring check of every scoring command.  ``utility`` is a
    resolved provider: a stored matrix must cover the list at depth ``l``
    (checked before the fields), and its consensus is taken at each of
    ``depths`` (None is ``l``); any other utility's is taken as zeros, since
    a BLEU/chrF value, in [0, 1], cannot overflow a finite total and a
    scorer's values are not known before scoring.  The fields the ``names``
    read must exist.  ``weights`` holds one weight vector per row, in
    ``names`` order: one row, or the vectors that hold a grid's extremes.
    Totals add ``consensus + w_1 * v_1 + ... + w_r * v_r`` in that order, as
    :func:`combine_scores` does, and rounding is monotone, so a candidate's
    smallest consensus over the depths plus each term's smallest product
    gives its lowest total at every depth and vector, and its largest
    consensus plus each term's largest product its highest; each column's
    extremes belong to a real vector, so this raises exactly when some
    vector's totals would not rank at some depth.  The sums are Python
    float additions, the IEEE float64 operations numpy would make, so the
    check loads no numpy.  Returns the stored matrix's consensus rows, one
    per depth (None for any other utility), and the regularizer values as
    r float rows of n, one per name.
    """
    consensus, lows, highs = None, [0.0] * nbest.n, [0.0] * nbest.n
    if isinstance(utility, MatrixUtility):
        consensus = consensus_rows(utility.matrix(nbest, range(nbest.n), l), l, depths)
        # numpy's min and max keep a nan, which then fails its totals
        lows, highs = consensus.min(axis=0).tolist(), consensus.max(axis=0).tolist()
    regs = [regularizer_values(nbest, name) for name in names]
    # as Python floats: products of numpy scalars that overflow would warn
    columns = zip(*[[float(w) for w in row] for row in weights])
    extremes = [(min(column), max(column)) for column in columns]
    for i, (lowest, highest) in enumerate(zip(lows, highs)):
        for (lo, hi), values in zip(extremes, regs):
            low, high = lo * values[i], hi * values[i]
            if high < low:  # false for a nan, which then reaches a total
                low, high = high, low
            lowest += low
            highest += high
        if not (math.isfinite(lowest) and math.isfinite(highest)):
            raise InvalidInputError("total scores must be finite")
    return consensus, regs


def _checked_lists(session, lists, config: RerankConfig, weights=None, depths=(None,)):
    """The one pre-scoring check pass of every reranking and tuning run.

    Resolves the config in ``session``; a coarse-to-fine target must not
    be a stored matrix.  Then, list by list, ``keep`` and the depth must
    fit, and :func:`checked_values` checks the proxy over all n candidates
    with no regularizers, then the target with the config's weight row
    unless ``weights`` are given, at each of ``depths``, each list under
    :func:`~rmbr.errors.in_list`, so its failure names it.
    Returns the resolved config and, per list, the proxy's consensus (None
    without coarse-to-fine) and the target's :func:`checked_values` rows.
    """
    config = session.resolve(config, len(lists))
    stages, utilities = config.coarse_to_fine, config.utility
    weights = weights or [list(config.lambdas.values())]
    if stages is not None and any(isinstance(u, MatrixUtility) for u in utilities):
        raise ConfigError("a precomputed utility matrix cannot be the coarse-to-fine target")
    checked = []
    for i, nbest in enumerate(lists):
        with in_list(i):
            proxy = None
            if stages is not None:
                if stages.keep > nbest.n:
                    raise InvalidInputError(f"keep={stages.keep} exceeds list size {nbest.n}")
                proxy, _ = checked_values(nbest, stages.proxy[i], nbest.n, (), [()])
            l = config.resolve_l(nbest.n)
            target = checked_values(nbest, utilities[i], l, config.regularizers, weights, depths)
        checked.append((proxy, *target))
    return config, checked


def check_reranking(lists, config: RerankConfig) -> None:
    """Make every check :func:`rerank_lists` makes before its first score:
    :func:`_checked_lists`, in a session of its own."""
    with UtilitySession() as session:
        _checked_lists(session, lists, config)


def check_scored(totals) -> None:
    """Raise :class:`ScoringError` unless every total is finite.

    :func:`check_reranking` (and, for a tuning run,
    :func:`~rmbr.analysis.check_tuning`) has proved that every value
    known before scoring ranks, so a consensus or total that is not finite
    after scoring comes from the utility's scores, for example a scorer's
    finite values whose sum overflows: a scoring failure, not invalid input.
    """
    import numpy as np

    if not np.isfinite(totals).all():
        raise ScoringError("scores are not finite")


def rerank_lists(lists, config: RerankConfig) -> list[RerankResult]:
    """Check every list (:func:`_checked_lists`), then score, combine and
    rank each (:func:`_reranked`) under a config, in one
    :class:`UtilitySession` that resolves the target and the proxy once for
    all lists (a spec, one provider, or one per list) and keeps every
    scorer it opens until the call returns."""
    with UtilitySession() as session:
        return _reranked(lists, *_checked_lists(session, lists, config))


def _reranked(lists, config: RerankConfig, checked) -> list[RerankResult]:
    """The reranking body: each list scored with the rows :func:`_checked_lists`
    returned for it (:func:`scored_consensus`).

    With ``config.coarse_to_fine``, the proxy scores all n candidates
    against all n and the best k survive, in list order.  The survivors are
    scored against the first l of them, combined with the regularizers in
    ``config.lambdas`` order and ranked: n * l pair evaluations, or n^2 + k^2
    with coarse-to-fine.  Lists are scored in order, none after one fails,
    whose error names it (:func:`~rmbr.errors.in_list`); a result's indices
    refer to its original list, and only survivors carry scores.
    """
    results = []
    stages = config.coarse_to_fine
    for i, (nbest, (proxy, consensus, regs)) in enumerate(zip(lists, checked)):
        with in_list(i):
            rows, calls = range(nbest.n), 0
            if stages is not None:
                proxy = scored_consensus(nbest, stages.proxy[i], rows, nbest.n, proxy)[0]
                check_scored(proxy)
                order, _ = rank_candidates(proxy.tolist())
                rows, calls = sorted(order[: stages.keep]), nbest.n * nbest.n
                regs = [[values[j] for j in rows] for values in regs]
            l = config.resolve_l(len(rows))
            consensus = scored_consensus(nbest, config.utility[i], rows, l, consensus)[0].tolist()
            regularizers = dict(zip(config.regularizers, regs))
            totals = combine_scores(consensus, regularizers, config.lambdas)
            check_scored(totals)
            ranking, _ = rank_candidates(totals)
        results.append(
            RerankResult(
                mbr_scores=tuple(consensus),
                regularizer_scores=regularizers,
                total_scores=tuple(totals),
                ranking=tuple(rows[r] for r in ranking),
                selected=rows[ranking[0]],
                utility_calls=calls + len(rows) * l,
                candidate_indices=tuple(rows),
            )
        )
    return results


def rerank(nbest: NBestList, config: RerankConfig) -> RerankResult:
    """Score, combine and rank one n-best list: :func:`rerank_lists` of it alone."""
    return rerank_lists([nbest], config)[0]
