"""Expected-utility reranking of n-best lists.

A candidate's consensus score is its mean utility against the top-l
candidates of the same list (beam order, diagonal included):

    score(i) = (1/l) * sum_{j < l} U(candidate_i, candidate_j)

Regularizer terms are added on top with per-name weights; the combined
score is maximized.  A coarse-to-fine mode first ranks the full list with a
cheap proxy utility over all n pseudo-references and keeps the best k;
:func:`rerank` then scores the survivors with the target utility in the
same steps as a one-stage rerank, for n^2 + k^2 pair evaluations instead
of n^2.  A stored matrix can be the proxy but not the target, whose rows
would belong to the full list.

Utilities are pluggable: the built-in BLEU/chrF matrix builders share one
builder, which counts a list's n-grams into one matrix per order
(:func:`rmbr.kernels.encode_ngram_blocks`), gets every pairwise clipped
match count from one kernel, :func:`rmbr.kernels.pair_match_counts` (0/1
indicator matrix products in BLAS, exact in integers), and turns the whole
count tensor into scores with one array routine per metric,
:func:`~rmbr.metrics.bleu_scores` or :func:`~rmbr.metrics.chrf_scores`,
whose 1 x 1 calls are the sentence metrics, so a pair's score is the same
bit for bit on every path (``score_against`` uses the builder with the
reference first and l = 1); a precomputed matrix can be loaded from disk;
and an external scorer process can be attached over the line-JSON
protocol, with one batch of pairs per list.  Spec strings become providers
in a :class:`UtilitySession`, which resolves each spec once per run,
starting and connecting nothing: a scorer opens on its first batch, and
the session closes it.  The scorer client and the ``service:`` syntax live
in :mod:`rmbr.scorer`, which the session imports only when it resolves a
``service:`` spec; the provider (:class:`ServiceUtility`), its first-batch
opener and the session's lifetime and counters stay here.
:func:`checked_values` is the one exact pre-scoring check of every
scoring command, for one weight vector or a tuner's whole grid: it
raises exactly when some vector's totals would not rank, and returns the
regularizer values the run then scores with.  :func:`check_list`
resolves the specs as :func:`rerank` does and then makes every check
:func:`rerank` makes on a list before its first score, so a dry run is
the real run stopped just before scoring (see :mod:`rmbr.cli`), and a
consensus or total that is not finite after scoring is a scoring failure
(:func:`check_scored`).  The built-in metrics
use the default :class:`~rmbr.metrics.MetricConfig`; another is chosen by
passing a provider such as ``BleuUtility(MetricConfig(...))`` in place of
a spec.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import replace
from typing import Protocol

import numpy as np

from .core import (
    REGULARIZER_NAMES,
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
    ScoringError,
)
from .io import load_utility_matrices
from .kernels import encode_ngram_blocks, pair_match_counts
from .metrics import MetricConfig, bleu_scores, chrf_characters, chrf_scores


class Utility(Protocol):
    """A pairwise utility over candidates.

    ``matrix`` scores every candidate against the first ``l`` candidates of
    the list; ``score_against`` scores every candidate against an arbitrary
    reference text, one score per candidate (used for oracle analysis).
    """

    name: str

    def matrix(self, nbest: NBestList, l: int) -> np.ndarray: ...

    def score_against(self, nbest: NBestList, reference: str) -> list[float]: ...


# Count tensor cells scored per call of a count->score routine.  Its float
# temporaries are a few times the cells it is given, so scoring a block of
# rows at a time keeps them near a megabyte however large n * l grows.
_SCORE_BLOCK_CELLS = 1 << 14


def _ngram_matrix(seqs, order, l, scores, config) -> np.ndarray:
    """Score each sequence against the first l with an array count->score routine."""
    counts, lengths = encode_ngram_blocks(seqs, order)
    matches = pair_match_counts(counts, lengths, l)
    rows = max(1, _SCORE_BLOCK_CELLS // (l * order))
    blocks = [
        scores(matches[i : i + rows], lengths[i : i + rows], lengths[:l], config)
        for i in range(0, len(seqs), rows)
    ]
    return np.concatenate(blocks)


class BleuUtility:
    """Sentence BLEU between tokenized candidates, via the match-count kernel."""

    name = "bleu"

    def __init__(self, config: MetricConfig | None = None):
        self.config = config or MetricConfig()

    def _scores(self, seqs, l) -> np.ndarray:
        order = self.config.bleu_max_order
        return _ngram_matrix(seqs, order, l, bleu_scores, self.config)

    def matrix(self, nbest: NBestList, l: int) -> np.ndarray:
        return self._scores([c.tokens for c in nbest.candidates], l)

    def score_against(self, nbest, reference):
        ref = tuple(reference.split())
        if not ref:
            raise InvalidInputError("reference is empty")
        return self._scores([ref, *(c.tokens for c in nbest.candidates)], 1)[1:, 0].tolist()


class ChrfUtility:
    """Character n-gram F-score between candidate texts, via the match-count kernel."""

    name = "chrf"

    def __init__(self, config: MetricConfig | None = None):
        self.config = config or MetricConfig()

    def _scores(self, seqs, l) -> np.ndarray:
        order = self.config.chrf_char_order
        return _ngram_matrix(seqs, order, l, chrf_scores, self.config)

    def matrix(self, nbest: NBestList, l: int) -> np.ndarray:
        return self._scores([chrf_characters(c.text) for c in nbest.candidates], l)

    def score_against(self, nbest, reference):
        ref = chrf_characters(reference)
        if not ref:
            raise InvalidInputError("reference is empty after whitespace stripping")
        hyps = [chrf_characters(c.text) for c in nbest.candidates]
        return self._scores([ref, *hyps], 1)[1:, 0].tolist()


class MatrixUtility:
    """A utility whose pairwise values were precomputed and stored."""

    def __init__(self, matrix: UtilityMatrix):
        self._matrix = matrix
        self.name = matrix.utility_name

    def check_size(self, n: int, l: int) -> None:
        """Raise unless the stored matrix covers n candidates at depth l."""
        if self._matrix.n < n or self._matrix.l < l:
            raise DimensionError(
                f"stored matrix is {self._matrix.n}x{self._matrix.l}, "
                f"need at least {n}x{l}"
            )

    def matrix(self, nbest: NBestList, l: int) -> np.ndarray:
        self.check_size(nbest.n, l)
        return np.asarray(self._matrix.values[: nbest.n, :l])

    def score_against(self, nbest, reference):
        raise ConfigError(
            "a precomputed utility matrix cannot score against new references"
        )


class ServiceUtility:
    """A utility backed by an external scorer over the line-JSON protocol.

    ``client`` is anything with the ``score_pairs`` of
    :class:`rmbr.scorer.ScorerClient`.
    """

    def __init__(self, client, name: str = "service"):
        self.client = client
        self.name = name

    def matrix(self, nbest: NBestList, l: int) -> np.ndarray:
        pairs = [
            (nbest.source, hyp.text, ref.text)
            for hyp in nbest.candidates
            for ref in nbest.candidates[:l]
        ]
        scores = self.client.score_pairs(pairs)
        return np.array(scores, dtype=np.float64).reshape(nbest.n, l)

    def score_against(self, nbest, reference):
        return self.client.score_pairs(
            [(nbest.source, c.text, reference) for c in nbest.candidates]
        )


class _ScorerOnFirstBatch:
    """A scorer client that ``open_client()`` opens on the first batch."""

    def __init__(self, open_client):
        self._open = open_client
        self._client = None

    def score_pairs(self, pairs):
        if self._client is None:
            self._client = self._open()
        return self._client.score_pairs(pairs)


class UtilitySession:
    """Resolves utility specs into providers once per run and owns them.

    This is the one place a spec string becomes a provider, and resolving
    starts and connects nothing.  :meth:`providers` gives one provider per
    list.  A spec string is resolved once: a matrix file holding one
    matrix per list gives one provider each; every other spec, and a file
    holding a single matrix, gives one provider shared by all lists (a
    ``service:`` spec gets one scorer, started or connected on its first
    batch).  A ready provider is shared by all lists, and a list or tuple
    of providers must hold one per list.  Scorers the session opened are
    closed when it exits, on success, on error and on interrupt; providers
    passed in are left open, so a session opened inside a call that was
    handed providers closes nothing of its caller's.
    """

    def __init__(self):
        #: the scorer clients this session opened
        self._clients: list = []
        self._closers = ExitStack()

    def __enter__(self) -> "UtilitySession":
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        """Close every scorer the session opened (idempotent)."""
        self._closers.close()

    def providers(self, spec, num_lists: int) -> list:
        """One provider per list for a spec string, provider or provider list.

        A spec string is ``"bleu"``, ``"chrf"``, ``"matrix:PATH"`` (a file
        holding one matrix, shared, or one per list), ``"service:exec:COMMAND"``
        or ``"service:HOST:PORT"`` with a port in 1..65535; any other value
        raises :class:`ConfigError`.  A ``service:`` spec also needs a valid
        scorer timeout (:class:`InvalidInputError` if not).  Only a
        ``service:`` spec imports :mod:`rmbr.scorer`, whose
        :func:`~rmbr.scorer.service_opener` parses it.
        """
        if isinstance(spec, (list, tuple)):
            if len(spec) != num_lists:
                raise InvalidInputError(
                    f"got {len(spec)} utility providers for {num_lists} lists"
                )
            return list(spec)
        if hasattr(spec, "matrix"):
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

        connect = service_opener(rest)

        def open_client():
            client = self._closers.enter_context(connect())
            self._clients.append(client)
            return client

        return [ServiceUtility(_ScorerOnFirstBatch(open_client))] * num_lists

    def configs(self, config: RerankConfig, num_lists: int) -> list[RerankConfig]:
        """Per-list copies of a config with the target and proxy resolved."""
        utilities = self.providers(config.utility, num_lists)
        stages = config.coarse_to_fine
        if stages is None:
            return [replace(config, utility=u) for u in utilities]
        proxies = self.providers(stages.proxy, num_lists)
        return [
            replace(config, utility=u, coarse_to_fine=replace(stages, proxy=p))
            for u, p in zip(utilities, proxies)
        ]

    def counters(self) -> dict:
        """Scorers this session opened and the pairs they scored."""
        return {
            "scorer_processes": len(self._clients),
            "scorer_pairs": sum(c.pairs_scored for c in self._clients),
        }


def build_utility_matrix(nbest: NBestList, utility, l: int) -> UtilityMatrix:
    """Score every candidate against the list's top-l candidates."""
    if not 1 <= l <= nbest.n:
        raise InvalidInputError(f"l must be in 1..{nbest.n}, got {l}")
    with UtilitySession() as session:
        (provider,) = session.providers(utility, 1)
        return UtilityMatrix(values=provider.matrix(nbest, l), utility_name=provider.name)


def expected_utilities(values: np.ndarray, l: int) -> list[float]:
    """Row means over the first l columns: the consensus score per candidate.

    Shared by reranking and the truncation sweep so that a stored n x n
    matrix truncated to l columns gives exactly the scores a fresh n x l
    matrix would.
    """
    with np.errstate(over="ignore"):  # rank_candidates rejects an inf sum
        sums = values[:, :l].sum(axis=1)
    return [float(s) / l for s in sums]


def mbr_scores(matrix: UtilityMatrix) -> list[float]:
    """Consensus score of each candidate: mean utility over the matrix columns."""
    return expected_utilities(matrix.values, matrix.l)


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
            value = -sum(cand.mc_pass_scores) / len(cand.mc_pass_scores)
        elif name == "entropy":
            if cand.token_entropies is None:
                raise MissingScoreError(f"candidate {i} has no token_entropies")
            value = -sum(cand.token_entropies) / len(cand.token_entropies)
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
    """Check that every weight vector's totals rank; return the regularizer rows.

    The one pre-scoring check of every scoring command.  ``utility`` is a
    resolved provider: a stored matrix must cover the list at depth ``l``
    (checked before the fields), and its consensus is taken at each of
    ``depths`` (None is ``l``); any other utility's is taken as zeros, since
    a BLEU/chrF value, in [0, 1], cannot overflow a finite total and a
    scorer's values are not known before scoring.  The fields the ``names``
    read must exist.  ``weights`` holds one weight vector per row, in
    ``names`` order: one row, or a full grid.  Totals add
    ``consensus + w_1 * v_1 + ... + w_r * v_r`` in that order, as
    :func:`combine_scores` does, and rounding is monotone, so the vectors
    that take each term's smallest and largest product give every vector's
    lowest and highest totals; each column's extremes belong to a real
    vector, so this raises exactly when some vector's totals would not
    rank.  Returns the r x n regularizer values, one row per name.
    """
    if isinstance(utility, MatrixUtility):
        stored = utility.matrix(nbest, l)
        consensus_at = np.array([expected_utilities(stored, d or l) for d in depths])
    else:
        consensus_at = np.zeros((1, nbest.n))
    regs = np.array([regularizer_values(nbest, name) for name in names]).reshape(-1, nbest.n)
    with np.errstate(over="ignore", invalid="ignore"):
        # 2 x r x n; sorted, row 0 holds each term's smallest product and row 1
        # its largest (a nan sorts last, so it reaches the highest totals)
        products = np.array([weights.min(axis=0), weights.max(axis=0)])[:, :, None] * regs
        products.sort(axis=0)
        totals = consensus_at[:, None, :].repeat(2, axis=1)  # depths x (lowest, highest) x n
        for k in range(len(regs)):
            totals += products[:, k]
    if not np.isfinite(totals).all():
        raise InvalidInputError("total scores must be finite")
    return regs


def check_list(nbest: NBestList, config: RerankConfig) -> np.ndarray:
    """Make every check :func:`rerank` makes on a list before its first score.

    The specs are resolved first, as :func:`rerank` resolves them, so a
    bad spec fails first and a ``matrix:`` string is checked as the matrix
    it names.  The depth, or the coarse-to-fine ``keep``, must fit the
    list, and a coarse-to-fine target must not be a stored matrix.  Then
    :func:`checked_values` checks the proxy over all n candidates with no
    regularizers, and the target at the run's depth with the config's
    weights (for coarse-to-fine, over the candidates the proxy would drop
    too).  Returns the target's regularizer values, one row per name in
    ``config.lambdas`` order.
    """
    with UtilitySession() as session:
        (config,) = session.configs(config, 1)
    stages, utility = config.coarse_to_fine, config.utility
    if stages is not None:
        if isinstance(utility, MatrixUtility):
            raise ConfigError(
                "a precomputed utility matrix cannot be the coarse-to-fine target"
            )
        if stages.keep > nbest.n:
            raise InvalidInputError(f"keep={stages.keep} exceeds list size {nbest.n}")
        checked_values(nbest, stages.proxy, nbest.n, (), np.zeros((1, 0)))
    weights = np.array([list(config.lambdas.values())], dtype=np.float64)
    return checked_values(nbest, utility, config.resolve_l(nbest.n), config.regularizers, weights)


def check_scored(nbest: NBestList, totals) -> None:
    """Raise :class:`ScoringError` unless every total of a scored list is finite.

    :func:`check_list` (and, for a tuning run,
    :func:`~rmbr.analysis.check_tuning`) has proved that every value
    known before scoring ranks, so a consensus or total that is not finite
    after scoring comes from the utility's scores, for example a scorer's
    finite values whose sum overflows: a scoring failure, not invalid input.
    """
    if not np.isfinite(totals).all():
        raise ScoringError(f"list with source {nbest.source!r}: scores are not finite")


def rerank(nbest: NBestList, config: RerankConfig) -> RerankResult:
    """Score, combine and rank one n-best list under a config.

    The target and, for coarse-to-fine, the proxy are resolved once, in one
    :class:`UtilitySession` that keeps every scorer it opens until the call
    returns, and the list goes through :func:`check_list` once, whose
    regularizer values the run scores with.  With ``config.coarse_to_fine``
    set, the proxy scores all n candidates against all n (no regularizers)
    and the best k survive, in list order; otherwise all n survive.  The
    survivors are scored at depth l, combined with the regularizers in
    ``config.lambdas`` order and ranked: n * l pair evaluations in one
    stage, n^2 + k^2 with coarse-to-fine.  Indices in the result refer to
    the original list; only survivors carry scores.
    """
    with UtilitySession() as session:
        (config,) = session.configs(config, 1)
        regs = check_list(nbest, config)
        survivors, calls = list(range(nbest.n)), 0
        stages = config.coarse_to_fine
        if stages is not None:
            proxy = mbr_scores(build_utility_matrix(nbest, stages.proxy, nbest.n))
            check_scored(nbest, proxy)
            order, _ = rank_candidates(proxy)
            survivors, calls = sorted(order[: stages.keep]), nbest.n * nbest.n
            nbest = replace(nbest, candidates=[nbest.candidates[i] for i in survivors])
            regs = regs[:, survivors]
        l = config.resolve_l(nbest.n)
        consensus = mbr_scores(build_utility_matrix(nbest, config.utility, l))
        regularizers = dict(zip(config.regularizers, regs.tolist()))
        totals = combine_scores(consensus, regularizers, config.lambdas)
        check_scored(nbest, totals)
        ranking, _ = rank_candidates(totals)
    return RerankResult(
        mbr_scores=tuple(consensus),
        regularizer_scores=regularizers,
        total_scores=tuple(totals),
        ranking=tuple(survivors[r] for r in ranking),
        selected=survivors[ranking[0]],
        utility_calls=calls + nbest.n * l,
        candidate_indices=tuple(survivors),
    )


def coarse_to_fine(nbest: NBestList, config: RerankConfig) -> RerankResult:
    """Two-stage rerank: :func:`rerank` of a config that has stage settings.

    The proxy shortlists ``keep`` survivors over the full list and the
    target reranks them with the configured regularizers, for n^2 + k^2
    pair evaluations.
    """
    if config.coarse_to_fine is None:
        raise ConfigError("config has no coarse_to_fine stage settings")
    return rerank(nbest, config)
