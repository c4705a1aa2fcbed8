"""Expected-utility reranking of n-best lists.

A candidate's consensus score is its mean utility against the top-l
candidates of the same list (beam order, diagonal included):

    score(i) = (1/l) * sum_{j < l} U(candidate_i, candidate_j)

Regularizer terms are added on top with per-name weights; the combined
score is maximized.  A coarse-to-fine mode first ranks the full list with a
cheap proxy utility over all n pseudo-references, keeps the best k, and
reranks only the survivors with the target utility, for n^2 + k^2 pair
evaluations instead of n^2.

Utilities are pluggable: the built-in BLEU/chrF matrix builders get every
pairwise clipped n-gram match count from one kernel,
:func:`rmbr.kernels.pair_match_counts` (0/1 indicator matrix products in
BLAS, exact in integers), and turn counts into scores with the same scalar
routines as the sentence metrics; a precomputed matrix can be loaded from
disk; and an external scorer process can be attached over the line-JSON
protocol.  Spec strings become providers in a :class:`UtilitySession`,
which resolves each spec once per run and closes the scorer connections
it opened.
"""

from __future__ import annotations

import math
import shlex
from contextlib import ExitStack
from dataclasses import dataclass, replace
from typing import Protocol, Sequence

import numpy as np

from .core import (
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
)
from .kernels import encode_ngram_blocks, pair_match_counts
from .metrics import (
    MetricConfig,
    bleu_from_counts,
    chrf_characters,
    chrf_from_counts,
    sentence_bleu,
    sentence_chrf,
)


class Utility(Protocol):
    """A pairwise utility over candidates.

    ``matrix`` scores every candidate against the first ``l`` candidates of
    the list; ``score_against`` scores one candidate against an arbitrary
    reference text (used for oracle analysis).
    """

    name: str

    def matrix(self, nbest: NBestList, l: int) -> np.ndarray: ...

    def score_against(self, source: str | None, candidate: Candidate, reference: str) -> float: ...


class BleuUtility:
    """Sentence BLEU between tokenized candidates, via the match-count kernel."""

    name = "bleu"

    def __init__(self, config: MetricConfig | None = None):
        self.config = config or MetricConfig()

    def matrix(self, nbest: NBestList, l: int) -> np.ndarray:
        order = self.config.bleu_max_order
        seqs = [c.tokens for c in nbest.candidates]
        ids, counts, offsets, lengths = encode_ngram_blocks(seqs, order)
        matches = pair_match_counts(ids, counts, offsets, order, len(seqs), l)
        out = np.empty((len(seqs), l), dtype=np.float64)
        for i in range(len(seqs)):
            for j in range(l):
                out[i, j] = bleu_from_counts(
                    matches[i, j], int(lengths[i]), int(lengths[j]), self.config
                )
        return out

    def score_against(self, source, candidate, reference):
        return sentence_bleu(candidate.tokens, tuple(reference.split()), self.config)


class ChrfUtility:
    """Character n-gram F-score between candidate texts, via the match-count kernel."""

    name = "chrf"

    def __init__(self, config: MetricConfig | None = None):
        self.config = config or MetricConfig()

    def matrix(self, nbest: NBestList, l: int) -> np.ndarray:
        order = self.config.chrf_char_order
        seqs = []
        for i, cand in enumerate(nbest.candidates):
            chars = chrf_characters(cand.text)
            if not chars:
                raise InvalidInputError(
                    f"candidate {i} has no characters after whitespace stripping"
                )
            seqs.append(chars)
        ids, counts, offsets, lengths = encode_ngram_blocks(seqs, order)
        matches = pair_match_counts(ids, counts, offsets, order, len(seqs), l)
        out = np.empty((len(seqs), l), dtype=np.float64)
        for i in range(len(seqs)):
            for j in range(l):
                out[i, j] = chrf_from_counts(
                    matches[i, j], int(lengths[i]), int(lengths[j]), self.config
                )
        return out

    def score_against(self, source, candidate, reference):
        return sentence_chrf(candidate.text, reference, self.config)


class MatrixUtility:
    """A utility whose pairwise values were precomputed and stored."""

    def __init__(self, matrix: UtilityMatrix):
        self._matrix = matrix
        self.name = matrix.utility_name

    def matrix(self, nbest: NBestList, l: int) -> np.ndarray:
        if self._matrix.n < nbest.n or self._matrix.l < l:
            raise DimensionError(
                f"stored matrix is {self._matrix.n}x{self._matrix.l}, "
                f"need at least {nbest.n}x{l}"
            )
        return np.asarray(self._matrix.values[: nbest.n, :l])

    def score_against(self, source, candidate, reference):
        raise ConfigError(
            "a precomputed utility matrix cannot score against new references"
        )


class _ScorerLike(Protocol):
    def score_pairs(self, pairs: Sequence[tuple[str | None, str, str]]) -> list[float]: ...


class ServiceUtility:
    """A utility backed by an external scorer over the line-JSON protocol."""

    def __init__(self, client: _ScorerLike, name: str = "service"):
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

    def score_against(self, source, candidate, reference):
        return self.client.score_pairs([(source, candidate.text, reference)])[0]

    def close(self):
        close = getattr(self.client, "close", None)
        if close is not None:
            close()


def _load_matrix_utilities(path: str) -> list[MatrixUtility]:
    from .io import load_utility_matrices

    return [MatrixUtility(m) for m in load_utility_matrices(path)]


def make_utility(
    spec,
    metric_config: MetricConfig | None = None,
    timeout: float | None = None,
):
    """Resolve a utility from a spec string, or pass a provider through.

    Spec strings: ``"bleu"``, ``"chrf"``, ``"matrix:PATH"`` (a stored
    matrix file holding exactly one matrix), ``"service:HOST:PORT"`` or
    ``"service:exec:COMMAND"`` (an external scorer; the returned provider
    owns the connection and must be closed after use, which a
    :class:`UtilitySession` does for the providers it resolves).
    """
    if hasattr(spec, "matrix") and not isinstance(spec, str):
        return spec
    if spec == "bleu":
        return BleuUtility(metric_config)
    if spec == "chrf":
        return ChrfUtility(metric_config)
    if isinstance(spec, str) and spec.startswith("matrix:"):
        path = spec[len("matrix:") :]
        utilities = _load_matrix_utilities(path)
        if len(utilities) != 1:
            raise ConfigError(
                f"{path} holds {len(utilities)} matrices; resolve it in a "
                "UtilitySession to assign one per list"
            )
        return utilities[0]
    if isinstance(spec, str) and spec.startswith("service:"):
        from .io import ScorerClient

        address = spec[len("service:") :]
        if address.startswith("exec:"):
            argv = shlex.split(address[len("exec:") :])
            client = ScorerClient.spawn(argv, timeout=timeout)
        else:
            host, sep, port = address.rpartition(":")
            if not sep or not port.isdigit():
                raise ConfigError(f"bad service address {address!r}, want HOST:PORT")
            client = ScorerClient.connect_tcp(host, int(port), timeout=timeout)
        return ServiceUtility(client)
    raise ConfigError(f"unknown utility spec {spec!r}")


class UtilitySession:
    """Resolves utility specs into providers once per run and owns them.

    :meth:`providers` gives one provider per list.  A spec string is
    resolved once: a matrix file holding one matrix per list gives one
    provider each; every other spec, and a file holding a single matrix,
    gives one provider shared by all lists.  A ready provider is shared
    by all lists, and a list or tuple of providers must hold one per list.
    Scorer connections the session opened are closed when it exits, on
    success, on error and on interrupt; providers passed in are left open,
    so a session opened inside a call that was handed providers closes
    nothing of its caller's.
    """

    def __init__(self, metric_config: MetricConfig | None = None):
        self.metric_config = metric_config
        self._services: list[ServiceUtility] = []
        self._closers = ExitStack()

    def __enter__(self) -> "UtilitySession":
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        """Close every provider the session opened (idempotent)."""
        self._closers.close()

    def providers(self, spec, num_lists: int) -> list:
        """One provider per list for a spec string, provider or provider list."""
        if isinstance(spec, (list, tuple)):
            if len(spec) != num_lists:
                raise InvalidInputError(
                    f"got {len(spec)} utility providers for {num_lists} lists"
                )
            return list(spec)
        if hasattr(spec, "matrix"):
            return [spec] * num_lists
        if isinstance(spec, str) and spec.startswith("matrix:"):
            utilities = _load_matrix_utilities(spec[len("matrix:") :])
            if len(utilities) == 1:
                return utilities * num_lists
            if len(utilities) != num_lists:
                raise InvalidInputError(
                    f"matrix file holds {len(utilities)} matrices for {num_lists} lists"
                )
            return utilities
        provider = make_utility(spec, self.metric_config)
        if isinstance(provider, ServiceUtility):
            self._services.append(provider)
            self._closers.callback(provider.close)
        return [provider] * num_lists

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
        """Scorer connections this session opened and the pairs they scored."""
        return {
            "scorer_processes": len(self._services),
            "scorer_pairs": sum(s.client.pairs_scored for s in self._services),
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
    sums = values[:, :l].sum(axis=1)
    return [float(s) / l for s in sums]


def mbr_scores(matrix: UtilityMatrix) -> list[float]:
    """Consensus score of each candidate: mean utility over the matrix columns."""
    return expected_utilities(matrix.values, matrix.l)


@dataclass(frozen=True)
class RegularizerSpec:
    """How one auxiliary score is pulled out of a candidate.

    ``negate`` flips scores whose raw form is "lower is better" so every
    stored regularizer value is higher-is-better.
    """

    name: str
    field: str
    negate: bool = False


REGULARIZERS = {
    "lp": RegularizerSpec("lp", "log_prob"),
    "lm": RegularizerSpec("lm", "external_scores"),
    "bt": RegularizerSpec("bt", "external_scores"),
    "qe": RegularizerSpec("qe", "external_scores"),
    "mc_dropout": RegularizerSpec("mc_dropout", "mc_pass_scores", negate=True),
    "entropy": RegularizerSpec("entropy", "token_entropies", negate=True),
}


def regularizer_values(nbest: NBestList, spec: RegularizerSpec | str) -> list[float]:
    """One higher-is-better score per candidate for a single regularizer.

    ``lp`` reads the decoder log-probability; ``lm``/``bt``/``qe`` read the
    identically named external score; ``mc_dropout`` and ``entropy`` average
    the per-pass / per-token uncertainty values and negate them.
    """
    if isinstance(spec, str):
        try:
            spec = REGULARIZERS[spec]
        except KeyError:
            raise ConfigError(
                f"unknown regularizer {spec!r}; known: {sorted(REGULARIZERS)}"
            ) from None
    out = []
    for i, cand in enumerate(nbest.candidates):
        if spec.field == "log_prob":
            value = cand.log_prob
        elif spec.field == "external_scores":
            if spec.name not in cand.external_scores:
                raise MissingScoreError(
                    f"candidate {i} has no external score {spec.name!r}"
                )
            value = cand.external_scores[spec.name]
        elif spec.field == "mc_pass_scores":
            if cand.mc_pass_scores is None:
                raise MissingScoreError(f"candidate {i} has no mc_pass_scores")
            value = sum(cand.mc_pass_scores) / len(cand.mc_pass_scores)
        elif spec.field == "token_entropies":
            if cand.token_entropies is None:
                raise MissingScoreError(f"candidate {i} has no token_entropies")
            value = sum(cand.token_entropies) / len(cand.token_entropies)
        else:
            raise ConfigError(f"regularizer reads unknown field {spec.field!r}")
        out.append(-value if spec.negate else value)
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


def rerank(
    nbest: NBestList,
    config: RerankConfig,
    *,
    metric_config: MetricConfig | None = None,
) -> RerankResult:
    """Score, combine and rank one n-best list under a config.

    Honors ``config.coarse_to_fine`` when set; otherwise builds the n x l
    utility matrix directly (n * l pair evaluations).  Spec strings in the
    config are resolved in a :class:`UtilitySession` that lasts this call.
    """
    if config.coarse_to_fine is not None:
        return coarse_to_fine(nbest, config, metric_config=metric_config)
    with UtilitySession(metric_config) as session:
        (utility,) = session.providers(config.utility, 1)
        l = config.resolve_l(nbest.n)
        matrix = build_utility_matrix(nbest, utility, l)
    consensus = mbr_scores(matrix)
    regularizers = {
        name: regularizer_values(nbest, name) for name in config.regularizers
    }
    totals = combine_scores(consensus, regularizers, config.lambdas)
    ranking, selected = rank_candidates(totals, config.tie_break)
    return RerankResult(
        mbr_scores=tuple(consensus),
        regularizer_scores={k: tuple(v) for k, v in regularizers.items()},
        total_scores=tuple(totals),
        ranking=tuple(ranking),
        selected=selected,
        utility_calls=nbest.n * l,
        candidate_indices=tuple(range(nbest.n)),
    )


def coarse_to_fine(
    nbest: NBestList,
    config: RerankConfig,
    *,
    metric_config: MetricConfig | None = None,
) -> RerankResult:
    """Two-stage rerank: proxy utility over the full list, target on survivors.

    Stage 1 scores all n candidates against all n with the proxy (no
    regularizers) and keeps the top k.  Stage 2 reranks the k survivors
    with the target utility and the configured regularizers.  Total pair
    evaluations: n^2 + k^2.  All indices in the result refer to the
    original list; only survivors carry scores.
    """
    stages = config.coarse_to_fine
    if stages is None:
        raise ConfigError("config has no coarse_to_fine stage settings")
    n = nbest.n
    k = stages.keep
    if k > n:
        raise InvalidInputError(f"keep={k} exceeds list size {n}")
    with UtilitySession(metric_config) as session:
        (config,) = session.configs(config, 1)
        proxy_matrix = build_utility_matrix(nbest, config.coarse_to_fine.proxy, n)
        proxy_scores = mbr_scores(proxy_matrix)
        order, _ = rank_candidates(proxy_scores, config.tie_break)
        survivors = sorted(order[:k])
        sub_list = NBestList(
            source=nbest.source,
            candidates=tuple(nbest.candidates[i] for i in survivors),
            reference=nbest.reference,
            reference_token_log_probs=nbest.reference_token_log_probs,
        )
        sub_config = replace(config, coarse_to_fine=None, l="full")
        sub_result = rerank(sub_list, sub_config, metric_config=metric_config)
    return RerankResult(
        mbr_scores=sub_result.mbr_scores,
        regularizer_scores=sub_result.regularizer_scores,
        total_scores=sub_result.total_scores,
        ranking=tuple(survivors[r] for r in sub_result.ranking),
        selected=survivors[sub_result.selected],
        utility_calls=n * n + sub_result.utility_calls,
        candidate_indices=tuple(survivors),
    )
