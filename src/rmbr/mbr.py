"""Expected-utility reranking of n-best lists.

A candidate's consensus score is its mean utility against the top-l
candidates of the same list (beam order, diagonal included):

    score(i) = (1/l) * sum_{j < l} U(candidate_i, candidate_j)

Regularizer terms are added on top with per-name weights; the combined
score is maximized.  A coarse-to-fine mode first ranks the full list with a
cheap proxy utility over all n pseudo-references, keeps the best k, and
reranks only the survivors with the target utility, for n^2 + k^2 pair
evaluations instead of n^2.

Utilities are pluggable: the built-in BLEU/chrF matrix builders share one
builder, which counts a list's n-grams into one matrix per order
(:func:`rmbr.kernels.encode_ngram_blocks`), gets every pairwise clipped
match count from one kernel, :func:`rmbr.kernels.pair_match_counts` (0/1
indicator matrix products in BLAS, exact in integers), and turns counts
into scores with the same scalar routines as the sentence metrics; a
precomputed matrix can be loaded from disk; and an external scorer process
can be attached over the line-JSON protocol, with one batch of pairs per
list.  :func:`check_utility_spec` checks and parses a spec string
without starting or connecting anything; spec strings become providers
in a :class:`UtilitySession`, which resolves each spec once per run and
closes the scorer connections it opened.  The built-in metrics use the
default :class:`~rmbr.metrics.MetricConfig`; another is chosen by passing
a provider such as ``BleuUtility(MetricConfig(...))`` in place of a spec.
"""

from __future__ import annotations

import shlex
from contextlib import ExitStack
from dataclasses import replace
from typing import Protocol, Sequence

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
    the list; ``score_against`` scores every candidate against an arbitrary
    reference text, one score per candidate (used for oracle analysis).
    """

    name: str

    def matrix(self, nbest: NBestList, l: int) -> np.ndarray: ...

    def score_against(self, nbest: NBestList, reference: str) -> list[float]: ...


def _ngram_matrix(seqs, order, l, from_counts, config) -> np.ndarray:
    """Score each sequence against the first l with a count->score routine."""
    counts, lengths = encode_ngram_blocks(seqs, order)
    matches = pair_match_counts(counts, lengths, l)
    lengths = lengths.tolist()
    out = np.empty((len(seqs), l), dtype=np.float64)
    for i in range(len(seqs)):
        for j in range(l):
            out[i, j] = from_counts(matches[i, j], lengths[i], lengths[j], config)
    return out


class BleuUtility:
    """Sentence BLEU between tokenized candidates, via the match-count kernel."""

    name = "bleu"

    def __init__(self, config: MetricConfig | None = None):
        self.config = config or MetricConfig()

    def matrix(self, nbest: NBestList, l: int) -> np.ndarray:
        seqs = [c.tokens for c in nbest.candidates]
        return _ngram_matrix(
            seqs, self.config.bleu_max_order, l, bleu_from_counts, self.config
        )

    def score_against(self, nbest, reference):
        ref = tuple(reference.split())
        return [sentence_bleu(c.tokens, ref, self.config) for c in nbest.candidates]


class ChrfUtility:
    """Character n-gram F-score between candidate texts, via the match-count kernel."""

    name = "chrf"

    def __init__(self, config: MetricConfig | None = None):
        self.config = config or MetricConfig()

    def matrix(self, nbest: NBestList, l: int) -> np.ndarray:
        seqs = []
        for i, cand in enumerate(nbest.candidates):
            chars = chrf_characters(cand.text)
            if not chars:
                raise InvalidInputError(
                    f"candidate {i} has no characters after whitespace stripping"
                )
            seqs.append(chars)
        return _ngram_matrix(
            seqs, self.config.chrf_char_order, l, chrf_from_counts, self.config
        )

    def score_against(self, nbest, reference):
        return [sentence_chrf(c.text, reference, self.config) for c in nbest.candidates]


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

    def score_against(self, nbest, reference):
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

    def score_against(self, nbest, reference):
        return self.client.score_pairs(
            [(nbest.source, c.text, reference) for c in nbest.candidates]
        )

    def close(self):
        close = getattr(self.client, "close", None)
        if close is not None:
            close()


def check_utility_spec(spec, num_lists: int = 1) -> tuple[str, object]:
    """Check a utility spec string and parse it, starting and connecting nothing.

    Returns ``(kind, value)``: ``("bleu", None)`` and ``("chrf", None)``;
    ``("matrix", providers)`` for ``"matrix:PATH"``, whose file must hold
    one matrix or one per list (``num_lists``); ``("exec", argv)`` for
    ``"service:exec:COMMAND"``; ``("tcp", (host, port))`` for
    ``"service:HOST:PORT"`` with a port in 1..65535.  Every other value
    raises :class:`ConfigError`.
    """
    if not isinstance(spec, str):
        raise ConfigError(f"unknown utility spec {spec!r}")
    if spec in ("bleu", "chrf"):
        return spec, None
    scheme, _, rest = spec.partition(":")
    if scheme == "matrix":
        from .io import load_utility_matrices

        utilities = [MatrixUtility(m) for m in load_utility_matrices(rest)]
        if len(utilities) not in (1, num_lists):
            raise ConfigError(
                f"{rest} holds {len(utilities)} matrices for {num_lists} lists; "
                "it must hold 1 or one per list"
            )
        return "matrix", utilities
    if scheme == "service" and rest.startswith("exec:"):
        try:
            argv = shlex.split(rest[len("exec:") :])
        except ValueError as e:
            raise ConfigError(f"bad scorer command in {spec!r}: {e}") from None
        if not argv:
            raise ConfigError(f"{spec!r} names no scorer command")
        return "exec", argv
    if scheme == "service":
        host, sep, port = rest.rpartition(":")
        if not host or not sep or not port.isdigit() or not 1 <= int(port) <= 65535:
            raise ConfigError(f"bad service address {rest!r}, want HOST:PORT")
        return "tcp", (host, int(port))
    raise ConfigError(f"unknown utility spec {spec!r}")


def make_utility(spec: str):
    """Resolve a utility from a spec string (see :func:`check_utility_spec`).

    A ``matrix:`` file must hold exactly one matrix here.  A ``service:``
    spec starts or connects to an external scorer; the returned provider
    owns the connection and must be closed after use, which a
    :class:`UtilitySession` does for the providers it resolves.
    """
    kind, value = check_utility_spec(spec)
    if kind == "bleu":
        return BleuUtility()
    if kind == "chrf":
        return ChrfUtility()
    if kind == "matrix":
        return value[0]
    from .io import ScorerClient

    if kind == "exec":
        return ServiceUtility(ScorerClient.spawn(value))
    return ServiceUtility(ScorerClient.connect_tcp(*value))


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

    def __init__(self):
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
        kind, value = check_utility_spec(spec, num_lists)
        if kind == "matrix":
            return value if len(value) == num_lists else value * num_lists
        provider = make_utility(spec)
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


def rerank(nbest: NBestList, config: RerankConfig) -> RerankResult:
    """Score, combine and rank one n-best list under a config.

    Honors ``config.coarse_to_fine`` when set; otherwise builds the n x l
    utility matrix directly (n * l pair evaluations).  Spec strings in the
    config are resolved in a :class:`UtilitySession` that lasts this call.
    """
    if config.coarse_to_fine is not None:
        return coarse_to_fine(nbest, config)
    with UtilitySession() as session:
        (utility,) = session.providers(config.utility, 1)
        l = config.resolve_l(nbest.n)
        matrix = build_utility_matrix(nbest, utility, l)
    consensus = mbr_scores(matrix)
    regularizers = {
        name: regularizer_values(nbest, name) for name in config.regularizers
    }
    totals = combine_scores(consensus, regularizers, config.lambdas)
    ranking, selected = rank_candidates(totals)
    return RerankResult(
        mbr_scores=tuple(consensus),
        regularizer_scores={k: tuple(v) for k, v in regularizers.items()},
        total_scores=tuple(totals),
        ranking=tuple(ranking),
        selected=selected,
        utility_calls=nbest.n * l,
        candidate_indices=tuple(range(nbest.n)),
    )


def coarse_to_fine(nbest: NBestList, config: RerankConfig) -> RerankResult:
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
    with UtilitySession() as session:
        (config,) = session.configs(config, 1)
        proxy_matrix = build_utility_matrix(nbest, config.coarse_to_fine.proxy, n)
        proxy_scores = mbr_scores(proxy_matrix)
        order, _ = rank_candidates(proxy_scores)
        survivors = sorted(order[:k])
        sub_list = NBestList(
            source=nbest.source,
            candidates=tuple(nbest.candidates[i] for i in survivors),
            reference=nbest.reference,
            reference_token_log_probs=nbest.reference_token_log_probs,
        )
        sub_config = replace(config, coarse_to_fine=None, l="full")
        sub_result = rerank(sub_list, sub_config)
    return RerankResult(
        mbr_scores=sub_result.mbr_scores,
        regularizer_scores=sub_result.regularizer_scores,
        total_scores=sub_result.total_scores,
        ranking=tuple(survivors[r] for r in sub_result.ranking),
        selected=survivors[sub_result.selected],
        utility_calls=n * n + sub_result.utility_calls,
        candidate_indices=tuple(survivors),
    )
