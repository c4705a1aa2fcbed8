"""Lexical similarity metrics: sentence BLEU, sentence chrF, corpus BLEU.

Sentence BLEU is the geometric mean of clipped modified n-gram precisions
over orders 1..max_order, times the brevity penalty
``exp(min(0, 1 - |ref| / |hyp|))``.  Orders for which the hypothesis has no
n-grams at all are dropped from the geometric mean (effective order), so
the identity score of a short sentence with itself is still 1.  With
epsilon-floor smoothing, a zero match count at order >= 2 is replaced by a
small constant; a zero unigram match always yields score 0.  Corpus BLEU
sums per-sentence sufficient statistics (:func:`bleu_stats`) over the
whole corpus first, applies one formula to the sums
(:func:`corpus_bleu_scores`, one row per corpus) and is never smoothed.

Sentence chrF is the F-beta score over character n-grams (whitespace
removed), averaged over orders 1..char_order; orders where neither side
has any n-grams are skipped.

All functions are pure; clipped match counts come from the kernel in
:mod:`rmbr.kernels`: one call per reference for the sentence metrics and
:func:`bleu_stats` (:func:`matches_against`), and one per block of
sentence pairs for :func:`corpus_bleu`.
Counts become scores in one array routine per metric,
:func:`bleu_scores` and :func:`chrf_scores`, over a whole (n, l, order)
count tensor; :func:`bleu_from_counts` and :func:`chrf_from_counts` score
one pair as a 1 x 1 call of them.  Every score equals the per-pair
definition above bit for bit: divisions, sums and products are float64
array operations in the definition's order (orders summed first to
last), logs and exps go through ``math.log``/``math.exp`` (which
``np.log``/``np.exp`` may differ from in the last bit), and skipped
orders and zero scores are encoded in the values, never by a division
that could warn.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, InvalidInputError
from .kernels import encode_ngram_blocks, pair_match_counts

BLEU_SMOOTHING_MODES = ("none", "epsilon-floor")

# Corpus metrics that tuning and the oracle can maximize.
OBJECTIVE_METRICS = ("bleu", "chrf")


@dataclass(frozen=True)
class MetricConfig:
    """Hyperparameters for the built-in lexical metrics."""

    bleu_max_order: int = 4
    bleu_smoothing: str = "epsilon-floor"
    bleu_epsilon: float = 0.1
    chrf_char_order: int = 6
    chrf_beta: float = 2.0

    def __post_init__(self):
        if self.bleu_max_order < 1:
            raise ConfigError(f"bleu_max_order must be >= 1, got {self.bleu_max_order}")
        if self.chrf_char_order < 1:
            raise ConfigError(f"chrf_char_order must be >= 1, got {self.chrf_char_order}")
        if self.bleu_smoothing not in BLEU_SMOOTHING_MODES:
            raise ConfigError(
                f"bleu_smoothing must be one of {BLEU_SMOOTHING_MODES}, got {self.bleu_smoothing!r}"
            )
        if self.bleu_smoothing == "epsilon-floor" and not self.bleu_epsilon > 0.0:
            raise ConfigError(f"bleu_epsilon must be > 0, got {self.bleu_epsilon}")
        if not self.chrf_beta > 0.0:
            raise ConfigError(f"chrf_beta must be > 0, got {self.chrf_beta}")


def matches_against(hyps: Sequence[Sequence], ref: Sequence, max_order: int) -> np.ndarray:
    """Clipped n-gram match counts of each hypothesis against one reference.

    Returns an int64 array of shape ``(len(hyps), max_order)`` whose row i
    holds hypothesis i's counts at orders 1..max_order: each hypothesis
    n-gram counts at most as often as it occurs in the reference.
    """
    counts, lengths = encode_ngram_blocks([ref, *hyps], max_order)
    return pair_match_counts(counts, lengths, 1)[1:, 0]


# Below this many values an array goes through ``math`` value by value; from
# it on, once per distinct value.  On BLEU match ratios of 15-35 token
# sentences the two ways cost about the same at 256 values, and once per
# distinct value is 2.5 times faster at 1024 and 6 times at 16384.
_DISTINCT_FROM = 256


def _exact(fn, values: np.ndarray) -> np.ndarray:
    """``fn`` of every element of a float64 array, through ``fn`` itself.

    ``np.log`` and ``np.exp`` can differ from ``math.log`` and ``math.exp``
    in the last bit, so the array routines call the ``math`` functions, as
    a scalar loop would.  A large array of match ratios or length ratios
    holds few distinct values, each computed once.
    """
    flat = values.ravel()
    if flat.size < _DISTINCT_FROM:
        out = np.fromiter(map(fn, flat.tolist()), np.float64, flat.size)
        return out.reshape(values.shape)
    distinct, inverse = np.unique(flat, return_inverse=True)
    out = np.fromiter(map(fn, distinct.tolist()), np.float64, distinct.size)
    return out[inverse].reshape(values.shape)


def _log_ratio(ratio: float) -> float:
    """One BLEU log term; a ratio of 0 (a zero that is not smoothed) gives -inf."""
    return math.log(ratio) if ratio else -math.inf


def _brevity(ratio: float) -> float:
    """BLEU's brevity penalty for a reference-to-hypothesis length ratio."""
    return math.exp(min(0.0, 1.0 - ratio))


@functools.cache
def _offsets(order: int) -> np.ndarray:
    """The float64 offsets 0..order-1: a length minus offset k counts its order-(k+1) n-grams."""
    offsets = np.arange(order, dtype=np.float64)
    offsets.flags.writeable = False
    return offsets


def bleu_scores(matches, hyp_lens, ref_lens, cfg: MetricConfig) -> np.ndarray:
    """Sentence BLEU of every hypothesis against every reference, from match counts.

    ``matches`` has shape ``(n, l, bleu_max_order)``: entry [i, j, k] is
    the clipped order-(k+1) match count of hypothesis i against reference
    j, as :func:`rmbr.kernels.pair_match_counts` returns it.  ``hyp_lens``
    (n) and ``ref_lens`` (l) are token counts.  Returns the n x l float64
    scores.  This is the one BLEU formula: the matrix builders and the
    sentence metric (a 1 x 1 call, :func:`bleu_from_counts`) share it.
    """
    order = cfg.bleu_max_order
    # Every operand is float64 from here on, so no operation mixes types.
    counts = np.asarray(matches, dtype=np.float64)
    # An empty hypothesis has no unigram match; counting it as length 1
    # gives the same score 0 without a division by zero.
    hyp = np.maximum(np.asarray(hyp_lens, dtype=np.float64), 1.0)[:, None]
    totals = hyp - _offsets(order)
    # A zero count at an order the hypothesis is too short for becomes 1:
    # the ratio 1 / 1 adds a log term of 0.0, so the order is skipped.
    # Above order 1 a zero that counts becomes the smoothing floor.  Any
    # other zero stays, and its log -inf makes the score exp(-inf) * bp 0.0.
    ratios = np.maximum(counts, (totals <= 0.0)[:, None])
    if cfg.bleu_smoothing == "epsilon-floor":
        higher = ratios[..., 1:]
        higher[higher == 0.0] = cfg.bleu_epsilon
    ratios /= np.maximum(totals, 1.0)[:, None]
    # accumulate adds in order, ((t1 + t2) + t3) + t4, as a scalar loop does
    log_sum = np.add.accumulate(_exact(_log_ratio, ratios), -1)[..., -1]
    bp = _exact(_brevity, np.asarray(ref_lens, dtype=np.float64) / hyp)
    # divided by the effective order: the orders the hypothesis has n-grams of
    return _exact(math.exp, log_sum / np.minimum(hyp, order)) * bp


def bleu_from_counts(
    matches: Sequence[int], hyp_len: int, ref_len: int, cfg: MetricConfig
) -> float:
    """Sentence BLEU of one pair: a 1 x 1 call of :func:`bleu_scores`.

    ``matches[k]`` is the clipped match count at order k+1.
    """
    return float(bleu_scores([[matches]], [hyp_len], [ref_len], cfg)[0, 0])


def sentence_bleu(
    hyp: Sequence[str], ref: Sequence[str], cfg: MetricConfig | None = None
) -> float:
    """Sentence-level BLEU of a tokenized hypothesis against one reference."""
    cfg = cfg or MetricConfig()
    if not hyp:
        raise InvalidInputError("hypothesis is empty")
    if not ref:
        raise InvalidInputError("reference is empty")
    (matches,) = matches_against([hyp], ref, cfg.bleu_max_order)
    return bleu_from_counts(matches, len(hyp), len(ref), cfg)


def chrf_characters(text: str) -> str:
    """The character sequence chrF scores: the string with all whitespace removed."""
    return "".join(text.split())


def chrf_scores(matches, hyp_lens, ref_lens, cfg: MetricConfig) -> np.ndarray:
    """Sentence chrF of every hypothesis against every reference, from match counts.

    ``matches`` has shape ``(n, l, chrf_char_order)``, as for
    :func:`bleu_scores`; ``hyp_lens`` (n) and ``ref_lens`` (l) are
    character counts after whitespace removal.  Returns the n x l float64
    scores.  This is the one chrF formula, shared like BLEU's
    (:func:`chrf_from_counts` is the 1 x 1 call).
    """
    order = cfg.chrf_char_order
    counts = np.asarray(matches, dtype=np.float64)
    hyp = np.asarray(hyp_lens, dtype=np.float64)[:, None]
    ref = np.asarray(ref_lens, dtype=np.float64)
    # the orders at which either side has n-grams; the others are skipped
    orders = np.minimum(np.maximum(hyp, ref), order)
    if not orders.all():
        raise InvalidInputError("no character n-grams on either side")
    beta_sq = cfg.chrf_beta * cfg.chrf_beta
    # A side too short for an order has no n-grams and so no matches there:
    # 0 divided by 1 is the 0.0 the definition gives.
    offsets = _offsets(order)
    precision = counts / np.maximum(hyp - offsets, 1.0)[:, None]
    recall = counts / np.maximum(ref[:, None] - offsets, 1.0)
    denom = beta_sq * precision
    denom += recall
    # no match at an order: its F-score term is 0.0, which adds nothing
    denom[denom == 0.0] = 1.0
    # (1 + beta^2) * precision * recall / denom, in place and in that order
    f = precision
    f *= 1.0 + beta_sq
    f *= recall
    f /= denom
    # accumulate adds in order, from order 1 up, as a scalar loop does
    return np.add.accumulate(f, -1)[..., -1] / orders


def chrf_from_counts(
    matches: Sequence[int], hyp_len: int, ref_len: int, cfg: MetricConfig
) -> float:
    """Sentence chrF of one pair: a 1 x 1 call of :func:`chrf_scores`.

    ``hyp_len`` / ``ref_len`` are character counts after whitespace removal.
    """
    return float(chrf_scores([[matches]], [hyp_len], [ref_len], cfg)[0, 0])


def sentence_chrf(hyp: str, ref: str, cfg: MetricConfig | None = None) -> float:
    """Sentence-level chrF of a hypothesis string against one reference string."""
    cfg = cfg or MetricConfig()
    hyp_chars = chrf_characters(hyp)
    ref_chars = chrf_characters(ref)
    if not hyp_chars:
        raise InvalidInputError("hypothesis is empty after whitespace stripping")
    if not ref_chars:
        raise InvalidInputError("reference is empty after whitespace stripping")
    (matches,) = matches_against([hyp_chars], ref_chars, cfg.chrf_char_order)
    return chrf_from_counts(matches, len(hyp_chars), len(ref_chars), cfg)


def _stat_rows(matches: np.ndarray, hyp_lens: np.ndarray, ref_lens) -> np.ndarray:
    """:func:`bleu_stats` rows from match counts and hypothesis and reference lengths."""
    totals = np.maximum(hyp_lens[:, None] - np.arange(matches.shape[1]), 0)
    refs = np.broadcast_to(ref_lens, hyp_lens.shape)
    return np.column_stack([matches, totals, hyp_lens, refs])


def bleu_stats(
    hyps: Sequence[Sequence[str]], ref: Sequence[str], cfg: MetricConfig | None = None
) -> np.ndarray:
    """Corpus-BLEU sufficient statistics of each hypothesis against one reference.

    One int64 row per hypothesis: ``max_order`` clipped match counts, then
    ``max_order`` hypothesis n-gram totals, then the hypothesis and
    reference lengths.  Statistics of a corpus are the element-wise sums
    over its pairs; all are integers, so the sums do not depend on the
    order they are taken in.
    """
    cfg = cfg or MetricConfig()
    lengths = np.array([len(hyp) for hyp in hyps], dtype=np.int64)
    return _stat_rows(matches_against(hyps, ref, cfg.bleu_max_order), lengths, len(ref))


def corpus_bleu_scores(stats, cfg: MetricConfig | None = None) -> np.ndarray:
    """Corpus BLEU of each row of summed :func:`bleu_stats`, as float64.

    Never smoothed: any order with zero pooled matches gives score 0.
    This is the one corpus BLEU formula; :func:`bleu_from_stats` is its
    one-row call.  Integer ratios are exact float64 divisions, logs and
    exps go through ``math`` and the logs add in order, so every row's
    score is the scalar formula's bit for bit.
    """
    cfg = cfg or MetricConfig()
    order = cfg.bleu_max_order
    rows = np.asarray(stats)
    scored = (rows[:, :order] != 0).all(axis=1)
    matches, totals = rows[scored, :order], rows[scored, order : 2 * order]
    hyp_len, ref_len = rows[scored, 2 * order], rows[scored, 2 * order + 1]
    log_sum = np.add.accumulate(_exact(math.log, matches / totals), -1)[:, -1]
    out = np.zeros(len(rows))
    out[scored] = _exact(math.exp, log_sum / order) * _exact(_brevity, ref_len / hyp_len)
    return out


def bleu_from_stats(stats: Sequence[int], cfg: MetricConfig | None = None) -> float:
    """Corpus BLEU from summed :func:`bleu_stats`: a one-row call of :func:`corpus_bleu_scores`."""
    return float(corpus_bleu_scores([stats], cfg)[0])


# Sentence pairs counted per kernel call in corpus_bleu.  The kernel counts
# every hypothesis of a block against every reference of it to give the
# paired diagonal, so the waste grows with the block: on 2000 pairs of
# 15-35 tokens, blocks of 8-32 took 0.15-0.27 s, of 64 0.25-0.35 s and of
# 256 0.96 s.
_CORPUS_BLOCK_PAIRS = 16


def corpus_bleu(
    hyps: Sequence[Sequence[str]],
    refs: Sequence[Sequence[str]],
    cfg: MetricConfig | None = None,
) -> float:
    """Corpus-level BLEU: counts are pooled over all sentence pairs before
    the precisions are formed; the brevity penalty uses pooled lengths.

    Never smoothed: any order with zero pooled matches gives score 0.
    Pairs are counted a block at a time: one encode of the block's
    references and hypotheses and one kernel call, whose diagonal holds
    each hypothesis's counts against its own reference.
    """
    cfg = cfg or MetricConfig()
    if len(hyps) != len(refs):
        raise InvalidInputError(
            f"got {len(hyps)} hypotheses for {len(refs)} references"
        )
    if not hyps:
        raise InvalidInputError("empty corpus")
    for pos, (hyp, ref) in enumerate(zip(hyps, refs)):
        if not hyp or not ref:
            raise InvalidInputError(f"empty sentence at corpus position {pos}")
    order = cfg.bleu_max_order
    sums = np.zeros(2 * order + 2, dtype=np.int64)
    for start in range(0, len(hyps), _CORPUS_BLOCK_PAIRS):
        block_refs = refs[start : start + _CORPUS_BLOCK_PAIRS]
        size = len(block_refs)
        counts, lengths = encode_ngram_blocks(
            [*block_refs, *hyps[start : start + size]], order
        )
        pairs = np.arange(size)
        matches = pair_match_counts(counts, lengths, size)[size + pairs, pairs]
        sums += _stat_rows(matches, lengths[size:], lengths[:size]).sum(axis=0)
    return bleu_from_stats(sums.tolist(), cfg)
