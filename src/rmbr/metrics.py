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
(:func:`bleu_from_stats`) and is never smoothed.

Sentence chrF is the F-beta score over character n-grams (whitespace
removed), averaged over orders 1..char_order; orders where neither side
has any n-grams are skipped.

All functions are pure; clipped match counts come from one call of the
kernel in :mod:`rmbr.kernels` per reference (:func:`matches_against`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, InvalidInputError
from .kernels import encode_ngram_blocks, pair_match_counts

BLEU_SMOOTHING_MODES = ("none", "epsilon-floor")


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


def bleu_from_counts(
    matches: Sequence[int], hyp_len: int, ref_len: int, cfg: MetricConfig
) -> float:
    """Sentence BLEU from precomputed clipped match counts.

    ``matches[k]`` is the clipped match count at order k+1; totals are
    derived from ``hyp_len``.  This is the single score formula shared by
    the direct metric and the pairwise matrix builders.
    """
    smoothing = cfg.bleu_smoothing == "epsilon-floor"
    if matches[0] == 0:
        return 0.0
    log_sum = 0.0
    orders = 0
    for k in range(cfg.bleu_max_order):
        total = hyp_len - k
        if total <= 0:
            continue
        orders += 1
        m = float(matches[k])
        if m == 0.0:
            if not smoothing:
                return 0.0
            m = cfg.bleu_epsilon
        log_sum += math.log(m / total)
    bp = math.exp(min(0.0, 1.0 - ref_len / hyp_len))
    return math.exp(log_sum / orders) * bp


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


def chrf_from_counts(
    matches: Sequence[int], hyp_len: int, ref_len: int, cfg: MetricConfig
) -> float:
    """Sentence chrF from per-order character n-gram match counts.

    ``hyp_len`` / ``ref_len`` are character counts after whitespace removal.
    Shared by the direct metric and the pairwise matrix builders.
    """
    beta_sq = cfg.chrf_beta * cfg.chrf_beta
    f_sum = 0.0
    orders = 0
    for k in range(cfg.chrf_char_order):
        hyp_total = hyp_len - k
        ref_total = ref_len - k
        if hyp_total <= 0 and ref_total <= 0:
            continue
        orders += 1
        m = float(matches[k])
        precision = m / hyp_total if hyp_total > 0 else 0.0
        recall = m / ref_total if ref_total > 0 else 0.0
        denom = beta_sq * precision + recall
        if denom > 0.0:
            f_sum += (1.0 + beta_sq) * precision * recall / denom
    if orders == 0:
        raise InvalidInputError("no character n-grams on either side")
    return f_sum / orders


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
    order = cfg.bleu_max_order
    lengths = np.array([len(hyp) for hyp in hyps], dtype=np.int64)
    totals = np.maximum(lengths[:, None] - np.arange(order), 0)
    matches = matches_against(hyps, ref, order)
    return np.column_stack([matches, totals, lengths, np.full_like(lengths, len(ref))])


def bleu_from_stats(stats: Sequence[int], cfg: MetricConfig | None = None) -> float:
    """Corpus BLEU from summed :func:`bleu_stats`.

    Never smoothed: any order with zero pooled matches gives score 0.
    """
    cfg = cfg or MetricConfig()
    order = cfg.bleu_max_order
    matches, totals = stats[:order], stats[order : 2 * order]
    hyp_len, ref_len = stats[2 * order], stats[2 * order + 1]
    log_sum = 0.0
    for k in range(order):
        if matches[k] == 0:
            return 0.0
        log_sum += math.log(matches[k] / totals[k])
    bp = math.exp(min(0.0, 1.0 - ref_len / hyp_len))
    return math.exp(log_sum / order) * bp


def corpus_bleu(
    hyps: Sequence[Sequence[str]],
    refs: Sequence[Sequence[str]],
    cfg: MetricConfig | None = None,
) -> float:
    """Corpus-level BLEU: counts are pooled over all sentence pairs before
    the precisions are formed; the brevity penalty uses pooled lengths.

    Never smoothed: any order with zero pooled matches gives score 0.
    """
    cfg = cfg or MetricConfig()
    if len(hyps) != len(refs):
        raise InvalidInputError(
            f"got {len(hyps)} hypotheses for {len(refs)} references"
        )
    if not hyps:
        raise InvalidInputError("empty corpus")
    sums = np.zeros(2 * cfg.bleu_max_order + 2, dtype=np.int64)
    for pos, (hyp, ref) in enumerate(zip(hyps, refs)):
        if not hyp or not ref:
            raise InvalidInputError(f"empty sentence at corpus position {pos}")
        sums += bleu_stats([hyp], ref, cfg)[0]
    return bleu_from_stats(sums.tolist(), cfg)
