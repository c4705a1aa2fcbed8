"""Lexical similarity metrics (sentence BLEU, sentence chrF, corpus BLEU)
and the corpus objectives that ``eval`` prints and the tuners maximize.

Sentence BLEU is the geometric mean of clipped modified n-gram precisions
over orders 1..max_order, times the brevity penalty
``exp(min(0, 1 - |ref| / |hyp|))``.  Orders for which the hypothesis has no
n-grams at all are dropped from the geometric mean (effective order), so
the identity score of a short sentence with itself is still 1.  With
epsilon-floor smoothing, a zero match count at order >= 2 is replaced by a
small constant; a zero unigram match always yields score 0.  Corpus BLEU
sums per-sentence sufficient statistics over the whole corpus first,
applies one formula to the sums (:func:`corpus_bleu_scores`) and is never
smoothed.  Sentence chrF is the F-beta score over character n-grams
(whitespace removed), averaged over orders 1..char_order; orders where
neither side has any n-grams are skipped.

A corpus objective is decided here alone: :func:`objective_stats` gives
each hypothesis a row of statistics against its own reference, and
:func:`objective` turns rows summed in list order into corpus BLEU or
mean chrF, for ``eval``, ``corpus_objective`` and the tuners alike.

All functions are pure; clipped match counts come from the kernel in
:mod:`rmbr.kernels`, each hypothesis against its own reference through
one paired counter (:func:`_reference_matches`).  Counts become scores in
one array routine per metric, :func:`bleu_scores` and :func:`chrf_scores`,
over a whole (n, l, order) count tensor; :func:`bleu_from_counts` and
:func:`chrf_from_counts` score one pair as a 1 x 1 call of them.  Every
score equals the per-pair definition above bit for bit: divisions, sums
and products are float64 array operations in the definition's order
(orders summed first to last), logs and exps go through
``math.log``/``math.exp`` (which ``np.log``/``np.exp`` may differ from in
the last bit), and skipped orders and zero scores are encoded in the
values, never by a division that could warn.  Sentence BLEU's log terms
are read from blocks built once per hypothesis length and process, and
each brevity penalty is taken once per distinct pair of lengths in the
call.  The final exps of sentence BLEU and the logs and exps of corpus
BLEU go through ``math`` once per distinct value (``_exact``).
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

# the metric settings live in rmbr.core, which loads without numpy; re-exported
from .core import (
    _INTEGER_TYPES,
    BLEU_SMOOTHING_MODES,
    OBJECTIVE_METRICS,
    MetricConfig,
    _integer,
    _items,
    check_corpus,
)
from .errors import InvalidInputError
from .kernels import encode_ngram_blocks, pair_match_counts


# References counted per kernel call in _reference_matches.  The kernel
# counts each hypothesis of a block against all its references, so the waste
# grows with the block: on 2000 pairs of 15-35 tokens, blocks of 8-32 took
# 0.15-0.27 s, of 64 0.25-0.35 s and of 256 0.96 s.
_CORPUS_BLOCK_PAIRS = 16


def _reference_matches(hyps: Sequence[Sequence], refs: Sequence[Sequence], max_order: int):
    """The int64 clipped match counts of each ``hyps[i]`` against ``refs[i]``,
    shape ``(len(hyps), max_order)``, and the hypothesis and reference lengths.

    Equal references next to each other count as one.  A block of up to
    ``_CORPUS_BLOCK_PAIRS`` references is one encode, references first, then
    their hypotheses, and one kernel call: n hypotheses of one reference
    are one encode of n + 1 items and one call at l = 1.
    """
    bounds = [i for i in range(len(refs)) if i == 0 or refs[i] != refs[i - 1]] + [len(refs)]
    matches, lengths = [], []
    for b in range(0, len(bounds) - 1, _CORPUS_BLOCK_PAIRS):
        block = bounds[b : b + _CORPUS_BLOCK_PAIRS + 1]
        size, lo, hi = len(block) - 1, block[0], block[-1]
        seqs = [*(refs[i] for i in block[:-1]), *hyps[lo:hi]]
        counts, lens = encode_ngram_blocks(seqs, max_order)
        which = np.repeat(np.arange(size), np.diff(block))
        matches.append(pair_match_counts(counts, lens, size)[size + np.arange(hi - lo), which])
        lengths.append(np.stack([lens[size:], lens[which]]))
    hyp_lens, ref_lens = np.concatenate(lengths, axis=1)
    return np.concatenate(matches), hyp_lens, ref_lens


# Below this many values an array goes through ``math`` value by value; from
# it on, once per distinct value.  On BLEU match ratios of 15-35 token
# sentences the two ways cost about the same at 256 values, and once per
# distinct value is 2.5 times faster at 1024 and 6 times at 16384.
_DISTINCT_FROM = 256


def _mapped(fn, values: np.ndarray) -> np.ndarray:
    """``fn`` of every element of a float64 array, one call per element."""
    flat = values.ravel().tolist()
    return np.fromiter(map(fn, flat), np.float64, len(flat)).reshape(values.shape)


def _exact(fn, values: np.ndarray) -> np.ndarray:
    """``fn`` of every element of a float64 array, through ``fn`` itself.

    ``np.log`` and ``np.exp`` can differ from ``math.log`` and ``math.exp``
    in the last bit, so the array routines call the ``math`` functions, as
    a scalar loop would.  A large array of scores' exponents or corpus
    ratios holds fewer distinct values, each computed once.
    """
    flat = values.ravel()
    if flat.size < _DISTINCT_FROM:
        return _mapped(fn, values)
    distinct, inverse = np.unique(flat, return_inverse=True)
    return _mapped(fn, distinct)[inverse].reshape(values.shape)


def _brevity(ratio: float) -> float:
    """BLEU's brevity penalty for a reference-to-hypothesis length ratio."""
    return math.exp(min(0.0, 1.0 - ratio))


def _read_only(table: np.ndarray) -> np.ndarray:
    """``table``, made read-only: a cached array is shared by every caller."""
    table.flags.writeable = False
    return table


def _in_order_sum(values: np.ndarray) -> np.ndarray:
    """The sum over the last axis, added first to last, ((v1 + v2) + v3) + ...,
    as a scalar loop adds (``np.sum`` may add in another order)."""
    total = values[..., 0].copy()
    for k in range(1, values.shape[-1]):
        total += values[..., k]
    return total


@functools.cache
def _offsets(order: int) -> np.ndarray:
    """The float64 offsets 0..order-1: a length minus offset k counts its order-(k+1) n-grams."""
    return _read_only(np.arange(order, dtype=np.float64))


# BLEU's log terms are functions of two small integers: a match count and
# an n-gram total.  bleu_scores reads them from one block per hypothesis
# length, built the first time a hypothesis of that length is scored and kept
# for the process; each entry is the float64 division and the math.log a
# scalar loop makes.  A block holds (hypothesis length + 1) * order entries,
# so the blocks kept grow with the lengths scored: 156 KiB for a 5000-token
# hypothesis at order 4, built in about 2.5 ms on a 2-vCPU x86 VM.


@functools.cache
def _log_terms(hyp_len: int, order: int, floor: float) -> np.ndarray:
    """BLEU's log terms of a hypothesis of ``hyp_len`` >= 1 tokens, at [k, count].

    Row k holds the terms of the counts 0..hyp_len at order k+1, whose
    n-gram total is ``hyp_len - k``.  Above order 1 a count of 0 counts as
    ``floor``: the smoothing floor, or 0.0 without smoothing.  A ratio of
    0.0 has the log term -inf.  A total of 0 or less is an order the
    hypothesis has no n-grams of: its count is taken as at least 1 and
    divided by 1, so a zero count adds a log term of 0.0 and the order is
    skipped.
    """
    totals = np.maximum(hyp_len - np.arange(order, dtype=np.float64), 1.0)[:, None]
    ratios = np.arange(hyp_len + 1, dtype=np.float64) / totals
    # order 1's total is hyp_len >= 1, so its zero count keeps the ratio 0.0
    ratios[1:, 0] = np.where(hyp_len > np.arange(1, order), floor / totals[1:, 0], 1.0)
    terms = np.full(ratios.shape, -math.inf)
    positive = ratios > 0.0
    terms[positive] = _mapped(math.log, ratios[positive])
    return _read_only(terms)


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a 1-D int64 array, ascending, and the index of
    each element among them (``np.unique`` takes twice as long on short arrays)."""
    distinct = np.array(sorted(set(values.tolist())), dtype=np.int64)
    return distinct, distinct.searchsorted(values)


def bleu_scores(matches, hyp_lens, ref_lens, cfg: MetricConfig) -> np.ndarray:
    """Sentence BLEU of every hypothesis against every reference, from match counts.

    ``matches`` has shape ``(n, l, bleu_max_order)``: entry [i, j, k] is
    the clipped order-(k+1) match count of hypothesis i against reference
    j, as :func:`rmbr.kernels.pair_match_counts` returns it.  ``hyp_lens``
    (n) and ``ref_lens`` (l) are token counts.  All three are non-negative
    integers, and a count is at most the hypothesis's n-grams of its order;
    the scores of other values are undefined (:func:`bleu_from_counts`
    rejects them).  Returns the n x l float64 scores.  This is the one BLEU
    formula: the matrix builders and the sentence metric (a 1 x 1 call,
    :func:`bleu_from_counts`) share it.
    """
    order = cfg.bleu_max_order
    counts = np.asarray(matches, dtype=np.int64)
    # An empty hypothesis has no unigram match; counting it as length 1
    # gives the same score 0 without a division by zero.
    hyp = np.maximum(np.asarray(hyp_lens, dtype=np.int64), 1)
    ref = np.asarray(ref_lens, dtype=np.int64)
    floor = cfg.bleu_epsilon if cfg.bleu_smoothing == "epsilon-floor" else 0.0
    # The log terms of each distinct hypothesis length, end to end: the term
    # of count m at order k+1 of hypothesis i is at first[i] + k * (hyp[i] + 1)
    # + m.  Order 1 never takes the floor, so a zero unigram count's log term
    # is -inf and the score exp(-inf) * bp is 0.0.
    lengths, which = _distinct(hyp)
    # the leading empty block is where the first length's block starts
    blocks = [np.empty(0), *(_log_terms(h, order, floor) for h in lengths.tolist())]
    first = np.cumsum([block.size for block in blocks])[which]
    rows = first[:, None] + np.arange(order) * (hyp + 1)[:, None]
    terms = np.concatenate(blocks, axis=None).take(counts + rows[:, None, :])
    log_sum = _in_order_sum(terms)
    # the brevity penalty of each distinct pair of lengths, through _brevity's
    # exponent min(0.0, 1.0 - ratio)
    refs, ref_which = _distinct(ref)
    exponents = np.minimum(1.0 - refs / lengths[:, None], 0.0)
    bp = _mapped(math.exp, exponents)[which[:, None], ref_which]
    # divided by the effective order: the orders the hypothesis has n-grams of
    return _exact(math.exp, log_sum / np.minimum(hyp, order)[:, None]) * bp


def _one_pair(matches, hyp_len, ref_len, order: int, side: str) -> tuple:
    """A one-pair call's arguments, checked: lengths, and counts up to ``side``'s n-grams."""
    hyp_len = _integer(hyp_len, "hyp_len", 0)
    ref_len = _integer(ref_len, "ref_len", 0)
    counts = _items(matches, "matches", _INTEGER_TYPES, "integers")
    most = hyp_len if side == "hypothesis" else min(hyp_len, ref_len)
    if len(counts) != order or not all(0 <= c <= max(most - k, 0) for k, c in enumerate(counts)):
        raise InvalidInputError(
            f"matches must be {order} counts, each from 0 to the {side}'s n-grams "
            f"of its order, got {list(counts)!r} for hyp_len {hyp_len} and ref_len {ref_len}"
        )
    return [[counts]], [hyp_len], [ref_len]


def bleu_from_counts(matches, hyp_len: int, ref_len: int, cfg: MetricConfig) -> float:
    """Sentence BLEU of one pair: a 1 x 1 call of :func:`bleu_scores`.

    ``matches[k]`` is the clipped match count at order k+1: a non-negative
    integer no larger than the hypothesis's n-grams of that order.
    ``hyp_len`` and ``ref_len`` are non-negative integers.  Other values
    raise :class:`InvalidInputError`.
    """
    pair = _one_pair(matches, hyp_len, ref_len, cfg.bleu_max_order, "hypothesis")
    return float(bleu_scores(*pair, cfg)[0, 0])


def sentence_bleu(
    hyp: Sequence[str], ref: Sequence[str], cfg: MetricConfig | None = None
) -> float:
    """Sentence-level BLEU of a tokenized hypothesis against one reference."""
    cfg = cfg or MetricConfig()
    if not hyp:
        raise InvalidInputError("hypothesis is empty")
    if not ref:
        raise InvalidInputError("reference is empty")
    (matches,), _, _ = _reference_matches([hyp], [ref], cfg.bleu_max_order)
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
    return _in_order_sum(f) / orders


def chrf_from_counts(matches, hyp_len: int, ref_len: int, cfg: MetricConfig) -> float:
    """Sentence chrF of one pair: a 1 x 1 call of :func:`chrf_scores`.

    ``hyp_len`` and ``ref_len`` are character counts after whitespace
    removal, integers >= 0 and not both 0; ``matches[k]``, the clipped match
    count at order k+1, is an integer from 0 to the shorter side's n-grams
    of that order.  Other values raise :class:`InvalidInputError`.
    """
    pair = _one_pair(matches, hyp_len, ref_len, cfg.chrf_char_order, "shorter side")
    return float(chrf_scores(*pair, cfg)[0, 0])


def sentence_chrf(hyp: str, ref: str, cfg: MetricConfig | None = None) -> float:
    """Sentence-level chrF of a hypothesis string against one reference string."""
    cfg = cfg or MetricConfig()
    hyp_chars = chrf_characters(hyp)
    ref_chars = chrf_characters(ref)
    if not hyp_chars:
        raise InvalidInputError("hypothesis is empty after whitespace stripping")
    if not ref_chars:
        raise InvalidInputError("reference is empty after whitespace stripping")
    (matches,), _, _ = _reference_matches([hyp_chars], [ref_chars], cfg.chrf_char_order)
    return chrf_from_counts(matches, len(hyp_chars), len(ref_chars), cfg)


def _stat_rows(matches: np.ndarray, hyp_lens: np.ndarray, ref_lens: np.ndarray) -> np.ndarray:
    """Corpus-BLEU sufficient statistics, one int64 row per pair: the clipped match counts
    and hypothesis n-gram totals per order, then both lengths.  A corpus's are their sums."""
    totals = np.maximum(hyp_lens[:, None] - np.arange(matches.shape[1]), 0)
    return np.column_stack([matches, totals, hyp_lens, ref_lens])


def corpus_bleu_scores(stats, cfg: MetricConfig | None = None) -> np.ndarray:
    """Corpus BLEU of each row of summed sufficient statistics, as float64.

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
    log_sum = _in_order_sum(_exact(math.log, matches / totals))
    out = np.zeros(len(rows))
    out[scored] = _exact(math.exp, log_sum / order) * _exact(_brevity, ref_len / hyp_len)
    return out


def bleu_from_stats(stats: Sequence[int], cfg: MetricConfig | None = None) -> float:
    """Corpus BLEU from summed statistics: a one-row :func:`corpus_bleu_scores` call."""
    return float(corpus_bleu_scores([stats], cfg)[0])


def corpus_bleu(
    hyps: Sequence[Sequence[str]], refs: Sequence[Sequence[str]], cfg: MetricConfig | None = None
) -> float:
    """Corpus-level BLEU: counts are pooled over all sentence pairs before
    the precisions are formed; the brevity penalty uses pooled lengths.
    Never smoothed: any order with zero pooled matches gives score 0."""
    cfg = cfg or MetricConfig()
    check_corpus(hyps, refs)
    stats = _stat_rows(*_reference_matches(hyps, refs, cfg.bleu_max_order))
    return bleu_from_stats(stats.sum(axis=0).tolist(), cfg)


def objective_stats(metric: str, hyps, refs, hyp_tokens) -> np.ndarray:
    """Each hypothesis's row toward the corpus objective ``metric`` against its
    own reference, with the default :class:`MetricConfig`: for "bleu"
    :func:`_stat_rows` of ``hyp_tokens`` against the reference texts split at
    whitespace, for "chrf" one column, the pair's sentence chrF of the texts.
    Each distinct reference text is split once, and its repeats share it."""
    cfg = MetricConfig()
    split = str.split if metric == "bleu" else chrf_characters
    once = {ref: split(ref) for ref in set(refs)}
    refs = [once[ref] for ref in refs]
    if metric == "bleu":
        return _stat_rows(*_reference_matches(hyp_tokens, refs, cfg.bleu_max_order))
    hyp_chars = [chrf_characters(hyp) for hyp in hyps]
    matches, hyp_lens, ref_lens = _reference_matches(hyp_chars, refs, cfg.chrf_char_order)
    # one reference per row: the (N, 1) reference lengths pair row i with reference i
    return chrf_scores(matches[:, None], hyp_lens, ref_lens[:, None], cfg)


def objective(metric: str, sums, count: int) -> np.ndarray:
    """The corpus objective ``metric`` of each row of :func:`objective_stats`
    summed over ``count`` pairs: corpus BLEU of the sums, or the sum of
    sentence chrF (added in list order) over ``count``."""
    if metric == "bleu":
        return corpus_bleu_scores(sums)
    return np.asarray(sums)[:, 0] / count


def corpus_score(metric: str, hyps, refs, hyp_tokens) -> float:
    """The corpus objective ``metric`` of hypothesis texts against reference texts:
    :func:`objective` of the :func:`objective_stats` rows, added in list order
    (``np.sum`` may differ in the last bit), so "bleu" is :func:`corpus_bleu`
    of ``hyp_tokens`` and "chrf" the mean :func:`sentence_chrf` of the texts."""
    stats = objective_stats(metric, hyps, refs, hyp_tokens)
    return float(objective(metric, np.add.accumulate(stats)[-1:], len(stats))[0])
