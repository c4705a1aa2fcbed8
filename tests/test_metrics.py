"""Metric correctness: identities, degenerate cases, and frozen goldens."""

import math
import time
import tracemalloc

import numpy as np
import pytest

import rmbr.metrics as metrics
from rmbr.errors import ConfigError, InvalidInputError
from rmbr.metrics import (
    MetricConfig,
    bleu_from_counts,
    bleu_from_stats,
    bleu_scores,
    chrf_from_counts,
    chrf_scores,
    corpus_bleu,
    corpus_bleu_scores,
    corpus_score,
    objective,
    objective_stats,
    sentence_bleu,
    sentence_chrf,
)

from conftest import (
    random_tokens,
    scalar_bleu_from_counts,
    scalar_bleu_from_stats,
    scalar_chrf_from_counts,
)

NO_SMOOTH = MetricConfig(bleu_smoothing="none")

# independently computed, frozen
BLEU_CLIPPED_FLOORED = 0.11856311014966876  # "the the the" vs "the cat"
CHRF_ABC_ABD = 0.38888888888888884  # (2/3 + 1/2 + 0) / 3
CORPUS_TWO_SENTENCE = 0.837592239708627  # precisions 9/10, 7/8, 5/6, 3/4; BP = 1


def test_clipped_matches_clips_at_reference_count():
    # one row per pair, one column per order, then both sides' lengths
    hyps = [["the", "the", "the"], ["the", "cat"], ["a", "b", "a", "b"]]
    refs = [["the", "cat"], ["the", "cat"], ["a", "b", "a"]]
    got, hyp_lens, ref_lens = metrics._reference_matches(hyps, refs, 2)
    assert got.dtype == hyp_lens.dtype == ref_lens.dtype == np.int64
    # the last hyp has a:2 b:2 but its ref caps them at a:2 b:1
    assert got.tolist() == [[1, 0], [2, 1], [3, 2]]
    assert (hyp_lens.tolist(), ref_lens.tolist()) == ([3, 2, 4], [2, 2, 3])


@pytest.mark.parametrize(
    "tokens",
    [["a"], ["a", "b"], ["the", "cat", "sat", "on", "the", "mat"]],
)
@pytest.mark.parametrize("cfg", [None, NO_SMOOTH])
def test_bleu_identity_is_one(tokens, cfg):
    assert sentence_bleu(tokens, tokens, cfg) == 1.0


def test_bleu_identity_random_sentences():
    rng = np.random.default_rng(0)
    vocab = [f"w{i}" for i in range(8)]
    for _ in range(50):
        toks = [vocab[int(i)] for i in rng.integers(0, 8, size=int(rng.integers(1, 15)))]
        assert sentence_bleu(toks, toks) == 1.0
        assert sentence_chrf(" ".join(toks), " ".join(toks)) == 1.0


def test_bleu_disjoint_is_zero():
    assert sentence_bleu(["a", "b"], ["c", "d"], NO_SMOOTH) == 0.0
    # no unigram match zeroes the score even with smoothing on
    assert sentence_bleu(["a", "b"], ["c", "d"]) == 0.0


def test_bleu_unsmoothed_zeroes_on_any_missing_order():
    # unigrams match but no bigram does
    assert sentence_bleu(["a", "c", "b"], ["a", "b"], NO_SMOOTH) == 0.0


def test_bleu_epsilon_floor_golden():
    got = sentence_bleu(["the", "the", "the"], ["the", "cat"])
    assert got == pytest.approx(BLEU_CLIPPED_FLOORED, abs=1e-9)


def test_bleu_brevity_penalty():
    # perfect precisions, hypothesis 2 tokens vs reference 3: BP = exp(-1/2)
    got = sentence_bleu(["a", "b"], ["a", "b", "c"])
    assert got == math.exp(min(0.0, 1.0 - 3.0 / 2.0))
    # no penalty for hypotheses longer than the reference: only precision drops
    assert 0.0 < sentence_bleu(["a", "b", "c"], ["a", "b"]) < 1.0
    assert sentence_bleu(["a", "b"], ["a", "b"], NO_SMOOTH) == 1.0


def test_bleu_rejects_empty():
    with pytest.raises(InvalidInputError):
        sentence_bleu([], ["a"])
    with pytest.raises(InvalidInputError):
        sentence_bleu(["a"], [])


def test_chrf_identity_and_whitespace_removal():
    assert sentence_chrf("abc", "abc") == 1.0
    assert sentence_chrf("ab cd", "abcd") == 1.0
    assert sentence_chrf("a\tb  c", "abc") == 1.0


def test_chrf_golden():
    assert sentence_chrf("abc", "abd") == pytest.approx(CHRF_ABC_ABD, abs=1e-9)


def test_chrf_disjoint_is_zero():
    assert sentence_chrf("abcd", "wxyz") == 0.0


def test_chrf_beta_weights_recall():
    # hyp shorter than ref: recall < precision, so larger beta hurts more
    f1 = sentence_chrf("ab", "abcdef", MetricConfig(chrf_beta=1.0))
    f2 = sentence_chrf("ab", "abcdef", MetricConfig(chrf_beta=2.0))
    assert f2 < f1


def test_chrf_rejects_whitespace_only():
    with pytest.raises(InvalidInputError):
        sentence_chrf("   ", "abc")
    with pytest.raises(InvalidInputError):
        sentence_chrf("abc", " \t ")


def test_corpus_bleu_golden():
    h1 = ["the", "black", "cat", "sat", "down"]
    h2 = ["a", "b", "c", "d", "e"]
    r2 = ["a", "b", "c", "d", "x"]
    got = corpus_bleu([h1, h2], [list(h1), r2])
    assert got == pytest.approx(CORPUS_TWO_SENTENCE, abs=1e-9)


def test_corpus_bleu_single_sentence_equals_sentence_bleu():
    hyp = ["a", "b", "c", "d", "e"]
    ref = ["a", "b", "c", "d", "x"]
    assert corpus_bleu([hyp], [ref]) == sentence_bleu(hyp, ref, NO_SMOOTH)


def test_corpus_bleu_is_the_formula_over_summed_stats():
    h1 = ["the", "black", "cat", "sat", "down"]
    h2 = ["a", "b", "c", "d", "e"]
    r2 = ["a", "b", "c", "d", "x"]
    texts = [" ".join(h1), " ".join(h2), " ".join(r2)]
    # matches per order, totals per order, hypothesis and reference length
    assert objective_stats("bleu", texts[1::-1], texts[2:] * 2, [h2, h1]).tolist() == [
        [4, 3, 2, 1, 5, 4, 3, 2, 5, 5],
        [0, 0, 0, 0, 5, 4, 3, 2, 5, 5],
    ]
    sums = objective_stats("bleu", texts[:2], [texts[0], texts[2]], [h1, h2]).sum(axis=0)
    want = corpus_bleu([h1, h2], [list(h1), r2])
    assert bleu_from_stats(sums.tolist()) == objective("bleu", [sums], 2)[0] == want


def test_corpus_bleu_blocks_sum_the_per_pair_stats(monkeypatch):
    """Counting a corpus in blocks of references gives each pair's own
    statistics exactly, for both objectives: BLEU's rows are the one-pair
    rows, chrF's the pair's sentence_chrf, bit for bit."""
    rng = np.random.default_rng(41)
    vocab = ["a", "b", "c", "d", "e", "f"]
    # lengths from 1, so some hypotheses are shorter than the highest order
    # of BLEU (4 tokens) and of chrF (6 characters)
    hyps = [random_tokens(rng, vocab, int(rng.integers(1, 13))) for _ in range(150)]
    refs = [random_tokens(rng, vocab, int(rng.integers(1, 13))) for _ in range(150)]
    # references repeated back to back (one counted reference each run) and apart
    refs[20:26] = [refs[20]] * 3 + [list(refs[23])] * 3
    refs[90], refs[140] = refs[3], list(refs[3])
    runs = 1 + sum(a != b for a, b in zip(refs, refs[1:]))
    block = metrics._CORPUS_BLOCK_PAIRS
    # more than one block of references, and the last one part full
    assert runs > 2 * block and runs % block
    hyp_texts, ref_texts = [" ".join(h) for h in hyps], [" ".join(r) for r in refs]
    calls = []
    counter = metrics.pair_match_counts
    monkeypatch.setattr(
        metrics, "pair_match_counts", lambda c, n, l: calls.append(l) or counter(c, n, l)
    )
    stats = {}
    for metric in ("bleu", "chrf"):
        calls.clear()
        stats[metric] = objective_stats(metric, hyp_texts, ref_texts, hyps)
        # one kernel call per block of references, the last with the rest
        assert calls == [block] * (runs // block) + [runs % block]
    pairs = list(zip(hyp_texts, ref_texts, hyps))
    one_pair = [objective_stats("bleu", [h], [r], [t])[0].tolist() for h, r, t in pairs]
    assert stats["bleu"].tolist() == one_pair
    assert stats["chrf"][:, 0].tolist() == [sentence_chrf(h, r) for h, r, _ in pairs]
    # corpus_score sums the rows in list order: chrF as a scalar loop adds
    chrf_sum = 0.0
    for h, r, _ in pairs:
        chrf_sum += sentence_chrf(h, r)
    assert corpus_score("chrf", hyp_texts, ref_texts, hyps) == chrf_sum / len(pairs)
    want = stats["bleu"].sum(axis=0).tolist()
    pooled = []
    original = metrics.bleu_from_stats

    def recording(stats, cfg=None):
        pooled.append(list(stats))
        return original(stats, cfg)

    monkeypatch.setattr(metrics, "bleu_from_stats", recording)
    got = corpus_bleu(hyps, refs)
    assert pooled == [want]
    assert got == original(want) == corpus_score("bleu", hyp_texts, ref_texts, hyps) > 0.0


@pytest.mark.parametrize("count", [40, 600])
def test_corpus_bleu_scores_match_the_scalar_formula(count):
    """Each row's score equals the scalar formula's bit for bit, on both
    sides of the per-value/per-distinct-value switch."""
    rng = np.random.default_rng(42)
    totals = rng.integers(1, 300, size=(count, 4))
    matches = rng.integers(0, totals + 1)
    matches[rng.random(matches.shape) < 0.05] = 0
    hyp = totals[:, 0] + rng.integers(0, 5, size=count)
    ref = rng.integers(1, 400, size=count)
    rows = np.column_stack([matches, totals, hyp, ref]).tolist()
    want = [scalar_bleu_from_stats(row, MetricConfig()) for row in rows]
    assert 0.0 in want
    assert corpus_bleu_scores(rows).tolist() == want
    assert [bleu_from_stats(row) for row in rows] == want


def test_corpus_bleu_pools_counts():
    # sentence 2 alone has no 4-gram match, but the pooled corpus score
    # stays positive because sentence 1 supplies them
    h1 = ["a", "b", "c", "d", "e"]
    h2 = ["x", "p", "q", "r"]
    r2 = ["x", "z", "q", "w"]
    assert corpus_bleu([h1, h2], [list(h1), r2]) > 0.0
    assert corpus_bleu([h2], [r2]) == 0.0


def test_corpus_bleu_validation():
    with pytest.raises(InvalidInputError):
        corpus_bleu([["a"]], [])
    with pytest.raises(InvalidInputError):
        corpus_bleu([], [])
    with pytest.raises(InvalidInputError):
        corpus_bleu([[]], [["a"]])


def test_metric_config_validation():
    with pytest.raises(ConfigError):
        MetricConfig(bleu_smoothing="add-one")
    with pytest.raises(ConfigError):
        MetricConfig(bleu_epsilon=0.0)
    with pytest.raises(ConfigError):
        MetricConfig(bleu_max_order=0)
    with pytest.raises(ConfigError):
        MetricConfig(chrf_char_order=0)
    with pytest.raises(ConfigError):
        MetricConfig(chrf_beta=0.0)


def test_bleu_scores_are_bounded():
    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(6)]
    for _ in range(100):
        hyp = [vocab[int(i)] for i in rng.integers(0, 6, size=int(rng.integers(1, 10)))]
        ref = [vocab[int(i)] for i in rng.integers(0, 6, size=int(rng.integers(1, 10)))]
        for cfg in (None, NO_SMOOTH):
            score = sentence_bleu(hyp, ref, cfg)
            assert 0.0 <= score <= 1.0
        chrf = sentence_chrf(" ".join(hyp), " ".join(ref))
        assert 0.0 <= chrf <= 1.0


# ---------------------------------------------------------------------------
# the array count->score routines against the scalar oracle, bit for bit

BLEU_CONFIGS = (
    MetricConfig(),
    NO_SMOOTH,
    MetricConfig(bleu_max_order=6, bleu_epsilon=2.5),
    MetricConfig(bleu_max_order=1),
    MetricConfig(bleu_max_order=6, bleu_smoothing="none"),
)
CHRF_CONFIGS = (
    MetricConfig(),
    MetricConfig(chrf_char_order=3, chrf_beta=0.5),
    MetricConfig(chrf_char_order=1, chrf_beta=3.0),
)


def oracle_matrix(scalar, matches, hyp_lens, ref_lens, cfg):
    return np.array(
        [
            [scalar(matches[i, j].tolist(), h, r, cfg) for j, r in enumerate(ref_lens)]
            for i, h in enumerate(hyp_lens)
        ]
    )


def random_match_tensor(rng, n, l, order, min_len, max_len):
    """Lengths and clipped counts a real pair could have: at most the
    n-grams either side has of each order, often 0."""
    hyp_lens = rng.integers(min_len, max_len + 1, size=n)
    ref_lens = rng.integers(min_len, max_len + 1, size=l)
    room = np.minimum(hyp_lens[:, None], ref_lens)[..., None] - np.arange(order)
    matches = rng.integers(0, np.maximum(room, 0) + 1)
    return matches, hyp_lens, ref_lens


@pytest.mark.parametrize("cfg", BLEU_CONFIGS)
def test_bleu_scores_equal_scalar_oracle_on_random_tensors(cfg):
    # sizes on both sides of the one-distinct-value-at-a-time threshold; the
    # long lengths give many length ratios, some of whose brevity penalties
    # np.exp rounds differently from math.exp, and up to 400 tokens they
    # read log terms of many hypothesis lengths
    rng = np.random.default_rng(11)
    for n, l, max_len in ((1, 1, 8), (3, 2, 8), (30, 20, 8), (30, 20, 60), (12, 10, 400)):
        matches, hyp, ref = random_match_tensor(rng, n, l, cfg.bleu_max_order, 0, max_len)
        got = bleu_scores(matches, hyp, ref, cfg)
        assert got.shape == (n, l) and got.dtype == np.float64
        want = oracle_matrix(scalar_bleu_from_counts, matches, hyp, ref, cfg)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("cfg", CHRF_CONFIGS)
def test_chrf_scores_equal_scalar_oracle_on_random_tensors(cfg):
    rng = np.random.default_rng(12)
    for n, l, max_len in ((1, 1, 8), (3, 2, 8), (30, 20, 8), (30, 20, 60)):
        matches, hyp, ref = random_match_tensor(rng, n, l, cfg.chrf_char_order, 1, max_len)
        got = chrf_scores(matches, hyp, ref, cfg)
        assert got.shape == (n, l) and got.dtype == np.float64
        want = oracle_matrix(scalar_chrf_from_counts, matches, hyp, ref, cfg)
        assert np.array_equal(got, want)


# (matches, hyp_len, ref_len) per case, one pair each
BLEU_EDGES = {
    "hyp-shorter-than-order": ([2, 1, 0, 0], 2, 5),
    "hyp-one-token": ([1, 0, 0, 0], 1, 1),
    "zero-unigram": ([0, 0, 0, 0], 5, 5),
    "zero-at-order-2": ([3, 0, 0, 0], 5, 4),
    "zero-at-order-4": ([4, 3, 2, 0], 6, 9),
    "hyp-longer-than-ref": ([3, 2, 1, 1], 9, 3),
    "empty-hyp": ([0, 0, 0, 0], 0, 5),
    "empty-ref": ([0, 0, 0, 0], 7, 0),
    "empty-both": ([0, 0, 0, 0], 0, 0),
    "long-hyp": ([300, 250, 101, 0], 400, 390),
    "long-ref": ([30, 20, 10, 5], 31, 400),
}
CHRF_EDGES = {
    "hyp-shorter-than-order": ([2, 1, 0, 0, 0, 0], 3, 10),
    "ref-shorter-than-order": ([2, 1, 0, 0, 0, 0], 10, 2),
    "both-shorter-than-order": ([1, 0, 0, 0, 0, 0], 2, 1),
    "no-match": ([0, 0, 0, 0, 0, 0], 7, 8),
    "empty-hyp": ([0, 0, 0, 0, 0, 0], 0, 4),
}


@pytest.mark.parametrize("case", sorted(BLEU_EDGES))
@pytest.mark.parametrize(
    "cfg", BLEU_CONFIGS[:2] + (MetricConfig(bleu_epsilon=2.5),) + BLEU_CONFIGS[2:]
)
def test_bleu_edge_cases_equal_scalar_oracle(case, cfg):
    matches, hyp_len, ref_len = BLEU_EDGES[case]
    matches = (matches + [0, 0])[: cfg.bleu_max_order]
    want = scalar_bleu_from_counts(matches, hyp_len, ref_len, cfg)
    assert bleu_from_counts(matches, hyp_len, ref_len, cfg) == want
    assert bleu_scores([[matches]], [hyp_len], [ref_len], cfg)[0, 0] == want


def test_bleu_log_terms_are_built_once_per_hypothesis_length():
    """The log terms of a hypothesis length are built the first time a
    hypothesis of that length is scored; a call that brings no new length
    builds none, so a long sentence costs one build per process, not one
    per call."""
    metrics._log_terms.cache_clear()
    rng = np.random.default_rng(13)
    cfg = MetricConfig()
    built = set()
    for max_len in (12, 400, 400, 12):
        matches, hyp, ref = random_match_tensor(rng, 8, 6, cfg.bleu_max_order, 0, max_len)
        want = oracle_matrix(scalar_bleu_from_counts, matches, hyp, ref, cfg)
        assert np.array_equal(bleu_scores(matches, hyp, ref, cfg), want)
        built |= set(np.maximum(hyp, 1).tolist())
        assert metrics._log_terms.cache_info().misses == len(built)
    bleu_scores(matches[::-1], hyp[::-1], ref, cfg)
    assert metrics._log_terms.cache_info().misses == len(built)
    block = metrics._log_terms(400, cfg.bleu_max_order, cfg.bleu_epsilon)
    assert block.shape == (4, 401) and not block.flags.writeable


@pytest.mark.parametrize("cfg", BLEU_CONFIGS)
def test_5000_token_pairs_score_in_memory_linear_in_their_length(cfg):
    """A 5000-token hypothesis or reference (one looping sampled candidate,
    say) scores as the scalar oracle does, with log terms for its own
    length only: a table indexed by (count, total) or (ref_len, hyp_len)
    would take hundreds of MiB and seconds to build."""
    metrics._log_terms.cache_clear()
    rng = np.random.default_rng(17)
    matches, hyp, ref = random_match_tensor(rng, 2, 3, cfg.bleu_max_order, 4990, 5000)
    hyp[1], ref[2] = 7, 6
    matches[1] = np.minimum(matches[1], np.maximum(7 - np.arange(cfg.bleu_max_order), 0))
    matches[0, 0, 1:] = 0
    want = oracle_matrix(scalar_bleu_from_counts, matches, hyp, ref, cfg)
    tracemalloc.start()
    start = time.process_time()
    got = bleu_scores(matches, hyp, ref, cfg)
    seconds = time.process_time() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert np.array_equal(got, want)
    assert peak < 8 << 20 and seconds < 2.0, (peak, seconds)


@pytest.mark.parametrize(
    "matches, hyp_len, ref_len",
    [
        pytest.param([3, -1, 0, 0], 5, 5, id="negative-count"),
        pytest.param([3, 2.5, 0, 0], 5, 5, id="fractional-count"),
        pytest.param([True, 0, 0, 0], 5, 5, id="bool-count"),
        pytest.param([6, 2, 1, 0], 5, 5, id="more-matches-than-ngrams"),
        pytest.param([2, 1, 1, 0], 2, 5, id="match-at-an-order-with-no-ngrams"),
        pytest.param([3, 2, 1], 5, 5, id="too-few-orders"),
        pytest.param([3, 2, 1, 0], -5, 5, id="negative-hyp-len"),
        pytest.param([3, 2, 1, 0], 5, -1, id="negative-ref-len"),
        pytest.param([3, 2, 1, 0], 5, 5.0, id="fractional-ref-len"),
    ],
)
def test_bleu_from_counts_rejects_counts_no_pair_has(matches, hyp_len, ref_len):
    """The one-pair call checks what the array routine takes on trust: a
    negative or fractional count would index the wrong log term."""
    with pytest.raises(InvalidInputError):
        bleu_from_counts(matches, hyp_len, ref_len, MetricConfig())


@pytest.mark.parametrize(
    "matches, hyp_len, ref_len",
    [
        pytest.param([-1, 0, 0, 0, 0, 0], 3, 3, id="negative-count"),
        pytest.param([1.5, 0, 0, 0, 0, 0], 3, 3, id="fractional-count"),
        pytest.param([True, 0, 0, 0, 0, 0], 3, 3, id="bool-count"),
        pytest.param([9, 0, 0, 0, 0, 0], 3, 3, id="more-matches-than-ngrams"),
        pytest.param([3, 0, 0, 0, 0, 0], 5, 2, id="more-matches-than-the-reference-has"),
        pytest.param([2, 1, 1, 0, 0, 0], 5, 2, id="match-at-an-order-the-reference-lacks"),
        pytest.param([3, 2, 1], 3, 3, id="too-few-orders"),
        pytest.param([0, 0, 0, 0, 0, 0], -2, 3, id="negative-hyp-len"),
        pytest.param([0, 0, 0, 0, 0, 0], 3, 3.0, id="fractional-ref-len"),
    ],
)
def test_chrf_from_counts_rejects_counts_no_pair_has(matches, hyp_len, ref_len):
    """A clipped count is at most the shorter side's n-grams of its order."""
    with pytest.raises(InvalidInputError, match="matches|hyp_len|ref_len"):
        chrf_from_counts(matches, hyp_len, ref_len, MetricConfig())


@pytest.mark.parametrize("case", sorted(CHRF_EDGES))
@pytest.mark.parametrize("beta", [2.0, 0.5])
def test_chrf_edge_cases_equal_scalar_oracle(case, beta):
    cfg = MetricConfig(chrf_beta=beta)
    matches, hyp_len, ref_len = CHRF_EDGES[case]
    want = scalar_chrf_from_counts(matches, hyp_len, ref_len, cfg)
    assert chrf_from_counts(matches, hyp_len, ref_len, cfg) == want
    assert chrf_scores([[matches]], [hyp_len], [ref_len], cfg)[0, 0] == want


def test_one_pair_calls_on_empty_sides():
    assert bleu_from_counts([0, 0, 0, 0], 0, 3, MetricConfig()) == 0.0
    assert bleu_from_counts([0, 0, 0, 0], 0, 3, NO_SMOOTH) == 0.0
    with pytest.raises(InvalidInputError, match="no character n-grams"):
        chrf_from_counts([0] * 6, 0, 0, MetricConfig())
    # one empty pair fails the whole matrix, as it fails the pair loop
    with pytest.raises(InvalidInputError, match="no character n-grams"):
        chrf_scores(np.zeros((2, 2, 6)), [0, 3], [0, 4], MetricConfig())
