"""Kernel correctness: encoding, match counts, and matrix/metric agreement.

Every score is checked against the Counter oracle in ``conftest`` fed
through the shared count->score formulas, never against another kernel
path.
"""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from rmbr import kernels, mbr
from rmbr.kernels import encode_ngram_blocks, pair_match_counts
from rmbr.mbr import BleuUtility, ChrfUtility, reference_scores
from rmbr.metrics import (
    MetricConfig,
    bleu_from_counts,
    chrf_characters,
    chrf_from_counts,
    objective_stats,
    sentence_bleu,
    sentence_chrf,
)

from conftest import clipped_matches, ngram_counts, random_list

CONFIGS = (MetricConfig(), MetricConfig(bleu_smoothing="none"))


def random_seqs(rng, count, vocab_size=6, max_len=12):
    vocab = [f"w{i}" for i in range(vocab_size)]
    return [
        [vocab[int(i)] for i in rng.integers(0, vocab_size, size=int(rng.integers(1, max_len)))]
        for _ in range(count)
    ]


def test_encode_blocks_structure():
    seqs = [["a", "b", "a"], ["b"]]
    counts, lengths = encode_ngram_blocks(seqs, 3)
    assert lengths.tolist() == [3, 1]
    assert [c.dtype for c in counts] == [np.int32] * 3
    unigrams, bigrams, trigrams = counts
    # item 0: {a: 2, b: 1}; item 1: {b: 1}
    assert unigrams.shape == (2, 2)
    assert sorted(unigrams[0].tolist()) == [1, 2]
    assert sorted(unigrams[1].tolist()) == [0, 1]
    # item 0: {ab: 1, ba: 1}; item 1 has no bigrams
    assert bigrams.tolist() == [[1, 1], [0, 0]]
    # item 0: {aba: 1}
    assert trigrams.tolist() == [[1], [0]]
    # an order no item reaches has no columns
    assert encode_ngram_blocks(seqs, 4)[0][3].shape == (2, 0)
    with pytest.raises(ValueError, match="max_order must be >= 1, got 0"):
        encode_ngram_blocks(seqs, 0)


def test_encode_blocks_interning_is_shared_across_items():
    # "b" must get one unigram column, shared by both items
    (unigrams,), _ = encode_ngram_blocks([["b"], ["b"]], 1)
    assert unigrams.tolist() == [[1], [1]]
    # "a" and "b" get different columns; "b" keeps one column across items
    (unigrams,), _ = encode_ngram_blocks([["a", "b", "a"], ["b"]], 1)
    b = int(np.flatnonzero(unigrams[1])[0])
    assert unigrams[:, b].tolist() == [1, 1]
    assert unigrams[:, 1 - b].tolist() == [2, 0]


def test_match_counts_agree_with_counter_oracle():
    rng = np.random.default_rng(3)
    for trial in range(10):
        seqs = random_seqs(rng, int(rng.integers(2, 9)))
        order = int(rng.integers(1, 5))
        n = len(seqs)
        l = int(rng.integers(1, n + 1))
        got = pair_match_counts(*encode_ngram_blocks(seqs, order), l)
        for i in range(n):
            for j in range(l):
                assert got[i, j].tolist() == clipped_matches(seqs[i], seqs[j], order)


def _oracle_cases():
    rng = np.random.default_rng(4)
    repeated = [list(rng.integers(0, 2, size=30)) for _ in range(5)]
    tokens = random_seqs(rng, 7)
    chars = ["".join(seq) for seq in random_seqs(rng, 6, max_len=20)]
    return {
        # a two-symbol vocabulary gives counts of 3 and more at every order
        "repeated-counts": (repeated, 4, 5),
        "l-below-n": (tokens, 4, 3),
        "l-one": (tokens, 4, 1),
        # sequences of length 1-2 leave the higher-order blocks empty
        "short-sequences": ([["a"], ["a", "b"], ["b", "a", "b"], ["b"]], 4, 4),
        # no item reaches order 3 or 4, so those orders have no vocabulary
        "empty-order": ([["a"], ["a", "b"], ["b", "b"]], 4, 2),
        "chars-order-6": (chars, 6, 4),
        # "c" and "c d" occur only outside the first l rows
        "outside-references": ([["a", "b"], ["b", "a"], ["c", "d", "c"], ["a", "c", "d"]], 2, 2),
    }


@pytest.mark.parametrize("case", sorted(_oracle_cases()))
def test_match_counts_agree_with_oracle(case):
    seqs, order, l = _oracle_cases()[case]
    n = len(seqs)
    counts, lengths = encode_ngram_blocks(seqs, order)
    got = pair_match_counts(counts, lengths, l)
    assert got.shape == (n, l, order) and got.dtype == np.int64
    for i in range(n):
        for j in range(l):
            assert got[i, j].tolist() == clipped_matches(seqs[i], seqs[j], order)
    if case == "repeated-counts":
        assert all(c.max() >= 3 for c in counts)


def test_encode_counts_in_row_blocks_equal_one_block(monkeypatch):
    rng = np.random.default_rng(14)
    # the one-token item leaves orders 2-5 empty for it
    seqs = random_seqs(rng, 7) + [["w1"]]
    want, _ = encode_ngram_blocks(seqs, 5)
    # one row per np.bincount call
    monkeypatch.setattr(kernels, "_COUNT_BLOCK_CELLS", 1)
    got, _ = encode_ngram_blocks(seqs, 5)
    assert [g.dtype for g in got] == [np.int32] * 5
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_match_counts_reject_blocks_beyond_float32_exact_range():
    # a sequence of 2**24 + 1 tokens: counts float32 cannot hold exactly
    counts = [np.ones((1, 1), dtype=np.int32)]
    with pytest.raises(ValueError, match="exact"):
        pair_match_counts(counts, np.array([2**24 + 1]), 1)


def test_char_sequences_encode_like_token_sequences():
    counts, lengths = encode_ngram_blocks(["abab", "ba"], 2)
    got = pair_match_counts(counts, lengths, 2)
    assert got[0, 1].tolist() == clipped_matches("abab", "ba", 2)
    assert lengths.tolist() == [4, 2]


def assert_encodes_like_oracle(seqs, order):
    """Every count matrix holds each item's n-gram multiset, one column per
    distinct n-gram, and every pair's match counts equal the oracle's."""
    counts, lengths = encode_ngram_blocks(seqs, order)
    assert lengths.tolist() == [len(seq) for seq in seqs]
    for k, matrix in enumerate(counts, start=1):
        grams = [ngram_counts(seq, k) for seq in seqs]
        assert matrix.shape == (len(seqs), len(set().union(*grams)))
        for row, gram in zip(matrix, grams):
            assert sorted(row[row > 0].tolist()) == sorted(gram.values())
    got = pair_match_counts(counts, lengths, len(seqs))
    for i, hyp in enumerate(seqs):
        for j, ref in enumerate(seqs):
            assert got[i, j].tolist() == clipped_matches(hyp, ref, order)


def test_encode_a_list_of_empty_sequences():
    assert_encodes_like_oracle([[], [], []], 4)
    assert_encodes_like_oracle(["", ""], 6)


def test_encode_empty_sequences_among_non_empty_ones():
    assert_encodes_like_oracle([[], ["a", "b", "a"], [], ["b", "a"], ["a"], []], 4)
    assert_encodes_like_oracle(["", "abcab", "", "ba", ""], 6)


def test_encode_a_large_vocabulary_and_long_sequences():
    rng = np.random.default_rng(15)
    # 100-160 tokens each over 400 words: n-gram keys run past 256 * 256
    seqs = [
        [f"w{int(i)}" for i in rng.integers(0, 400, size=int(rng.integers(100, 160)))]
        for _ in range(5)
    ]
    assert len(set().union(*seqs)) > 256
    assert_encodes_like_oracle(seqs, 4)


def test_encode_numpy_integer_tokens():
    rng = np.random.default_rng(16)
    seqs = [list(rng.integers(0, 5, size=int(rng.integers(0, 25)))) for _ in range(6)]
    assert isinstance(seqs[0][0], np.integer)
    assert_encodes_like_oracle(seqs, 4)
    # a numpy integer and the Python int of the same value are one token
    (unigrams,), _ = encode_ngram_blocks([[np.int64(3)], [3]], 1)
    assert unigrams.tolist() == [[1], [1]]


def test_encode_rejects_ngram_keys_beyond_int64(monkeypatch):
    seqs = [["a", "b", "a", "c"], ["c", "b"]]
    # 3 tokens and 4 bigrams: order-2 keys take 3 * 3 = 9 values, order-3 keys 4 * 3 = 12
    monkeypatch.setattr(kernels, "_INT64_KEYS", 12)
    assert_encodes_like_oracle(seqs, 3)
    monkeypatch.setattr(kernels, "_INT64_KEYS", 11)
    assert len(encode_ngram_blocks(seqs, 2)[0]) == 2
    with pytest.raises(ValueError, match="overflow int64"):
        encode_ngram_blocks(seqs, 3)
    monkeypatch.setattr(kernels, "_INT64_KEYS", 8)
    with pytest.raises(ValueError, match="overflow int64"):
        encode_ngram_blocks(seqs, 2)


def oracle_bleu(hyp, ref, cfg):
    matches = clipped_matches(hyp, ref, cfg.bleu_max_order)
    return bleu_from_counts(matches, len(hyp), len(ref), cfg)


def oracle_chrf(hyp, ref, cfg):
    hyp, ref = chrf_characters(hyp), chrf_characters(ref)
    matches = clipped_matches(hyp, ref, cfg.chrf_char_order)
    return chrf_from_counts(matches, len(hyp), len(ref), cfg)


def test_bleu_matrix_equals_double_loop_exactly():
    rng = np.random.default_rng(6)
    for _ in range(5):
        lst = random_list(rng, int(rng.integers(2, 8)))
        for cfg in CONFIGS:
            matrix = BleuUtility(cfg).matrix(lst, range(lst.n), lst.n)
            for i, hyp in enumerate(lst.candidates):
                for j, ref in enumerate(lst.candidates):
                    want = oracle_bleu(hyp.tokens, ref.tokens, cfg)
                    assert matrix[i, j] == want
                    assert sentence_bleu(hyp.tokens, ref.tokens, cfg) == want


def test_chrf_matrix_equals_double_loop_exactly():
    rng = np.random.default_rng(7)
    cfg = MetricConfig()
    for _ in range(5):
        lst = random_list(rng, int(rng.integers(2, 8)))
        matrix = ChrfUtility().matrix(lst, range(lst.n), lst.n)
        for i, hyp in enumerate(lst.candidates):
            for j, ref in enumerate(lst.candidates):
                want = oracle_chrf(hyp.text, ref.text, cfg)
                assert matrix[i, j] == want
                assert sentence_chrf(hyp.text, ref.text) == want


REFERENCES = {
    "ngrams-no-candidate-has": "zz w1 yy xx w2 zz",
    "repeated-ngrams": "w1 w2 w1 w2 w1 w2 w3 w3",
    # 1 token and 2 characters: below both max orders
    "shorter-than-max-order": "w1",
}


@pytest.mark.parametrize("case", sorted(REFERENCES))
def test_score_against_equals_oracle_exactly(case):
    reference = REFERENCES[case]
    rng = np.random.default_rng(9)
    # a three-word vocabulary makes candidates repeat n-grams too
    lst = replace(random_list(rng, 6, vocab=["w1", "w2", "w3"]), reference=reference)
    for cfg in CONFIGS:
        want = [oracle_bleu(c.tokens, reference.split(), cfg) for c in lst.candidates]
        assert reference_scores(lst, BleuUtility(cfg)) == want
        assert [sentence_bleu(c.tokens, reference.split(), cfg) for c in lst.candidates] == want
    cfg = MetricConfig()
    want = [oracle_chrf(c.text, reference, cfg) for c in lst.candidates]
    assert reference_scores(lst, ChrfUtility()) == want
    assert [sentence_chrf(c.text, reference) for c in lst.candidates] == want
    # the tuners' chrF objective statistics of the list
    texts, tokens = [c.text for c in lst.candidates], [c.tokens for c in lst.candidates]
    assert objective_stats("chrf", texts, [reference] * lst.n, tokens)[:, 0].tolist() == want


def test_utilities_count_through_the_traced_kernel_names(monkeypatch):
    # benchmark tracing wraps these two names on rmbr.mbr and the
    # utilities' own ``matrix``; every built-in score must pass through them
    calls = Counter()
    for name in ("encode_ngram_blocks", "pair_match_counts"):
        def counted(*args, _real=getattr(mbr, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(mbr, name, counted)
    rng = np.random.default_rng(10)
    lists = [random_list(rng, 5) for _ in range(3)]
    for utility in (BleuUtility(), ChrfUtility()):
        assert "matrix" in vars(type(utility))
        for score in (
            lambda lst: utility.matrix(lst, range(lst.n), lst.n),
            lambda lst: reference_scores(lst, utility),
        ):
            calls.clear()
            for lst in lists:
                score(lst)
            assert calls == {"encode_ngram_blocks": 3, "pair_match_counts": 3}


def test_diagonal_is_identity_score():
    rng = np.random.default_rng(8)
    lst = random_list(rng, 6)
    assert np.all(np.diag(BleuUtility().matrix(lst, range(lst.n), lst.n)) == 1.0)
    assert np.all(np.diag(ChrfUtility().matrix(lst, range(lst.n), lst.n)) == 1.0)


def test_matrix_scored_in_row_blocks_equals_one_block(monkeypatch):
    rng = np.random.default_rng(13)
    lst = random_list(rng, 9)
    utilities = (BleuUtility(), ChrfUtility(), BleuUtility(CONFIGS[1]))
    want = [u.matrix(lst, range(lst.n), 5) for u in utilities]
    # one row of the count tensor per call of the count->score routine
    monkeypatch.setattr(mbr, "_SCORE_BLOCK_CELLS", 1)
    for utility, one_block in zip(utilities, want):
        got = utility.matrix(lst, range(lst.n), 5)
        assert got.shape == (9, 5) and np.array_equal(got, one_block)
