"""Kernel correctness: encoding, match counts, and matrix/metric agreement."""

import numpy as np
import pytest

from rmbr.kernels import encode_ngram_blocks, pair_match_counts
from rmbr.mbr import BleuUtility, ChrfUtility
from rmbr.metrics import MetricConfig, clipped_matches, sentence_bleu, sentence_chrf

from conftest import random_list


def random_seqs(rng, count, vocab_size=6, max_len=12):
    vocab = [f"w{i}" for i in range(vocab_size)]
    return [
        [vocab[int(i)] for i in rng.integers(0, vocab_size, size=int(rng.integers(1, max_len)))]
        for _ in range(count)
    ]


def test_encode_blocks_structure():
    seqs = [["a", "b", "a"], ["b"]]
    ids, counts, offsets, lengths = encode_ngram_blocks(seqs, 2)
    assert lengths.tolist() == [3, 1]
    assert offsets[0] == 0 and offsets[-1] == len(ids) == len(counts)
    # ids strictly increase inside each block
    for b in range(len(offsets) - 1):
        block = ids[offsets[b] : offsets[b + 1]]
        assert all(x < y for x, y in zip(block, block[1:]))
    # item 0: unigrams {a: 2, b: 1}, bigrams {ab: 1, ba: 1}; item 1: {b: 1}, {}
    assert sorted(counts[offsets[0] : offsets[1]].tolist()) == [1, 2]
    assert counts[offsets[1] : offsets[2]].tolist() == [1, 1]
    assert offsets[3] - offsets[2] == 1  # item 1 unigrams
    assert offsets[4] - offsets[3] == 0  # item 1 has no bigrams


def test_encode_blocks_interning_is_shared_across_items():
    # "b" must get the same unigram id in both items
    ids, counts, offsets, _ = encode_ngram_blocks([["b"], ["b"]], 1)
    assert ids[offsets[0]] == ids[offsets[1]]


def test_match_counts_agree_with_counter_oracle():
    rng = np.random.default_rng(3)
    for trial in range(10):
        seqs = random_seqs(rng, int(rng.integers(2, 9)))
        order = int(rng.integers(1, 5))
        n = len(seqs)
        l = int(rng.integers(1, n + 1))
        ids, counts, offsets, _ = encode_ngram_blocks(seqs, order)
        got = pair_match_counts(ids, counts, offsets, order, n, l)
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
    }


@pytest.mark.parametrize("case", sorted(_oracle_cases()))
def test_match_counts_agree_with_oracle(case):
    seqs, order, l = _oracle_cases()[case]
    n = len(seqs)
    ids, counts, offsets, _ = encode_ngram_blocks(seqs, order)
    got = pair_match_counts(ids, counts, offsets, order, n, l)
    assert got.shape == (n, l, order) and got.dtype == np.int64
    for i in range(n):
        for j in range(l):
            assert got[i, j].tolist() == clipped_matches(seqs[i], seqs[j], order)
    if case == "repeated-counts":
        assert counts.max() >= 3


def test_match_counts_reject_blocks_beyond_float32_exact_range():
    # one unigram occurring 2**24 + 1 times: a count float32 cannot hold exactly
    ids = np.zeros(1, dtype=np.int64)
    counts = np.array([2**24 + 1], dtype=np.int64)
    offsets = np.array([0, 1], dtype=np.int64)
    with pytest.raises(ValueError, match="exact"):
        pair_match_counts(ids, counts, offsets, 1, 1, 1)


def test_char_sequences_encode_like_token_sequences():
    ids, counts, offsets, lengths = encode_ngram_blocks(["abab", "ba"], 2)
    got = pair_match_counts(ids, counts, offsets, 2, 2, 2)
    assert got[0, 1].tolist() == clipped_matches("abab", "ba", 2)
    assert lengths.tolist() == [4, 2]


def test_bleu_matrix_equals_double_loop_exactly():
    rng = np.random.default_rng(6)
    for _ in range(5):
        lst = random_list(rng, int(rng.integers(2, 8)))
        for cfg in (MetricConfig(), MetricConfig(bleu_smoothing="none")):
            matrix = BleuUtility(cfg).matrix(lst, lst.n)
            for i, hyp in enumerate(lst.candidates):
                for j, ref in enumerate(lst.candidates):
                    assert matrix[i, j] == sentence_bleu(hyp.tokens, ref.tokens, cfg)


def test_chrf_matrix_equals_double_loop_exactly():
    rng = np.random.default_rng(7)
    for _ in range(5):
        lst = random_list(rng, int(rng.integers(2, 8)))
        matrix = ChrfUtility().matrix(lst, lst.n)
        for i, hyp in enumerate(lst.candidates):
            for j, ref in enumerate(lst.candidates):
                assert matrix[i, j] == sentence_chrf(hyp.text, ref.text)


def test_diagonal_is_identity_score():
    rng = np.random.default_rng(8)
    lst = random_list(rng, 6)
    assert np.all(np.diag(BleuUtility().matrix(lst, lst.n)) == 1.0)
    assert np.all(np.diag(ChrfUtility().matrix(lst, lst.n)) == 1.0)
