"""Pairwise n-gram match counting for utility-matrix construction.

Building an n x l utility matrix needs clipped n-gram match counts for every
(hypothesis, pseudo-reference) pair and every order.  Candidates are encoded
once into one dense count matrix per order: C[i, v] is how often n-gram v
occurs in item i, with the n-grams of each order numbered by column ids
shared by all items.  Tokens (or characters) are interned once into int64
ids; an order-(k+1) n-gram is its order-k prefix's id times the token
vocabulary size plus its last token's id, and ``np.unique`` turns those keys
into dense column ids, so each order costs a few array calls and no Python
loop.  Columns of orders above 1 come in key order; match counts do not
depend on column order.  One kernel turns those matrices into the whole
(n, l, order) count tensor with dense matrix products.

The clipped match count of items i and j at one order is
sum_v min(C[i, v], C[j, v]), and min(a, b) = sum_{t >= 1} [a >= t] * [b >= t]
for non-negative integers.  So with the 0/1 indicator matrix B_t = (C >= t),
the counts are sum_t B_t @ B_t[:l].T.  Only columns where some reference row
(one of the first l) reaches t add anything, so each product keeps just
those, and t runs up to the largest reference count (rarely above 2).  The
products run in BLAS.  Each B_t is float32; every
partial sum is an integer no larger than a sequence length, and float32
holds integers exactly up to 2**24, so the counts are exact.  The kernel
checks that bound rather than assume it, as the encoder checks that its
n-gram keys fit in int64.

This is rmbr's only n-gram counter: matrices, sentence metrics, corpus
BLEU, oracle and tuning all count here (references first, then the items
scored against them).  Counts are integers; one array routine per metric in
:mod:`rmbr.metrics` turns the whole (n, l, order) tensor into scores, and
a single pair is a 1 x 1 call of the same routine, so every path gives a
pair the same score bit for bit.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

import numpy as np

# Largest integer up to which float32 represents every integer exactly.
_FLOAT32_EXACT = 2**24

# Number of distinct n-gram keys 0 .. 2**63 - 1 that int64 can hold.
_INT64_KEYS = 2**63

# Cells of a count matrix counted per np.bincount call (see _count_matrix).
_COUNT_BLOCK_CELLS = 1 << 16


def encode_ngram_blocks(
    seqs: Sequence[Sequence], max_order: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """Count each sequence's n-grams into one matrix per order.

    Returns ``(counts, lengths)``: ``counts[k]`` is an int32 matrix of shape
    ``(len(seqs), V_k)`` whose entry [i, v] counts order-(k+1) n-gram v in
    item i, with column ids shared by all items; ``lengths[i]`` is the
    item's sequence length.  Order-1 columns are the token ids, in order of
    first occurrence.  An order-(k+1) n-gram at position p has the key
    ``ids_k[p] * V_1 + token[p + k]``, and its column is the key's rank among
    the distinct keys, so higher-order columns come in key order.  Only the
    int32 matrices are n x V_k in size: the int64 counts of ``np.bincount``
    are taken a block of rows at a time.
    """
    if max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")
    n = len(seqs)
    lengths = np.array([len(seq) for seq in seqs], dtype=np.int64)
    table: dict = {}
    tokens = np.array(
        [table.setdefault(tok, len(table)) for tok in chain.from_iterable(seqs)],
        dtype=np.int64,
    )
    vocab = len(table)
    rows = np.repeat(np.arange(n), lengths)
    # Tokens from each position to the end of its sequence.
    left = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(tokens))
    at, ids, width = np.arange(len(tokens)), tokens, vocab
    counts = [_count_matrix(rows, ids, n, width)]
    for k in range(1, max_order):
        if width * vocab > _INT64_KEYS:
            raise ValueError(
                f"{width} order-{k} n-grams over {vocab} tokens overflow "
                f"int64 n-gram keys"
            )
        fits = left[at] > k
        at, rows = at[fits], rows[fits]
        keys, ids = np.unique(ids[fits] * vocab + tokens[at + k], return_inverse=True)
        width = len(keys)
        counts.append(_count_matrix(rows, ids, n, width))
    return counts, lengths


def _count_matrix(rows: np.ndarray, cols: np.ndarray, n: int, width: int) -> np.ndarray:
    """The int32 n x width matrix counting each (row, col) pair; rows ascending.

    ``np.bincount`` counts in int64, so a matrix of more than
    ``_COUNT_BLOCK_CELLS`` cells is counted a block of rows at a time and
    that copy stays small however large n * width grows.
    """
    cells = rows * width + cols
    step = max(1, _COUNT_BLOCK_CELLS // max(width, 1))
    matrix = np.empty((n, width), dtype=np.int32)
    for start in range(0, n, step):
        stop = min(start + step, n)
        lo, hi = np.searchsorted(rows, (start, stop))
        block = np.bincount(cells[lo:hi] - start * width, minlength=(stop - start) * width)
        matrix[start:stop] = block.reshape(stop - start, width)
    return matrix


def pair_match_counts(
    counts: Sequence[np.ndarray], lengths: np.ndarray, l: int
) -> np.ndarray:
    """Pairwise clipped match counts, shape (n, l, order), int64.

    Entry [i, j, k] is the clipped order-(k+1) match count of item i scored
    against item j, for the count matrices and lengths of
    :func:`encode_ngram_blocks` and the first ``l <= n`` items as references.
    """
    n = len(lengths)
    # A product entry never exceeds the hypothesis's number of n-grams of
    # one order, which is at most its length.
    if n and lengths.max() > _FLOAT32_EXACT:
        raise ValueError(
            f"a sequence holds {int(lengths.max())} n-grams of one order; "
            f"float32 match counting is exact only up to {_FLOAT32_EXACT}"
        )
    out = np.zeros((n, l, len(counts)), dtype=np.int64)
    for k, matrix in enumerate(counts):
        reach = matrix[:l].max(axis=0, initial=0)
        acc = np.zeros((n, l), dtype=np.float32)
        for t in range(1, int(reach.max(initial=0)) + 1):
            indicator = (matrix[:, reach >= t] >= t).astype(np.float32)
            acc += indicator @ indicator[:l].T
        out[:, :, k] = acc
    return out
