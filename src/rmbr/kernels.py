"""Pairwise n-gram match counting for utility-matrix construction.

Building an n x l utility matrix needs clipped n-gram match counts for every
(hypothesis, pseudo-reference) pair and every order.  Candidates are encoded
once into one dense count matrix per order: C[i, v] is how often n-gram v
occurs in item i, with the n-grams of each order interned into column ids
shared by all items.  One kernel turns those matrices into the whole
(n, l, order) count tensor with dense matrix products.

The clipped match count of items i and j at one order is
sum_v min(C[i, v], C[j, v]), and min(a, b) = sum_{t >= 1} [a >= t] * [b >= t]
for non-negative integers.  So with the 0/1 indicator matrix B_t = (C >= t),
the counts are sum_t B_t @ B_t[:l].T.  Only columns where some reference row
(one of the first l) reaches t add anything, so each product keeps just
those, and t runs up to the largest reference count (rarely above 2).  The
products run in BLAS, which releases the GIL.  Each B_t is float32; every
partial sum is an integer no larger than a sequence length, and float32
holds integers exactly up to 2**24, so the counts are exact.  The kernel
checks that bound rather than assume it.

The kernel returns integer match counts only.  Turning counts into BLEU or
chrF scores happens in the shared scalar routines in :mod:`rmbr.metrics`,
so the matrix builders and the plain per-sentence metrics produce
bit-identical scores.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# Largest integer up to which float32 represents every integer exactly.
_FLOAT32_EXACT = 2**24


def encode_ngram_blocks(
    seqs: Sequence[Sequence], max_order: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """Count each sequence's n-grams into one matrix per order.

    Returns ``(counts, lengths)``: ``counts[k]`` is an int32 matrix of shape
    ``(len(seqs), V_k)`` whose entry [i, v] counts order-(k+1) n-gram v in
    item i, with column ids shared by all items; ``lengths[i]`` is the
    item's sequence length.
    """
    if max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")
    n = len(seqs)
    lengths = np.array([len(seq) for seq in seqs], dtype=np.int64)
    counts = []
    for k in range(max_order):
        table: dict = {}
        cols = [
            table.setdefault(gram, len(table))
            for seq in seqs
            for gram in zip(*(seq[m:] for m in range(k + 1)))
        ]
        rows = np.repeat(np.arange(n), np.maximum(lengths - k, 0))
        cells = rows * len(table) + np.array(cols, dtype=np.int64)
        flat = np.bincount(cells, minlength=n * len(table))
        counts.append(flat.astype(np.int32).reshape(n, len(table)))
    return counts, lengths


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
