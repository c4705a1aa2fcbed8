"""Pairwise n-gram match counting for utility-matrix construction.

Building an n x l utility matrix needs clipped n-gram match counts for every
(hypothesis, pseudo-reference) pair and every order.  Candidates are encoded
once into per-order blocks of sorted (n-gram id, count) pairs — n-grams are
interned into integer ids per order — and one kernel turns those blocks into
the whole (n, l, order) count tensor with dense matrix products.

The clipped match count of items i and j at one order is
sum_v min(C[i, v], C[j, v]) over the order's n-gram ids v, and
min(a, b) = sum_{t >= 1} [a >= t] * [b >= t] for non-negative integers.  So
with the 0/1 indicator matrix B_t = (C >= t), the counts are
sum_t B_t @ B_t[:l].T, where t runs up to the largest count in the order
(rarely above 2).  The products run in BLAS, which releases the GIL.  Each
B_t is float32 and built one order and one threshold at a time to keep
memory flat; every partial sum is an integer no larger than a sequence
length, and float32 holds integers exactly up to 2**24, so the counts are
exact.  The kernel checks that bound rather than assume it.

The kernel returns integer match counts only.  Turning counts into BLEU or
chrF scores happens in the shared scalar routines in :mod:`rmbr.metrics`,
so the matrix builders and the plain per-sentence metrics produce
bit-identical scores.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np

# Largest integer up to which float32 represents every integer exactly.
_FLOAT32_EXACT = 2**24


def encode_ngram_blocks(
    seqs: Sequence[Sequence], max_order: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Encode sequences into flat per-order blocks of (n-gram id, count).

    N-grams are interned into dense integer ids, with a separate id space
    per order.  Returns ``(ids, counts, offsets, lengths)`` where the block
    for item i at order k+1 occupies
    ``ids[offsets[i * max_order + k] : offsets[i * max_order + k + 1]]``
    (ids strictly increasing within a block, counts aligned) and
    ``lengths[i]`` is the item's sequence length.
    """
    if max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")
    tables = [{} for _ in range(max_order)]
    id_parts = []
    count_parts = []
    offsets = np.zeros(len(seqs) * max_order + 1, dtype=np.int64)
    lengths = np.zeros(len(seqs), dtype=np.int64)
    pos = 0
    block = 0
    for i, seq in enumerate(seqs):
        lengths[i] = len(seq)
        for k in range(max_order):
            table = tables[k]
            grams = Counter(
                tuple(seq[j : j + k + 1]) for j in range(len(seq) - k)
            )
            ids = np.empty(len(grams), dtype=np.int64)
            counts = np.empty(len(grams), dtype=np.int64)
            for t, (gram, count) in enumerate(grams.items()):
                gid = table.get(gram)
                if gid is None:
                    gid = len(table)
                    table[gram] = gid
                ids[t] = gid
                counts[t] = count
            order = np.argsort(ids)
            id_parts.append(ids[order])
            count_parts.append(counts[order])
            pos += len(grams)
            block += 1
            offsets[block] = pos
    if id_parts:
        flat_ids = np.concatenate(id_parts)
        flat_counts = np.concatenate(count_parts)
    else:
        flat_ids = np.zeros(0, dtype=np.int64)
        flat_counts = np.zeros(0, dtype=np.int64)
    return flat_ids, flat_counts, offsets, lengths


def pair_match_counts(
    ids: np.ndarray,
    counts: np.ndarray,
    offsets: np.ndarray,
    max_order: int,
    n: int,
    l: int,
) -> np.ndarray:
    """Pairwise clipped match counts, shape (n, l, max_order), int64.

    Entry [i, j, k] is the clipped order-(k+1) match count of item i scored
    against item j, for the first ``n`` items of an
    :func:`encode_ngram_blocks` encoding and the first ``l <= n`` of them as
    references.
    """
    out = np.zeros((n, l, max_order), dtype=np.int64)
    offsets = offsets[: n * max_order + 1]
    ids = ids[: offsets[-1]]
    counts = counts[: offsets[-1]]
    # A product entry never exceeds the total count in the hypothesis block,
    # which is the number of n-grams of that order in the sequence.
    running = np.concatenate(([0], np.cumsum(counts)))
    totals = running[offsets[1:]] - running[offsets[:-1]]
    if totals.size and totals.max() > _FLOAT32_EXACT:
        raise ValueError(
            f"a sequence holds {int(totals.max())} n-grams of one order; "
            f"float32 match counting is exact only up to {_FLOAT32_EXACT}"
        )
    block = np.repeat(np.arange(n * max_order), np.diff(offsets))
    items = block // max_order
    orders = block % max_order
    for k in range(max_order):
        in_order = orders == k
        if not in_order.any():
            continue
        rows = items[in_order]
        order_ids = ids[in_order]
        order_counts = counts[in_order]
        acc = np.zeros((n, l), dtype=np.float32)
        for t in range(1, int(order_counts.max()) + 1):
            hit = order_counts >= t
            cols, col_of = np.unique(order_ids[hit], return_inverse=True)
            indicator = np.zeros((n, cols.size), dtype=np.float32)
            indicator[rows[hit], col_of] = 1.0
            acc += indicator @ indicator[:l].T
        out[:, :, k] = acc
    return out
