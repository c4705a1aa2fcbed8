"""Seeded synthetic n-best corpora for the benchmark workloads.

Words are drawn from a Zipf-distributed vocabulary of word-like strings of
varied length (letters follow English letter frequencies, frequent words are
short), so token n-grams and character n-grams repeat inside a sentence the
way they do in real text.  Each list is a noisy beam around one base
sentence: candidates are the base with a few substitutions, insertions,
deletions and swaps, sorted by a synthetic model score.

Base-sentence lengths are stratified over the workload's length range (the
seed shuffles them), so the work per run does not depend on how the seed
happened to draw lengths.  Everything else comes from the seed.
"""

from __future__ import annotations

import json
import zlib
from collections import Counter

import numpy as np

LETTERS = "etaoinshrdlcumwfgypbvkjxqz"
LETTER_FREQ = np.array(
    [12.7, 9.1, 8.2, 7.5, 7.0, 6.7, 6.3, 6.1, 6.0, 4.3, 4.0, 2.8, 2.8, 2.4,
     2.4, 2.2, 2.0, 2.0, 1.9, 1.5, 1.0, 0.8, 0.15, 0.15, 0.1, 0.07]
)
VOCAB_SIZE = 4000
ZIPF_EXPONENT = 1.1


def workload_rng(seed: int, name: str) -> np.random.Generator:
    """One generator per (seed, workload), stable across Python versions."""
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


class Vocabulary:
    """Word-like strings with Zipf frequencies; frequent words tend to be short."""

    def __init__(self, rng: np.random.Generator):
        letter_p = LETTER_FREQ / LETTER_FREQ.sum()
        words: dict[str, float] = {}
        while len(words) < VOCAB_SIZE:
            length = 1 + int(rng.poisson(4.5))
            letters = rng.choice(len(LETTERS), size=length, p=letter_p)
            word = "".join(LETTERS[i] for i in letters)
            words.setdefault(word, length + float(rng.normal(0.0, 2.5)))
        self.words = sorted(words, key=lambda w: (words[w], w))
        ranks = np.arange(1, VOCAB_SIZE + 1, dtype=np.float64)
        self._cdf = np.cumsum(ranks**-ZIPF_EXPONENT)
        self._cdf /= self._cdf[-1]
        self._rng = rng

    def draw(self, size: int) -> list[str]:
        picks = np.searchsorted(self._cdf, self._rng.random(size), side="right")
        return [self.words[min(int(i), VOCAB_SIZE - 1)] for i in picks]


def _perturb(base: list[str], edits: int, vocab: Vocabulary, rng) -> list[str]:
    toks = list(base)
    for _ in range(edits):
        op = rng.integers(4)
        pos = int(rng.integers(len(toks)))
        if op == 0:
            toks[pos] = vocab.draw(1)[0]
        elif op == 1 and len(toks) > 1:
            del toks[pos]
        elif op == 2:
            toks.insert(pos, vocab.draw(1)[0])
        elif pos + 1 < len(toks):
            toks[pos], toks[pos + 1] = toks[pos + 1], toks[pos]
    return toks


def make_lists(
    rng: np.random.Generator,
    num_lists: int,
    n: int,
    min_len: int,
    max_len: int,
    with_reference: bool = False,
) -> list[dict]:
    """Line-JSON n-best records (the CLI's input format)."""
    vocab = Vocabulary(rng)
    lengths = np.linspace(min_len, max_len, num_lists).round().astype(int)
    rng.shuffle(lengths)
    records = []
    for li, length in enumerate(lengths):
        base = vocab.draw(int(length))
        cands = []
        for _ in range(n):
            edits = 1 + int(rng.poisson(2.0))
            toks = _perturb(base, edits, vocab, rng)
            model = -(0.8 * len(toks) + 1.5 * edits + float(rng.normal(0.0, 1.0)))
            cands.append((model, toks, edits))
        cands.sort(key=lambda c: -c[0])
        top = cands[0][0]
        cand_records = []
        for model, toks, edits in cands:
            rec = {
                "text": " ".join(toks),
                "tokens": toks,
                "log_prob": min(0.0, model - top - 1.0),
            }
            if with_reference:
                rec["external_scores"] = {
                    "lm": -2.0 * len(toks) + float(rng.normal(0.0, 2.0)),
                    "qe": 1.0 / (1.0 + edits) + float(rng.normal(0.0, 0.1)),
                }
            cand_records.append(rec)
        record = {"source": f"src {li} " + " ".join(base[::-1]), "candidates": cand_records}
        if with_reference:
            record["reference"] = " ".join(_perturb(base, 2, vocab, rng))
        records.append(record)
    return records


def write_lists(path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def _count_levels(seqs, max_order: int) -> list[dict]:
    """Per order: share of per-sequence n-gram types with count >= 2 and >= 3,
    and the largest count (the count levels the match kernels see)."""
    out = []
    for k in range(1, max_order + 1):
        types = ge2 = ge3 = top = 0
        for seq in seqs:
            counts = Counter(tuple(seq[j : j + k]) for j in range(len(seq) - k + 1))
            for c in counts.values():
                types += 1
                ge2 += c >= 2
                ge3 += c >= 3
                top = max(top, c)
        out.append(
            {
                "order": k,
                "types": types,
                "share_ge2": ge2 / types if types else 0.0,
                "share_ge3": ge3 / types if types else 0.0,
                "max_count": top,
            }
        )
    return out


def corpus_stats(records: list[dict], l: int | None) -> dict:
    """Shape and count-level record of one workload input."""
    token_seqs = [c["tokens"] for r in records for c in r["candidates"]]
    char_seqs = ["".join(c["text"].split()) for r in records for c in r["candidates"]]
    n = len(records[0]["candidates"])
    return {
        "lists": len(records),
        "n": n,
        "l": l if l is not None else n,
        "mean_tokens": sum(map(len, token_seqs)) / len(token_seqs),
        "mean_chars": sum(map(len, char_seqs)) / len(char_seqs),
        "token_ngrams": _count_levels(token_seqs, 4),
        "char_ngrams": _count_levels(char_seqs, 6),
    }
