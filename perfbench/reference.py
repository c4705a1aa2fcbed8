"""Expected outputs, computed without rmbr's kernels or reranking code.

Pair scores come from the sentence metrics in ``rmbr.metrics``:
``sentence_bleu`` / ``sentence_chrf`` are ``clipped_matches`` followed by
``bleu_from_counts`` / ``chrf_from_counts``.  The reference keeps each
candidate's n-gram counts per order, counts clipped matches as the shared
n-grams plus the excess of those both sides repeat, and uses that clipped
matches are symmetric, so it builds the same numbers several times faster;
``spot_check`` confirms on sampled pairs that they equal ``sentence_bleu`` /
``sentence_chrf`` bit for bit.  Corpus objectives use ``rmbr.metrics.corpus_bleu``, service scores the
bench scorer's own ``score`` function.

Consensus scores follow the documented definition, the row mean over the
first l columns, taken with the same numpy reduction over a C-ordered
float64 matrix as the program, so equal cells give equal scores and
selections can be compared exactly.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np

from rmbr import metrics as M

TOL = 1e-12


class PairScorer:
    """Pairwise BLEU (over tokens) or chrF (over characters) of one list.

    Uses the count-to-score routines of ``rmbr.metrics`` on cached n-gram
    counts while that module has them, and the sentence metrics pair by pair
    (slower, same numbers) once it does not.
    """

    def __init__(self, cands: list[dict], kind: str, cfg: M.MetricConfig):
        self.kind = kind
        self.cfg = cfg
        self.texts = [c["text"] for c in cands]
        if kind == "bleu":
            self.seqs = [tuple(c["tokens"]) for c in cands]
            order, name = cfg.bleu_max_order, "bleu_from_counts"
        else:
            self.seqs = ["".join(t.split()) for t in self.texts]
            order, name = cfg.chrf_char_order, "chrf_from_counts"
        self._from_counts = getattr(M, name, None)
        # per candidate and order: the set of n-grams, and those seen twice or more
        self.grams = []
        for seq in self.seqs:
            per_order = []
            for k in range(1, order + 1):
                counts = Counter(tuple(seq[j : j + k]) for j in range(len(seq) - k + 1))
                per_order.append((counts.keys(), {g: c for g, c in counts.items() if c > 1}))
            self.grams.append(per_order)
        self._matches: dict = {}

    def matches(self, i: int, j: int) -> list[int]:
        """Clipped matches: sum over shared n-grams of the smaller count."""
        key = (i, j) if i <= j else (j, i)
        found = self._matches.get(key)
        if found is None:
            found = []
            for (h, h_multi), (r, r_multi) in zip(self.grams[i], self.grams[j]):
                extra = sum(min(h_multi[g], r_multi[g]) - 1 for g in h_multi.keys() & r_multi.keys())
                found.append(len(h & r) + extra)
            self._matches[key] = found
        return found

    def sentence(self, i: int, j: int) -> float:
        if self.kind == "bleu":
            return M.sentence_bleu(self.seqs[i], self.seqs[j], self.cfg)
        return M.sentence_chrf(self.texts[i], self.texts[j], self.cfg)

    def score(self, i: int, j: int) -> float:
        if self._from_counts is None:
            return self.sentence(i, j)
        return self._from_counts(
            self.matches(i, j), len(self.seqs[i]), len(self.seqs[j]), self.cfg
        )

    def matrix(self, rows, cols) -> np.ndarray:
        out = np.empty((len(rows), len(cols)), dtype=np.float64)
        for a, i in enumerate(rows):
            for b, j in enumerate(cols):
                out[a, b] = self.score(i, j)
        return out

    def spot_check(self, rng, samples: int) -> None:
        """Raise if the cached path differs from the sentence metric."""
        n = len(self.seqs)
        for _ in range(samples):
            i, j = int(rng.integers(n)), int(rng.integers(n))
            if self.score(i, j) != self.sentence(i, j):
                raise RuntimeError(f"reference {self.kind} differs from sentence metric")


def consensus(values: np.ndarray) -> list[float]:
    l = values.shape[1]
    return [float(s) / l for s in values[:, :l].sum(axis=1)]


def ranking(totals) -> list[int]:
    return sorted(range(len(totals)), key=lambda i: (-totals[i], i))


def combine(mbr, regs: dict, lambdas: dict) -> list[float]:
    totals = [float(v) for v in mbr]
    for name, values in regs.items():
        for i, v in enumerate(values):
            totals[i] += float(lambdas[name]) * float(v)
    return totals


def rerank_full(scorer: PairScorer, l: int, regs: dict, lambdas: dict) -> dict:
    """Direct MBR on one list: the fields of a full-mode result record."""
    n = len(scorer.seqs)
    mbr = consensus(scorer.matrix(range(n), range(l)))
    totals = combine(mbr, regs, lambdas)
    order = ranking(totals)
    return {
        "selected": order[0],
        "ranking": order,
        "candidate_indices": list(range(n)),
        "mbr_scores": mbr,
        "regularizer_scores": regs,
        "total_scores": totals,
        "utility_calls": n * l,
    }


def coarse_to_fine(proxy: PairScorer, target: PairScorer, keep: int) -> dict:
    """Proxy MBR over all n, keep the best ``keep``, target MBR on those."""
    n = len(proxy.seqs)
    proxy_order = ranking(consensus(proxy.matrix(range(n), range(n))))
    survivors = sorted(proxy_order[:keep])
    mbr = consensus(target.matrix(survivors, survivors))
    order = ranking(mbr)
    return {
        "selected": survivors[order[0]],
        "ranking": [survivors[r] for r in order],
        "candidate_indices": survivors,
        "mbr_scores": mbr,
        "regularizer_scores": {},
        "total_scores": mbr,
        "utility_calls": n * n + keep * keep,
    }


def grid_search(lists, score_fn, regularizers, grid, cfg: M.MetricConfig) -> dict:
    """Exhaustive regularizer-weight search maximizing corpus BLEU."""
    skeletons = []
    for rec in lists:
        cands = rec["candidates"]
        values = np.array(
            [[score_fn(rec["source"], h["text"], r["text"]) for r in cands] for h in cands],
            dtype=np.float64,
        )
        regs = {name: [_regularizer(c, name) for c in cands] for name in regularizers}
        skeletons.append((consensus(values), regs))
    refs = [rec["reference"].split() for rec in lists]
    objectives: dict = {}
    best, best_objective = {}, -math.inf
    for combo in itertools.product(sorted({float(g) for g in grid}), repeat=len(regularizers)):
        lambdas = dict(zip(regularizers, combo))
        picks = tuple(ranking(combine(mbr, regs, lambdas))[0] for mbr, regs in skeletons)
        if picks not in objectives:
            hyps = [list(rec["candidates"][p]["tokens"]) for rec, p in zip(lists, picks)]
            objectives[picks] = M.corpus_bleu(hyps, refs, cfg)
        if objectives[picks] > best_objective:
            best, best_objective = lambdas, objectives[picks]
    return {"lambdas": best, "objective": best_objective, "metric": "bleu"}


def _regularizer(cand: dict, name: str) -> float:
    if name == "lp":
        return float(cand["log_prob"])
    return float(cand["external_scores"][name])


def compare(got, want, path: str = "") -> str | None:
    """First difference between an output record and the reference, or None.

    Floats must agree within ``TOL``; everything else exactly.
    """
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return None if abs(got - want) <= TOL else f"{path}: {got!r} != {want!r}"
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r}"
        for k in want:
            diff = compare(got[k], want[k], f"{path}.{k}")
            if diff:
                return diff
        return None
    if isinstance(want, (list, tuple)):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: length differs"
        for i, (g, w) in enumerate(zip(got, want)):
            diff = compare(g, w, f"{path}[{i}]")
            if diff:
                return diff
        return None
    return None if got == want and type(got) is type(want) else f"{path}: {got!r} != {want!r}"
