"""Oracle analysis, probability tables, and the two tuners."""

import math

import numpy as np
import pytest

import rmbr.analysis as analysis
from rmbr.analysis import (
    corpus_objective,
    grid_search_lambdas,
    oracle_histogram,
    oracle_select,
    token_prob_by_length,
    tune_l,
)
from rmbr.core import CoarseToFine, NBestList, RerankConfig, UtilityMatrix
from rmbr.errors import ConfigError, InvalidInputError, MissingScoreError
from rmbr.mbr import MatrixUtility, ServiceUtility, rerank
from rmbr.metrics import corpus_bleu, sentence_bleu, sentence_chrf

from conftest import make_candidate, make_list, random_list


def test_corpus_objective_bleu_matches_direct_call():
    lists = [
        make_list(["the cat sat", "a dog ran"], reference="the cat sat"),
        make_list(["b c d", "x y z"], reference="b c e"),
    ]
    got = corpus_objective(lists, [0, 0])
    want = corpus_bleu(
        [["the", "cat", "sat"], ["b", "c", "d"]],
        [["the", "cat", "sat"], ["b", "c", "e"]],
    )
    assert got == want


def test_corpus_objective_chrf_is_mean_sentence_chrf():
    lists = [
        make_list(["abcd"], reference="abcf"),
        make_list(["wxyz"], reference="wxyz"),
    ]
    got = corpus_objective(lists, [0, 0], metric="chrf")
    want = (sentence_chrf("abcd", "abcf") + sentence_chrf("wxyz", "wxyz")) / 2
    assert got == want


def test_corpus_objective_validation():
    lists = [make_list(["a"], reference="a"), make_list(["b"])]
    with pytest.raises(InvalidInputError):
        corpus_objective(lists, [0, 0])
    with pytest.raises(InvalidInputError):
        corpus_objective(lists[:1], [0, 0])
    with pytest.raises(ConfigError):
        corpus_objective(lists[:1], [0], metric="meteor")


def test_oracle_select_finds_planted_reference_copy():
    lst = make_list(
        ["way off target", "the exact reference wording", "the exact reference words"],
        reference="the exact reference wording",
    )
    index, score = oracle_select(lst)
    assert index == 1
    assert score == 1.0


def test_oracle_select_breaks_ties_by_beam_order():
    lst = make_list(["same text", "same text"], reference="same text")
    assert oracle_select(lst)[0] == 0


class _CountingClient:
    def __init__(self):
        self.calls = 0

    def score_pairs(self, pairs):
        self.calls += 1
        return [float(hyp == ref) for _, hyp, ref in pairs]


def test_oracle_sends_one_scorer_batch_per_list():
    client = _CountingClient()
    lists = [
        make_list(["x", "y", f"hit {i}", "z", f"hit {i}"], reference=f"hit {i}")
        for i in range(3)
    ]
    report = oracle_histogram(lists, utility=ServiceUtility(client))
    assert client.calls == len(lists)
    # the two copies of the reference tie; the beam-earlier one wins
    assert report.indices == (2, 2, 2)
    assert report.scores == (1.0, 1.0, 1.0)


def test_oracle_select_needs_reference():
    with pytest.raises(InvalidInputError):
        oracle_select(make_list(["a"]))


def test_oracle_dominates_any_selection():
    rng = np.random.default_rng(30)
    for _ in range(20):
        lst = random_list(rng, int(rng.integers(2, 8)))
        _, oracle_score = oracle_select(lst)
        for cand in lst.candidates:
            assert oracle_score >= sentence_bleu(cand.tokens, lst.reference.split())


def test_oracle_histogram_planted_positions():
    # oracle at rank 1, 1 and 4 with bin width 2 -> bins (1-2): 2, (3-4): 1
    lists = [
        make_list(["hit a b", "x", "y", "z"], reference="hit a b"),
        make_list(["hit c d", "x", "y", "z"], reference="hit c d"),
        make_list(["x", "y", "z", "hit e f"], reference="hit e f"),
    ]
    report = oracle_histogram(lists, bin_width=2)
    assert report.indices == (0, 0, 3)
    assert report.bin_counts == (2, 1)
    assert report.proportions == (2 / 3, 1 / 3)
    assert sum(report.proportions) == pytest.approx(1.0)
    assert report.corpus_metric == corpus_objective(lists, [0, 0, 3])
    table = report.format_table()
    assert "1-2" in table and "3-4" in table
    record = report.to_record()
    assert record["bin_counts"] == [2, 1]


def test_oracle_histogram_validation():
    with pytest.raises(InvalidInputError):
        oracle_histogram([])
    with pytest.raises(ConfigError):
        oracle_histogram([make_list(["a"], reference="a")], bin_width=0)


def test_token_prob_by_length_top1():
    half = math.log(0.5)
    lists = [
        make_list(["a b c"], log_probs=[-1.0]),
        make_list(["d e"], log_probs=[-1.0]),
    ]
    lists[0] = NBestList(
        source="s",
        candidates=(make_candidate("a b c", -1.0, token_log_probs=[half] * 3),),
    )
    lists[1] = NBestList(
        source="s",
        candidates=(make_candidate("d e", -1.0, token_log_probs=[0.0, half]),),
    )
    table = token_prob_by_length(lists, interval_width=10)
    assert len(table.rows) == 1
    row = table.rows[0]
    assert (row.lo, row.hi, row.count) == (1, 10, 2)
    assert row.mean_prob == pytest.approx((0.5 + 0.75) / 2)


def test_token_prob_by_length_buckets():
    def with_len(k):
        toks = ["w"] * k
        return NBestList(
            source="s",
            candidates=(
                make_candidate(" ".join(toks), -1.0, token_log_probs=[-0.5] * k),
            ),
        )

    table = token_prob_by_length([with_len(10), with_len(11), with_len(1)], interval_width=10)
    assert [(r.lo, r.hi, r.count) for r in table.rows] == [(1, 10, 2), (11, 20, 1)]


def test_token_prob_by_length_reference_mode():
    lst = NBestList(
        source="s",
        candidates=(make_candidate("a", -1.0),),
        reference="x y",
        reference_token_log_probs=(math.log(0.25), math.log(0.75)),
    )
    table = token_prob_by_length([lst], which="reference")
    assert table.rows[0].mean_prob == pytest.approx(0.5)
    assert table.which == "reference"


def test_token_prob_by_length_missing_fields():
    with pytest.raises(MissingScoreError, match="list 0"):
        token_prob_by_length([make_list(["a b"])])
    with pytest.raises(MissingScoreError):
        token_prob_by_length([make_list(["a b"])], which="reference")
    with pytest.raises(ConfigError):
        token_prob_by_length([make_list(["a b"])], which="best")
    with pytest.raises(ConfigError):
        token_prob_by_length([make_list(["a b"])], interval_width=0)


def _two_candidate_list(ref_text, junk_text, qe_good=1.0, qe_junk=0.0):
    cands = (
        make_candidate(junk_text, -0.1, external_scores={"qe": qe_junk}),
        make_candidate(ref_text, -0.2, external_scores={"qe": qe_good}),
    )
    return NBestList(source="s", candidates=cands, reference=ref_text)


def test_grid_search_picks_smallest_sufficient_weight():
    # consensus ties the two candidates, so any positive qe weight flips the
    # selection to the reference copy; ties prefer the smallest grid value
    lists = [
        _two_candidate_list("good words in here", "bad stuff out there"),
        _two_candidate_list("more good words too", "other bad stuff also"),
    ]
    config = RerankConfig(utility="bleu", lambdas={"qe": 0.0}, regularizers=("qe",))
    best, objective = grid_search_lambdas(lists, config, grid=(0.001, 0.01, 1.0))
    assert best == {"qe": 0.001}
    assert objective == 1.0


def test_grid_search_prefers_lexicographically_smallest_combo():
    # the objective is flat in both weights -> first enumerated combo wins
    lists = [_two_candidate_list("a b", "a b")]
    config = RerankConfig(
        utility="bleu", lambdas={"lp": 0.0, "qe": 0.0}, regularizers=("lp", "qe")
    )
    best, _ = grid_search_lambdas(lists, config, grid=(0.5, 0.1, 2.0))
    assert best == {"lp": 0.1, "qe": 0.1}


def test_grid_search_enumerates_grid_power_r(monkeypatch):
    lists = [_two_candidate_list("a b c", "x y z")]
    calls = []
    original = analysis._selection_objective

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(analysis, "_selection_objective", counting)

    config = RerankConfig(utility="bleu", lambdas={"qe": 0.0}, regularizers=("qe",))
    grid_search_lambdas(lists, config, grid=(0.1, 0.2, 0.3))
    assert len(calls) == 3

    calls.clear()
    config2 = RerankConfig(
        utility="bleu", lambdas={"lp": 0.0, "qe": 0.0}, regularizers=("lp", "qe")
    )
    grid_search_lambdas(lists, config2, grid=(0.1, 0.2, 0.3))
    assert len(calls) == 9


def test_grid_search_agrees_with_full_rerank():
    rng = np.random.default_rng(31)
    lists = [random_list(rng, 5, with_extras=True) for _ in range(4)]
    config = RerankConfig(
        utility="bleu", lambdas={"lp": 0.0, "qe": 0.0}, regularizers=("lp", "qe")
    )
    grid = (0.01, 0.5)
    best, objective = grid_search_lambdas(lists, config, grid=grid)
    # re-running the full pipeline at the winning weights reproduces the objective
    winning = RerankConfig(
        utility="bleu", lambdas=best, regularizers=("lp", "qe")
    )
    selections = [rerank(lst, winning).selected for lst in lists]
    assert corpus_objective(lists, selections) == objective


@pytest.mark.parametrize("metric", ["bleu", "chrf"])
def test_grid_objective_from_candidate_stats_is_exact(monkeypatch, metric):
    """Every grid point's objective, summed from per-candidate statistics,
    equals corpus_objective on the selections it induces, bit for bit."""
    rng = np.random.default_rng(34)
    lists = [random_list(rng, 6, with_extras=True) for _ in range(8)]
    seen = []
    original = analysis._selection_objective

    def recording(skeletons, lambdas, objective):
        value = original(skeletons, lambdas, objective)
        seen.append((lambdas, value))
        return value

    monkeypatch.setattr(analysis, "_selection_objective", recording)
    names = ("lp", "qe")
    config = RerankConfig(utility="bleu", lambdas={"lp": 0.0, "qe": 0.0}, regularizers=names)
    grid = (0.001, 0.01, 0.1, 1.0, 10.0)
    grid_search_lambdas(lists, config, grid=grid, objective_metric=metric)
    assert len(seen) == len(grid) ** 2
    for lambdas, value in seen:
        at_point = RerankConfig(utility="bleu", lambdas=lambdas, regularizers=names)
        selections = [rerank(lst, at_point).selected for lst in lists]
        assert value == corpus_objective(lists, selections, metric)


def test_tuners_accept_one_provider_per_list():
    rng = np.random.default_rng(35)
    lists = [random_list(rng, 4, with_extras=True) for _ in range(3)]
    matrices = [
        UtilityMatrix(values=rng.uniform(size=(4, 4)), utility_name="ext") for _ in lists
    ]
    per_list = [MatrixUtility(m) for m in matrices]
    config = RerankConfig(utility=per_list, lambdas={"qe": 0.0}, regularizers=("qe",))
    best, objective = grid_search_lambdas(lists, config, grid=(0.01, 1.0))
    selections = []
    for lst, provider in zip(lists, per_list):
        at_best = RerankConfig(utility=provider, lambdas=best, regularizers=("qe",))
        selections.append(rerank(lst, at_best).selected)
    assert objective == corpus_objective(lists, selections)

    _, _, curve = tune_l(lists, RerankConfig(utility=per_list))
    selections = [
        rerank(lst, RerankConfig(utility=p)).selected for lst, p in zip(lists, per_list)
    ]
    assert curve[-1] == corpus_objective(lists, selections)
    with pytest.raises(InvalidInputError):
        tune_l(lists, RerankConfig(utility=per_list[:2]))


def test_grid_search_requires_regularizers():
    with pytest.raises(ConfigError):
        grid_search_lambdas([make_list(["a"], reference="a")], RerankConfig())
    with pytest.raises(InvalidInputError):
        grid_search_lambdas([], RerankConfig(lambdas={"lp": 0.0}, regularizers=("lp",)))


def interior_peak_list(tag):
    """A list whose best truncation depth is strictly inside 1..n.

    Index 0 (beam top) is mediocre, 1-2 form a reference-matching cluster,
    3..9 are identical junk.  At l=1 the top-1 wins by self-similarity, at
    moderate l the cluster wins, at l=n the junk majority wins.
    """
    ref = f"r{tag}a r{tag}b r{tag}c r{tag}d r{tag}e r{tag}f r{tag}g r{tag}h"
    rt = ref.split()
    top1 = " ".join(rt[:2] + [f"x{tag}{i}" for i in range(6)])
    close1 = ref
    close2 = " ".join(rt[:7] + [f"y{tag}"])
    junk = " ".join(f"z{tag}{i}" for i in range(8))
    texts = [top1, close1, close2] + [junk] * 7
    return make_list(texts, reference=ref)


def test_tune_l_finds_interior_peak():
    lists = [interior_peak_list(t) for t in ("p", "q", "r")]
    config = RerankConfig(utility="bleu")
    best_l, best_objective, curve = tune_l(lists, config)
    assert len(curve) == 10
    assert 1 < best_l < 10
    assert curve[best_l - 1] == best_objective
    assert curve[-1] < best_objective  # full depth is strictly worse
    assert curve[0] < best_objective  # and so is l=1


def test_tune_l_full_depth_matches_direct_rerank():
    rng = np.random.default_rng(32)
    lists = [random_list(rng, 6) for _ in range(5)]
    config = RerankConfig(utility="bleu")
    _, _, curve = tune_l(lists, config)
    selections = [rerank(lst, config).selected for lst in lists]
    assert curve[-1] == corpus_objective(lists, selections)


def test_tune_l_respects_min_n_and_prefers_small_l():
    lists = [
        make_list(["a b c d", "a b c d", "a b c d"], reference="a b c d"),
        make_list(["a b c d", "a b c d"], reference="a b c d"),
    ]
    best_l, objective, curve = tune_l(lists, RerankConfig(utility="bleu"))
    assert len(curve) == 2  # min(n) over lists
    assert best_l == 1  # constant curve, smallest l wins
    assert objective == 1.0


def test_tune_l_rejects_coarse_to_fine():
    config = RerankConfig(
        utility="bleu", coarse_to_fine=CoarseToFine(proxy="bleu", keep=1)
    )
    with pytest.raises(ConfigError):
        tune_l([make_list(["a"], reference="a")], config)


def test_tune_l_uses_truncation_consistent_scores():
    """At every l the sweep must match a from-scratch depth-l rerank."""
    rng = np.random.default_rng(33)
    lists = [random_list(rng, 5) for _ in range(3)]
    config = RerankConfig(utility="bleu")
    for metric in ("bleu", "chrf"):
        _, _, curve = tune_l(lists, config, metric)
        for l in range(1, 6):
            cfg_l = RerankConfig(utility="bleu", l=l)
            selections = [rerank(lst, cfg_l).selected for lst in lists]
            assert curve[l - 1] == corpus_objective(lists, selections, metric)
