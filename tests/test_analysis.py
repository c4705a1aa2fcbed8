"""Oracle analysis, probability tables, and the two tuners."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

import rmbr.analysis as analysis
import rmbr.mbr as mbr
import rmbr.metrics as metrics
from rmbr.analysis import (
    check_tuning,
    corpus_objective,
    grid_search_lambdas,
    lambda_grid,
    oracle_histogram,
    oracle_select,
    token_prob_by_length,
    tune_l,
)
from rmbr.core import (
    CoarseToFine,
    NBestList,
    RerankConfig,
    UtilityMatrix,
    combine_scores,
    rank_candidates,
)
from rmbr.errors import (
    ConfigError,
    InvalidInputError,
    MissingScoreError,
    RmbrError,
    ScoringError,
)
from rmbr.io import write_utility_matrix
from rmbr.mbr import MatrixUtility, ServiceUtility, rerank
from rmbr.metrics import corpus_bleu, sentence_bleu, sentence_chrf

from conftest import Unscorable, make_candidate, make_list, random_list, trivial_list


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


class _NameAndMatrix:
    """A provider with a name and a matrix and nothing else: exact-match utility."""

    name = "plain"

    def matrix(self, nbest, l):
        refs = nbest.candidates[:l]
        return np.array([[float(c.text == r.text) for r in refs] for c in nbest.candidates])


def test_an_oracle_utility_that_cannot_score_against_a_reference_fails_before_any_score(
    tmp_path,
):
    lists = [make_list(["a b", "c d"], reference="a b") for _ in range(2)]
    path = tmp_path / "m.mat"
    write_utility_matrix(path, UtilityMatrix(values=np.ones((2, 2)), utility_name="ext"))
    stored = "^a precomputed utility matrix cannot score against new references$"
    unusable = MatrixUtility(UtilityMatrix(values=np.ones((2, 2)), utility_name="ext"))
    client = _CountingClient()
    # the usable provider comes first: nothing may be scored before the refusal
    with pytest.raises(ConfigError, match=stored):
        oracle_histogram(lists, utility=[ServiceUtility(client), unusable])
    with pytest.raises(ConfigError, match=stored):
        oracle_select(lists[0], unusable)
    assert client.calls == 0
    # a name and a matrix are all the oracle needs of any other provider
    dev = [make_list(["a b", "c d"], reference=ref) for ref in ("c d", "a b", "e f")]
    report = oracle_histogram(dev, utility=_NameAndMatrix(), bin_width=1)
    assert (report.indices, report.scores) == ((1, 0, 0), (1.0, 1.0, 0.0))
    assert oracle_select(dev[0], _NameAndMatrix()) == (1, 1.0)
    spec = f"matrix:{path}"
    for call in (lambda: oracle_histogram(lists, spec), lambda: oracle_select(lists[0], spec)):
        with pytest.raises(ConfigError, match=stored):
            call()


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
    with pytest.raises(InvalidInputError, match="^no lists$"):
        token_prob_by_length([])


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
    config = RerankConfig(utility="bleu", lambdas={"qe": 0.0})
    best, objective = grid_search_lambdas(lists, config, grid=(0.001, 0.01, 1.0))
    assert best == {"qe": 0.001}
    assert objective == 1.0


def test_grid_search_prefers_lexicographically_smallest_combo():
    # the objective is flat in both weights -> first enumerated combo wins
    lists = [_two_candidate_list("a b", "a b")]
    config = RerankConfig(utility="bleu", lambdas={"lp": 0.0, "qe": 0.0})
    best, _ = grid_search_lambdas(lists, config, grid=(0.5, 0.1, 2.0))
    assert best == {"lp": 0.1, "qe": 0.1}


def test_grid_search_enumerates_grid_power_r(monkeypatch):
    lists = [_two_candidate_list("a b c", "x y z")]
    tried = []
    original = analysis._grid_objectives

    def recording(scored, weights, objective):
        tried.append(weights.tolist())
        return original(scored, weights, objective)

    monkeypatch.setattr(analysis, "_grid_objectives", recording)

    grid = (0.1, 0.2, 0.3)
    config = RerankConfig(utility="bleu", lambdas={"qe": 0.0})
    grid_search_lambdas(lists, config, grid=grid)
    assert tried == [[[0.1], [0.2], [0.3]]]

    tried.clear()
    config2 = RerankConfig(utility="bleu", lambdas={"lp": 0.0, "qe": 0.0})
    grid_search_lambdas(lists, config2, grid=grid)
    # one pass over all 3^2 vectors, in the order the search breaks ties by
    assert tried == [[list(c) for c in itertools.product(grid, repeat=2)]]


def test_grid_search_agrees_with_full_rerank():
    rng = np.random.default_rng(31)
    lists = [random_list(rng, 5, with_extras=True) for _ in range(4)]
    config = RerankConfig(utility="bleu", lambdas={"lp": 0.0, "qe": 0.0})
    grid = (0.01, 0.5)
    best, objective = grid_search_lambdas(lists, config, grid=grid)
    # re-running the full pipeline at the winning weights reproduces the objective
    winning = RerankConfig(utility="bleu", lambdas=best)
    selections = [rerank(lst, winning).selected for lst in lists]
    assert corpus_objective(lists, selections) == objective


@pytest.mark.parametrize("metric", ["bleu", "chrf"])
def test_grid_objective_from_candidate_stats_is_exact(monkeypatch, metric):
    """Every grid point's objective, summed from per-candidate statistics,
    equals corpus_objective on the selections rerank makes, bit for bit,
    for several regularizer sets and grids with negative and zero weights."""
    rng = np.random.default_rng(34)
    lists = [random_list(rng, 6, with_extras=True) for _ in range(8)]
    seen = []
    original = analysis._grid_objectives

    def recording(scored, weights, objective):
        curve = original(scored, weights, objective)
        seen.extend(zip(weights.tolist(), curve))
        return curve

    monkeypatch.setattr(analysis, "_grid_objectives", recording)
    cases = [
        (("lp", "qe"), (0.001, 0.01, 0.1, 1.0, 10.0)),
        (("lm", "bt", "mc_dropout"), (-1.0, 0.0, 0.5)),
        (("entropy",), (-10.0, -0.1, 0.0, 3.0)),
    ]
    for names, grid in cases:
        seen.clear()
        config = RerankConfig(utility="bleu", lambdas=dict.fromkeys(names, 0.0))
        grid_search_lambdas(lists, config, grid=grid, objective_metric=metric)
        assert len(seen) == len(grid) ** len(names)
        for weights, value in seen:
            at_point = RerankConfig(utility="bleu", lambdas=dict(zip(names, weights)))
            selections = [rerank(lst, at_point).selected for lst in lists]
            assert value == corpus_objective(lists, selections, metric)


def test_grid_selections_match_combine_and_rank(monkeypatch):
    """The array pass picks what rank_candidates(combine_scores(...)) picks."""
    rng = np.random.default_rng(36)
    names = ("lp", "qe", "lm")
    grid = (-1.0, -0.5, 0.0, 0.5, 1.0)
    weights = analysis._weight_vectors(grid, len(names))
    # blocks of 7 vectors on n = 4: 125 vectors end in a part block
    monkeypatch.setattr(analysis, "_GRID_BLOCK_CELLS", 7 * 4)
    for _ in range(20):
        # few distinct values give exact ties and totals of +0.0 and -0.0;
        # integer values stand in for integer log_probs
        consensus = rng.choice([-0.0, 0.0, 0.5, -0.5], size=4).tolist()
        values = [rng.integers(-2, 3, size=4).tolist() for _ in names]
        regs = dict(zip(names, values))
        picks = analysis._grid_selections(consensus, values, weights)
        want = [
            rank_candidates(combine_scores(consensus, regs, dict(zip(names, w))))[1]
            for w in weights.tolist()
        ]
        assert picks.tolist() == want
    # regularizers add in order: (1 - 1) + 2**-53 is 2**-53, (1 + 2**-53) - 1 is 0.0
    consensus, values = [0.0, 1.0], [[0, -1], [0, 2.0**-53]]
    lambdas = {"lm": 1.0, "qe": 1.0}
    want = rank_candidates(combine_scores(consensus, dict(zip(lambdas, values)), lambdas))[1]
    assert want == 1
    assert analysis._grid_selections(consensus, values, np.ones((1, 2))).tolist() == [want]
    # -0.0 and +0.0 tie, so the lower index wins either way round
    no_weights = np.zeros((1, 0))
    assert analysis._grid_selections([-0.0, 0.0], [], no_weights).tolist() == [0]
    assert analysis._grid_selections([0.0, -0.0], [], no_weights).tolist() == [0]


def _external_list(names, values):
    """Candidates carrying external scores: ``values[k][i]`` is candidate i's ``names[k]``."""
    texts = [f"t{i}" for i in range(len(values[0]) if values else 1)]
    cands = tuple(
        make_candidate(t, 0.0, external_scores={m: v[i] for m, v in zip(names, values)})
        for i, t in enumerate(texts)
    )
    return NBestList("s", cands)


# weight 10 makes candidate 0's total inf - inf = nan, weight -10 makes it -inf
@pytest.mark.parametrize("weight", [10.0, -10.0])
def test_checked_values_rejects_non_finite_totals_as_ranking_does(weight):
    consensus, values = [0.0, 0.0], [[1e308, 0.0], [-1e308, 1.0]]
    regs = {"lm": values[0], "qe": values[1]}
    lambdas = {"lm": weight, "qe": 10.0}
    weights = np.array([[0.0, 0.0], [weight, 10.0]])
    nbest = _external_list(("lm", "qe"), values)
    calls = [
        lambda: rank_candidates(combine_scores(consensus, regs, lambdas)),
        lambda: mbr.checked_values(nbest, Unscorable(), 2, ("lm", "qe"), weights),
    ]
    for call in calls:
        with pytest.raises(InvalidInputError, match="^total scores must be finite$"):
            call()
    # after scoring, the same totals are a scoring failure
    with pytest.raises(ScoringError, match="scores are not finite"):
        analysis._grid_selections(consensus, values, weights)


def test_checked_values_raises_exactly_when_some_vector_cannot_be_ranked():
    """Brute force over random product grids: the check's two extreme vectors
    per candidate stand for every vector the grid holds."""
    rng = np.random.default_rng(41)
    pool = [1e308, -1e308, 1.7e308, -1.7e308, 0.0, -0.0, 5e-324, -5e-324, 1.0]
    weight_pool = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]
    outcomes = []
    for _ in range(1500):
        n, r = int(rng.integers(1, 4)), int(rng.integers(0, 4))
        names = ("lm", "bt", "qe")[:r]
        values = [rng.choice(pool, size=n).tolist() for _ in names]
        stored = MatrixUtility(UtilityMatrix(rng.choice(pool, size=(n, 1)), utility_name="ext"))
        nbest = _external_list(names, values) if r else trivial_list(n)
        grid = sorted(rng.choice(weight_pool, size=int(rng.integers(1, 4)), replace=False))
        weights = analysis._weight_vectors(grid, r) if r else np.zeros((1, 0))
        consensus = mbr.expected_utilities(stored.matrix(nbest, 1), 1)
        regs = dict(zip(names, values))
        unrankable = False
        for w in weights.tolist():
            try:
                rank_candidates(combine_scores(consensus, regs, dict(zip(names, w))))
            except InvalidInputError:
                unrankable = True
        try:
            checked, regs = mbr.checked_values(nbest, stored, 1, names, weights)
        except InvalidInputError:
            raised = True
        else:
            raised = False
            assert checked.tolist() == [consensus]
            assert regs == values
        assert raised == unrankable
        outcomes.append(raised)
    assert 300 < sum(outcomes) < 1200


def test_check_tuning_raises_exactly_when_some_vector_cannot_be_ranked_at_some_depth():
    """Brute force over random lists, stored matrices or none, and grids or
    depth sweeps: the check takes only a grid's two extreme vectors and each
    candidate's extreme consensus over the depths, and raises exactly when
    some vector the run tries gives a list totals that do not rank at some
    depth it ranks."""
    rng = np.random.default_rng(43)
    pool = [1e308, -1e308, 1.7e308, -1.7e308, 0.0, -0.0, 5e-324, -5e-324, 1.0]
    weight_pool = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]
    outcomes = []
    for case in range(1500):
        n, r = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        names = ("lm", "bt", "qe")[:r]
        lists = []
        for _ in range(int(rng.integers(1, 3))):
            values = [rng.choice(pool, size=n).tolist() for _ in names]
            lists.append(replace(_external_list(names, values), reference="t0"))
        stored = None
        if rng.integers(2):
            stored = [
                MatrixUtility(UtilityMatrix(rng.choice(pool, size=(n, n)), utility_name="ext"))
                for _ in lists
            ]
        weights = rng.choice(weight_pool, size=int(rng.integers(1, 4)), replace=False).tolist()
        grid, depths = (weights, [n]) if case % 2 else (None, range(1, n + 1))
        vectors = analysis._weight_vectors(lambda_grid(weights), r).tolist()
        if grid is None:
            vectors = [weights[:1] * r]
        unrankable = False
        for i, lst in enumerate(lists):
            regs = {name: mbr.regularizer_values(lst, name) for name in names}
            for d, w in itertools.product(depths, vectors):
                consensus = [0.0] * n
                if stored is not None:
                    consensus = mbr.expected_utilities(stored[i].matrix(lst, n), d)
                try:
                    rank_candidates(combine_scores(consensus, regs, dict(zip(names, w))))
                except InvalidInputError:
                    unrankable = True
        config = RerankConfig(
            utility=Unscorable() if stored is None else stored,
            lambdas=dict(zip(names, vectors[0])),
        )
        try:
            check_tuning(lists, config, grid)
        except InvalidInputError:
            raised = True
        else:
            raised = False
        assert raised == unrankable
        outcomes.append(raised)
    assert 300 < sum(outcomes) < 1200


def test_the_sweep_check_fails_a_depth_whose_consensus_is_nan():
    """numpy's pairwise sum of candidate 0's first 8 values is (inf) + (-inf),
    so its depth-8 consensus is nan while depths 1-7 are finite: the sweep's
    check fails it, as ranking that depth would, and warns nothing."""
    values = np.zeros((8, 8))
    values[0] = [-1e308, 0.0, 1e308, 1e308, 0.0, -1e308, -1e308, -1e308]
    consensus = mbr.consensus_rows(values, 8, range(1, 9))[:, 0]
    assert np.isnan(consensus[-1]) and np.isfinite(consensus[:-1]).all()
    config = RerankConfig(utility=MatrixUtility(UtilityMatrix(values, utility_name="ext")))
    with pytest.raises(InvalidInputError, match="^list 0: total scores must be finite$"):
        check_tuning([trivial_list(8, reference="t0")], config)


def test_tuners_read_each_list_s_regularizer_values_once(monkeypatch):
    rng = np.random.default_rng(42)
    lists = [random_list(rng, 4, with_extras=True) for _ in range(3)]
    calls = []
    values = mbr.regularizer_values
    monkeypatch.setattr(
        mbr, "regularizer_values", lambda lst, name: calls.append(name) or values(lst, name)
    )
    grid_search_lambdas(lists, RerankConfig(lambdas={"lp": 0.0, "qe": 0.0}), grid=[0.1, 1.0])
    assert sorted(calls) == ["lp"] * 3 + ["qe"] * 3
    calls.clear()
    tune_l(lists, RerankConfig(lambdas={"qe": 0.5}))
    assert calls == ["qe"] * 3


@pytest.mark.parametrize("metric", ["bleu", "chrf"])
def test_tuners_count_each_list_s_objective_in_one_kernel_call(monkeypatch, metric):
    """A list's candidates share one encode of its reference: the objective
    statistics cost one kernel call per list, over n + 1 items at l = 1."""
    rng = np.random.default_rng(43)
    lists = [random_list(rng, n) for n in (5, 7, 6)]
    calls = []
    counter = metrics.pair_match_counts
    monkeypatch.setattr(
        metrics, "pair_match_counts", lambda c, n, l: calls.append((len(n), l)) or counter(c, n, l)
    )
    tune_l(lists, RerankConfig(utility="bleu"), objective_metric=metric)
    assert calls == [(lst.n + 1, 1) for lst in lists]


def test_tuners_accept_one_provider_per_list():
    rng = np.random.default_rng(35)
    lists = [random_list(rng, 4, with_extras=True) for _ in range(3)]
    matrices = [
        UtilityMatrix(values=rng.uniform(size=(4, 4)), utility_name="ext") for _ in lists
    ]
    per_list = [MatrixUtility(m) for m in matrices]
    config = RerankConfig(utility=per_list, lambdas={"qe": 0.0})
    best, objective = grid_search_lambdas(lists, config, grid=(0.01, 1.0))
    selections = []
    for lst, provider in zip(lists, per_list):
        at_best = RerankConfig(utility=provider, lambdas=best)
        selections.append(rerank(lst, at_best).selected)
    assert objective == corpus_objective(lists, selections)

    _, _, curve = tune_l(lists, RerankConfig(utility=per_list))
    selections = [
        rerank(lst, RerankConfig(utility=p)).selected for lst, p in zip(lists, per_list)
    ]
    assert curve[-1] == corpus_objective(lists, selections)
    with pytest.raises(InvalidInputError):
        tune_l(lists, RerankConfig(utility=per_list[:2]))


def test_tuners_rank_with_the_consensus_their_check_took_from_a_stored_matrix(monkeypatch):
    """Each list's stored matrix is read once, by the check, whose consensus
    rows the tuner ranks; every depth of the sweep still selects what a
    depth-l rerank selects."""
    rng = np.random.default_rng(36)
    lists = [random_list(rng, 5, with_extras=True) for _ in range(3)]
    per_list = [
        MatrixUtility(UtilityMatrix(values=rng.uniform(size=(5, 5)), utility_name="ext"))
        for _ in lists
    ]
    reads = []
    matrix = MatrixUtility.matrix
    monkeypatch.setattr(
        MatrixUtility, "matrix", lambda self, *a: reads.append(self) or matrix(self, *a)
    )
    for metric in ("bleu", "chrf"):
        reads.clear()
        _, _, curve = tune_l(lists, RerankConfig(utility=per_list, lambdas={"qe": 0.5}), metric)
        assert reads == per_list
        for l in range(1, 6):
            config = RerankConfig(utility=per_list, l=l, lambdas={"qe": 0.5})
            selections = [
                rerank(lst, replace(config, utility=p)).selected
                for lst, p in zip(lists, per_list)
            ]
            assert curve[l - 1] == corpus_objective(lists, selections, metric)
    reads.clear()
    grid_search_lambdas(lists, RerankConfig(utility=per_list, lambdas={"qe": 0.0}), grid=[1.0])
    assert reads == per_list


def test_lambda_grid_is_sorted_distinct_and_finite():
    assert lambda_grid([1.0, 0.1, 1, np.float64(0.5)]) == [0.1, 0.5, 1.0]
    for bad in ([], [0.1, math.nan], [math.inf], [1.0, "0.5"], [True]):
        with pytest.raises(ConfigError):
            lambda_grid(bad)


def _scored_list(**scores):
    cands = tuple(
        make_candidate(t, -1.0 - i, external_scores=scores) for i, t in enumerate(["a b", "a c"])
    )
    return NBestList("s", cands, reference="a b")


def test_lambda_grid_check_ranks_vectors_only_when_the_worst_case_overflows():
    lists = [_scored_list(qe=1e308, lm=-1e308)]
    config = RerankConfig(lambdas={"qe": 0.0, "lm": 0.0})
    # worst case 2e308 overflows, but the one vector (1, 1) gives totals of 0
    check_tuning(lists, config, [1.0])
    assert grid_search_lambdas(lists, config, grid=[1.0])[0] == {"qe": 1.0, "lm": 1.0}
    # (-1, 1) gives -inf, though the signed sum at the largest weight is 0;
    # both raise before anything is scored
    for check in (check_tuning, grid_search_lambdas):
        with pytest.raises(InvalidInputError, match="total scores must be finite"):
            check(lists, replace(config, utility=Unscorable()), [-1.0, 1.0])


def test_lambda_grid_check_bounds_a_stored_matrix_consensus_by_its_size():
    # consensus -5e307 on candidate 0: qe weight 1 gives 1e308, weight -1 gives -inf
    stored = UtilityMatrix(values=[[-1e308, 0.0], [0.0, 0.0]], utility_name="ext")
    config = RerankConfig(utility=MatrixUtility(stored), lambdas={"qe": 0.0})
    lists = [_scored_list(qe=1.5e308)]
    check_tuning(lists, config, [1.0])
    with pytest.raises(InvalidInputError, match="total scores must be finite"):
        check_tuning(lists, config, [-1.0, 1.0])


def test_lambda_grid_check_resolves_a_stored_matrix_spec(tmp_path, monkeypatch):
    path = tmp_path / "big.mat"
    big = UtilityMatrix(values=[[1.5e308, 1.5e308], [0.0, 0.0]], utility_name="ext")
    write_utility_matrix(path, big)
    lists = [_scored_list(qe=0.0)]
    config = RerankConfig(utility=f"matrix:{path}", lambdas={"qe": 0.0})
    with pytest.raises(InvalidInputError, match="^list 0: total scores must be finite$"):
        check_tuning(lists, config, [1.0])
    # one read per call, shared by the grid check and the scoring pass
    write_utility_matrix(path, UtilityMatrix(values=np.eye(2), utility_name="ext"))
    reads = []
    load = mbr.load_utility_matrices
    monkeypatch.setattr(mbr, "load_utility_matrices", lambda p: reads.append(p) or load(p))
    assert grid_search_lambdas(lists, config, grid=[1.0])[0] == {"qe": 1.0}
    assert reads == [str(path)]


def test_grid_search_requires_regularizers():
    with pytest.raises(ConfigError):
        grid_search_lambdas([make_list(["a"], reference="a")], RerankConfig())
    with pytest.raises(InvalidInputError):
        grid_search_lambdas([], RerankConfig(lambdas={"lp": 0.0}))


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


def test_grid_search_rejects_coarse_to_fine():
    config = RerankConfig(
        utility=_NoCalls(), lambdas={"lp": 0.0}, coarse_to_fine=CoarseToFine(_NoCalls(), 1)
    )
    with pytest.raises(ConfigError, match="one stage"):
        grid_search_lambdas([make_list(["a b", "c d"], reference="a b")], config)


def test_tune_l_rejects_a_fixed_l():
    with pytest.raises(ConfigError, match="sets l itself"):
        tune_l([make_list(["a b", "c d"], reference="a b")], RerankConfig(l=1))


class _NoCalls:
    """A provider that fails the test if any utility is evaluated."""

    name = "none"

    def matrix(self, nbest, l):
        raise AssertionError("utility evaluated")


@pytest.mark.parametrize("reference", [None, "", " \t "])
def test_reference_check_comes_before_utility_work(reference):
    lists = [make_list(["a b", "c d"], reference="a b"), make_list(["e f"], reference=reference)]
    config = RerankConfig(utility=_NoCalls(), lambdas={"lp": 0.0})
    calls = [
        lambda: grid_search_lambdas(lists, config),
        lambda: tune_l(lists, RerankConfig(utility=_NoCalls())),
        lambda: oracle_histogram(lists, utility=_NoCalls()),
    ]
    for call in calls:
        with pytest.raises(InvalidInputError, match="^list 1: no reference$"):
            call()
    with pytest.raises(ConfigError, match="finite"):
        grid_search_lambdas(lists[:1], config, grid=(0.1, math.nan))


def _raised(call, *args):
    """The class and message of the rmbr error ``call(*args)`` raises, or None if it returns."""
    try:
        call(*args)
    except RmbrError as e:
        return type(e), str(e)
    return None


_DEV = (
    make_list(["a b", "c d"], [-1.0, -2.0], reference="a b"),
    make_list(["e f", "e g"], reference="e f"),
)
_NO_LISTS = (InvalidInputError, "no lists")
_NO_REFERENCE = (InvalidInputError, "list 1: no reference")
_OVERFLOW = (InvalidInputError, "list 0: total scores must be finite")
_METRICS = ("bleu", "chrf")

# name: (lists, lambdas, grid, metric, coarse_to_fine, what both calls raise)
_TUNING_DEFECTS = {
    "no-lists": ([], {"lp": 0.0}, [0.5], "bleu", None, _NO_LISTS),
    "missing-reference": (
        [_DEV[0], replace(_DEV[1], reference=None)], {"lp": 0.0}, [0.5], "chrf", None,
        _NO_REFERENCE,
    ),
    "blank-reference": (
        [_DEV[0], replace(_DEV[1], reference=" \t ")], {"lp": 0.0}, [0.5], "bleu", None,
        _NO_REFERENCE,
    ),
    "unknown-metric": (
        _DEV, {"lp": 0.0}, [0.5], "ter", None,
        (ConfigError, f"metric must be one of {_METRICS}, got 'ter'"),
    ),
    "empty-grid": (_DEV, {"lp": 0.0}, [], "bleu", None, (ConfigError, "empty weight grid")),
    "non-finite-weight": (
        _DEV, {"lp": 0.0}, [0.5, math.inf], "bleu", None,
        (ConfigError, "weight grid values must be finite, got [0.5, inf]"),
    ),
    "overflowing-weight": (_DEV, {"lp": 1e308}, [1e308], "bleu", None, _OVERFLOW),
    "coarse-to-fine": (
        _DEV, {"lp": 0.0}, [0.5], "bleu", CoarseToFine("bleu", 9),
        (ConfigError, "tuning reranks in one stage; coarse_to_fine must be None"),
    ),
}


@pytest.mark.parametrize(
    "tuner, defect",
    [
        (tuner, defect)
        for defect in sorted(_TUNING_DEFECTS)
        for tuner in ("grid_search_lambdas", "tune_l")
        if tuner == "grid_search_lambdas" or defect not in ("empty-grid", "non-finite-weight")
    ],
)
def test_check_tuning_raises_exactly_what_its_tuning_run_raises(tuner, defect):
    """The library check and the run it checks fail one way, with nothing
    scored: the provider fails the test on its first score.  The sweep
    takes no grid, so it has no grid defects."""
    lists, lambdas, grid, metric, stages, want = _TUNING_DEFECTS[defect]
    config = RerankConfig(utility=Unscorable(), lambdas=lambdas, coarse_to_fine=stages)
    if tuner == "tune_l":
        grid, run = None, (tune_l, lists, config, metric)
    else:
        run = (grid_search_lambdas, lists, config, grid, metric)
    assert _raised(check_tuning, lists, config, grid, metric) == want
    assert _raised(*run) == want


# name: (lists, lambdas, coarse_to_fine, what both calls raise, or None)
_RERANKING_DEFECTS = {
    "no-lists": ([], {"lp": 0.0}, None, None),
    "keep-too-large": (
        _DEV, {}, CoarseToFine(Unscorable(), 3),
        (InvalidInputError, "list 0: keep=3 exceeds list size 2"),
    ),
    "overflowing-weight": (_DEV, {"lp": 1e308}, None, _OVERFLOW),
    "missing-field": (
        _DEV, {"qe": 1.0}, None,
        (MissingScoreError, "list 0: candidate 0 has no external score 'qe'"),
    ),
}


@pytest.mark.parametrize("defect", sorted(_RERANKING_DEFECTS))
def test_check_reranking_raises_exactly_what_rerank_lists_raises(defect):
    lists, lambdas, stages, want = _RERANKING_DEFECTS[defect]
    config = RerankConfig(utility=Unscorable(), lambdas=lambdas, coarse_to_fine=stages)
    assert _raised(mbr.check_reranking, lists, config) == want
    assert _raised(mbr.rerank_lists, lists, config) == want


@pytest.mark.parametrize("metric", _METRICS)
def test_the_objective_of_no_lists_is_invalid_input(metric):
    with pytest.raises(InvalidInputError, match="^no lists$"):
        corpus_objective([], [], metric)


@pytest.mark.parametrize("utility", ["bleu", "chrf", "service"])
def test_a_blank_reference_fails_the_oracle_the_same_way_for_every_provider(utility):
    client = _CountingClient()
    provider = ServiceUtility(client) if utility == "service" else utility
    lst = make_list(["a b", "c d"], reference="   ")
    for call in (lambda: oracle_select(lst, provider), lambda: oracle_histogram([lst], provider)):
        with pytest.raises(InvalidInputError, match="^list 0: no reference$"):
            call()
    assert client.calls == 0


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
