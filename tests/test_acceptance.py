"""Acceptance gate: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.  Every criterion is checked at its stated tolerance; most
are exact.
"""

import functools
import json
import math
import time

import numpy as np
import pytest

from rmbr.analysis import oracle_select, tune_l
from rmbr.cli import main as cli_main
from rmbr.core import (
    CoarseToFine,
    NBestList,
    RerankConfig,
    UtilityMatrix,
    combine_scores,
    rank_candidates,
)
from rmbr.io import (
    ScorerClient,
    load_nbest,
    load_utility_matrices,
    read_results,
    write_nbest,
    write_utility_matrices,
)
from rmbr.mbr import (
    MatrixUtility,
    build_utility_matrix,
    mbr_scores,
    regularizer_values,
    rerank,
    token_entropy,
)
from rmbr.metrics import corpus_bleu, sentence_bleu, sentence_chrf

from conftest import (
    length_score,
    make_candidate,
    random_list,
    reversed_batches,
    trivial_list,
)


def criterion(number, description):
    """Prints the per-criterion verdict line the release checklist reads."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL: {description}")
                raise
            print(f"ACCEPTANCE {number} PASS: {description}")

        return wrapper

    return decorate


def grid_matrix(rng, n):
    """Random utilities on a 1/64 grid: sums of <= 8 of them are exact in
    float64 under any summation order, so independent implementations must
    agree to the bit."""
    values = rng.integers(0, 65, size=(n, n)).astype(np.float64) / 64.0
    return UtilityMatrix(values=values, utility_name="grid")


@criterion(1, "truncated expected-utility argmax matches exhaustive double loop")
def test_selection_matches_exhaustive_argmax():
    rng = np.random.default_rng(100)
    started = time.monotonic()
    for _ in range(200):
        n = int(rng.integers(2, 9))
        matrix = grid_matrix(rng, n)
        lst = trivial_list(n)
        for l in range(1, n + 1):
            result = rerank(lst, RerankConfig(utility=MatrixUtility(matrix), l=l))
            best, best_score = 0, None
            for i in range(n):
                score = 0.0
                for j in range(l):
                    score += float(matrix.values[i, j])
                score /= l
                if best_score is None or score > best_score:
                    best, best_score = i, score
            assert result.selected == best
    assert time.monotonic() - started < 5.0


@criterion(2, "zero weights reduce to pure MBR; constant shifts never change the ranking")
def test_weight_invariances():
    rng = np.random.default_rng(101)
    for _ in range(100):
        lst = random_list(rng, int(rng.integers(2, 9)), with_extras=True)
        names = ("lp", "qe", "mc_dropout")
        zeroed = RerankConfig(utility="bleu", lambdas={n: 0.0 for n in names})
        pure = RerankConfig(utility="bleu")
        assert rerank(lst, zeroed).selected == rerank(lst, pure).selected

        consensus = mbr_scores(build_utility_matrix(lst, "bleu", lst.n))
        regs = {n: regularizer_values(lst, n) for n in names}
        lambdas = {n: float(rng.uniform(0.1, 2.0)) for n in names}
        base_ranking, _ = rank_candidates(combine_scores(consensus, regs, lambdas))
        shift_name = names[int(rng.integers(len(names)))]
        c = float(rng.uniform(-5.0, 5.0))
        shifted = dict(regs)
        shifted[shift_name] = [v + c for v in regs[shift_name]]
        shifted_ranking, _ = rank_candidates(combine_scores(consensus, shifted, lambdas))
        assert shifted_ranking == base_ranking


@criterion(3, "metric identities hold and hand-derived goldens match to 1e-9")
def test_metric_identities_and_goldens():
    for text in ("a", "xy z", "the cat sat on the mat"):
        toks = text.split()
        assert sentence_bleu(toks, toks) == 1.0
        assert sentence_chrf(text, text) == 1.0
    from rmbr.metrics import MetricConfig

    no_smooth = MetricConfig(bleu_smoothing="none")
    assert sentence_bleu(["a", "b"], ["c", "d"], no_smooth) == 0.0
    assert sentence_chrf("abcd", "wxyz") == 0.0

    got = sentence_bleu(["the", "the", "the"], ["the", "cat"])
    assert got == pytest.approx(0.11856311014966876, abs=1e-9)
    assert sentence_chrf("abc", "abd") == pytest.approx(0.38888888888888884, abs=1e-9)
    h1 = ["the", "black", "cat", "sat", "down"]
    h2 = ["a", "b", "c", "d", "e"]
    r2 = ["a", "b", "c", "d", "x"]
    got = corpus_bleu([h1, h2], [list(h1), r2])
    assert got == pytest.approx(0.837592239708627, abs=1e-9)


@criterion(4, "pair-evaluation counts are n*l direct and n^2+k^2 coarse-to-fine")
def test_utility_call_counts():
    rng = np.random.default_rng(102)
    lst = random_list(rng, 30)
    assert rerank(lst, RerankConfig(utility="bleu", l=21)).utility_calls == 630
    assert rerank(lst, RerankConfig(utility="bleu", l=3)).utility_calls == 90
    staged = RerankConfig(
        utility="chrf", coarse_to_fine=CoarseToFine(proxy="bleu", keep=15)
    )
    assert rerank(lst, staged).utility_calls == 30 * 30 + 15 * 15


@criterion(5, "coarse-to-fine degenerates to direct selection at k=n and proxy argmax at k=1")
def test_coarse_to_fine_degeneracies():
    rng = np.random.default_rng(103)
    for _ in range(50):
        lst = random_list(rng, int(rng.integers(2, 11)))
        full = RerankConfig(
            utility="chrf", coarse_to_fine=CoarseToFine(proxy="bleu", keep=lst.n)
        )
        assert rerank(lst, full).selected == rerank(lst, RerankConfig(utility="chrf")).selected
        narrow = RerankConfig(
            utility="chrf", coarse_to_fine=CoarseToFine(proxy="bleu", keep=1)
        )
        assert rerank(lst, narrow).selected == rerank(lst, RerankConfig(utility="bleu")).selected


@criterion(6, "entropy bounds and MC-dropout averaging hold at stated tolerances")
def test_uncertainty_math():
    rng = np.random.default_rng(104)
    for _ in range(1000):
        v = int(rng.integers(2, 51))
        p = rng.uniform(0.01, 1.0, size=v)
        p /= p.sum()
        h = token_entropy(p)
        assert 0.0 <= h <= math.log(v)
    for v in (2, 7, 50):
        h = token_entropy(np.full(v, 1.0 / v))
        assert abs(h - math.log(v)) <= 1e-9
    assert token_entropy([1.0, 0.0, 0.0]) == 0.0
    for _ in range(100):
        passes = [float(x) for x in rng.uniform(0.0, 5.0, size=int(rng.integers(1, 9)))]
        lst = NBestList(
            source="s",
            candidates=(make_candidate("a b", -1.0, mc_pass_scores=passes),),
        )
        value = regularizer_values(lst, "mc_dropout")[0]
        assert abs(value + float(np.mean(passes))) <= 1e-12


@criterion(7, "oracle selection dominates every reranker configuration")
def test_oracle_dominance():
    rng = np.random.default_rng(105)
    configs = [
        RerankConfig(utility="bleu"),
        RerankConfig(utility="bleu", l=1),
        RerankConfig(utility="bleu", l=2),
        RerankConfig(utility="chrf"),
        RerankConfig(utility="bleu", lambdas={"lp": 1.0}),
        RerankConfig(utility="bleu", coarse_to_fine=CoarseToFine(proxy="chrf", keep=2)),
    ]
    for _ in range(100):
        lst = random_list(rng, int(rng.integers(2, 9)))
        _, oracle_score = oracle_select(lst)
        ref = tuple(lst.reference.split())
        for config in configs:
            picked = rerank(lst, config).selected
            assert oracle_score >= sentence_bleu(lst.candidates[picked].tokens, ref)


def consensus_corpus(num_lists=100):
    """Lists where the beam top is a high-probability outlier and a planted
    reference copy sits inside a paraphrase cluster."""
    lists = []
    for k in range(num_lists):
        ref_tokens = [f"s{k}t{t}" for t in range(8)]
        junk = " ".join(f"junk{k}x{t}" for t in range(8))
        planted = " ".join(ref_tokens)
        cands = [make_candidate(junk, -0.1), make_candidate(planted, -0.5)]
        for p in range(6):
            toks = list(ref_tokens)
            toks[1 + p] = f"alt{k}p{p}"
            cands.append(make_candidate(" ".join(toks), -0.6 - 0.1 * p))
        lists.append(
            NBestList(source=f"src {k}", candidates=tuple(cands), reference=planted)
        )
    return lists


@criterion(8, "consensus reranking recovers planted candidates and beats top-1 corpus BLEU")
def test_consensus_recovery():
    started = time.monotonic()
    lists = consensus_corpus(100)
    config = RerankConfig(utility="bleu")
    selections = [rerank(lst, config).selected for lst in lists]
    recovered = sum(1 for s in selections if s == 1)
    assert recovered >= 95

    refs = [lst.reference.split() for lst in lists]
    mbr_hyps = [list(lst.candidates[s].tokens) for lst, s in zip(lists, selections)]
    top1_hyps = [list(lst.candidates[0].tokens) for lst in lists]
    assert corpus_bleu(mbr_hyps, refs) > corpus_bleu(top1_hyps, refs)
    assert time.monotonic() - started < 30.0


def tail_cluster_list(tag):
    """Beam with a mediocre top-1, a reference-like pair, and a mutually
    similar junk tail; its utility-vs-depth curve rises then falls."""
    ref = " ".join(f"r{tag}{t}" for t in range(8))
    rt = ref.split()
    top1 = " ".join(rt[:2] + [f"x{tag}{i}" for i in range(6)])
    close = " ".join(rt[:7] + [f"y{tag}"])
    junk = " ".join(f"z{tag}{i}" for i in range(8))
    texts = [top1, ref, close] + [junk] * 7
    cands = tuple(
        make_candidate(t, -0.1 * (i + 1)) for i, t in enumerate(texts)
    )
    return NBestList(source="s", candidates=cands, reference=ref)


@criterion(9, "truncation sweep finds an interior optimum, full depth strictly worse")
def test_truncation_interior_optimum():
    lists = [tail_cluster_list(t) for t in ("a", "b", "c")]
    best_l, best_objective, curve = tune_l(lists, RerankConfig(utility="bleu"))
    assert 1 < best_l < 10
    assert curve[-1] < best_objective


@criterion(10, "thread count never changes output bytes")
def test_thread_determinism(tmp_path):
    rng = np.random.default_rng(106)
    suite = consensus_corpus(20) + [random_list(rng, 8, with_extras=True) for _ in range(20)]
    nbest = tmp_path / "suite.jsonl"
    write_nbest(nbest, suite)
    jobs = [
        ["rerank", "--mode", "text"],
        ["rerank", "--mode", "full", "--lambda", "lp=0.1"],
        ["c2f", "--keep", "4", "--mode", "full"],
    ]
    for j, extra in enumerate(jobs):
        outputs = []
        for threads in ("1", "8"):
            out = tmp_path / f"out{j}.t{threads}"
            argv = extra + ["-i", str(nbest), "-o", str(out), "--threads", threads]
            assert cli_main(argv) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


@criterion(11, "files round-trip exactly and the scorer client realigns responses")
def test_round_trips_and_realignment(tmp_path, scorer_server):
    rng = np.random.default_rng(107)
    lists = [random_list(rng, 5, with_extras=True) for _ in range(4)]
    nbest = tmp_path / "rt.jsonl"
    write_nbest(nbest, lists)
    loaded = load_nbest(nbest)
    assert loaded == lists

    matrices = [
        UtilityMatrix(values=rng.uniform(size=(5, 3)), utility_name="m") for _ in range(4)
    ]
    mat_path = tmp_path / "rt.mat"
    write_utility_matrices(mat_path, matrices)
    for got, want in zip(load_utility_matrices(mat_path), matrices):
        assert got.values.tobytes() == want.values.tobytes()

    results = [rerank(lst, RerankConfig(utility="bleu")) for lst in lists]
    res_path = tmp_path / "rt.results"
    from rmbr.io import write_results

    write_results(res_path, results, lists, mode="full")
    assert read_results(res_path) == results

    server = scorer_server(length_score, reorder=reversed_batches(5))
    client = ScorerClient.connect_tcp("127.0.0.1", server.port)
    try:
        pairs = [("s", f"hyp {i} {'pad' * (i % 4)}", "hyp 0 ref") for i in range(10)]
        scores = client.score_pairs(pairs)
    finally:
        client.close()

    def expect(hyp, ref):
        if hyp == ref:
            return 1.0
        return 1.0 / (2 + abs(len(hyp) - len(ref)) + len(hyp) % 3)

    assert scores == [expect(h, r) for _, h, r in pairs]
