"""Expected-utility scoring, regularizers, reranking, and coarse-to-fine."""

import math

import numpy as np
import pytest

from rmbr.core import (
    CoarseToFine,
    NBestList,
    RerankConfig,
    UtilityMatrix,
    rank_candidates,
)
from rmbr.errors import (
    ConfigError,
    DimensionError,
    InvalidInputError,
    MissingScoreError,
)
from rmbr.mbr import (
    BleuUtility,
    ChrfUtility,
    MatrixUtility,
    ServiceUtility,
    build_utility_matrix,
    coarse_to_fine,
    expected_utilities,
    make_utility,
    mbr_scores,
    regularizer_values,
    rerank,
    token_entropy,
)
from rmbr.metrics import sentence_bleu

from conftest import make_candidate, make_list, random_list, random_matrix, trivial_list


def test_mbr_scores_worked_example():
    m = UtilityMatrix(
        values=np.array([[1.0, 0.2], [0.2, 1.0], [0.9, 0.1]]), utility_name="toy"
    )
    assert mbr_scores(m) == [0.6, 0.6, 0.5]


def test_mbr_scores_include_the_diagonal():
    m = UtilityMatrix(values=np.array([[1.0], [0.0]]), utility_name="toy")
    assert mbr_scores(m) == [1.0, 0.0]


def test_truncated_scores_match_truncated_matrix_exactly():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        values = rng.uniform(size=(n, n))
        for l in range(1, n + 1):
            direct = mbr_scores(UtilityMatrix(values=values[:, :l], utility_name="x"))
            sliced = expected_utilities(values, l)
            assert direct == sliced


def test_build_utility_matrix_validates_l():
    lst = trivial_list(3)
    with pytest.raises(InvalidInputError):
        build_utility_matrix(lst, "bleu", 0)
    with pytest.raises(InvalidInputError):
        build_utility_matrix(lst, "bleu", 4)


def test_rerank_brute_force_small():
    """Exhaustive cross-check on a tiny random instance."""
    rng = np.random.default_rng(12)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        matrix = random_matrix(rng, n)
        lst = trivial_list(n)
        for l in range(1, n + 1):
            result = rerank(lst, RerankConfig(utility=MatrixUtility(matrix), l=l))
            means = [sum(float(matrix.values[i, j]) for j in range(l)) / l for i in range(n)]
            best = max(range(n), key=lambda i: (means[i], -i))
            assert result.selected == best
            assert result.utility_calls == n * l
            assert list(result.mbr_scores) == expected_utilities(matrix.values, l)


def test_rerank_utility_call_law():
    lst = trivial_list(30)
    m = MatrixUtility(random_matrix(np.random.default_rng(0), 30))
    assert rerank(lst, RerankConfig(utility=m, l=21)).utility_calls == 630
    assert rerank(lst, RerankConfig(utility=m, l=3)).utility_calls == 90
    assert rerank(lst, RerankConfig(utility=m)).utility_calls == 900


def test_coarse_to_fine_call_law():
    lst = trivial_list(30)
    rng = np.random.default_rng(1)
    cfg = RerankConfig(
        utility=MatrixUtility(random_matrix(rng, 30)),
        coarse_to_fine=CoarseToFine(proxy=MatrixUtility(random_matrix(rng, 30)), keep=15),
    )
    assert rerank(lst, cfg).utility_calls == 30 * 30 + 15 * 15


def test_truncation_can_change_the_selection():
    values = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.6, 0.6, 0.6],
        ]
    )
    lst = trivial_list(3)
    util = MatrixUtility(UtilityMatrix(values=values, utility_name="toy"))
    assert rerank(lst, RerankConfig(utility=util, l=1)).selected == 0
    assert rerank(lst, RerankConfig(utility=util, l=3)).selected == 2


def test_rerank_with_regularizer_flips_selection():
    lst = make_list(["a a", "b b"], log_probs=[-0.1, -5.0])
    base = rerank(lst, RerankConfig(utility="bleu"))
    assert base.selected == 0  # pure consensus ties, beam order wins
    heavy = rerank(
        lst,
        RerankConfig(utility="bleu", lambdas={"lp": -1.0}, regularizers=("lp",)),
    )
    # a negative weight on log-probability favors the low-probability candidate
    assert heavy.selected == 1
    assert heavy.regularizer_scores["lp"] == (-0.1, -5.0)


def test_rerank_result_breakdown_is_consistent():
    rng = np.random.default_rng(13)
    lst = random_list(rng, 6, with_extras=True)
    cfg = RerankConfig(
        utility="bleu",
        lambdas={"lp": 0.05, "qe": 0.3},
        regularizers=("lp", "qe"),
    )
    result = rerank(lst, cfg)
    for row in range(6):
        expected = (
            result.mbr_scores[row]
            + 0.05 * result.regularizer_scores["lp"][row]
            + 0.3 * result.regularizer_scores["qe"][row]
        )
        assert result.total_scores[row] == pytest.approx(expected, abs=1e-15)
    ranking, selected = rank_candidates(result.total_scores)
    assert tuple(ranking) == result.ranking
    assert selected == result.selected


def test_coarse_to_fine_keep_all_matches_direct():
    rng = np.random.default_rng(14)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        lst = trivial_list(n)
        proxy = MatrixUtility(random_matrix(rng, n, name="proxy"))
        target = MatrixUtility(random_matrix(rng, n, name="target"))
        direct = rerank(lst, RerankConfig(utility=target))
        staged = rerank(
            lst,
            RerankConfig(utility=target, coarse_to_fine=CoarseToFine(proxy=proxy, keep=n)),
        )
        assert staged.selected == direct.selected
        assert staged.ranking == direct.ranking
        assert staged.mbr_scores == direct.mbr_scores
        assert staged.candidate_indices == tuple(range(n))


def test_coarse_to_fine_keep_one_matches_proxy_argmax():
    rng = np.random.default_rng(15)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        lst = trivial_list(n)
        proxy_matrix = random_matrix(rng, n, name="proxy")
        target = MatrixUtility(random_matrix(rng, n, name="target"))
        staged = rerank(
            lst,
            RerankConfig(
                utility=target,
                coarse_to_fine=CoarseToFine(proxy=MatrixUtility(proxy_matrix), keep=1),
            ),
        )
        proxy_means = [float(proxy_matrix.values[i].sum()) / n for i in range(n)]
        best = max(range(n), key=lambda i: (proxy_means[i], -i))
        assert staged.selected == best
        assert staged.candidate_indices == (best,)
        assert staged.ranking == (best,)


def test_coarse_to_fine_scores_survivors_like_a_fresh_sublist():
    rng = np.random.default_rng(16)
    lst = random_list(rng, 8, with_extras=True)
    cfg = RerankConfig(
        utility="bleu",
        lambdas={"lp": 0.1},
        regularizers=("lp",),
        coarse_to_fine=CoarseToFine(proxy="chrf", keep=4),
    )
    staged = coarse_to_fine(lst, cfg)
    survivors = staged.candidate_indices
    assert survivors == tuple(sorted(survivors)) and len(survivors) == 4
    sub = NBestList(
        source=lst.source,
        candidates=tuple(lst.candidates[i] for i in survivors),
        reference=lst.reference,
    )
    fresh = rerank(sub, RerankConfig(utility="bleu", lambdas={"lp": 0.1}, regularizers=("lp",)))
    assert staged.mbr_scores == fresh.mbr_scores
    assert staged.total_scores == fresh.total_scores
    assert staged.ranking == tuple(survivors[r] for r in fresh.ranking)
    assert staged.utility_calls == 8 * 8 + 4 * 4


def test_coarse_to_fine_without_stage_settings():
    with pytest.raises(ConfigError):
        coarse_to_fine(trivial_list(2), RerankConfig(utility="bleu"))


def test_coarse_to_fine_keep_bounds():
    lst = trivial_list(3)
    cfg = RerankConfig(utility="bleu", coarse_to_fine=CoarseToFine(proxy="bleu", keep=4))
    with pytest.raises(InvalidInputError):
        rerank(lst, cfg)


def test_regularizer_values_lp():
    lst = make_list(["a", "b"], log_probs=[-0.5, -1.5])
    assert regularizer_values(lst, "lp") == [-0.5, -1.5]


def test_regularizer_values_external_scores():
    cands = (
        make_candidate("a", -1.0, external_scores={"lm": 0.2, "bt": -0.3, "qe": 0.9}),
        make_candidate("b", -2.0, external_scores={"lm": 0.1, "bt": 0.4, "qe": 0.8}),
    )
    lst = NBestList(source="s", candidates=cands)
    assert regularizer_values(lst, "lm") == [0.2, 0.1]
    assert regularizer_values(lst, "bt") == [-0.3, 0.4]
    assert regularizer_values(lst, "qe") == [0.9, 0.8]


def test_regularizer_values_missing_external_score():
    lst = make_list(["a", "b"])
    with pytest.raises(MissingScoreError, match="candidate 0"):
        regularizer_values(lst, "qe")


def test_regularizer_values_uncertainty_negated_means():
    cands = (
        make_candidate("a", -1.0, mc_pass_scores=[1.0, 2.0, 3.0], token_entropies=[0.5]),
        make_candidate("b", -2.0, mc_pass_scores=[4.0], token_entropies=[1.5]),
    )
    lst = NBestList(source="s", candidates=cands)
    assert regularizer_values(lst, "mc_dropout") == [-2.0, -4.0]
    assert regularizer_values(lst, "entropy") == [-0.5, -1.5]


def test_regularizer_values_missing_uncertainty_fields():
    lst = make_list(["a"])
    with pytest.raises(MissingScoreError):
        regularizer_values(lst, "mc_dropout")
    with pytest.raises(MissingScoreError):
        regularizer_values(lst, "entropy")


def test_regularizer_values_unknown_name():
    with pytest.raises(ConfigError):
        regularizer_values(make_list(["a"]), "bleu")


def test_token_entropy_uniform_and_deterministic():
    assert token_entropy([1.0]) == 0.0
    assert token_entropy([0.0, 1.0, 0.0]) == 0.0
    for size in (2, 4, 100):
        assert token_entropy([1.0 / size] * size) == pytest.approx(
            math.log(size), abs=1e-9
        )


def test_token_entropy_golden():
    assert token_entropy([0.5, 0.25, 0.25]) == pytest.approx(
        1.0397207708399179, abs=1e-12
    )


def test_token_entropy_validation():
    with pytest.raises(InvalidInputError):
        token_entropy([])
    with pytest.raises(InvalidInputError):
        token_entropy([[0.5, 0.5]])
    with pytest.raises(InvalidInputError):
        token_entropy([0.7, 0.7])
    with pytest.raises(InvalidInputError):
        token_entropy([-0.1, 1.1])
    with pytest.raises(InvalidInputError):
        token_entropy([math.nan, 1.0])


def test_make_utility_builtins_and_passthrough():
    assert isinstance(make_utility("bleu"), BleuUtility)
    assert isinstance(make_utility("chrf"), ChrfUtility)
    for spec in (
        "rouge",
        "service:not-an-address",
        "service:localhost:0",
        "service:localhost:65536",
        "service::9000",
        "service:exec:",
        "service:exec:python3 'unclosed",
        BleuUtility(),
    ):
        with pytest.raises(ConfigError):
            make_utility(spec)


def test_make_utility_matrix_file(tmp_path):
    from rmbr.io import write_utility_matrices

    rng = np.random.default_rng(17)
    path = tmp_path / "one.matrix"
    write_utility_matrices(path, [random_matrix(rng, 3)])
    util = make_utility(f"matrix:{path}")
    assert isinstance(util, MatrixUtility)

    path2 = tmp_path / "two.matrix"
    write_utility_matrices(path2, [random_matrix(rng, 3), random_matrix(rng, 2)])
    with pytest.raises(ConfigError):
        make_utility(f"matrix:{path2}")


def test_matrix_utility_requires_big_enough_matrix():
    rng = np.random.default_rng(18)
    matrix = random_matrix(rng, 3)
    util = MatrixUtility(matrix)
    for n, l in ((4, 4), (4, 3), (3, 4)):
        with pytest.raises(DimensionError):
            util.matrix(trivial_list(n), l)
    assert np.array_equal(util.matrix(trivial_list(2), 1), matrix.values[:2, :1])
    with pytest.raises(ConfigError):
        util.score_against(trivial_list(1), "ref")


def test_matrix_utility_crops_rows_and_columns():
    values = np.arange(12.0).reshape(4, 3) / 12.0
    util = MatrixUtility(UtilityMatrix(values=values, utility_name="toy"))
    got = util.matrix(trivial_list(2), 2)
    assert np.array_equal(got, values[:2, :2])


class _RecordingClient:
    def __init__(self):
        self.pairs = None

    def score_pairs(self, pairs):
        self.pairs = list(pairs)
        # score encodes (hyp index, ref index) via distinct text lengths
        return [float(len(h) * 10 + len(r)) for _, h, r in pairs]


def test_service_utility_orientation():
    client = _RecordingClient()
    util = ServiceUtility(client)
    lst = make_list(["a", "bb", "ccc"], source="the source")
    got = util.matrix(lst, 2)
    assert got.shape == (3, 2)
    # row = hypothesis, column = pseudo-reference
    assert got[2, 1] == float(3 * 10 + 2)
    assert client.pairs[0] == ("the source", "a", "a")
    assert all(src == "the source" for src, _, _ in client.pairs)
    assert util.score_against(lst, "ref") == [13.0, 23.0, 33.0]
    assert client.pairs == [("the source", h, "ref") for h in ("a", "bb", "ccc")]


def test_chrf_utility_rejects_whitespace_only_candidate():
    cands = (make_candidate("a b", -0.5), None)
    from rmbr.core import Candidate

    weird = Candidate(text="   ", tokens=("x",), log_prob=-1.0)
    lst = NBestList(source="s", candidates=(cands[0], weird))
    with pytest.raises(InvalidInputError):
        ChrfUtility().matrix(lst, 2)


def test_bleu_utility_respects_l():
    rng = np.random.default_rng(19)
    lst = random_list(rng, 6)
    full = BleuUtility().matrix(lst, 6)
    trunc = BleuUtility().matrix(lst, 2)
    assert trunc.shape == (6, 2)
    assert np.array_equal(trunc, full[:, :2])


def test_rerank_selects_consensus_over_beam_top():
    texts = [
        "completely unrelated junk words",
        "the cat sat on the mat",
        "the cat sat on a mat",
        "the cat sat upon the mat",
    ]
    lst = make_list(texts)
    result = rerank(lst, RerankConfig(utility="bleu"))
    assert result.selected == 1
    # sanity: the chosen candidate maximizes the average pairwise BLEU
    sims = [
        sum(sentence_bleu(a.tokens, b.tokens) for b in lst.candidates) / 4
        for a in lst.candidates
    ]
    assert list(result.mbr_scores) == sims
