"""Domain-type validation and score-combination arithmetic."""

import math

import numpy as np
import pytest

from rmbr.core import (
    Candidate,
    CoarseToFine,
    NBestList,
    RerankConfig,
    RerankResult,
    UtilityMatrix,
    combine_scores,
    rank_candidates,
)
from rmbr.errors import ConfigError, InvalidInputError

from conftest import make_candidate, make_list


def test_candidate_basic_fields():
    c = make_candidate("the cat", -1.5, token_log_probs=[-1.0, -0.5])
    assert c.tokens == ("the", "cat")
    assert c.token_log_probs == (-1.0, -0.5)
    assert c.external_scores == {}


def test_candidate_rejects_empty_tokens():
    with pytest.raises(InvalidInputError):
        Candidate(text="", tokens=(), log_prob=-1.0)


@pytest.mark.parametrize("lp", [0.5, math.inf, math.nan])
def test_candidate_rejects_bad_log_prob(lp):
    with pytest.raises(InvalidInputError):
        make_candidate("a b", lp)


def test_candidate_log_prob_zero_is_allowed():
    assert make_candidate("a", 0.0).log_prob == 0.0


def test_candidate_token_log_probs_length_mismatch_names_field():
    with pytest.raises(InvalidInputError, match="token_log_probs"):
        make_candidate("a b c", -1.0, token_log_probs=[-1.0, -1.0])


def test_candidate_rejects_positive_token_log_prob():
    with pytest.raises(InvalidInputError):
        make_candidate("a b", -1.0, token_log_probs=[-1.0, 0.1])


def test_candidate_rejects_empty_mc_passes():
    with pytest.raises(InvalidInputError):
        make_candidate("a", -1.0, mc_pass_scores=[])


def test_candidate_rejects_negative_entropy():
    with pytest.raises(InvalidInputError, match="token_entropies"):
        make_candidate("a b", -1.0, token_entropies=[0.5, -0.1])


def test_candidate_entropy_length_mismatch():
    with pytest.raises(InvalidInputError, match="token_entropies"):
        make_candidate("a b", -1.0, token_entropies=[0.5])


def test_nbest_list_requires_candidates():
    with pytest.raises(InvalidInputError):
        NBestList(source="s", candidates=())


def test_nbest_list_requires_beam_order():
    with pytest.raises(InvalidInputError):
        make_list(["a", "b"], log_probs=[-2.0, -1.0])


def test_nbest_list_allows_log_prob_ties():
    lst = make_list(["a", "b", "c"], log_probs=[-1.0, -1.0, -2.0])
    assert lst.n == 3


def test_utility_matrix_copies_and_freezes():
    values = np.array([[1.0, 0.5], [0.5, 1.0]])
    m = UtilityMatrix(values=values, utility_name="bleu")
    values[0, 0] = 99.0
    assert m.values[0, 0] == 1.0
    with pytest.raises(ValueError):
        m.values[0, 0] = 0.0


def test_utility_matrix_shape_checks():
    with pytest.raises(InvalidInputError):
        UtilityMatrix(values=np.ones(3), utility_name="x")
    with pytest.raises(InvalidInputError):
        UtilityMatrix(values=np.ones((2, 3)), utility_name="x")  # l > n
    with pytest.raises(InvalidInputError):
        UtilityMatrix(values=np.array([[np.nan]]), utility_name="x")
    m = UtilityMatrix(values=np.ones((3, 2)), utility_name="x")
    assert (m.n, m.l) == (3, 2)


def test_coarse_to_fine_keep_positive():
    with pytest.raises(ConfigError):
        CoarseToFine(proxy="bleu", keep=0)


def test_rerank_config_validates_regularizers():
    with pytest.raises(ConfigError):
        RerankConfig(regularizers=("nope",), lambdas={"nope": 1.0})
    with pytest.raises(ConfigError):
        RerankConfig(regularizers=("lp",), lambdas={})
    with pytest.raises(ConfigError):
        RerankConfig(regularizers=(), lambdas={"lp": 1.0})
    with pytest.raises(ConfigError):
        RerankConfig(regularizers=("lp", "lp"), lambdas={"lp": 1.0})


def test_rerank_config_l_handling():
    assert RerankConfig().resolve_l(7) == 7
    assert RerankConfig(l=3).resolve_l(7) == 3
    with pytest.raises(InvalidInputError):
        RerankConfig(l=8).resolve_l(7)
    with pytest.raises(ConfigError):
        RerankConfig(l=0)


def test_rerank_result_consistency_checks():
    ok = dict(
        mbr_scores=(0.5, 0.4),
        regularizer_scores={},
        total_scores=(0.5, 0.4),
        ranking=(0, 1),
        selected=0,
        utility_calls=4,
        candidate_indices=(0, 1),
    )
    RerankResult(**ok)
    with pytest.raises(InvalidInputError):
        RerankResult(**{**ok, "ranking": (0, 0)})
    with pytest.raises(InvalidInputError):
        RerankResult(**{**ok, "selected": 1})
    with pytest.raises(InvalidInputError):
        RerankResult(**{**ok, "mbr_scores": (0.5,)})
    with pytest.raises(InvalidInputError):
        RerankResult(**{**ok, "regularizer_scores": {"lp": (1.0,)}})


def test_combine_scores_worked_example():
    mbr = [0.6, 0.6, 0.5]
    lp = [-1.0, -2.0, -0.5]
    totals = combine_scores(mbr, {"lp": lp}, {"lp": 0.1})
    expected = [m + 0.1 * v for m, v in zip(mbr, lp)]
    assert totals == expected
    ranking, selected = rank_candidates(totals)
    assert ranking == [0, 2, 1]
    assert selected == 0


def test_combine_scores_no_regularizers_is_identity():
    assert combine_scores([0.3, 0.1], {}, {}) == [0.3, 0.1]


def test_combine_scores_errors():
    with pytest.raises(InvalidInputError):
        combine_scores([0.1, 0.2], {"lp": [1.0]}, {"lp": 0.5})
    with pytest.raises(ConfigError):
        combine_scores([0.1], {"lp": [1.0]}, {})


def test_combine_scores_multiple_regularizers():
    totals = combine_scores(
        [1.0, 1.0], {"lp": [-1.0, -2.0], "qe": [0.5, 1.0]}, {"lp": 0.1, "qe": 2.0}
    )
    assert totals == [1.0 + 0.1 * -1.0 + 2.0 * 0.5, 1.0 + 0.1 * -2.0 + 2.0 * 1.0]


def test_rank_candidates_descending_and_beam_ties():
    ranking, selected = rank_candidates([0.1, 0.9, 0.9, 0.3])
    assert ranking == [1, 2, 3, 0]
    assert selected == 1
    ranking, selected = rank_candidates([0.5, 0.5, 0.5])
    assert ranking == [0, 1, 2]
    assert selected == 0


def test_rank_candidates_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        rank_candidates([])
    with pytest.raises(InvalidInputError):
        rank_candidates([0.5, math.nan])


def test_rank_candidates_random_properties():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        totals = rng.choice([0.0, 0.25, 0.5, 1.0], size=n).tolist()
        ranking, selected = rank_candidates(totals)
        assert sorted(ranking) == list(range(n))
        assert selected == ranking[0]
        for a, b in zip(ranking, ranking[1:]):
            assert totals[a] > totals[b] or (totals[a] == totals[b] and a < b)
