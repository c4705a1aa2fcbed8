"""Domain-type validation and score-combination arithmetic."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from rmbr.analysis import grid_search_lambdas, oracle_histogram, token_prob_by_length
from rmbr.core import (
    Candidate,
    CoarseToFine,
    MetricConfig,
    NBestList,
    RerankConfig,
    RerankResult,
    UtilityMatrix,
    combine_scores,
    rank_candidates,
)
from rmbr.errors import ConfigError, InvalidInputError
from rmbr.mbr import build_utility_matrix

from conftest import make_candidate, make_list


def test_candidate_basic_fields():
    c = make_candidate("the cat", -1.5, token_log_probs=[-1.0, -0.5])
    assert c.tokens == ("the", "cat")
    assert c.token_log_probs == (-1.0, -0.5)
    assert c.external_scores == {}


def test_candidate_rejects_empty_tokens():
    with pytest.raises(InvalidInputError):
        Candidate(text="", tokens=(), log_prob=-1.0)


def test_candidate_with_text_but_no_tokens_is_refused():
    with pytest.raises(InvalidInputError, match="^candidate has no tokens$"):
        Candidate(text="a", tokens=[], log_prob=-1.0)


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
        RerankConfig(lambdas={"nope": 1.0})


def test_rerank_config_rejects_settings_it_would_ignore_or_cannot_use():
    with pytest.raises(ConfigError, match="full depth"):
        RerankConfig(l=3, coarse_to_fine=CoarseToFine("bleu", 2))
    for weight in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match="finite"):
            RerankConfig(lambdas={"lp": weight})
    assert RerankConfig(l="full", coarse_to_fine=CoarseToFine("bleu", 2)).l == "full"


def test_regularizers_are_the_lambdas_keys_in_order():
    config = RerankConfig(lambdas={"qe": 1, "lp": 0.5})
    assert config.regularizers == ("qe", "lp")
    assert replace(config, lambdas={"lp": 1, "bt": 2}).regularizers == ("lp", "bt")
    assert RerankConfig().regularizers == ()
    assert [f.name for f in fields(RerankConfig)] == [
        "utility", "l", "lambdas", "coarse_to_fine"
    ]


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


_RESULT = dict(
    mbr_scores=(0.5, 0.4),
    regularizer_scores={"lp": (-1.0, -2.0)},
    total_scores=(0.4, 0.2),
    ranking=(0, 1),
    selected=0,
    utility_calls=4,
    candidate_indices=(0, 1),
)

# a field value each constructor used to coerce or let through, and the
# error it raises now
_STRICT_CASES = {
    "entropies-string": (lambda: make_candidate("a b", -1.0, token_entropies="12"), "token_ent"),
    "token-log-probs-string": (
        lambda: make_candidate("a b", -1.0, token_log_probs="00"), "token_log_probs"
    ),
    "token-log-probs-bool": (
        lambda: make_candidate("a b", -1.0, token_log_probs=[False, -1.0]), "token_log_probs"
    ),
    "log-prob-false": (lambda: make_candidate("a", False), "log_prob must be a number"),
    "log-prob-string": (lambda: make_candidate("a", "-1"), "log_prob must be a number"),
    "log-prob-numpy-bool": (lambda: make_candidate("a", np.bool_(False)), "log_prob"),
    "log-prob-huge-int": (lambda: make_candidate("a", -(10**400)), "int too large"),
    "mc-nan": (lambda: make_candidate("a", -1.0, mc_pass_scores=[1.0, math.nan]), "finite"),
    "mc-negative": (
        lambda: make_candidate("a", -1.0, mc_pass_scores=[1.0, -0.5]), "mc_pass_scores entries"
    ),
    "entropies-inf": (lambda: make_candidate("a", -1.0, token_entropies=[math.inf]), "finite"),
    "entropies-2d": (
        lambda: make_candidate("a", -1.0, token_entropies=np.ones((1, 1))), "token_entropies"
    ),
    "external-string": (
        lambda: make_candidate("a", -1.0, external_scores={"qe": "0.5"}), "external score"
    ),
    "external-true": (
        lambda: make_candidate("a", -1.0, external_scores={"qe": True}), "external score"
    ),
    "external-nan": (
        lambda: make_candidate("a", -1.0, external_scores={"qe": math.nan}), "finite"
    ),
    "external-list": (
        lambda: make_candidate("a", -1.0, external_scores=[("qe", 1.0)]), "external_scores"
    ),
    "tokens-ints": (lambda: Candidate("1 2", [1, 2], -1.0), "candidate tokens"),
    "tokens-nested": (lambda: Candidate("a b", [["a"], "b"], -1.0), "candidate tokens"),
    "tokens-string": (lambda: Candidate("ab", "ab", -1.0), "candidate tokens"),
    "source-int": (lambda: NBestList(7, (make_candidate("a", -1.0),)), "source"),
    "candidates-generator": (
        lambda: NBestList("s", (make_candidate(t, -1.0) for t in "ab")), "candidates"
    ),
    "candidates-records": (lambda: NBestList("s", [{"text": "a"}]), "candidates"),
    "reference-log-probs-string": (
        lambda: make_list(["a"], reference_token_log_probs="00"), "reference_token_log_probs"
    ),
    "reference-log-probs-nan": (
        lambda: make_list(["a"], reference_token_log_probs=[math.nan]), "finite"
    ),
    "reference-log-probs-positive": (
        lambda: make_list(["a"], reference_token_log_probs=[-0.5, 0.5]),
        "reference_token_log_probs entries must be <= 0",
    ),
    "l-float": (lambda: RerankConfig(l=2.7), "l must be an integer"),
    "l-true": (lambda: RerankConfig(l=True), "l must be an integer"),
    "l-string": (lambda: RerankConfig(l="3"), "l must be an integer"),
    "lambda-string": (lambda: RerankConfig(lambdas={"lp": "0.5"}), "lambda lp must be a number"),
    "lambda-true": (lambda: RerankConfig(lambdas={"qe": True}), "lambda qe must be a number"),
    "lambdas-pairs": (lambda: RerankConfig(lambdas=[("lp", 1.0)]), "lambdas must be a mapping"),
    "keep-string": (lambda: CoarseToFine("bleu", "3"), "keep must be an integer"),
    "keep-float": (lambda: CoarseToFine("bleu", 2.9), "keep must be an integer"),
    "keep-true": (lambda: CoarseToFine("bleu", True), "keep must be an integer"),
    "stages-string": (lambda: RerankConfig(coarse_to_fine="chrf"), "must be a CoarseToFine"),
    "mbr-scores-string": (lambda: RerankResult(**{**_RESULT, "mbr_scores": "12"}), "mbr_scores"),
    "mbr-scores-nan": (
        lambda: RerankResult(**{**_RESULT, "mbr_scores": (math.nan, 0.4)}), "finite"
    ),
    "regularizer-strings": (
        lambda: RerankResult(**{**_RESULT, "regularizer_scores": {"lp": "12"}}), "regularizer"
    ),
    "ranking-floats": (lambda: RerankResult(**{**_RESULT, "ranking": (0.9, 1.7)}), "ranking"),
    "indices-bools": (
        lambda: RerankResult(**{**_RESULT, "candidate_indices": (True, False)}),
        "candidate_indices",
    ),
    "indices-negative": (
        lambda: RerankResult(**{**_RESULT, "candidate_indices": (0, -1), "ranking": (0, -1)}),
        "candidate_indices",
    ),
    "selected-float": (lambda: RerankResult(**{**_RESULT, "selected": 0.0}), "selected"),
    "calls-string": (lambda: RerankResult(**{**_RESULT, "utility_calls": "many"}), "utility_calls"),
    "calls-negative": (lambda: RerankResult(**{**_RESULT, "utility_calls": -1}), "utility_calls"),
    "matrix-strings": (lambda: UtilityMatrix([["1"]], "x"), "utility matrix must hold numbers"),
    "matrix-bools": (lambda: UtilityMatrix([[True]], "x"), "utility matrix must hold numbers"),
    "matrix-name-int": (lambda: UtilityMatrix([[1.0]], 7), "utility_name must be a string"),
}


@pytest.mark.parametrize("case", sorted(_STRICT_CASES))
def test_constructors_check_types_and_do_not_coerce(case):
    build, message = _STRICT_CASES[case]
    config = case.split("-")[0] in ("l", "lambda", "lambdas", "keep", "stages")
    with pytest.raises(ConfigError if config else InvalidInputError, match=message):
        build()


def test_constructors_store_numpy_and_int_values_as_today():
    c = Candidate(
        "a b",
        np.array(["a", "b"]),
        np.float64(-1.0),
        token_log_probs=np.array([-1, 0]),
        external_scores={"qe": np.float32(0.5), "lm": -2},
        mc_pass_scores=[np.int64(3), 1.5],
        token_entropies=(np.float64(0.25), 1),
    )
    assert c.tokens == ("a", "b") and c.log_prob == -1.0
    assert c.token_log_probs == (-1.0, 0.0)
    assert c.external_scores == {"qe": 0.5, "lm": -2.0}
    assert c.mc_pass_scores == (3.0, 1.5) and c.token_entropies == (0.25, 1.0)
    lst = NBestList(None, [c], reference_token_log_probs=np.array([-0.5, 0.0]))
    assert lst.candidates == (c,) and lst.reference_token_log_probs == (-0.5, 0.0)
    floats = [c.log_prob, *c.token_log_probs, *c.external_scores.values(), *c.mc_pass_scores]
    floats += [*c.token_entropies, *lst.reference_token_log_probs]
    assert {type(v) for v in floats} == {float}
    assert make_candidate("a", -1).log_prob == -1.0
    config = RerankConfig(l=np.int64(3), lambdas={"lp": np.float64(0.5), "qe": 1})
    assert config.l == 3 and config.lambdas == {"lp": 0.5, "qe": 1.0}
    assert type(config.l) is int and {type(v) for v in config.lambdas.values()} == {float}
    keep = CoarseToFine("bleu", np.int32(2)).keep
    assert keep == 2 and type(keep) is int
    result = RerankResult(
        mbr_scores=np.array([0.5, 0.4]),
        regularizer_scores={"lp": np.array([-1, -2])},
        total_scores=[np.float64(0.4), 0.2],
        ranking=np.array([0, 1]),
        selected=np.int64(0),
        utility_calls=np.int64(4),
        candidate_indices=[0, np.int64(1)],
    )
    assert result == RerankResult(**_RESULT)
    ints = [*result.ranking, *result.candidate_indices, result.selected, result.utility_calls]
    assert {type(v) for v in ints} == {int}
    assert {type(v) for v in result.mbr_scores + result.regularizer_scores["lp"]} == {float}


def _dev():
    top = make_candidate("a b", -1.0, token_log_probs=[-0.5, -0.5])
    return [NBestList("s", (top, make_candidate("a c", -2.0)), reference="a b")]


# name: (a call with a value a caller sets, the error it raises and its message)
_CALLER_SET_VALUES = {
    "bleu-order-string": (
        lambda: MetricConfig(bleu_max_order="4"),
        ConfigError, "bleu_max_order must be an integer >= 1, got '4'",
    ),
    "bleu-order-true": (
        lambda: MetricConfig(bleu_max_order=True),
        ConfigError, "bleu_max_order must be an integer >= 1, got True",
    ),
    "chrf-order-float": (
        lambda: MetricConfig(chrf_char_order=6.0),
        ConfigError, "chrf_char_order must be an integer >= 1, got 6.0",
    ),
    "chrf-beta-inf": (
        lambda: MetricConfig(chrf_beta=math.inf), ConfigError, "chrf_beta must be finite"
    ),
    "chrf-beta-string": (
        lambda: MetricConfig(chrf_beta="2"), ConfigError, 'chrf_beta must be a number, got "2"'
    ),
    "bleu-epsilon-inf": (
        lambda: MetricConfig(bleu_epsilon=math.inf), ConfigError, "bleu_epsilon must be finite"
    ),
    "bleu-epsilon-true": (
        lambda: MetricConfig(bleu_epsilon=True),
        ConfigError, "bleu_epsilon must be a number, got true",
    ),
    "bin-width-float": (
        lambda: oracle_histogram(_dev(), bin_width=2.5),
        ConfigError, "bin_width must be an integer >= 1, got 2.5",
    ),
    "bin-width-true": (
        lambda: oracle_histogram(_dev(), bin_width=True),
        ConfigError, "bin_width must be an integer >= 1, got True",
    ),
    "interval-width-float": (
        lambda: token_prob_by_length(_dev(), interval_width=2.5),
        ConfigError, "interval_width must be an integer >= 1, got 2.5",
    ),
    "interval-width-true": (
        lambda: token_prob_by_length(_dev(), interval_width=True),
        ConfigError, "interval_width must be an integer >= 1, got True",
    ),
    "matrix-l-float": (
        lambda: build_utility_matrix(_dev()[0], "bleu", 2.5),
        InvalidInputError, "l must be an integer >= 1, got 2.5",
    ),
    "matrix-l-true": (
        lambda: build_utility_matrix(_dev()[0], "bleu", True),
        InvalidInputError, "l must be an integer >= 1, got True",
    ),
    "grid-string": (
        lambda: grid_search_lambdas(_dev(), RerankConfig(lambdas={"lp": 0.0}), ["1", True]),
        ConfigError, 'weight grid value must be a number, got "1"',
    ),
    "grid-true": (
        lambda: grid_search_lambdas(_dev(), RerankConfig(lambdas={"lp": 0.0}), [0.5, True]),
        ConfigError, "weight grid value must be a number, got true",
    ),
}


@pytest.mark.parametrize("case", sorted(_CALLER_SET_VALUES))
def test_every_caller_set_value_goes_through_the_core_checks(case):
    """A metric setting, a bin or interval width, a matrix depth and a grid
    weight each raise an rmbr error naming the value: none escapes as a
    ``TypeError``, is taken as another type, or gives a nan or inf score."""
    build, error, message = _CALLER_SET_VALUES[case]
    with pytest.raises(error) as raised:
        build()
    assert type(raised.value) is error and str(raised.value) == message


def test_numpy_integers_pass_every_integer_check_and_are_stored_as_ints():
    metric = MetricConfig(bleu_max_order=np.int32(2), chrf_char_order=np.int64(3))
    assert metric == MetricConfig(bleu_max_order=2, chrf_char_order=3)
    assert {type(metric.bleu_max_order), type(metric.chrf_char_order)} == {int}
    reals = MetricConfig(bleu_epsilon=np.float32(0.5), chrf_beta=1)
    assert (reals.bleu_epsilon, reals.chrf_beta) == (0.5, 1.0)
    assert {type(reals.bleu_epsilon), type(reals.chrf_beta)} == {float}
    oracle = oracle_histogram(_dev(), bin_width=np.int64(2))
    assert oracle == oracle_histogram(_dev(), bin_width=2) and type(oracle.bin_width) is int
    table = token_prob_by_length(_dev(), interval_width=np.uint8(2))
    assert table == token_prob_by_length(_dev(), interval_width=2)
    bounds = [table.interval_width, *(v for r in table.rows for v in (r.lo, r.hi))]
    assert {type(v) for v in bounds} == {int}
    matrix = build_utility_matrix(_dev()[0], "bleu", np.int64(2)).values
    assert np.array_equal(matrix, build_utility_matrix(_dev()[0], "bleu", 2).values)


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
