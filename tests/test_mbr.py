"""Expected-utility scoring, regularizers, reranking, and coarse-to-fine."""

import math
import os
import sys
from dataclasses import replace

import numpy as np
import pytest

import rmbr.mbr as mbr
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
    ScoringError,
)
from rmbr.mbr import (
    BleuUtility,
    ChrfUtility,
    MatrixUtility,
    ServiceUtility,
    UtilitySession,
    build_utility_matrix,
    check_reranking,
    expected_utilities,
    mbr_scores,
    regularizer_values,
    rerank,
    reference_scores,
    rerank_lists,
    token_entropy,
)
from rmbr.analysis import check_tuning, grid_search_lambdas, oracle_select, tune_l
from rmbr.io import write_utility_matrices, write_utility_matrix
from rmbr.metrics import sentence_bleu

from conftest import (
    IndexedUtility,
    Unscorable,
    make_candidate,
    make_list,
    random_list,
    random_matrix,
    trivial_list,
)


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
        utility=IndexedUtility(random_matrix(rng, 30)),
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
        RerankConfig(utility="bleu", lambdas={"lp": -1.0}),
    )
    # a negative weight on log-probability favors the low-probability candidate
    assert heavy.selected == 1
    assert heavy.regularizer_scores["lp"] == (-0.1, -5.0)


def test_rerank_result_breakdown_is_consistent():
    rng = np.random.default_rng(13)
    lst = random_list(rng, 6, with_extras=True)
    cfg = RerankConfig(utility="bleu", lambdas={"lp": 0.05, "qe": 0.3})
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
        target = IndexedUtility(random_matrix(rng, n, name="target"))
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
        target = IndexedUtility(random_matrix(rng, n, name="target"))
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
        coarse_to_fine=CoarseToFine(proxy="chrf", keep=4),
    )
    staged = rerank(lst, cfg)
    survivors = staged.candidate_indices
    assert survivors == tuple(sorted(survivors)) and len(survivors) == 4
    sub = NBestList(
        source=lst.source,
        candidates=tuple(lst.candidates[i] for i in survivors),
        reference=lst.reference,
    )
    fresh = rerank(sub, RerankConfig(utility="bleu", lambdas={"lp": 0.1}))
    assert staged.mbr_scores == fresh.mbr_scores
    assert staged.total_scores == fresh.total_scores
    assert staged.ranking == tuple(survivors[r] for r in fresh.ranking)
    assert staged.utility_calls == 8 * 8 + 4 * 4


def test_coarse_to_fine_rejects_a_stored_matrix_target(tmp_path):
    # the BLEU proxy keeps candidates 1 and 2; the stored rows 0 and 1 would
    # score them, picking "a b c" (0.1) over "a b d" (0.5)
    lst = make_list(["x y z", "a b c", "a b d"])
    stored = UtilityMatrix(values=[[0.9] * 3, [0.1] * 3, [0.5] * 3], utility_name="ext")
    path = tmp_path / "target.mat"
    write_utility_matrix(path, stored)
    for target in (MatrixUtility(stored), [MatrixUtility(stored)], f"matrix:{path}"):
        config = RerankConfig(utility=target, coarse_to_fine=CoarseToFine("bleu", 2))
        with pytest.raises(ConfigError, match="coarse-to-fine target"):
            rerank(lst, config)
    proxy_only = CoarseToFine(MatrixUtility(stored), 2)
    assert rerank(lst, RerankConfig(coarse_to_fine=proxy_only)).candidate_indices == (0, 2)


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


def test_uncertainty_means_stay_finite_where_their_sums_overflow():
    """A finite sum keeps ``-sum / len`` bit for bit; one that overflows
    still gives the finite mean, so a zero weight leaves the list rankable."""
    rng = np.random.default_rng(24)
    for _ in range(200):
        values = (rng.random(int(rng.integers(1, 6))) * 10.0 ** rng.integers(-3, 300)).tolist()
        lst = NBestList(source="s", candidates=(make_candidate("a", -1.0, mc_pass_scores=values),))
        assert regularizer_values(lst, "mc_dropout") == [-sum(values) / len(values)]
    cands = (
        make_candidate("a b", -1.0, mc_pass_scores=[1e308, 1e308], token_entropies=[1e308] * 2),
        make_candidate("a c", -2.0, mc_pass_scores=[1.7e308] * 3, token_entropies=[0.0, 1.7e308]),
    )
    lst = NBestList(source="s", candidates=cands)
    assert regularizer_values(lst, "mc_dropout") == [-1e308, -1.7e308]
    assert regularizer_values(lst, "entropy") == [-1e308, -0.85e308]
    for name in ("mc_dropout", "entropy"):
        result = rerank(lst, RerankConfig(lambdas={name: 0.0}))
        assert result.regularizer_scores[name] == tuple(regularizer_values(lst, name))


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


def test_session_resolves_builtin_specs_and_rejects_malformed_ones():
    with UtilitySession() as session:
        assert isinstance(session.providers("bleu", 1)[0], BleuUtility)
        assert isinstance(session.providers("chrf", 1)[0], ChrfUtility)
        for spec in (
            "rouge",
            "service:not-an-address",
            "service:localhost:0",
            "service:localhost:65536",
            "service::9000",
            "service:exec:",
            "service:exec:python3 'unclosed",
        ):
            with pytest.raises(ConfigError):
                session.providers(spec, 1)
        with pytest.raises(ConfigError, match="^unknown utility spec 5$"):
            session.providers(5, 1)


# logs its pid to argv[1]; answers argv[2], else 0.5, for every pair
_PID_LOGGING_SCORER = """
import json, os, sys
with open(sys.argv[1], "a") as fh:
    fh.write("%d\\n" % os.getpid())
score = float(sys.argv[2]) if len(sys.argv) > 2 else 0.5
print(json.dumps({"protocol": "rmbr-scorer/1"}), flush=True)
sys.stdin.readline()
for line in sys.stdin:
    print(json.dumps({"id": json.loads(line)["id"], "score": score}), flush=True)
"""


def test_session_starts_a_scorer_on_its_first_batch_and_reaps_it(tmp_path):
    script = tmp_path / "scorer.py"
    script.write_text(_PID_LOGGING_SCORER, encoding="utf-8")
    log = tmp_path / "starts.log"
    log.touch()
    lst = make_list(["a b", "c d", "e f"])
    with UtilitySession() as session:
        (provider,) = session.providers(f"service:exec:{sys.executable} {script} {log}", 1)
        assert isinstance(provider, ServiceUtility)
        assert log.read_text(encoding="utf-8") == ""
        assert session.counters() == {"scorer_processes": 0, "scorer_pairs": 0}
        assert np.array_equal(provider.matrix(lst, range(3), 2), np.full((3, 2), 0.5))
        pids = [int(pid) for pid in log.read_text(encoding="utf-8").split()]
        assert len(pids) == 1
        assert session.counters() == {"scorer_processes": 1, "scorer_pairs": 3 * 2}
        os.kill(pids[0], 0)  # still running inside the session
    with pytest.raises(ProcessLookupError):
        os.kill(pids[0], 0)


def test_rerank_keeps_both_stages_scorers_until_it_returns(tmp_path, monkeypatch):
    script = tmp_path / "scorer.py"
    script.write_text(_PID_LOGGING_SCORER, encoding="utf-8")
    log = tmp_path / "starts.log"
    log.touch()
    spec = f"service:exec:{sys.executable} {script} {log}"
    lst = make_list(["a b", "c d", "e f"])

    def started():
        return [int(pid) for pid in log.read_text(encoding="utf-8").split()]

    running = []  # scorers running at each stage's check, the proxy's first
    check = mbr.check_scored

    def check_while_running(totals):
        for pid in started():
            os.kill(pid, 0)
        running.append(len(started()))
        return check(totals)

    monkeypatch.setattr(mbr, "check_scored", check_while_running)

    def assert_one_scorer_per_spec_and_none_running():
        pids = started()
        log.write_text("", encoding="utf-8")
        assert len(set(pids)) == 2 and running == [1, 2]
        running.clear()
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    config = RerankConfig(utility=spec, coarse_to_fine=CoarseToFine(spec, 2))
    result = rerank(lst, config)
    assert result.candidate_indices == (0, 1) and result.mbr_scores == (0.5, 0.5)
    assert result.utility_calls == 3 * 3 + 2 * 2
    assert_one_scorer_per_spec_and_none_running()
    # the target answers 1e308 for every pair, so its consensus overflows
    with pytest.raises(ScoringError, match="scores are not finite"):
        rerank(lst, replace(config, utility=f"{spec} 1e308"))
    assert_one_scorer_per_spec_and_none_running()


def test_a_stored_matrix_spec_is_checked_before_any_score(tmp_path):
    path = tmp_path / "big.mat"
    big = UtilityMatrix(values=[[1.5e308, 1.5e308], [0.0, 0.0]], utility_name="ext")
    write_utility_matrix(path, big)
    lst = trivial_list(2)
    for config in (
        RerankConfig(utility=f"matrix:{path}"),
        RerankConfig(utility=Unscorable(), coarse_to_fine=CoarseToFine(f"matrix:{path}", 1)),
    ):
        for call in (check_reranking, rerank_lists):
            with pytest.raises(InvalidInputError, match="^list 0: total scores must be finite$"):
                call([lst], config)


def test_a_per_list_matrix_too_small_for_its_list_names_the_list(tmp_path):
    """Every check names the list it fails by its 0-based index: here list
    2's stored matrix is 2x2 for a list of 3, in reranking and tuning."""
    rng = np.random.default_rng(29)
    path = tmp_path / "per-list.matrix"
    write_utility_matrices(path, [random_matrix(rng, n) for n in (3, 3, 2)])
    lists = [trivial_list(3, reference="t0")] * 3
    config = RerankConfig(utility=f"matrix:{path}")
    message = "^list 2: stored matrix is 2x2, need at least 3x3$"
    for call in (rerank_lists, check_reranking, check_tuning):
        with pytest.raises(DimensionError, match=message):
            call(lists, config)


def test_a_per_list_utility_list_must_hold_providers(tmp_path):
    """A spec string inside a provider list is refused, not read later: the
    overflowing matrix it names would have passed the check unread."""
    path = tmp_path / "big.mat"
    big = UtilityMatrix(values=[[1.5e308, 1.5e308], [0.0, 0.0]], utility_name="ext")
    write_utility_matrix(path, big)
    lst = trivial_list(2, reference="t0")
    config = RerankConfig(utility=[f"matrix:{path}"])
    calls = [
        lambda: check_reranking([lst], config),
        lambda: rerank(lst, config),
        lambda: tune_l([lst], config),
        lambda: grid_search_lambdas([lst], replace(config, lambdas={"lp": 0.0})),
        lambda: UtilitySession().providers([BleuUtility(), "bleu"], 2),
    ]
    for call in calls:
        with pytest.raises(ConfigError, match="^a per-list utility must be a provider, got "):
            call()


class _Nameless:
    """Has a provider's ``matrix`` but no ``name``."""

    def matrix(self, nbest, rows, refs):
        return np.ones((len(rows), refs))


@pytest.mark.parametrize(
    "utility, message",
    [
        (_Nameless(), "^a utility provider needs a name, got "),
        ([_Nameless()], "^a per-list utility must be a provider, got "),
    ],
)
def test_a_provider_without_a_name_is_refused_where_it_is_resolved(utility, message):
    lst = trivial_list(2, reference="t0")
    config = RerankConfig(utility=utility)
    calls = [
        lambda: UtilitySession().providers(utility, 1),
        lambda: check_reranking([lst], config),
        lambda: rerank(lst, config),
        lambda: tune_l([lst], config),
        lambda: build_utility_matrix(lst, utility, 2),
    ]
    for call in calls:
        with pytest.raises(ConfigError, match=message):
            call()


class _Shaped:
    """A provider whose matrix has ``rows`` more rows and ``cols`` more columns than asked."""

    name = "shaped"

    def __init__(self, rows, cols):
        self.rows, self.cols = rows, cols

    def matrix(self, nbest, rows, refs):
        cols = 1 if isinstance(refs, str) else refs
        return np.ones((len(rows) + self.rows, cols + self.cols))


@pytest.mark.parametrize("rows, cols", [(0, -1), (1, 0), (-1, 0), (0, 1)])
def test_a_provider_matrix_of_any_other_shape_than_n_by_l_is_a_dimension_error(rows, cols):
    lst = trivial_list(3, reference="t0")
    util = _Shaped(rows, cols)
    stages = CoarseToFine(util, 2)
    # a rerank names the list; build_utility_matrix and reference_scores
    # score one list, unnamed; against the reference text the shape is (n, 1)
    for call, prefix, want in (
        (lambda: rerank(lst, RerankConfig(utility=util)), "list 0: ", (3, 3)),
        (lambda: rerank(lst, RerankConfig(utility=util, l=2)), "list 0: ", (3, 2)),
        (
            lambda: rerank(lst, RerankConfig(utility=BleuUtility(), coarse_to_fine=stages)),
            "list 0: ",
            (3, 3),
        ),
        (lambda: build_utility_matrix(lst, util, 3), "", (3, 3)),
        (lambda: reference_scores(lst, util), "", (3, 1)),
    ):
        shape = rf"shaped gave shape \(\d, \d\), not \({want[0]}, {want[1]}\)$"
        with pytest.raises(DimensionError, match=f"^{prefix}{shape}"):
            call()
    assert rerank(lst, RerankConfig(utility=_Shaped(0, 0))).mbr_scores == (1.0, 1.0, 1.0)
    assert reference_scores(lst, _Shaped(0, 0)) == [1.0, 1.0, 1.0]


class _NonFinite:
    """A provider that scores its first pair NaN and every other 1."""

    name = "nan"

    def matrix(self, nbest, rows, refs):
        values = np.ones((len(rows), refs))
        values[0, 0] = np.nan
        return values


def test_a_provider_non_finite_score_is_a_scoring_error():
    # a scoring failure (exit code 2), as a scorer's non-finite score is, not bad input
    with pytest.raises(ScoringError, match="^list 0: nan gave non-finite scores$"):
        rerank(trivial_list(3), RerankConfig(utility=_NonFinite()))


def test_rerank_reads_a_matrix_file_once(tmp_path, monkeypatch):
    path = tmp_path / "m.mat"
    write_utility_matrix(path, random_matrix(np.random.default_rng(19), 3))
    reads = []
    load = mbr.load_utility_matrices
    monkeypatch.setattr(mbr, "load_utility_matrices", lambda p: reads.append(p) or load(p))
    lst = trivial_list(3)
    target = IndexedUtility(random_matrix(np.random.default_rng(20), 3))
    for config in (
        RerankConfig(utility=f"matrix:{path}"),
        RerankConfig(utility=target, coarse_to_fine=CoarseToFine(f"matrix:{path}", 2)),
    ):
        rerank(lst, config)
        assert reads == [str(path)]
        reads.clear()


def test_rerank_reads_each_regularizer_once_and_scores_with_the_checked_values(monkeypatch):
    rng = np.random.default_rng(23)
    lst = random_list(rng, 5, with_extras=True)
    calls = []
    values = mbr.regularizer_values
    monkeypatch.setattr(
        mbr, "regularizer_values", lambda nbest, name: calls.append(name) or values(nbest, name)
    )
    lambdas = {"lp": 0.5, "qe": 1.0}
    for stages in (None, CoarseToFine("chrf", 3)):
        calls.clear()
        result = rerank(lst, RerankConfig(lambdas=lambdas, coarse_to_fine=stages))
        assert calls == ["lp", "qe"]
        kept = [lst.candidates[i] for i in result.candidate_indices]
        assert result.regularizer_scores == {
            name: tuple(values(replace(lst, candidates=kept), name)) for name in lambdas
        }


def test_session_resolves_matrix_file_spec(tmp_path):
    from rmbr.io import write_utility_matrices

    rng = np.random.default_rng(17)
    path = tmp_path / "one.matrix"
    write_utility_matrices(path, [random_matrix(rng, 3)])
    (util,) = UtilitySession().providers(f"matrix:{path}", 1)
    assert isinstance(util, MatrixUtility)

    path2 = tmp_path / "two.matrix"
    write_utility_matrices(path2, [random_matrix(rng, 3), random_matrix(rng, 2)])
    with pytest.raises(ConfigError):
        UtilitySession().providers(f"matrix:{path2}", 1)


def test_matrix_utility_requires_big_enough_matrix():
    rng = np.random.default_rng(18)
    matrix = random_matrix(rng, 3)
    util = MatrixUtility(matrix)
    for n, l in ((4, 4), (4, 3), (3, 4)):
        with pytest.raises(DimensionError):
            util.matrix(trivial_list(n), range(n), l)
    assert np.array_equal(util.matrix(trivial_list(2), range(2), 1), matrix.values[:2, :1])
    # rows other than range(n) need the stored columns up to their l-th
    stored = MatrixUtility(UtilityMatrix(values=np.arange(12.0).reshape(4, 3), utility_name="m"))
    with pytest.raises(DimensionError, match="^stored matrix is 4x3, need at least 4x4$"):
        stored.matrix(trivial_list(4), [1, 3], 2)


def test_a_stored_matrix_refuses_to_score_against_a_reference():
    # a stored matrix holds pairs of the list's candidates: its column 0 is
    # candidate 0, which must not stand in for the reference
    lst = make_list(["a", "b", "c"], reference="a")
    util = MatrixUtility(UtilityMatrix(values=np.arange(16.0).reshape(4, 4), utility_name="m"))
    with pytest.raises(
        ConfigError, match="^a precomputed utility matrix cannot score against new references$"
    ):
        reference_scores(lst, util)


class _Recording:
    """A BLEU provider that records the rows and references of every call."""

    name = "recording"

    def __init__(self):
        self.calls = []

    def matrix(self, nbest, rows, refs):
        self.calls.append((list(rows), refs))
        return BleuUtility().matrix(nbest, rows, refs)


def test_each_run_asks_its_providers_for_the_rows_and_references_it_scores():
    texts = [
        "zz yy xx ww",
        "the cat sat on the mat",
        "the cat sat on a mat",
        "a cat sat on the mat",
        "the cat is on the mat",
    ]
    lst = make_list(texts, reference="the cat sat on the mat")
    n, everything = lst.n, list(range(lst.n))
    target = _Recording()
    rerank(lst, RerankConfig(utility=target, l=3))
    assert target.calls == [(everything, 3)]
    proxy, target = _Recording(), _Recording()
    config = RerankConfig(utility=target, coarse_to_fine=CoarseToFine(proxy, 3))
    survivors = list(rerank(lst, config).candidate_indices)
    # the proxy's best three, in list order: the outlier at index 0 is pruned
    order, _ = rank_candidates(mbr_scores(build_utility_matrix(lst, "bleu", n)))
    assert survivors == sorted(order[:3]) and 0 not in survivors
    assert proxy.calls == [(everything, n)]
    assert target.calls == [(survivors, config.resolve_l(3))]
    oracle = _Recording()
    oracle_select(lst, oracle)
    assert oracle.calls == [(everything, "the cat sat on the mat")]
    sweep = _Recording()
    tune_l([lst], RerankConfig(utility=sweep))
    assert sweep.calls == [(everything, n)]


def test_matrix_utility_crops_rows_and_columns():
    values = np.arange(12.0).reshape(4, 3) / 12.0
    util = MatrixUtility(UtilityMatrix(values=values, utility_name="toy"))
    got = util.matrix(trivial_list(2), range(2), 2)
    assert np.array_equal(got, values[:2, :2])
    # other rows are scored against the first l of them
    got = util.matrix(trivial_list(4), [0, 2], 2)
    assert np.array_equal(got, values[np.ix_([0, 2], [0, 2])])


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
    got = util.matrix(lst, range(3), 2)
    assert got.shape == (3, 2)
    # row = hypothesis, column = pseudo-reference
    assert got[2, 1] == float(3 * 10 + 2)
    assert client.pairs[0] == ("the source", "a", "a")
    assert all(src == "the source" for src, _, _ in client.pairs)
    # the reference is one outside column: one pair per candidate
    assert reference_scores(replace(lst, reference="ref"), util) == [13.0, 23.0, 33.0]
    assert client.pairs == [("the source", h, "ref") for h in ("a", "bb", "ccc")]


def test_chrf_utility_rejects_whitespace_only_candidate():
    # such a candidate cannot be built, so chrF never sees one
    from rmbr.core import Candidate

    with pytest.raises(InvalidInputError, match="non-whitespace"):
        Candidate(text="   ", tokens=("x",), log_prob=-1.0)


def test_bleu_utility_respects_l():
    rng = np.random.default_rng(19)
    lst = random_list(rng, 6)
    full = BleuUtility().matrix(lst, range(6), 6)
    trunc = BleuUtility().matrix(lst, range(6), 2)
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


_OVERLAP_SCORER = """
import json, sys
print(json.dumps({"protocol": "rmbr-scorer/1"}), flush=True)
sys.stdin.readline()
for line in sys.stdin:
    req = json.loads(line)
    hyp, ref = set(req["hyp"].split()), set(req["ref"].split())
    score = 2.0 * len(hyp & ref) / (len(hyp) + len(ref))
    print(json.dumps({"id": req["id"], "score": score}), flush=True)
"""


def _list_config(config, i):
    """List i's config, from a config resolved for all lists."""
    stages = config.coarse_to_fine
    if stages is not None:
        stages = replace(stages, proxy=stages.proxy[i])
    return replace(config, utility=config.utility[i], coarse_to_fine=stages)


def test_rerank_lists_equals_rerank_list_by_list(tmp_path):
    rng = np.random.default_rng(52)
    lists = [random_list(rng, 6, with_extras=True) for _ in range(4)]
    shared, per_list = tmp_path / "shared.mat", tmp_path / "per.mat"
    write_utility_matrix(shared, random_matrix(rng, 6))
    write_utility_matrices(per_list, [random_matrix(rng, 6) for _ in lists])
    script = tmp_path / "scorer.py"
    script.write_text(_OVERLAP_SCORER, encoding="utf-8")
    service = f"service:exec:{sys.executable} {script}"
    lambdas = {"lp": 0.1, "qe": 0.2}
    specs = ["bleu", "chrf", f"matrix:{shared}", f"matrix:{per_list}", service]
    configs = [RerankConfig(utility=u, l=l, lambdas=lambdas) for u in specs for l in ("full", 3)]
    configs += [
        RerankConfig(utility=target, lambdas=lambdas, coarse_to_fine=CoarseToFine(proxy, 4))
        for target in ("bleu", service)
        for proxy in ("chrf", f"matrix:{shared}", f"matrix:{per_list}", service)
    ]
    for config in configs:
        with UtilitySession() as session:
            resolved = session.resolve(config, len(lists))
            alone = [rerank(lst, _list_config(resolved, i)) for i, lst in enumerate(lists)]
        together = rerank_lists(lists, config)
        assert repr(together) == repr(alone) and together == alone
        if str(per_list) not in repr(config):
            assert together == [rerank(lst, config) for lst in lists]
        assert all(type(v) is float for r in together for v in r.total_scores)


@pytest.mark.parametrize("call", [check_reranking, rerank_lists])
def test_a_list_that_fails_its_check_fails_the_run_before_any_scorer_starts(tmp_path, call):
    rng = np.random.default_rng(53)
    lists = [random_list(rng, 4, with_extras=True) for _ in range(4)]
    bare = tuple(replace(c, external_scores={}) for c in lists[3].candidates)
    lists[3] = replace(lists[3], candidates=bare)
    script = tmp_path / "scorer.py"
    script.write_text(_PID_LOGGING_SCORER, encoding="utf-8")
    log = tmp_path / "starts.log"
    log.touch()
    spec = f"service:exec:{sys.executable} {script} {log}"
    for stages in (None, CoarseToFine(spec, 2)):
        config = RerankConfig(utility=spec, lambdas={"qe": 1.0}, coarse_to_fine=stages)
        with pytest.raises(MissingScoreError, match="no external score 'qe'"):
            call(lists, config)
        with UtilitySession() as session:
            with pytest.raises(MissingScoreError, match="no external score 'qe'"):
                call(lists, session.resolve(config, len(lists)))
            assert session.counters() == {"scorer_processes": 0, "scorer_pairs": 0}
    assert log.read_text(encoding="utf-8") == ""
