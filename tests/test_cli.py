"""End-to-end checks of the ``rmbr`` command line."""

import argparse
import gc
from collections import Counter
import importlib
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

import rmbr
import rmbr.analysis as analysis
import rmbr.cli as cli
import rmbr.errors as errors
import rmbr.mbr as mbr
from rmbr.analysis import grid_search_lambdas, oracle_histogram, token_prob_by_length, tune_l
from rmbr.cli import build_parser, main
from rmbr.core import CoarseToFine, NBestList, RerankConfig, UtilityMatrix, check_corpus
from rmbr.errors import InvalidInputError, MissingScoreError
from rmbr.io import read_results, write_nbest, write_utility_matrices, write_utility_matrix
from rmbr.mbr import MatrixUtility, rerank
from rmbr.metrics import corpus_bleu

from conftest import (
    PROTOCOL,
    ScorerServer,
    length_score,
    make_candidate,
    make_list,
    random_list,
    random_matrix,
)

# where ``rmbr`` is imported from, for the commands run as child processes
_SRC = os.path.dirname(os.path.dirname(rmbr.__file__))


@pytest.fixture
def dev_file(tmp_path):
    rng = np.random.default_rng(40)
    lists = [random_list(rng, 5, with_extras=True) for _ in range(6)]
    path = tmp_path / "dev.jsonl"
    write_nbest(path, lists)
    return str(path), lists


def run(args):
    return main([str(a) for a in args])


# ---------------------------------------------------------------------------
# happy paths


def test_rerank_text_mode_matches_api(dev_file, tmp_path, capsys):
    path, lists = dev_file
    out = tmp_path / "sel.txt"
    assert run(["rerank", "-i", path, "-o", out, "--l", "2", "--lambda", "lp=0.5"]) == 0
    config = RerankConfig(utility="bleu", l=2, lambdas={"lp": 0.5})
    want = [lst.candidates[rerank(lst, config).selected].text for lst in lists]
    assert out.read_text(encoding="utf-8").splitlines() == want
    assert "reranked 6 lists" in capsys.readouterr().out


def test_rerank_full_mode_matches_api(dev_file, tmp_path):
    path, lists = dev_file
    out = tmp_path / "sel.jsonl"
    assert run(["rerank", "-i", path, "-o", out, "--mode", "full"]) == 0
    got = read_results(out)
    config = RerankConfig(utility="bleu")
    for result, lst in zip(got, lists):
        want = rerank(lst, config)
        assert result.ranking == want.ranking
        assert result.selected == want.selected
        assert result.mbr_scores == want.mbr_scores
        assert result.total_scores == want.total_scores


def test_full_mode_regularizer_scores_follow_flag_order(dev_file, tmp_path):
    path, _ = dev_file
    out = tmp_path / "sel.jsonl"
    for names in (["qe", "lp"], ["lp", "qe"]):
        args = ["rerank", "-i", path, "-o", out, "--mode", "full"]
        for name in names:
            args += ["--lambda", f"{name}=0.1"]
        assert run(args) == 0
        for line in out.read_text(encoding="utf-8").splitlines():
            assert list(json.loads(line)["regularizer_scores"]) == names


def test_c2f_matches_api(dev_file, tmp_path):
    path, lists = dev_file
    out = tmp_path / "sel.txt"
    code = run(
        ["c2f", "-i", path, "-o", out, "--utility", "chrf", "--proxy", "bleu", "--keep", "3"]
    )
    assert code == 0
    config = RerankConfig(
        utility="chrf", coarse_to_fine=CoarseToFine(proxy="bleu", keep=3)
    )
    want = [lst.candidates[rerank(lst, config).selected].text for lst in lists]
    assert out.read_text(encoding="utf-8").splitlines() == want


def test_rerank_threads_give_identical_bytes(dev_file, tmp_path):
    path, _ = dev_file
    outputs = []
    for threads in (1, 8):
        out = tmp_path / f"t{threads}.jsonl"
        args = ["rerank", "-i", path, "-o", out, "--mode", "full", "--threads", threads]
        assert run(args) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_rerank_writes_run_report(dev_file, tmp_path):
    path, lists = dev_file
    out = tmp_path / "sel.txt"
    assert run(["rerank", "-i", path, "-o", out]) == 0
    report = json.loads((tmp_path / "sel.txt.report.json").read_text(encoding="utf-8"))
    assert report["command"] == "rerank"
    assert report["lists"] == len(lists)
    assert report["utility_calls"] == [lst.n * lst.n for lst in lists]
    assert report["total_utility_calls"] == sum(lst.n * lst.n for lst in lists)
    assert report["elapsed_seconds"] >= 0
    assert report["config"]["input"] == path
    assert report["scorer_processes"] == 0
    assert report["scorer_pairs"] == 0


def test_matrix_utility_from_file(tmp_path):
    rng = np.random.default_rng(41)
    lists = [random_list(rng, 4) for _ in range(3)]
    matrices = [random_matrix(rng, 4, name="ext") for _ in range(3)]
    nbest = tmp_path / "in.jsonl"
    mats = tmp_path / "u.mat"
    out = tmp_path / "sel.txt"
    write_nbest(nbest, lists)
    write_utility_matrices(mats, matrices)
    assert run(["rerank", "-i", nbest, "-o", out, "--utility", f"matrix:{mats}"]) == 0
    want = []
    for lst, matrix in zip(lists, matrices):
        totals = matrix.values.sum(axis=1) / matrix.l
        want.append(lst.candidates[int(np.argmax(totals))].text)
    assert out.read_text(encoding="utf-8").splitlines() == want


def test_tuning_commands_accept_one_matrix_per_list(dev_file, tmp_path, capsys):
    path, lists = dev_file
    rng = np.random.default_rng(43)
    matrices = [random_matrix(rng, lst.n, name="ext") for lst in lists]
    mats = tmp_path / "u.mat"
    write_utility_matrices(mats, matrices)
    per_list = [MatrixUtility(m) for m in matrices]
    spec = f"matrix:{mats}"

    out = tmp_path / "tuned.json"
    args = ["tune-lambda", "-i", path, "-o", out, "--utility", spec, "--regularizers", "qe,lp"]
    assert run(args) == 0
    config = RerankConfig(utility=per_list, lambdas={"qe": 0.0, "lp": 0.0})
    best, objective = grid_search_lambdas(lists, config)
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record == {"lambdas": best, "objective": objective, "metric": "bleu"}

    out = tmp_path / "depth.json"
    assert run(["tune-l", "-i", path, "-o", out, "--utility", spec]) == 0
    best_l, objective, curve = tune_l(lists, RerankConfig(utility=per_list))
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record == {"l": best_l, "objective": objective, "curve": curve, "metric": "bleu"}

    for dry in ([], ["--dry-run"]):
        capsys.readouterr()
        assert run(["oracle", "-i", path, "--utility", spec, *dry]) == 1
        assert "cannot score against new references" in capsys.readouterr().err


def test_service_utility_over_tcp(tmp_path, scorer_server):
    server = scorer_server(length_score)
    lists = [make_list(["aaaa bb", "aaaa bbb", "cc"]) for _ in range(2)]
    nbest = tmp_path / "in.jsonl"
    out = tmp_path / "sel.txt"
    write_nbest(nbest, lists)
    spec = f"service:127.0.0.1:{server.port}"
    assert run(["rerank", "-i", nbest, "-o", out, "--utility", spec]) == 0

    def u(hyp, ref):
        if hyp == ref:
            return 1.0
        return 1.0 / (2 + abs(len(hyp) - len(ref)) + len(hyp) % 3)

    texts = [c.text for c in lists[0].candidates]
    totals = [sum(u(h, r) for r in texts) / len(texts) for h in texts]
    want = texts[max(range(len(texts)), key=lambda i: (totals[i], -i))]
    assert out.read_text(encoding="utf-8").splitlines() == [want, want]


def test_eval_prints_exact_corpus_bleu(tmp_path, capsys):
    hyps = ["the cat sat on the mat", "a quick brown fox"]
    refs = ["the cat sat on a mat", "the quick brown fox"]
    hyp_path = tmp_path / "h.txt"
    ref_path = tmp_path / "r.txt"
    hyp_path.write_text("\n".join(hyps) + "\n", encoding="utf-8")
    ref_path.write_text("\n".join(refs) + "\n", encoding="utf-8")
    assert run(["eval", "--hyps", hyp_path, "--refs", ref_path]) == 0
    name, repr_score = capsys.readouterr().out.split()
    assert name == "bleu"
    want = corpus_bleu([h.split() for h in hyps], [r.split() for r in refs])
    assert float(repr_score) == want


def test_tune_lambda_writes_record(tmp_path):
    def lst(ref, junk):
        cands = (
            make_candidate(junk, -0.1, external_scores={"qe": 0.0}),
            make_candidate(ref, -0.2, external_scores={"qe": 1.0}),
        )
        return NBestList(source="s", candidates=cands, reference=ref)

    lists = [lst("good words in here", "bad stuff out there")]
    path = tmp_path / "dev.jsonl"
    out = tmp_path / "tuned.json"
    write_nbest(path, lists)
    code = run(
        [
            "tune-lambda", "-i", path, "-o", out,
            "--regularizers", "qe", "--grid", "0.001,0.01,1.0",
        ]
    )
    assert code == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    config = RerankConfig(utility="bleu", lambdas={"qe": 0.0})
    best, objective = grid_search_lambdas(lists, config, grid=(0.001, 0.01, 1.0))
    assert record == {"lambdas": best, "objective": objective, "metric": "bleu"}
    assert (tmp_path / "tuned.json.report.json").exists()


def test_tune_l_writes_record(dev_file, tmp_path):
    path, lists = dev_file
    out = tmp_path / "depth.json"
    assert run(["tune-l", "-i", path, "-o", out, "--metric", "chrf"]) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    best_l, objective, curve = tune_l(lists, RerankConfig(utility="bleu"), "chrf")
    assert record == {"l": best_l, "objective": objective, "curve": list(curve), "metric": "chrf"}


@pytest.mark.parametrize("metric", ["bleu", "chrf"])
@pytest.mark.parametrize("command", ["tune-lambda", "tune-l"])
def test_tuner_output_bytes(dev_file, tmp_path, capsys, command, metric):
    """The record file is the record in its documented key order, indented
    by two, and stdout is the best setting and the objective, exactly."""
    path, lists = dev_file
    out = tmp_path / "tuned.json"
    if command == "tune-lambda":
        flags = ["--regularizers", "lp,qe", "--grid", "0.1,1"]
        config = RerankConfig(lambdas={"lp": 0.0, "qe": 0.0})
        best, objective = grid_search_lambdas(lists, config, (0.1, 1.0), metric)
        record = {"lambdas": best, "objective": objective, "metric": metric}
        best_line = f"best lambdas: {json.dumps(best)}"
    else:
        flags = ["--lambda", "qe=0.5"]
        best_l, objective, curve = tune_l(lists, RerankConfig(lambdas={"qe": 0.5}), metric)
        record = {"l": best_l, "objective": objective, "curve": curve, "metric": metric}
        best_line = f"best l: {best_l}"
    assert run([command, "-i", path, "-o", out, "--metric", metric, *flags]) == 0
    assert out.read_text(encoding="utf-8") == json.dumps(record, indent=2) + "\n"
    assert capsys.readouterr().out == f"{best_line}\n{metric}: {objective:.6f}\n"


def test_a_negative_grid_given_as_one_word_is_searched(tmp_path):
    """``--grid=-1,1`` is a grid: weight -1 on qe picks the reference-like
    candidate, which qe scores lower."""
    cands = (
        make_candidate("bad stuff out there", -0.1, external_scores={"qe": 1.0}),
        make_candidate("good words in here", -0.2, external_scores={"qe": 0.0}),
    )
    lists = [NBestList(source="s", candidates=cands, reference="good words in here")]
    path, out = tmp_path / "dev.jsonl", tmp_path / "tuned.json"
    write_nbest(path, lists)
    assert run(["tune-lambda", "-i", path, "-o", out, "--regularizers", "qe", "--grid=-1,1"]) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["lambdas"] == {"qe": -1.0}
    assert record["objective"] == 1.0


def test_oracle_writes_record_and_table(dev_file, tmp_path, capsys):
    path, lists = dev_file
    out = tmp_path / "oracle.json"
    assert run(["oracle", "-i", path, "-o", out, "--bins", "2"]) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record == oracle_histogram(lists, bin_width=2).to_record()
    assert "oracle corpus metric" in capsys.readouterr().out


def test_tokenprob_writes_record(dev_file, tmp_path):
    path, lists = dev_file
    out = tmp_path / "probs.json"
    assert run(["tokenprob", "-i", path, "-o", out, "--bins", "4"]) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record == token_prob_by_length(lists, interval_width=4).to_record()


def test_dry_run_validates_without_output(dev_file, tmp_path, capsys):
    path, _ = dev_file
    out = tmp_path / "never.txt"
    commands = [
        ["rerank", "-i", path, "-o", out, "--dry-run"],
        ["c2f", "-i", path, "-o", out, "--keep", "2", "--dry-run"],
        ["tune-lambda", "-i", path, "--regularizers", "qe", "--dry-run"],
        ["tune-l", "-i", path, "--dry-run"],
        ["oracle", "-i", path, "--dry-run"],
        ["tokenprob", "-i", path, "--dry-run"],
    ]
    for args in commands:
        assert run(args) == 0, args
        assert "ok:" in capsys.readouterr().out
    assert not out.exists()


_FLAGS = {
    "rerank": "-i --input -o --output --dry-run --utility --l --lambda --mode --threads",
    "c2f": "-i --input -o --output --dry-run --utility --lambda --proxy --keep --mode --threads",
    "tune-lambda": "-i --input -o --output --dry-run --utility --l --regularizers --grid --metric",
    "tune-l": "-i --input -o --output --dry-run --utility --lambda --metric",
    "oracle": "-i --input -o --output --dry-run --utility --bins --metric",
    "tokenprob": "-i --input -o --output --dry-run --bins --which",
    "eval": "--hyps --refs --metric --dry-run",
}


def test_each_subcommand_takes_only_the_flags_it_reads(dev_file, tmp_path, capsys):
    (subs,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    got = {
        name: [s for a in sub._actions for s in a.option_strings if s not in ("-h", "--help")]
        for name, sub in subs.choices.items()
    }
    assert got == {name: flags.split() for name, flags in _FLAGS.items()}
    path, _ = dev_file
    for words in (
        ["rerank", "--thr", 2],
        ["c2f", "--keep", 2, "--l", 3],
        ["tune-l", "--l", 3],
        ["tune-lambda", "--regularizers", "lp", "--lambda", "lp=1"],
    ):
        assert run(words + ["-i", path, "-o", tmp_path / "o"]) == 1, words
        assert capsys.readouterr().err.startswith("error:")


_LIST_FIELDS = ("source", "candidates", "reference", "reference_token_log_probs")


def _nbest_record(**edits):
    """One list record in the file format; an edit of a list field replaces
    the list's, and every other edit is made to candidate 1."""
    cands = [
        {"text": "a b", "tokens": ["a", "b"], "log_prob": -1.0},
        {"text": "a c", "tokens": ["a", "c"], "log_prob": -2.0},
    ]
    rec = {"source": "s", "candidates": cands, "reference": "a b"}
    rec.update({k: edits.pop(k) for k in _LIST_FIELDS if k in edits})
    cands[1].update(edits)
    return json.dumps(rec) + "\n"


# a field of the wrong JSON type, and the start of the message naming it
_WRONG_TYPES = {
    "external-scores-array": ({"external_scores": [0.5]}, "external_scores must be an object"),
    "external-score-true": ({"external_scores": {"qe": True}}, "external score 'qe' must be"),
    "token-entropies-string": ({"token_entropies": "12"}, "token_entropies must be an array"),
    "token-log-probs-string": ({"token_log_probs": "0"}, "token_log_probs must be an array"),
    "mc-pass-scores-string-entry": ({"mc_pass_scores": [1.0, "2"]}, "mc_pass_scores must be"),
    "reference-token-log-probs-string": (
        {"reference_token_log_probs": "00"}, "reference_token_log_probs must be an array"
    ),
    "log-prob-false": ({"log_prob": False}, "log_prob must be a number, got false"),
    "log-prob-string": ({"log_prob": "-1.5"}, 'log_prob must be a number, got "-1.5"'),
    "log-prob-past-float-range": ({"log_prob": -(10**400)}, "int too large"),
    "source-int": ({"source": 7}, "source must be a string or null, got 7"),
    "source-list": ({"source": ["s"]}, "source must be a string or null"),
    "candidates-object": (
        {"candidates": {"text": "a b", "tokens": ["a", "b"], "log_prob": -1.0}},
        "candidates must be an array of objects",
    ),
    "candidates-strings": ({"candidates": ["a b"]}, "candidates must be an array of objects"),
    "tokens-nested-list": ({"tokens": [["a"], "c"]}, "candidate tokens must be an array of"),
    "tokens-object-entry": ({"tokens": [{"x": 1}, "c"]}, "candidate tokens must be an array of"),
    "tokens-numbers": ({"tokens": [1, 2]}, "candidate tokens must be an array of strings"),
    **{
        f"{field}-{name}": (edit, f"{label} must be finite")
        for name, value in (("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf))
        for field, edit, label in (
            ("token-log-probs", {"token_log_probs": [-1.0, value]}, "token_log_probs"),
            ("mc-pass-scores", {"mc_pass_scores": [value, 1.0]}, "mc_pass_scores"),
            ("token-entropies", {"token_entropies": [value, 1.0]}, "token_entropies"),
            ("external-score", {"external_scores": {"qe": value}}, "external score 'qe'"),
            (
                "reference-token-log-probs",
                {"reference_token_log_probs": [value]},
                "reference_token_log_probs",
            ),
        )
    },
}


@pytest.mark.parametrize("case", sorted(_WRONG_TYPES))
def test_loader_rejects_a_field_of_the_wrong_json_type(tmp_path, capsys, case):
    edit, message = _WRONG_TYPES[case]
    path = tmp_path / "in.jsonl"
    path.write_text(_nbest_record(**edit), encoding="utf-8")
    assert run(["rerank", "-i", path, "-o", tmp_path / "out.txt"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: line 1: {message}") and err.count("\n") == 1
    assert list(tmp_path.glob("out.txt*")) == []


def test_tokenprob_rejects_a_positive_reference_log_prob(tmp_path, capsys):
    path = tmp_path / "in.jsonl"
    path.write_text(_nbest_record(reference_token_log_probs=[0.5, 0.7]), encoding="utf-8")
    args = ["tokenprob", "-i", path, "--which", "reference", "-o", tmp_path / "out.json"]
    for dry in ([], ["--dry-run"]):
        assert run(args + dry) == 1
        assert capsys.readouterr().err == (
            "error: line 1: reference_token_log_probs entries must be <= 0\n"
        )
    assert list(tmp_path.glob("out.json*")) == []


# "DEV" is the dev set; in "NOREF" and "BLANK" list 2 has no reference or a
# blank one; "BARE" lists carry no token log-probabilities.  "N3" holds one
# list of 3 candidates, "MAT2" a 2x2 matrix and "MAT3" a 3x3 one; the 2x2
# "MATBIG" has a first row whose sum overflows.  "N9" holds one list of 9
# candidates; the 9x9 "MATSHALLOW" has a first row whose 9 columns sum to a
# finite value but whose first 3 overflow.  "TEXT7",
# "REF5", "TOKSTR", "TOKNEST" and "BLANKTEXT" hold one record with a
# non-string text, a non-string reference, a string of tokens, a list token
# and a blank text; "BYTES" is
# not UTF-8 and "DIR" is a directory.  "QE308" holds one list of two
# candidates whose qe scores are 1e308.  A case that names no --utility gets
# the scorer's, and one that names no -o writes to "out.json".
_DRY_RUN_CASES = {
    "text-int-chrf": ["rerank", "-i", "TEXT7", "--utility", "chrf"],
    "text-int-bleu": ["rerank", "-i", "TEXT7"],
    "reference-int": ["tune-l", "-i", "REF5"],
    "tokens-string": ["rerank", "-i", "TOKSTR"],
    "tokens-nested": ["rerank", "-i", "TOKNEST"],
    "blank-text-rerank": ["rerank", "-i", "BLANKTEXT", "--utility", "chrf"],
    "blank-text-c2f": [
        "c2f", "-i", "BLANKTEXT", "--utility", "chrf", "--proxy", "chrf", "--keep", "1"
    ],
    "not-utf8-input": ["rerank", "-i", "BYTES"],
    "not-utf8-eval": ["eval", "--hyps", "BYTES", "--refs", "REFS"],
    "not-utf8-matrix": ["rerank", "-i", "N3", "--utility", "matrix:BYTES"],
    "input-directory": ["rerank", "-i", "DIR"],
    "c2f-matrix-target": ["c2f", "-i", "N3", "--keep", "2", "--utility", "matrix:MAT3"],
    "rerank-matrix-too-small": ["rerank", "-i", "N3", "--utility", "matrix:MAT2"],
    "rerank-l2-matrix-too-small": ["rerank", "-i", "N3", "--l", "2", "--utility", "matrix:MAT2"],
    "tune-lambda-matrix-too-small": [
        "tune-lambda", "-i", "N3", "--regularizers", "lp", "--utility", "matrix:MAT2"
    ],
    "tune-l-matrix-too-small": ["tune-l", "-i", "N3", "--utility", "matrix:MAT2"],
    "c2f-proxy-matrix-too-small": [
        "c2f", "-i", "N3", "--keep", "2", "--utility", "bleu", "--proxy", "matrix:MAT2"
    ],
    "c2f-l": ["c2f", "-i", "DEV", "--keep", "2", "--l", "3"],
    "tune-l-l": ["tune-l", "-i", "DEV", "--l", "3"],
    "tune-lambda-lambda": [
        "tune-lambda", "-i", "DEV", "--regularizers", "lp", "--lambda", "lp=1"
    ],
    "rerank-abbreviated": ["rerank", "-i", "DEV", "--thr", "2"],
    "rerank-lambda-nan": ["rerank", "-i", "DEV", "--lambda", "lp=nan"],
    "rerank-lambda-inf": ["rerank", "-i", "DEV", "--lambda", "lp=inf"],
    "c2f-lambda-nan": ["c2f", "-i", "DEV", "--keep", "2", "--lambda", "qe=nan"],
    "rerank-combine-overflow": ["rerank", "-i", "QE308", "--lambda", "qe=10"],
    "c2f-combine-overflow": ["c2f", "-i", "QE308", "--keep", "1", "--lambda", "qe=10"],
    "rerank-matrix-overflow": ["rerank", "-i", "BARE", "--utility", "matrix:MATBIG"],
    "rerank-matrix-lambda-overflow": [
        "rerank", "-i", "QE308", "--utility", "matrix:MATBIG", "--l", "1", "--lambda", "qe=1.5"
    ],
    "c2f-matrix-proxy-overflow": [
        "c2f", "-i", "BARE", "--utility", "chrf", "--proxy", "matrix:MATBIG", "--keep", "1"
    ],
    "tune-l-matrix-overflow": ["tune-l", "-i", "BARE", "--utility", "matrix:MATBIG"],
    "tune-l-matrix-shallow-overflow": ["tune-l", "-i", "N9", "--utility", "matrix:MATSHALLOW"],
    "tune-lambda-matrix-overflow": [
        "tune-lambda", "-i", "BARE", "--regularizers", "lp", "--utility", "matrix:MATBIG"
    ],
    "tune-lambda-grid-overflow": [
        "tune-lambda", "-i", "QE308", "--regularizers", "qe", "--grid", "10"
    ],
    "tune-lambda-grid-nan": ["tune-lambda", "-i", "DEV", "--regularizers", "qe", "--grid", "nan"],
    "tune-lambda-grid-empty": ["tune-lambda", "-i", "DEV", "--regularizers", "qe", "--grid", ","],
    "oracle-bins-0": ["oracle", "-i", "DEV", "--bins", "0"],
    "tokenprob-bins-0": ["tokenprob", "-i", "DEV", "--bins", "0"],
    "tokenprob-no-token-log-probs": ["tokenprob", "-i", "BARE"],
    "tokenprob-no-reference-log-probs": ["tokenprob", "-i", "DEV", "--which", "reference"],
    "eval-blank-line-bleu": ["eval", "--hyps", "HYPS", "--refs", "REFS"],
    "eval-blank-line-chrf": ["eval", "--hyps", "HYPS", "--refs", "REFS", "--metric", "chrf"],
    **{
        f"{command}-output-directory": [command, "-i", "DEV", *flags, "-o", "DIR"]
        for command, flags in (
            ("rerank", []),
            ("c2f", ["--keep", "2"]),
            ("tune-lambda", ["--regularizers", "lp"]),
            ("tune-l", []),
            ("oracle", []),
            ("tokenprob", []),
        )
    },
    **{
        f"{command}-{ref}-reference-{metric}": [
            command, "-i", file, "--metric", metric,
            *(["--regularizers", "lp"] if command == "tune-lambda" else []),
        ]
        for command in ("tune-lambda", "tune-l", "oracle")
        for ref, file in (("missing", "NOREF"), ("blank", "BLANK"))
        for metric in ("bleu", "chrf")
    },
}


@pytest.mark.parametrize("case", sorted(_DRY_RUN_CASES))
def test_dry_run_agrees_with_real_run(dev_file, tmp_path, capsys, case):
    """Both runs exit 1 with the same error line, with no traceback.  Neither
    writes a file, and the ``service:exec:`` scorer, given to every scoring
    case that names no utility of its own, never starts."""
    dev, lists = dev_file
    spec, log = _logging_scorer(tmp_path, "ok")
    files = {"DEV": dev, "HYPS": tmp_path / "h.txt", "REFS": tmp_path / "r.txt"}
    (tmp_path / "h.txt").write_text("a b\n\nc d\n", encoding="utf-8")
    (tmp_path / "r.txt").write_text("a b\ne f\n \t\n", encoding="utf-8")
    for name, ref in (("NOREF", None), ("BLANK", " \t ")):
        files[name] = tmp_path / f"{name}.jsonl"
        edited = [replace(lst, reference=ref) if i == 2 else lst for i, lst in enumerate(lists)]
        write_nbest(files[name], edited)
    files["BARE"] = tmp_path / "bare.jsonl"
    write_nbest(files["BARE"], [make_list(["a b", "c d"], reference="a b")])
    files["QE308"] = tmp_path / "qe308.jsonl"
    qe308 = tuple(
        make_candidate(t, -1.0 - i, external_scores={"qe": 1e308})
        for i, t in enumerate(["a b", "a c"])
    )
    write_nbest(files["QE308"], [NBestList("s", qe308, reference="a b")])
    files["N3"] = tmp_path / "n3.jsonl"
    write_nbest(files["N3"], [make_list(["x y z", "a b c", "a b d"], reference="a b d")])
    files["N9"] = tmp_path / "n9.jsonl"
    write_nbest(files["N9"], [make_list([f"a w{i}" for i in range(9)], reference="a w1")])
    shallow = np.zeros((9, 9))
    shallow[0, :4] = [1e308, 0.0, 1e308, -1e308]
    for name, rows in (
        ("MAT2", [[0.9, 0.1], [0.1, 0.5]]),
        ("MAT3", [[0.9] * 3, [0.1] * 3, [0.5] * 3]),
        ("MATBIG", [[1.5e308, 1.5e308], [0.0, 0.0]]),
        ("MATSHALLOW", shallow),
    ):
        write_utility_matrix(tmp_path / name, UtilityMatrix(values=rows, utility_name="ext"))
        files[f"matrix:{name}"] = f"matrix:{tmp_path / name}"
    for name, edit in (
        ("TEXT7", {"text": 7}),
        ("REF5", {"reference": 5}),
        ("TOKSTR", {"tokens": "a b"}),
        ("TOKNEST", {"tokens": [["a"], "c"]}),
        ("BLANKTEXT", {"text": " \t "}),
    ):
        files[name] = tmp_path / f"{name}.jsonl"
        files[name].write_text(_nbest_record(**edit), encoding="utf-8")
    files["BYTES"] = tmp_path / "bytes"
    files["BYTES"].write_bytes(b'{"source": "\xff"}\n')
    files["matrix:BYTES"] = f"matrix:{files['BYTES']}"
    files["DIR"] = tmp_path / "dir"
    files["DIR"].mkdir()
    args = [files.get(w, w) for w in _DRY_RUN_CASES[case]]
    if args[0] != "eval" and "-o" not in args:
        args += ["-o", tmp_path / "out.json"]
    if args[0] not in ("tokenprob", "eval") and "--utility" not in args:
        args += ["--utility", spec]
    errors = []
    for dry in ([], ["--dry-run"]):
        assert run(args + dry) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("error:") and errors[0].count("\n") == 1
    assert list(tmp_path.glob("out.json*")) == []
    assert _started_pids(log) == []


def test_dry_run_checks_a_stored_matrix_at_the_real_depth(tmp_path):
    """A 3x2 matrix covers a 3-candidate list at l = 2, dry and real."""
    path = tmp_path / "n3.jsonl"
    write_nbest(path, [make_list(["x y z", "a b c", "a b d"])])
    mat = tmp_path / "m.mat"
    write_utility_matrix(mat, UtilityMatrix(values=np.ones((3, 2)), utility_name="ext"))
    args = ["rerank", "-i", path, "-o", tmp_path / "o.txt", "--l", "2"]
    for dry in ([], ["--dry-run"]):
        assert run(args + ["--utility", f"matrix:{mat}"] + dry) == 0


@pytest.mark.parametrize(
    "header,rows,message",
    [
        ('{"utility_name": 7, "n": 1, "l": 1}', "0.5", "utility_name must be a string, got 7"),
        ('{"utility_name": "ext", "n": 1, "l": 2}', "0.1 0.2", "utility matrix has l=2 > n=1"),
    ],
    ids=["name-int", "l-above-n"],
)
def test_a_matrix_header_the_constructor_rejects_fails_on_its_line(
    tmp_path, capsys, header, rows, message
):
    path = tmp_path / "n1.jsonl"
    write_nbest(path, [make_list(["a b"])])
    mat = tmp_path / "bad.mat"
    mat.write_text(f"{header}\n{rows}\n", encoding="utf-8")
    args = ["rerank", "-i", path, "-o", tmp_path / "o.txt", "--utility", f"matrix:{mat}"]
    for dry in ([], ["--dry-run"]):
        assert run(args + dry) == 1
        assert capsys.readouterr().err == f"error: line 1: {message}\n"
    assert list(tmp_path.glob("o.txt*")) == []


# the commands that write a run report, each with the flags it needs
_REPORTING_RUNS = {
    "rerank": [],
    "c2f": ["--keep", "2"],
    "tune-lambda": ["--regularizers", "lp"],
    "tune-l": [],
    "oracle": [],
}


def _paired(commands, variants):
    """Each command with each variant; the first variant's cases keep the
    command alone as their id."""
    return [
        pytest.param(c, v, id=c if v == variants[0] else f"{c}-{v}")
        for v in variants
        for c in sorted(commands)
    ]


# places where an output cannot be written: a directory at its report path,
# a missing directory and a regular file as its parent
_UNWRITABLE = ("directory", "missing-directory", "file-as-parent")


@pytest.mark.parametrize("command,place", _paired(_REPORTING_RUNS, _UNWRITABLE))
def test_a_run_report_path_that_is_a_directory_is_refused_before_any_work(
    dev_file, tmp_path, capsys, command, place
):
    """A command that writes ``<output>.report.json`` refuses a directory
    there as it refuses one at ``-o``, and an ``-o`` in a missing directory
    or under a regular file: dry and real exit 1 with the same error line,
    nothing is written and no scorer starts."""
    dev, _ = dev_file
    spec, log = _logging_scorer(tmp_path, "ok")
    if place == "directory":
        out = tmp_path / "out"
        (tmp_path / "out.report.json").mkdir()
        message = f"output path {out}.report.json is a directory"
    else:
        parent = tmp_path / "missing" if place == "missing-directory" else tmp_path / "dev.jsonl"
        out = parent / "out"
        message = f"output path {out}: {os.path.realpath(parent)} is not a writable directory"
    files = sorted(tmp_path.iterdir())
    args = [command, "-i", dev, *_REPORTING_RUNS[command], "-o", out, "--utility", spec]
    for dry in ([], ["--dry-run"]):
        assert run(args + dry) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(tmp_path.iterdir()) == files
    assert _started_pids(log) == []
    if place == "directory":
        # tokenprob writes no report, so a directory there is no matter
        assert run(["tokenprob", "-i", dev, "-o", out]) == 0 and out.is_file()


@pytest.mark.parametrize("command", sorted(_REPORTING_RUNS))
def test_an_output_written_in_place_gets_no_run_report(dev_file, tmp_path, command):
    """A report is written only beside an output that is replaced: with a
    FIFO at ``-o``, dry and real runs exit 0, the reader gets the bytes a
    regular file gets, and no ``fifo.report.json`` appears; the regular
    file still gets its report."""
    dev, _ = dev_file
    args = [command, "-i", dev, *_REPORTING_RUNS[command], "-o"]
    assert run(args + [tmp_path / "out"]) == 0
    assert (tmp_path / "out.report.json").is_file()
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    assert run(args + [fifo, "--dry-run"]) == 0
    got = []
    reader = threading.Thread(
        target=lambda: got.append(fifo.read_text(encoding="utf-8")), daemon=True
    )
    reader.start()
    assert run(args + [fifo]) == 0
    reader.join(timeout=30)
    assert got == [(tmp_path / "out").read_text(encoding="utf-8")]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "dev.jsonl", "fifo", "out", "out.report.json"
    ]


def test_an_output_on_dev_stdout_reaches_a_pipe(dev_file, tmp_path, capsys):
    """``-o /dev/stdout`` with stdout a pipe is written in place: the run
    exits 0, the pipe gets the file a path would get, and stderr the summary."""
    dev, _ = dev_file
    assert run(["tokenprob", "-i", dev, "-o", tmp_path / "t.json"]) == 0
    summary = capsys.readouterr().out
    record = (tmp_path / "t.json").read_text(encoding="utf-8")
    assert _run_process(["tokenprob", "-i", dev, "-o", "/dev/stdout"]) == (0, record, summary)


@pytest.mark.parametrize(
    "command", [["rerank", "--mode", "full"], ["tune-lambda", "--regularizers", "lp"]],
    ids=["rerank-full", "tune-lambda"],
)
def test_a_pipe_on_dev_stdout_holds_the_output_alone(dev_file, tmp_path, capsys, command):
    """A run whose ``-o`` is ``/dev/stdout`` on a pipe prints its summary to
    stderr, so the captured bytes are the output a path gets, which
    ``read_results`` or ``json.loads`` reads whole."""
    dev, _ = dev_file
    out = tmp_path / "out"
    assert run([*command, "-i", dev, "-o", out]) == 0
    summary = capsys.readouterr().out
    code, piped, err = _run_process([*command, "-i", dev, "-o", "/dev/stdout"])
    assert (code, piped) == (0, out.read_text(encoding="utf-8"))
    assert err == summary.replace(str(out), "/dev/stdout")
    captured = tmp_path / "captured"
    captured.write_text(piped, encoding="utf-8")
    if command[0] == "rerank":
        assert read_results(captured) == read_results(out)
    else:
        assert json.loads(piped) == json.loads(out.read_text(encoding="utf-8"))


def test_an_output_on_dev_stderr_leaves_the_summary_on_stdout(dev_file, tmp_path, capsys):
    """Only an output on stdout's own file moves the summary: with
    ``-o /dev/stderr``, stderr gets the output alone and stdout the summary."""
    dev, _ = dev_file
    out = tmp_path / "out"
    assert run(["rerank", "--mode", "full", "-i", dev, "-o", out]) == 0
    summary = capsys.readouterr().out
    code, printed, err = _run_process(["rerank", "--mode", "full", "-i", dev, "-o", "/dev/stderr"])
    assert (code, err) == (0, out.read_text(encoding="utf-8"))
    assert printed == summary.replace(str(out), "/dev/stderr")


def test_eval_equals_corpus_objective_bit_for_bit(dev_file, tmp_path, capsys):
    """``eval`` and the tuners' objective take one corpus score: corpus BLEU,
    or the mean sentence chrF summed in list order."""
    _, lists = dev_file
    picks = [i % lst.n for i, lst in enumerate(lists)]
    hyps, refs = tmp_path / "h.txt", tmp_path / "r.txt"
    picked = [lst.candidates[i].text for lst, i in zip(lists, picks)]
    hyps.write_text("".join(f"{text}\n" for text in picked), "utf-8")
    refs.write_text("".join(f"{lst.reference}\n" for lst in lists), "utf-8")
    for metric in ("chrf", "bleu"):
        assert run(["eval", "--hyps", hyps, "--refs", refs, "--metric", metric]) == 0
        want = analysis.corpus_objective(lists, picks, metric)
        assert capsys.readouterr().out == f"{metric} {want!r}\n"


# ---------------------------------------------------------------------------
# failure modes and exit codes


_DEEP_SCORER = """
import json, sys
deep = "[" * 200000
if sys.argv[1] == "response":
    print(json.dumps({"protocol": "rmbr-scorer/1"}), flush=True)
    sys.stdin.readline()
    sys.stdin.readline()
print(deep, flush=True)
sys.stdin.read()
"""


@pytest.mark.parametrize("where", ["nbest", "matrix-header", "handshake", "response"])
def test_a_deeply_nested_json_line_ends_the_run_with_one_error_line(
    dev_file, tmp_path, capsys, where
):
    """A line nested too deeply to decode, in the n-best file, at a matrix
    header or from a scorer, ends ``rerank`` with one ``error:`` line and
    the exit code of its kind, not a traceback."""
    dev, _ = dev_file
    deep = "[" * 200000
    args = ["rerank", "-i", dev, "-o", tmp_path / "out"]
    if where == "nbest":
        (tmp_path / "deep.jsonl").write_text(deep + "\n", encoding="utf-8")
        args[2] = tmp_path / "deep.jsonl"
        want = 1, "error: line 1: bad JSON: maximum recursion depth exceeded"
    elif where == "matrix-header":
        (tmp_path / "m.txt").write_text(deep + "\n", encoding="utf-8")
        args += ["--utility", f"matrix:{tmp_path / 'm.txt'}"]
        want = 1, "error: line 1: bad matrix header: maximum recursion depth exceeded"
    else:
        script = tmp_path / "deep.py"
        script.write_text(_DEEP_SCORER, encoding="utf-8")
        args += ["--utility", f"service:exec:{sys.executable} {script} {where}"]
        heading = "bad scorer handshake" if where == "handshake" else "malformed scorer response"
        want = 2, f"error: list 0: {heading}: '{'[' * 256}'... (200001 characters)\n"
    code = run(args)
    err = capsys.readouterr().err
    assert (code, err[: len(want[1])]) == want
    assert err.count("\n") == 1 and err.endswith("\n")
    assert list(tmp_path.glob("out*")) == []


# the exit status README documents for each class in rmbr.errors
_DOCUMENTED_EXIT_CODES = {
    "RmbrError": 1,
    "InvalidInputError": 1,
    "ConfigError": 1,
    "MissingScoreError": 1,
    "ParseError": 1,
    "DimensionError": 1,
    "TransportError": 2,
    "ScoringError": 2,
}
_ERROR_CLASSES = [
    c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.RmbrError)
]


@pytest.mark.parametrize("error", _ERROR_CLASSES, ids=lambda c: c.__name__)
def test_every_rmbr_error_exits_with_its_documented_status(monkeypatch, capsys, error):
    """Whatever a command raises of :mod:`rmbr.errors`, the base class
    included, ``main()`` returns the status documented for its class and
    prints one ``error:`` line."""

    def fail(args):
        raise error("it failed")

    monkeypatch.setitem(cli._COMMANDS, "eval", fail)
    assert run(["eval", "--hyps", "h.txt", "--refs", "r.txt"]) == (
        _DOCUMENTED_EXIT_CODES[error.__name__]
    )
    assert capsys.readouterr() == ("", "error: it failed\n")


@pytest.mark.parametrize("error", _ERROR_CLASSES, ids=lambda c: c.__name__)
def test_in_list_names_the_list_and_keeps_the_class_and_its_exit_code(error):
    with pytest.raises(error) as raised:
        with errors.in_list(3):
            raise error("it failed")
    assert type(raised.value) is error and str(raised.value) == "list 3: it failed"
    assert raised.value.exit_code == _DOCUMENTED_EXIT_CODES[error.__name__]


@pytest.mark.parametrize("error", [KeyboardInterrupt, ValueError])
def test_in_list_lets_every_other_exception_pass_unchanged(error):
    thrown = error("it failed")
    with pytest.raises(error) as raised:
        with errors.in_list(3):
            raise thrown
    assert raised.value is thrown and str(thrown) == "it failed"


def test_a_lambda_without_a_value_exits_1(dev_file, tmp_path, capsys):
    path, _ = dev_file
    assert run(["rerank", "-i", path, "-o", tmp_path / "o.txt", "--lambda", "qe"]) == 1
    assert capsys.readouterr().err == "error: --lambda wants NAME=VALUE, got 'qe'\n"
    assert list(tmp_path.glob("o.txt*")) == []


def test_validation_failures_exit_1(dev_file, tmp_path, capsys):
    path, _ = dev_file
    out = tmp_path / "o.txt"
    bad = [
        ["rerank", "-i", path, "-o", out, "--lambda", "qe=abc"],
        ["rerank", "-i", path, "-o", out, "--lambda", "lp=1", "--lambda", "lp=2"],
        ["rerank", "-i", path, "-o", out, "--l", "x"],
        ["rerank", "-i", path, "-o", out, "--l", "0"],
        ["rerank", "-i", path, "-o", out, "--l", "99"],
        ["rerank", "-i", path, "-o", out, "--utility", "tf-idf"],
        ["rerank", "-i", tmp_path / "missing.jsonl", "-o", out],
        ["c2f", "-i", path, "-o", out, "--keep", "99"],
        ["tune-lambda", "-i", path, "--regularizers", "qe", "--grid", "0.1,zz"],
        ["tune-lambda", "-i", path, "--regularizers", ","],
        ["tune-lambda", "-i", path, "--regularizers", "qe,qe"],
        ["rerank", "-i", path, "-o", out, "--nope"],
    ]
    for args in bad:
        assert run(args) == 1, args
        assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_missing_regularizer_field_exits_1(tmp_path, capsys):
    lists = [make_list(["a b", "c d"])]  # no mc_pass_scores anywhere
    path = tmp_path / "dev.jsonl"
    write_nbest(path, lists)
    args = ["rerank", "-i", path, "-o", tmp_path / "o.txt", "--lambda", "mc_dropout=1"]
    assert run(args) == 1
    assert "mc_pass_scores" in capsys.readouterr().err


def test_parse_error_reports_line_and_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.jsonl"
    path.write_text('{"source": "s", "candidates": []}\nnot json\n', encoding="utf-8")
    assert run(["rerank", "-i", path, "-o", tmp_path / "o.txt"]) == 1
    assert "line 1" in capsys.readouterr().err  # empty candidate list dies first


def test_matrix_count_mismatch_exits_1(tmp_path, capsys):
    rng = np.random.default_rng(42)
    lists = [random_list(rng, 4) for _ in range(3)]
    nbest = tmp_path / "in.jsonl"
    mats = tmp_path / "u.mat"
    write_nbest(nbest, lists)
    write_utility_matrices(mats, [random_matrix(rng, 4), random_matrix(rng, 4)])
    args = ["rerank", "-i", nbest, "-o", tmp_path / "o.txt", "--utility", f"matrix:{mats}"]
    assert run(args) == 1
    assert "2 matrices for 3 lists" in capsys.readouterr().err


def test_eval_length_mismatch_exits_1(tmp_path, capsys):
    hyp_path = tmp_path / "h.txt"
    ref_path = tmp_path / "r.txt"
    hyp_path.write_text("a\nb\n", encoding="utf-8")
    ref_path.write_text("a\n", encoding="utf-8")
    assert run(["eval", "--hyps", hyp_path, "--refs", ref_path]) == 1
    assert "2 hypotheses but 1 references" in capsys.readouterr().err


@pytest.mark.parametrize("dry", [False, True])
@pytest.mark.parametrize("metric", ["bleu", "chrf"])
def test_eval_empty_files_exit_1(tmp_path, capsys, metric, dry):
    for name in ("h.txt", "r.txt"):
        (tmp_path / name).write_text("", encoding="utf-8")
    args = ["eval", "--hyps", tmp_path / "h.txt", "--refs", tmp_path / "r.txt"]
    args += ["--metric", metric] + (["--dry-run"] if dry else [])
    assert run(args) == 1
    assert capsys.readouterr().err == "error: empty corpus\n"


@pytest.mark.parametrize(
    "hyps, refs, message",
    [
        ("a\nb\n", "a\n", "2 hypotheses but 1 references"),
        ("", "", "empty corpus"),
        ("a\n \n", "a\nb\n", "empty sentence at corpus position 1"),
    ],
    ids=["length", "empty-corpus", "empty-sentence"],
)
def test_eval_and_corpus_bleu_make_one_corpus_check(tmp_path, capsys, hyps, refs, message):
    (tmp_path / "h.txt").write_text(hyps, encoding="utf-8")
    (tmp_path / "r.txt").write_text(refs, encoding="utf-8")
    for dry in ([], ["--dry-run"]):
        assert run(["eval", "--hyps", tmp_path / "h.txt", "--refs", tmp_path / "r.txt", *dry]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    tokens = [h.split() for h in hyps.splitlines()], [r.split() for r in refs.splitlines()]
    for check in (check_corpus, corpus_bleu):
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            check(*tokens)


_WHITESPACE_REFERENCE_ERRORS = {
    ("oracle", "bleu"): "list 0: no reference",
    ("tune-l", "bleu"): "list 0: no reference",
    ("tune-lambda", "bleu"): "list 0: no reference",
    ("oracle", "chrf"): "list 0: no reference",
    ("tune-l", "chrf"): "list 0: no reference",
    ("tune-lambda", "chrf"): "list 0: no reference",
}


@pytest.mark.parametrize("command, metric", sorted(_WHITESPACE_REFERENCE_ERRORS))
def test_whitespace_only_reference_exits_1(tmp_path, capsys, command, metric):
    path = tmp_path / "dev.jsonl"
    write_nbest(path, [make_list(["a b", "b c"], reference=" \t ")])
    args = [command, "-i", path, "--utility", metric, "--metric", metric]
    if command == "tune-lambda":
        args += ["--regularizers", "lp"]
    assert run(args) == 1
    want = _WHITESPACE_REFERENCE_ERRORS[command, metric]
    assert capsys.readouterr().err == f"error: {want}\n"


def test_connection_refused_exits_2(dev_file, tmp_path, capsys):
    path, _ = dev_file
    args = [
        "rerank", "-i", path, "-o", tmp_path / "o.txt",
        "--utility", "service:127.0.0.1:1",
    ]
    assert run(args) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_scorer_error_response_exits_2(tmp_path, scorer_server, capsys):
    server = scorer_server(lambda req: {"id": req["id"], "error": "no model loaded"})
    lists = [make_list(["a b", "c d"])]
    nbest = tmp_path / "in.jsonl"
    write_nbest(nbest, lists)
    args = [
        "rerank", "-i", nbest, "-o", tmp_path / "o.txt",
        "--utility", f"service:127.0.0.1:{server.port}",
    ]
    assert run(args) == 2
    assert "no model loaded" in capsys.readouterr().err


@pytest.mark.parametrize("mangle", [lambda rid: [rid], bool, float], ids=["list", "bool", "float"])
def test_scorer_response_with_a_non_int_id_exits_2(tmp_path, scorer_server, capsys, mangle):
    server = scorer_server(lambda req: {"id": mangle(req["id"]), "score": 0.5})
    nbest = tmp_path / "in.jsonl"
    write_nbest(nbest, [make_list(["a b", "c d"])])
    args = [
        "rerank", "-i", nbest, "-o", tmp_path / "o.txt",
        "--utility", f"service:127.0.0.1:{server.port}",
    ]
    assert run(args) == 2
    # the first response already fails, the one for id 0
    assert capsys.readouterr().err == (
        f"error: list 0: scorer response for unknown or duplicate id {mangle(0)!r}\n"
    )
    assert not (tmp_path / "o.txt").exists()


def _half(req):
    return json.dumps({"id": req["id"], "score": 0.5})


def _boom(req):
    return json.dumps({"id": req["id"], "error": "boom"})


def _failing_on_list_3(answer):
    """A TCP scorer that scores every pair 0.5 but list 3's: its requests get
    ``answer(request)``, one response line, or no answer where that is None."""

    def handler(reader, writer):
        writer.write(json.dumps({"protocol": PROTOCOL}) + "\n")
        writer.flush()
        reader.readline()
        for line in reader:
            req = json.loads(line)
            reply = (answer if req["src"] == "source 3" else _half)(req)
            if reply is not None:
                writer.write(reply + "\n")
                writer.flush()

    return ScorerServer(handler)


# each run's flags past its input and output, with "{bad}" for the failing
# scorer's spec and "{ok}" for one that scores every pair
_SCORING_RUNS = {
    "rerank": ["rerank", "--utility", "{bad}"],
    "c2f-proxy": ["c2f", "--keep", "2", "--proxy", "{bad}", "--utility", "{ok}"],
    "c2f-target": ["c2f", "--keep", "2", "--proxy", "{ok}", "--utility", "{bad}"],
    "tune-lambda": ["tune-lambda", "--utility", "{bad}", "--regularizers", "lp", "--grid=0,1"],
    "tune-l": ["tune-l", "--utility", "{bad}"],
    "oracle": ["oracle", "--utility", "{bad}"],
}


@pytest.mark.parametrize(
    "run_name, answer, message",
    [
        *[(name, _boom, "scorer failed on pair 0: boom") for name in _SCORING_RUNS],
        ("rerank", lambda req: '{"id": %d, "score": NaN}' % req["id"],
         "scorer returned a non-finite score for pair 0: nan"),
        ("rerank", lambda req: "not json", "malformed scorer response: 'not json\\n'"),
        ("rerank", lambda req: '{"id": "x", "score": 0.5}',
         "scorer response for unknown or duplicate id 'x'"),
        ("rerank", lambda req: None, "timed out after 1.0s waiting for scorer response"),
    ],
    ids=[*_SCORING_RUNS, "rerank-nan", "rerank-malformed", "rerank-str-id", "rerank-timeout"],
)
def test_every_scorer_failure_names_its_list(
    tmp_path, monkeypatch, capsys, run_name, answer, message
):
    """A scorer that fails only on list 3's requests: every scoring command
    exits 2 with the client's message after ``list 3:``, and writes nothing."""
    monkeypatch.setenv("RMBR_SCORER_TIMEOUT_SECS", "1")
    lists = [
        make_list(["a b", "b c", "c d"], source=f"source {i}", reference="a b c")
        for i in range(5)
    ]
    path = tmp_path / "dev.jsonl"
    write_nbest(path, lists)
    # one server per stage: a server serves one connection at a time
    bad, ok = _failing_on_list_3(answer), _failing_on_list_3(_half)
    specs = {"{bad}": f"service:127.0.0.1:{bad.port}", "{ok}": f"service:127.0.0.1:{ok.port}"}
    command, *flags = _SCORING_RUNS[run_name]
    flags = [specs.get(flag, flag) for flag in flags]
    try:
        code = run([command, "-i", path, "-o", tmp_path / "out", *flags])
    finally:
        bad.close()
        ok.close()
    assert (code, capsys.readouterr().err) == (2, f"error: list 3: {message}\n")
    assert list(tmp_path.glob("out*")) == []


_NONFINITE_SCORER = """
import json, os, sys
with open(sys.argv[1], "w") as fh:
    fh.write(str(os.getpid()))
print(json.dumps({"protocol": "rmbr-scorer/1"}), flush=True)
sys.stdin.readline()
for line in sys.stdin:
    print('{"id": %d, "score": %s}' % (json.loads(line)["id"], sys.argv[2]), flush=True)
"""


@pytest.mark.parametrize("literal", ["NaN", "Infinity"])
def test_nonfinite_scorer_score_exits_2_and_stops_scorer(tmp_path, capsys, literal):
    script = tmp_path / "scorer.py"
    script.write_text(_NONFINITE_SCORER, encoding="utf-8")
    pid_file = tmp_path / "scorer.pid"
    nbest = tmp_path / "in.jsonl"
    write_nbest(nbest, [make_list(["a b", "c d"])])
    spec = f"service:exec:{sys.executable} {script} {pid_file} {literal}"
    assert run(["rerank", "-i", nbest, "-o", tmp_path / "o.txt", "--utility", spec]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "o.txt").exists()
    # the client waited for its scorer, so the pid no longer names a process
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)


_LOGGING_SCORER = """
import json, os, sys
with open(sys.argv[1], "a") as fh:
    fh.write("start %d\\n" % os.getpid())
mode = sys.argv[2]
print(json.dumps({"protocol": "rmbr-scorer/1"}), flush=True)
sys.stdin.readline()
for line in sys.stdin:
    if mode == "stall":
        with open(sys.argv[1] + ".requests", "a") as fh:
            fh.write(line)
        continue
    req = json.loads(line)
    if mode == "error":
        reply = {"id": req["id"], "error": "no model loaded"}
    elif mode == "huge":
        reply = {"id": req["id"], "score": 1e308}
    else:
        hyp, ref = set(req["hyp"].split()), set(req["ref"].split())
        reply = {"id": req["id"], "score": 2.0 * len(hyp & ref) / (len(hyp) + len(ref))}
    print(json.dumps(reply), flush=True)
"""


def _logging_scorer(tmp_path, mode):
    """A service spec whose scorer appends ``start <pid>`` to a log per start."""
    script = tmp_path / "scorer.py"
    script.write_text(_LOGGING_SCORER, encoding="utf-8")
    log = tmp_path / "starts.log"
    log.touch()
    return f"service:exec:{sys.executable} {script} {log} {mode}", log


def _started_pids(log):
    lines = log.read_text(encoding="utf-8").split()
    assert lines[0::2] == ["start"] * (len(lines) // 2)
    return [int(pid) for pid in lines[1::2]]


def _assert_all_gone(pids):
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


_SCORER_COMMANDS = {
    "rerank": (["rerank", "--utility", "S"], 1),
    "c2f-target": (["c2f", "--utility", "S", "--proxy", "bleu", "--keep", "3"], 1),
    "c2f-proxy": (["c2f", "--utility", "bleu", "--proxy", "S", "--keep", "3"], 1),
    "c2f-both": (["c2f", "--utility", "S", "--proxy", "S", "--keep", "3"], 2),
    "tune-lambda": (["tune-lambda", "--utility", "S", "--regularizers", "qe"], 1),
    "tune-l": (["tune-l", "--utility", "S"], 1),
    "oracle": (["oracle", "--utility", "S"], 1),
}


def _scorer_command(command, spec, *extra):
    words, specs = _SCORER_COMMANDS[command]
    args = [spec if w == "S" else w for w in words]
    args[1:1] = extra
    return args, specs


@pytest.mark.parametrize("mode", ["ok", "error", "stall", "dry"])
@pytest.mark.parametrize("command", sorted(_SCORER_COMMANDS))
def test_one_scorer_per_spec_and_none_outlives_the_run(
    dev_file, tmp_path, capsys, monkeypatch, command, mode
):
    path, _ = dev_file
    spec, log = _logging_scorer(tmp_path, "ok" if mode == "dry" else mode)
    args, specs = _scorer_command(command, spec, "-i", path, "-o", tmp_path / "out")
    if mode == "dry":
        args.append("--dry-run")
    if mode == "stall":
        monkeypatch.setenv("RMBR_SCORER_TIMEOUT_SECS", "0.2")
    code = run(args)
    err = capsys.readouterr().err
    pids = _started_pids(log)
    if mode == "ok":
        assert code == 0, err
        assert len(pids) == specs
    elif mode == "dry":
        assert code == 0, err
        assert pids == []
        assert not (tmp_path / "out").exists()
    elif mode == "error":
        assert code == 2
        assert "no model loaded" in err
        # a scorer starts on its first batch, and the first batch fails
        assert len(pids) == 1
    else:
        assert code == 2
        assert "timed out" in err
        # a start slower than the timeout fails the handshake before logging
        assert len(pids) <= specs
    _assert_all_gone(pids)


_OVERFLOW_COMMANDS = {
    "rerank": ["rerank", "--utility", "S"],
    "c2f-proxy": ["c2f", "--utility", "bleu", "--proxy", "S", "--keep", "2"],
    "c2f-target": ["c2f", "--utility", "S", "--proxy", "bleu", "--keep", "2"],
    "tune-lambda": ["tune-lambda", "--utility", "S", "--regularizers", "qe"],
    "tune-l": ["tune-l", "--utility", "S"],
}


@pytest.mark.parametrize("command", sorted(_OVERFLOW_COMMANDS))
def test_scorer_values_that_overflow_are_a_scoring_failure(tmp_path, capsys, command):
    """A scorer that answers every pair with 1e308, which the protocol
    allows, makes the consensus of a 2-candidate list overflow.  The values
    known before scoring all rank, so that is a scoring failure (exit 2)
    naming the list, as a non-finite score is: no output file, no scorer
    left running.  Its dry run cannot see the scores and passes."""
    cands = tuple(
        make_candidate(t, -1.0 - i, external_scores={"qe": 0.5})
        for i, t in enumerate(["a b", "a c"])
    )
    nbest = tmp_path / "in.jsonl"
    write_nbest(nbest, [NBestList("das haus", cands, reference="a b")])
    spec, log = _logging_scorer(tmp_path, "huge")
    args = [spec if w == "S" else w for w in _OVERFLOW_COMMANDS[command]]
    args += ["-i", nbest, "-o", tmp_path / "out"]
    assert run(args) == 2
    assert capsys.readouterr().err == (
        "error: list 0: scores are not finite\n"
    )
    assert list(tmp_path.glob("out*")) == []
    pids = _started_pids(log)
    assert len(pids) == 1
    _assert_all_gone(pids)
    assert run(args + ["--dry-run"]) == 0
    assert len(_started_pids(log)) == 1


def test_a_stored_matrix_that_overflows_only_at_a_shallower_depth_is_invalid_input(
    tmp_path, capsys
):
    """The sweep checks a stored matrix at every depth it ranks, in its dry
    run too.  Its 9-column sum is finite (numpy adds 8 partial sums), but
    its first 3 columns sum past the float range, so depth 3 fails before
    anything is scored: as invalid input, since the values come from a
    file, not from a scorer."""
    nbest = tmp_path / "in.jsonl"
    write_nbest(nbest, [make_list([f"a w{i}" for i in range(9)], reference="a w1")])
    values = np.zeros((9, 9))
    values[0, :4] = [1e308, 0.0, 1e308, -1e308]
    write_utility_matrix(tmp_path / "mat", UtilityMatrix(values=values, utility_name="ext"))
    args = ["tune-l", "-i", nbest, "--utility", f"matrix:{tmp_path / 'mat'}"]
    assert run(args + ["--dry-run"]) == 1
    assert capsys.readouterr().err == "error: list 0: total scores must be finite\n"
    assert run(args) == 1
    assert capsys.readouterr().err == "error: list 0: total scores must be finite\n"


def test_tuners_check_every_list_before_a_scorer_starts(tmp_path):
    """List 1 lacks the weighted qe score: both library tuners raise before
    they score list 0, so the scorer of their ``service:exec:`` spec never
    starts."""
    rng = np.random.default_rng(44)
    lists = [random_list(rng, 3, with_extras=True) for _ in range(2)]
    bare = tuple(replace(c, external_scores={}) for c in lists[1].candidates)
    lists[1] = replace(lists[1], candidates=bare)
    spec, log = _logging_scorer(tmp_path, "ok")
    calls = [
        lambda: tune_l(lists, RerankConfig(utility=spec, lambdas={"qe": 1.0})),
        lambda: grid_search_lambdas(lists, RerankConfig(utility=spec, lambdas={"qe": 0.0})),
    ]
    for call in calls:
        with pytest.raises(MissingScoreError, match="no external score 'qe'"):
            call()
    assert _started_pids(log) == []


@pytest.mark.parametrize("dry", [False, True])
@pytest.mark.parametrize("command, checks", [("rerank", 4), ("c2f", 8)])
def test_a_reranking_command_checks_each_list_once_and_reads_a_stored_matrix_once(
    tmp_path, monkeypatch, command, checks, dry
):
    """4 lists, each read through a per-list stored matrix (the c2f proxy)
    and weighted by two regularizers: one check per list and stage, one
    matrix read per list and one read per list and regularizer, in a dry
    run as in a real one."""
    rng = np.random.default_rng(57)
    lists = [random_list(rng, 5, with_extras=True) for _ in range(4)]
    nbest, matrices = tmp_path / "in.jsonl", tmp_path / "m.mat"
    write_nbest(nbest, lists)
    write_utility_matrices(matrices, [random_matrix(rng, 5) for _ in lists])
    calls = []
    for owner, name in (
        (mbr, "checked_values"),
        (mbr, "regularizer_values"),
        (MatrixUtility, "matrix"),
    ):
        counted = getattr(owner, name)
        monkeypatch.setattr(
            owner, name, lambda *a, name=name, f=counted: calls.append(name) or f(*a)
        )
    stage = ["--utility", f"matrix:{matrices}"]
    if command == "c2f":
        stage = ["--proxy", f"matrix:{matrices}", "--keep", "3"]
    args = [command, "-i", nbest, "-o", tmp_path / "out", *stage]
    args += ["--lambda", "lp=0.1", "--lambda", "qe=0.2"] + (["--dry-run"] if dry else [])
    assert run(args) == 0
    assert Counter(calls) == {"checked_values": checks, "matrix": 4, "regularizer_values": 8}


@pytest.mark.parametrize("dry", [False, True])
@pytest.mark.parametrize("command", ["rerank", "c2f-target", "c2f-proxy", "c2f-both"])
def test_a_reranking_command_checks_every_list_before_a_scorer_starts(
    tmp_path, capsys, command, dry
):
    rng = np.random.default_rng(58)
    lists = [random_list(rng, 5, with_extras=True) for _ in range(4)]
    bare = tuple(replace(c, external_scores={}) for c in lists[3].candidates)
    lists[3] = replace(lists[3], candidates=bare)
    nbest = tmp_path / "in.jsonl"
    write_nbest(nbest, lists)
    spec, log = _logging_scorer(tmp_path, "ok")
    args, _ = _scorer_command(command, spec, "-i", nbest, "-o", tmp_path / "out")
    assert run(args + ["--lambda", "qe=1"] + (["--dry-run"] if dry else [])) == 1
    assert capsys.readouterr().err == "error: list 3: candidate 0 has no external score 'qe'\n"
    assert _started_pids(log) == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("dry", [False, True])
@pytest.mark.parametrize("command", ["tune-lambda", "tune-l"])
def test_a_tuning_command_checks_once_and_never_through_check_list(
    dev_file, tmp_path, monkeypatch, command, dry
):
    path, _ = dev_file
    calls = []
    for name, tag in (
        ("check_objective", "objective"),
        ("lambda_grid", "grid"),
        ("_checked_tuning", "tuning"),
    ):
        checked = getattr(analysis, name)
        monkeypatch.setattr(
            analysis, name, lambda *a, tag=tag, f=checked: calls.append(tag) or f(*a)
        )
    monkeypatch.setattr(mbr, "check_reranking", lambda *a: calls.append("check_list"))
    flags = ["--regularizers", "lp,qe"] if command == "tune-lambda" else ["--lambda", "qe=1"]
    args = [command, "-i", path, "-o", tmp_path / "out", *flags]
    assert run(args + (["--dry-run"] if dry else [])) == 0
    grid = ["grid"] if command == "tune-lambda" else []
    assert calls == ["tuning", "objective", *grid]


@pytest.mark.parametrize("dry", [False, True])
@pytest.mark.parametrize("command", ["tune-lambda", "tune-l"])
def test_a_tuning_command_checks_its_lists_through_the_reranking_check_pass(
    dev_file, tmp_path, monkeypatch, command, dry
):
    """One call of ``_checked_lists`` per run: a grid search passes its two
    extreme weight rows at its one depth, a sweep every depth 1..min n with
    the config's own weight row."""
    path, _ = dev_file
    calls = []
    checked = mbr._checked_lists

    def recorded(session, lists, config, weights=None, depths=(None,)):
        calls.append((dict(config.lambdas), weights, list(depths)))
        return checked(session, lists, config, weights, depths)

    monkeypatch.setattr(analysis, "_checked_lists", recorded)
    if command == "tune-lambda":
        flags = ["--regularizers", "lp,qe", "--grid=0.5,-1,2"]
        want = ({"lp": 0.0, "qe": 0.0}, [(-1.0, -1.0), (2.0, 2.0)], [None])
    else:
        flags = ["--lambda", "qe=1", "--lambda", "lp=0.5"]
        want = ({"qe": 1.0, "lp": 0.5}, None, [1, 2, 3, 4, 5])
    args = [command, "-i", path, "-o", tmp_path / "out", *flags]
    assert run(args + (["--dry-run"] if dry else [])) == 0
    assert calls == [want]


@pytest.mark.parametrize("dry", [False, True])
@pytest.mark.parametrize(
    "spec",
    [
        "tf-idf",
        "service:exec:",
        "service:exec:python3 'unclosed",
        "service:localhost:0",
        # a well-formed scorer spec under a bad RMBR_SCORER_TIMEOUT_SECS
        *(f"timeout={v}" for v in ("soon", "nan", "inf", "-1", "0")),
    ],
)
@pytest.mark.parametrize("command", sorted(_SCORER_COMMANDS))
def test_malformed_spec_exits_1(
    dev_file, tmp_path, capsys, monkeypatch, command, spec, dry
):
    path, _ = dev_file
    log = None
    if spec.startswith("timeout="):
        monkeypatch.setenv("RMBR_SCORER_TIMEOUT_SECS", spec[len("timeout="):])
        spec, log = _logging_scorer(tmp_path, "ok")
    args, _ = _scorer_command(command, spec, "-i", path, "-o", tmp_path / "out")
    if dry:
        args.append("--dry-run")
    assert run(args) == 1
    assert capsys.readouterr().err.startswith("error:")
    if log is not None:
        assert _started_pids(log) == []


def test_rerank_starts_no_list_after_a_stalled_one(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(43)
    lists = [random_list(rng, 5) for _ in range(4)]
    nbest = tmp_path / "in.jsonl"
    write_nbest(nbest, lists)
    spec, log = _logging_scorer(tmp_path, "stall")
    monkeypatch.setenv("RMBR_SCORER_TIMEOUT_SECS", "0.5")
    args = ["rerank", "-i", nbest, "-o", tmp_path / "o.txt", "--utility", spec]
    assert run(args + ["--threads", 1]) == 2
    assert "timed out" in capsys.readouterr().err
    requests = (tmp_path / "starts.log.requests").read_text(encoding="utf-8")
    assert len(requests.splitlines()) == 5 * 5
    _assert_all_gone(_started_pids(log))


# how each signal ends a run: its exit code and its one error line
_STOPS = {
    "sigint": (signal.SIGINT, 130, b"error: interrupted\n"),
    "sigterm": (signal.SIGTERM, 143, b"error: terminated\n"),
}


@pytest.mark.parametrize("command,stop", _paired(_SCORER_COMMANDS, tuple(_STOPS)))
def test_ctrl_c_ends_the_run_and_its_scorers_at_once(dev_file, tmp_path, command, stop):
    """SIGINT, or SIGTERM, while a scorer stalls on its first batch ends the
    command well inside the 30 s scorer timeout with one error line and exit
    code 130, or 143, writes no output and leaves no scorer."""
    path, _ = dev_file
    spec, log = _logging_scorer(tmp_path, "stall")
    args, _ = _scorer_command(command, spec, "-i", path, "-o", tmp_path / "out")
    env = dict(os.environ, PYTHONPATH=_SRC, RMBR_SCORER_TIMEOUT_SECS="30")
    argv = [sys.executable, "-m", "rmbr.cli", *map(str, args)]
    # SIGINT at its default in the child, however the suite was started: a
    # background job inherits it ignored, and then Python installs no handler
    proc = subprocess.Popen(
        argv,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    try:
        deadline = time.monotonic() + 30
        while not (tmp_path / "starts.log.requests").exists():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        signum, code, message = _STOPS[stop]
        proc.send_signal(signum)
        try:
            _, err = proc.communicate(timeout=5)
        except subprocess.TimeoutExpired:
            pytest.fail(f"the command outlived {signum.name} by 5 s")
    finally:
        proc.kill()
        proc.communicate()
    assert (proc.returncode, err) == (code, message)
    assert list(tmp_path.glob("out*")) == []
    _assert_all_gone(_started_pids(log))


# probes for _run_process: the collector's state, and the array modules loaded
_COLLECTOR = "'collector', gc.isenabled(), gc.get_freeze_count()"
_ARRAY_MODULES = ("numpy", "rmbr.kernels", "rmbr.metrics")
_ARRAYS_LOADED = f"sorted(m for m in sys.modules if m in {_ARRAY_MODULES!r})"
# how the process enters: ``python -m rmbr.cli``, or as the installed
# ``rmbr`` script does, by importing the module and calling its run()
_ENTRIES = ("module", "script")


def _run_process(args, *, probe=None, entry="module"):
    """``python -m rmbr.cli ARGS`` in a child: exit code, stdout and stderr.

    With ``entry="script"`` the child enters as the installed ``rmbr``
    script does.  With ``probe``, an ``atexit`` handler registered before
    rmbr loads appends ``print(PROBE)`` to stderr, as :data:`_COLLECTOR`;
    the module entry then runs the module as ``__main__``.
    """
    argv = ["-m", "rmbr.cli", *map(str, args)]
    setup = ""
    if probe:
        setup = f"import atexit, gc; atexit.register(lambda: print({probe}, file=sys.stderr)); "
    if probe or entry == "script":
        enter = (
            "from rmbr.cli import run; run()"
            if entry == "script"
            else "import runpy; runpy.run_module('rmbr.cli', run_name='__main__', alter_sys=True)"
        )
        argv = ["-c", f"import sys; {setup}sys.argv = ['rmbr', *{argv[2:]!r}]; {enter}"]
    done = subprocess.run(
        [sys.executable, *argv],
        env=dict(os.environ, PYTHONPATH=_SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    return done.returncode, done.stdout, done.stderr


def _outputs(out):
    """Read and remove the output file and its run report (without its timing)."""
    files = {}
    for path in sorted(out.parent.glob(out.name + "*")):
        data = path.read_bytes()
        if path.name.endswith(".report.json"):
            report = json.loads(data)
            del report["elapsed_seconds"]
            data = report
        files[path.name] = data
        path.unlink()
    return files


@pytest.mark.parametrize(
    "case", ["rerank", "tune-lambda-service", "dry-run", "invalid-input", "nan-scorer"]
)
def test_the_process_entry_exits_as_main_returns(dev_file, tmp_path, capsys, case):
    """``python -m rmbr.cli`` and the installed script give the exit code,
    stdout, stderr and output files of an in-process :func:`main`, which
    leaves the collector on and unfrozen."""
    path, _ = dev_file
    out = tmp_path / "out" / "o.txt"
    out.parent.mkdir()
    spec, log = _logging_scorer(tmp_path, "ok")
    script = tmp_path / "nan.py"
    script.write_text(_NONFINITE_SCORER, encoding="utf-8")
    nan_spec = f"service:exec:{sys.executable} {script} {tmp_path / 'nan.pid'} NaN"
    args, code = {
        "rerank": (["rerank", "--lambda", "qe=0.5"], 0),
        "tune-lambda-service": (["tune-lambda", "--utility", spec, "--regularizers", "qe"], 0),
        "dry-run": (["tune-l", "--lambda", "lp=1", "--dry-run"], 0),
        "invalid-input": (["rerank", "--l", "99"], 1),
        "nan-scorer": (["rerank", "--utility", nan_spec], 2),
    }[case]
    args = [*args, "-i", path, "-o", out]
    frozen = gc.get_freeze_count()
    assert gc.isenabled()
    assert run(args) == code
    assert gc.isenabled() and gc.get_freeze_count() == frozen
    in_process = (code, *capsys.readouterr(), _outputs(out))
    for entry in _ENTRIES:
        assert (*_run_process(args, entry=entry), _outputs(out)) == in_process, entry
    assert bool(in_process[3]) == (case in ("rerank", "tune-lambda-service"))
    _assert_all_gone(_started_pids(log))


def test_the_process_entry_freezes_the_heap_before_exit(dev_file, tmp_path):
    """Both entries turn the cyclic collector off for the run and freeze the
    objects alive at exit, so the shutdown collections skip them; ``atexit``
    handlers still run after that, and a failing run exits the same way."""
    path, _ = dev_file
    args = ["rerank", "-i", path, "-o", tmp_path / "o.txt"]
    for entry in _ENTRIES:
        code, stdout, stderr = _run_process(args, probe=_COLLECTOR, entry=entry)
        assert (code, stdout) == (0, f"reranked 6 lists -> {tmp_path / 'o.txt'}\n"), entry
        word, enabled, count = stderr.split()
        assert (word, enabled) == ("collector", "False") and int(count) > 1000, entry
        code, _, stderr = _run_process(args + ["--l", "99"], probe=_COLLECTOR, entry=entry)
        assert code == 1 and stderr.startswith("error: list 0: l=99 exceeds"), entry
        assert stderr.split()[-2] == "False" and int(stderr.split()[-1]) > 1000, entry


_GARBAGE_RUNS = {
    "rerank": ["rerank", "--lambda", "lp=0.1", "--mode", "full"],
    "c2f": ["c2f", "--proxy", "chrf", "--keep", "3", "--mode", "full"],
    "service-rerank": ["rerank", "--utility", "S"],
    "tune-lambda": ["tune-lambda", "--regularizers", "lp,qe"],
    "tune-l": ["tune-l", "--lambda", "lp=0.1"],
    "oracle": ["oracle"],
}


@pytest.mark.parametrize("command", sorted(_GARBAGE_RUNS))
def test_a_run_leaves_as_much_cyclic_garbage_for_32_lists_as_for_4(tmp_path, command):
    """Why the process entry can run without the cyclic collector: a run
    leaves a fixed amount of cyclic garbage, however many lists it scores.
    The first run may import what later runs reuse, so it is not counted."""
    spec, _ = _logging_scorer(tmp_path, "ok")
    words = [spec if w == "S" else w for w in _GARBAGE_RUNS[command]]
    paths = {}
    for size in (4, 32):
        rng = np.random.default_rng(size)
        paths[size] = tmp_path / f"in{size}.jsonl"
        write_nbest(paths[size], [random_list(rng, 6, with_extras=True) for _ in range(size)])
    enabled = gc.isenabled()
    gc.disable()
    try:
        garbage = []
        for size in (4, 4, 32):
            gc.collect()
            assert run([*words, "-i", paths[size], "-o", tmp_path / "out"]) == 0
            assert not gc.isenabled()
            garbage.append(gc.collect())
    finally:
        if enabled:
            gc.enable()
    assert garbage[1] == garbage[2], garbage


_RARE_PATH_MODULES = ("concurrent.futures", "socket", "subprocess", "queue", "logging", "uuid")


def _modules_loaded_by(statement, prefixes):
    code = (
        f"import sys\n{statement}\n"
        f"print(sorted(m for m in sys.modules if m.startswith({prefixes!r})))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=_SRC),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_importing_the_cli_loads_no_pool_scorer_or_rare_path_modules(tmp_path):
    """The thread pool is gone, and the transports, the re-sort warning,
    the tuning and analysis commands, the scorer client and numpy are
    imported when they are needed; temp-file names come from
    ``os.urandom``, so no command imports ``uuid``."""
    rare = (*_RARE_PATH_MODULES, "rmbr.analysis", "rmbr.scorer", "select", "numpy")
    assert _modules_loaded_by("import rmbr.cli", rare) == "[]\n"
    assert _modules_loaded_by("import rmbr.io", rare) == "[]\n"
    nbest = tmp_path / "in.jsonl"
    write_nbest(nbest, [make_list(["a b c", "a b d", "x b c"])])
    runs = {
        "rerank": ["rerank", "--utility", "bleu"],
        "c2f": ["c2f", "--utility", "bleu", "--proxy", "chrf", "--keep", "2"],
    }
    client = ("rmbr.scorer", "select", "uuid")
    for name, words in runs.items():
        args = [*words, "-i", str(nbest), "-o", str(tmp_path / name)]
        command = f"from rmbr.cli import main; assert main({args!r}) == 0"
        assert _modules_loaded_by(command, client).splitlines()[-1] == "[]", name
        assert (tmp_path / name).exists()
    spec, _ = _logging_scorer(tmp_path, "ok")
    args = ["rerank", "-i", str(nbest), "-o", str(tmp_path / "s"), "--utility", spec]
    command = f"from rmbr.cli import main; assert main({args!r}) == 0"
    assert _modules_loaded_by(command, ("rmbr.scorer",)).splitlines()[-1] == "['rmbr.scorer']"
    # the package itself loads no submodule until a name is used, and a
    # submodule is an attribute of it, as when the package imported them all
    assert _modules_loaded_by("import rmbr", ("rmbr.",)) == "[]\n"
    loaded = _modules_loaded_by("import rmbr; rmbr.kernels.pair_match_counts", ("rmbr.",))
    assert loaded == "['rmbr.kernels']\n"


def test_numpy_loads_at_the_first_score_and_never_before(dev_file, tmp_path):
    """numpy, the kernels and the metrics load where a run first scores:
    ``--help``, a run that fails a check, every dry run and ``tokenprob``
    end without them, and a real ``rerank`` and ``eval`` load all three."""
    path, _ = dev_file
    spec, log = _logging_scorer(tmp_path, "ok")
    text = tmp_path / "text.txt"
    text.write_text("a b c\nd e\n", encoding="utf-8")
    out = tmp_path / "out"
    io_args = ["-i", path, "-o", out]
    evaluate = ["eval", "--hyps", text, "--refs", text]
    runs = {
        "help": (["--help"], 0),
        "exit 1": (["rerank", *io_args, "--l", "99"], 1),
        "rerank": (["rerank", *io_args, "--lambda", "lp=0.1", "--dry-run"], 0),
        "c2f": (["c2f", *io_args, "--proxy", "chrf", "--keep", "2", "--dry-run"], 0),
        "tune-lambda": (["tune-lambda", *io_args, "--regularizers", "lp,qe", "--dry-run"], 0),
        "tune-lambda service": (
            ["tune-lambda", *io_args, "--utility", spec, "--regularizers", "qe", "--dry-run"],
            0,
        ),
        "tune-l": (["tune-l", *io_args, "--lambda", "qe=1", "--dry-run"], 0),
        "oracle": (["oracle", *io_args, "--dry-run"], 0),
        "eval": ([*evaluate, "--dry-run"], 0),
        "tokenprob": (["tokenprob", "-i", path], 0),
    }
    for name, (args, want) in runs.items():
        code, _, stderr = _run_process(args, probe=_ARRAYS_LOADED)
        assert (code, stderr.splitlines()[-1]) == (want, "[]"), name
    assert _started_pids(log) == []
    assert not out.exists()
    for args in (["rerank", *io_args], evaluate):
        code, _, stderr = _run_process(args, probe=_ARRAYS_LOADED)
        assert (code, stderr.splitlines()[-1]) == (0, str(sorted(_ARRAY_MODULES))), args[0]


_NUMPY_AFTER_CORE = """
import json
from rmbr.core import Candidate, RerankConfig, RerankResult
from rmbr.errors import ConfigError, InvalidInputError

assert "numpy" not in sys.modules
plain = Candidate("a b", ["a", "b"], -1.0, token_log_probs=[-0.5, 0.0], external_scores={"qe": 1})
config = RerankConfig(l=2, lambdas={"lp": 0.5})
result = RerankResult([0.5], {}, [0.5], [0], 0, 1, [0])
import numpy as np

FIRST
built = Candidate(
    "a b",
    np.array(["a", "b"]),
    np.float64(-1.0),
    token_log_probs=np.array([-0.5, 0.0]),
    external_scores={"qe": np.int64(1)},
)
assert built == plain
assert {type(t) for t in built.tokens} == {str}
stored = (built.log_prob, *built.token_log_probs, *built.external_scores.values())
assert {type(v) for v in stored} == {float}
tuned = RerankConfig(l=np.int64(2), lambdas={"lp": np.float64(0.5)})
assert tuned == config and type(tuned.l) is int and type(tuned.lambdas["lp"]) is float
counts = (np.int64(0), np.int64(1), [np.int64(0)])
assert RerankResult(np.array([0.5]), {}, [np.float32(0.5)], np.array([0]), *counts) == result
try:
    Candidate("a b", ["a", "b"], np.bool_(False))
except InvalidInputError as e:
    assert str(e) == "log_prob must be a number, got " + json.dumps(repr(np.bool_(False))), e
else:
    raise AssertionError("np.bool_ taken as a number")
try:
    RerankConfig(l=np.bool_(True))
except ConfigError as e:
    assert str(e) == f"l must be an integer >= 1 or 'full', got {np.bool_(True)!r}", e
else:
    raise AssertionError("np.bool_ taken as an index")
"""


@pytest.mark.parametrize(
    "first",
    [
        'Candidate("a b", ["a", "b"], np.float64(-1.0))',
        'Candidate("a", ["a"], -1.0, token_log_probs=[np.float32(-0.5)])',
        "RerankConfig(l=np.int64(2))",
        "try:\n    RerankConfig(lambdas={'lp': np.bool_(True)})\nexcept ConfigError:\n    pass",
    ],
    ids=["number", "number list", "index", "bool"],
)
def test_numpy_values_are_taken_once_numpy_loads_after_a_numpy_free_start(first):
    """The constructors accept numpy's integer and float scalars, and 1-D
    arrays, from the first check after numpy is loaded, whichever check that
    is, and store them as the same plain values; ``np.bool_`` is no number."""
    assert _modules_loaded_by(_NUMPY_AFTER_CORE.replace("FIRST", first), ("rmbr.k",)) == "[]\n"


def test_the_scorer_client_is_one_class_under_every_name():
    import rmbr.io
    import rmbr.scorer

    assert rmbr.ScorerClient is rmbr.scorer.ScorerClient is rmbr.io.ScorerClient
    assert rmbr._HOME_OF["ScorerClient"] == "scorer"
    with pytest.raises(AttributeError, match="has no attribute 'PROTOCOL_VERSION'"):
        rmbr.io.PROTOCOL_VERSION


def test_every_public_name_resolves_to_its_home_module():
    for name in rmbr.__all__:
        home = importlib.import_module(f"rmbr.{rmbr._HOME_OF[name]}")
        value = getattr(rmbr, name)
        assert value is vars(home)[name], name
        # defined there, not imported there from elsewhere
        assert getattr(value, "__module__", home.__name__) == home.__name__, name
    assert set(rmbr.__all__) <= set(dir(rmbr))


def test_an_unknown_package_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        rmbr.no_such_name
    assert not hasattr(rmbr, "make_utility")
    with pytest.raises(ImportError):
        exec("from rmbr import no_such_name", {})


def test_threads_only_on_rerank_and_c2f(dev_file, tmp_path, capsys):
    path, _ = dev_file
    for words in (["rerank"], ["c2f", "--keep", 2]):
        for threads in (0, -3):
            for dry in ([], ["--dry-run"]):
                args = words + ["-i", path, "-o", tmp_path / "o", "--threads", threads]
                assert run(args + dry) == 1
                assert "error: --threads" in capsys.readouterr().err
    for words in (["tune-lambda", "--regularizers", "qe"], ["tune-l"], ["oracle"], ["tokenprob"]):
        assert run(words + ["-i", path, "--threads", 2]) == 1
        assert "--threads" in capsys.readouterr().err
    hyps = tmp_path / "h.txt"
    hyps.write_text("a b\n", encoding="utf-8")
    assert run(["eval", "--hyps", hyps, "--refs", hyps, "--threads", 2]) == 1


def test_oracle_report_counts_scorer_work(dev_file, tmp_path):
    path, lists = dev_file
    spec, log = _logging_scorer(tmp_path, "ok")
    out = tmp_path / "oracle.json"
    assert run(["oracle", "-i", path, "-o", out, "--utility", spec]) == 0
    report = json.loads((tmp_path / "oracle.json.report.json").read_text(encoding="utf-8"))
    assert report["command"] == "oracle"
    assert report["scorer_processes"] == 1
    # each list's candidates are scored against its reference: one pair each
    assert report["scorer_pairs"] == sum(lst.n for lst in lists)
    _assert_all_gone(_started_pids(log))


def test_tune_lambda_report_counts_scorer_work(dev_file, tmp_path):
    path, lists = dev_file
    spec, log = _logging_scorer(tmp_path, "ok")
    out = tmp_path / "tuned.json"
    args = ["tune-lambda", "-i", path, "-o", out, "--utility", spec, "--regularizers", "qe"]
    assert run(args) == 0
    report = json.loads((tmp_path / "tuned.json.report.json").read_text(encoding="utf-8"))
    assert report["scorer_processes"] == 1
    assert report["scorer_pairs"] == sum(lst.n * lst.n for lst in lists)
    _assert_all_gone(_started_pids(log))


def test_report_counts_pairs_from_concurrent_threads(dev_file, tmp_path):
    path, lists = dev_file
    spec, log = _logging_scorer(tmp_path, "ok")
    out = tmp_path / "sel.txt"
    args = ["rerank", "-i", path, "-o", out, "--utility", spec, "--threads", 8]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert run(args) == 0
    finally:
        sys.setswitchinterval(interval)
    report = json.loads((tmp_path / "sel.txt.report.json").read_text(encoding="utf-8"))
    assert report["scorer_processes"] == 1
    assert report["scorer_pairs"] == sum(lst.n * lst.n for lst in lists)
    _assert_all_gone(_started_pids(log))


@pytest.mark.parametrize(
    "words, sessions",
    [
        (["oracle"], 1),
        (["rerank", "--lambda", "lp=0.1"], 1),
        (["c2f", "--keep", "2", "--utility", "chrf"], 1),
        (["tune-lambda", "--regularizers", "lp,qe"], 1),
        (["tune-l"], 1),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else None,
)
def test_a_scoring_run_opens_no_session_per_list(tmp_path, monkeypatch, words, sessions):
    """The command opens one session, and checks, stops on ``--dry-run`` and
    scores in it: no library call opens another, real or dry."""
    rng = np.random.default_rng(45)
    path = tmp_path / "dev.jsonl"
    write_nbest(path, [random_list(rng, 4, with_extras=True) for _ in range(3)])
    opened = []
    init = mbr.UtilitySession.__init__

    def counted(session):
        opened.append(session)
        init(session)

    monkeypatch.setattr(mbr.UtilitySession, "__init__", counted)
    for dry in ([], ["--dry-run"]):
        opened.clear()
        assert run([words[0], "-i", path, "-o", tmp_path / "out", *words[1:], *dry]) == 0
        assert len(opened) == sessions


def test_rerank_checks_l_before_starting_a_scorer(tmp_path):
    spec, log = _logging_scorer(tmp_path, "ok")
    with pytest.raises(InvalidInputError):
        rerank(make_list(["a b", "c d"]), RerankConfig(utility=spec, l=3))
    assert _started_pids(log) == []


def test_grid_search_with_service_spec_leaves_no_child(dev_file, tmp_path):
    _, lists = dev_file
    spec, log = _logging_scorer(tmp_path, "ok")
    config = RerankConfig(utility=spec, lambdas={"qe": 0.0})
    grid_search_lambdas(lists, config, grid=(0.1, 1.0))
    pids = _started_pids(log)
    assert len(pids) == 1
    _assert_all_gone(pids)


def test_no_command_exits_1(capsys):
    assert main([]) == 1
    assert capsys.readouterr().err.startswith("error:")
