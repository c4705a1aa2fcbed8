"""End-to-end checks of the ``rmbr`` command line."""

import argparse
import importlib
import json
import math
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

import rmbr
import rmbr.analysis as analysis
import rmbr.cli as cli
import rmbr.mbr as mbr
from rmbr.analysis import grid_search_lambdas, oracle_histogram, token_prob_by_length, tune_l
from rmbr.cli import build_parser, main
from rmbr.core import CoarseToFine, NBestList, RerankConfig, UtilityMatrix
from rmbr.errors import InvalidInputError, MissingScoreError
from rmbr.io import read_results, write_nbest, write_utility_matrices, write_utility_matrix
from rmbr.mbr import MatrixUtility, rerank
from rmbr.metrics import corpus_bleu

from conftest import length_score, make_candidate, make_list, random_list, random_matrix

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


# ---------------------------------------------------------------------------
# failure modes and exit codes


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


_WHITESPACE_REFERENCE_ERRORS = {
    ("oracle", "bleu"): "list 0 has no reference",
    ("tune-l", "bleu"): "list 0 has no reference",
    ("tune-lambda", "bleu"): "list 0 has no reference",
    ("oracle", "chrf"): "list 0 has no reference",
    ("tune-l", "chrf"): "list 0 has no reference",
    ("tune-lambda", "chrf"): "list 0 has no reference",
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
        f"error: scorer response for unknown or duplicate id {mangle(0)!r}\n"
    )
    assert not (tmp_path / "o.txt").exists()


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
        "error: list with source 'das haus': scores are not finite\n"
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
    assert capsys.readouterr().err == "error: total scores must be finite\n"
    assert run(args) == 1
    assert capsys.readouterr().err == "error: total scores must be finite\n"


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
@pytest.mark.parametrize("command", ["tune-lambda", "tune-l"])
def test_a_tuning_command_checks_once_and_never_through_check_list(
    dev_file, tmp_path, monkeypatch, command, dry
):
    path, _ = dev_file
    calls = []
    checked = analysis._checked_tuning
    monkeypatch.setattr(
        analysis, "_checked_tuning", lambda *a: calls.append("tuning") or checked(*a)
    )
    for module in (cli, mbr):
        monkeypatch.setattr(module, "check_list", lambda *a: calls.append("check_list"))
    flags = ["--regularizers", "lp,qe"] if command == "tune-lambda" else ["--lambda", "qe=1"]
    args = [command, "-i", path, "-o", tmp_path / "out", *flags]
    assert run(args + (["--dry-run"] if dry else [])) == 0
    assert calls == ["tuning"]


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


@pytest.mark.parametrize("command", sorted(_SCORER_COMMANDS))
def test_ctrl_c_ends_the_run_and_its_scorers_at_once(dev_file, tmp_path, command):
    """SIGINT while a scorer stalls on its first batch ends the command well
    inside the 30 s scorer timeout with one error line and exit code 130,
    writes no output and leaves no scorer."""
    path, _ = dev_file
    spec, log = _logging_scorer(tmp_path, "stall")
    args, _ = _scorer_command(command, spec, "-i", path, "-o", tmp_path / "out")
    env = dict(os.environ, PYTHONPATH=_SRC, RMBR_SCORER_TIMEOUT_SECS="30")
    argv = [sys.executable, "-m", "rmbr.cli", *map(str, args)]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 30
        while not (tmp_path / "starts.log.requests").exists():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        proc.send_signal(signal.SIGINT)
        try:
            _, err = proc.communicate(timeout=5)
        except subprocess.TimeoutExpired:
            pytest.fail("the command outlived Ctrl-C by 5 s")
    finally:
        proc.kill()
        proc.communicate()
    assert (proc.returncode, err) == (130, b"error: interrupted\n")
    assert list(tmp_path.glob("out*")) == []
    _assert_all_gone(_started_pids(log))


_RARE_PATH_MODULES = ("concurrent.futures", "socket", "subprocess", "queue", "logging", "uuid")


def _modules_loaded_by(statement, prefixes):
    code = (
        f"import sys; {statement}; "
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
    the tuning and analysis commands and the scorer client import what
    they need when they run; temp-file names come from ``os.urandom``, so
    no command imports ``uuid``."""
    rare = (*_RARE_PATH_MODULES, "rmbr.analysis", "rmbr.scorer", "select")
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
