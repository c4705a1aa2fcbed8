"""A dry run is the real run stopped before scoring, over seeded random input.

Each case draws an n-best file of 1-4 lists, makes 0-2 mutations of the
kinds that have broken a check before (odd numbers, blank or odd texts
and tokens, missing or blank references and regularizer fields, token
vectors of the wrong length), and draws random flags for one subcommand
and, one time in five, an output path that no run can write.
It runs the command through ``main()`` with ``--dry-run``, then for real:
no exception may escape, both must exit with the same code, a failing
pair must print the same error, and neither a dry run nor a failing run
may leave an output file or a report.
"""

import contextlib
import io
import json
import math
import os
import random
import sys

import pytest

from rmbr.cli import main

_WORDS = "the a cat dog sat ran on mat big red".split()
_REGULARIZERS = ("lp", "qe", "lm", "mc_dropout", "entropy")
_WEIRD = (-0.0, 1e308, -1e308, math.nan, -math.inf, True, "1")
_WEIGHTS = ("-1", "0", "0.5", "2", "1e308")
_COMMANDS = ("rerank", "c2f", "tune-lambda", "tune-l", "oracle", "tokenprob")
_CASES_PER_COMMAND = 40


def _candidate(rng):
    tokens = rng.choices(_WORDS, k=rng.randint(1, 5))
    return {
        "text": " ".join(tokens),
        "tokens": tokens,
        "log_prob": -round(rng.uniform(0.0, 5.0), 3),
        "token_log_probs": [-round(rng.uniform(0.01, 2.0), 3) for _ in tokens],
        "external_scores": {name: round(rng.uniform(-1, 1), 3) for name in ("qe", "lm")},
        "mc_pass_scores": [round(rng.uniform(0.0, 2.0), 3) for _ in range(3)],
        "token_entropies": [round(rng.uniform(0.0, 3.0), 3) for _ in tokens],
    }


def _record(rng, i):
    reference = rng.choices(_WORDS, k=rng.randint(1, 5))
    return {
        "source": f"source {i}",
        "candidates": [_candidate(rng) for _ in range(rng.randint(1, 5))],
        "reference": " ".join(reference),
        "reference_token_log_probs": [-round(rng.uniform(0.01, 2.0), 3) for _ in reference],
    }


def _weird_number(rng, record, cand):
    value = rng.choice(_WEIRD)
    field = rng.choice(
        ["log_prob", "qe", "token_log_probs", "mc_pass_scores", "token_entropies", "reference"]
    )
    if field == "log_prob":
        cand["log_prob"] = value
    elif field == "qe":
        cand["external_scores"]["qe"] = value
    elif field == "reference":
        record["reference_token_log_probs"][0] = value
    else:
        cand[field][0] = value


def _drop_regularizer_field(rng, record, cand):
    field = rng.choice(["qe", "mc_pass_scores", "token_entropies"])
    if field == "qe":
        del cand["external_scores"]["qe"]
    else:
        del cand[field]


_MUTATIONS = [
    _weird_number,
    lambda rng, record, cand: cand.update(text=" \t "),
    lambda rng, record, cand: cand.update(text="\u3000"),
    lambda rng, record, cand: cand.update(tokens=[]),
    lambda rng, record, cand: cand.update(tokens=[1, "a"]),
    lambda rng, record, cand: record.pop("reference"),
    lambda rng, record, cand: record.update(reference="  "),
    _drop_regularizer_field,
    lambda rng, record, cand: cand.update(external_scores={}),
    lambda rng, record, cand: record["reference_token_log_probs"].__setitem__(0, 0.5),
    lambda rng, record, cand: cand["token_log_probs"].append(-0.5),
    lambda rng, record, cand: cand["token_entropies"].append(0.5),
]


def _nbest_text(rng, mutations=(0, 2)) -> str:
    records = [_record(rng, i) for i in range(rng.randint(1, 4))]
    for _ in range(rng.randint(*mutations)):
        record = rng.choice(records)
        rng.choice(_MUTATIONS)(rng, record, rng.choice(record["candidates"]))
    return "".join(json.dumps(r) + "\n" for r in records)


def _lambdas(rng) -> list:
    names = rng.sample(_REGULARIZERS, rng.randint(0, 2))
    return [w for name in names for w in ("--lambda", f"{name}={rng.choice(_WEIGHTS)}")]


def _flags(rng, command) -> list:
    utility = ["--utility", rng.choice(["bleu", "chrf"])]
    metric = ["--metric", rng.choice(["bleu", "chrf"])]
    depth = ["--l", rng.choice(["full", "1", "2", "3", "9"])]
    bins = ["--bins", str(rng.randint(0, 3))]
    if command == "rerank":
        return [*utility, *depth, *_lambdas(rng)]
    if command == "c2f":
        keep = ["--keep", str(rng.randint(1, 5)), "--proxy", rng.choice(["bleu", "chrf"])]
        return [*utility, *keep, *_lambdas(rng)]
    if command == "tune-lambda":
        names = rng.sample(_REGULARIZERS, rng.randint(1, 3))
        grid = ",".join(rng.sample([*_WEIGHTS, "nan"], rng.randint(1, 3)))
        return [*utility, *metric, *depth, "--regularizers", ",".join(names), f"--grid={grid}"]
    if command == "tune-l":
        return [*utility, *metric, *_lambdas(rng)]
    if command == "oracle":
        return [*utility, *metric, *bins]
    return [*bins, "--which", rng.choice(["top1", "reference"])]


def _output(rng, directory, nbest) -> str:
    """``out`` in ``directory``, or one time in five a path no run can write: the
    directory itself, a file in a missing directory or one under the n-best file."""
    if rng.random() < 0.8:
        return str(directory / "out")
    return str(rng.choice([directory, directory / "missing" / "out", nbest / "out"]))


def _run(args):
    """Exit code, stdout and stderr of ``main(args)``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(args)
    return code, stdout.getvalue(), stderr.getvalue()


def _outputs(directory) -> list:
    return sorted(name for name in os.listdir(directory) if name.startswith("out"))


@pytest.mark.parametrize("command", _COMMANDS)
def test_a_dry_run_is_the_real_run_stopped_before_scoring(tmp_path, command):
    failures = refused = 0
    for case in range(_CASES_PER_COMMAND):
        rng = random.Random(3100 + case)
        path = tmp_path / f"case{case}.jsonl"
        path.write_text(_nbest_text(rng), encoding="utf-8")
        flags = _flags(rng, command)
        output = _output(rng, tmp_path, path)
        args = [command, "-i", str(path), "-o", output, *flags]
        dry = _run([*args, "--dry-run"])
        assert _outputs(tmp_path) == [], args
        real = _run(args)
        assert dry[0] == real[0], (args, dry, real)
        if output != str(tmp_path / "out"):
            refused += 1
            assert real[:2] == (1, "") and real[2].startswith(f"error: output path {output}")
        if real[0] != 0:
            failures += 1
            assert dry[2] == real[2], args
            assert _outputs(tmp_path) == [], args
        for name in _outputs(tmp_path):
            os.remove(tmp_path / name)
    assert 0 < refused < failures < _CASES_PER_COMMAND


_NAN_SCORER = """
import json, os, sys
with open(sys.argv[1], "a") as fh:
    fh.write("%d\\n" % os.getpid())
print(json.dumps({"protocol": "rmbr-scorer/1"}), flush=True)
sys.stdin.readline()
for line in sys.stdin:
    print(json.dumps({"id": json.loads(line)["id"], "score": float("nan")}), flush=True)
"""


@pytest.mark.parametrize("command", ["rerank", "tune-lambda", "oracle"])
def test_a_scorer_that_answers_nan_fails_only_the_real_run(tmp_path, command):
    """A scorer's values exist only once it scores, so its dry run passes;
    the real run exits 2 and leaves no output and no live scorer."""
    script, log = tmp_path / "nan.py", tmp_path / "pids.log"
    script.write_text(_NAN_SCORER, encoding="utf-8")
    log.touch()
    path = tmp_path / "dev.jsonl"
    path.write_text(_nbest_text(random.Random(7), mutations=(0, 0)), encoding="utf-8")
    args = [command, "-i", str(path), "-o", str(tmp_path / "out")]
    args += ["--utility", f"service:exec:{sys.executable} {script} {log}"]
    if command == "tune-lambda":
        args += ["--regularizers", "lp"]
    assert _run([*args, "--dry-run"])[0] == 0
    assert log.read_text(encoding="utf-8") == ""
    code, _, err = _run(args)
    assert code == 2
    assert err == "error: list 0: scorer returned a non-finite score for pair 0: nan\n"
    assert _outputs(tmp_path) == []
    pids = [int(pid) for pid in log.read_text(encoding="utf-8").split()]
    assert len(pids) == 1
    with pytest.raises(ProcessLookupError):
        os.kill(pids[0], 0)
