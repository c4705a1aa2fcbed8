"""The golden corpus of ``rmbr`` command-line runs, and the script that writes it.

Each case is one invocation of ``rmbr.cli.main`` in a fresh copy of
``inputs/``, by relative paths.  Its record holds the exit code, stdout,
stderr, the output file and the run report without ``elapsed_seconds``
(None where a run writes no such file).  The interpreter's path, which a
``service:exec:`` spec names, is written ``{python}`` in the cases and
the records.  ``test_golden.py`` replays every case and compares.

Regenerate from the repository root, as a deliberate act whose every
changed byte is explained where the change is recorded:

    PYTHONPATH=src python tests/golden/make_golden.py

It rewrites ``inputs/`` (the n-best lists, matrix files, text files and
the scorer script) and ``expected.json``.
"""

import contextlib
import io
import json
import os
import random
import shutil
import sys
import tempfile
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
EXPECTED = HERE / "expected.json"

# (reference, [candidate texts in beam order], [their log-probabilities])
_LISTS = [
    (
        "the cat sat on the mat",
        [
            "the cat sat on a mat",
            "a cat sat on the mat",
            "the cat is on the mat",
            "the cat sat on the mat",
            "cat on mat",
        ],
        [-1.2, -1.5, -1.9, -2.4, -3.0],
    ),
    (
        "a quick brown fox jumps over the dog",
        [
            "the quick brown fox jumps over a dog",
            "a quick brown fox jumped over the dog",
            "quick brown fox over the lazy dog",
            "a fast brown fox jumps over the dog",
        ],
        [-0.8, -1.1, -1.6, -2.2],
    ),
    (
        "we will meet again tomorrow morning",
        [
            "we meet again tomorrow",
            "we will meet tomorrow morning",
            "we shall meet again in the morning",
            "we will meet again tomorrow morning",
            "see you tomorrow",
            "we will see again tomorrow morning",
        ],
        [-0.5, -0.9, -1.4, -2.0, -2.1, -2.7],
    ),
    (
        "the weather is nice today",
        [
            "today the weather is nice",
            "the weather is good today",
            "weather nice today",
            "the weather today is nice",
        ],
        [-0.7, -1.0, -1.8, -2.3],
    ),
    (
        "she reads a book every night",
        [
            "she reads books every night",
            "she reads a book each night",
            "every night she reads a book",
            "she is reading a book every night",
            "she read a book every night",
        ],
        [-0.6, -1.3, -1.7, -1.9, -2.6],
    ),
]

# one script, five behaviours: Dice overlap of the word sets, NaN, 1e308, or
# Dice except for list 3's requests, which get an error answer or none at all
_SCORER = """\
import json, sys
mode = sys.argv[1]
print(json.dumps({"protocol": "rmbr-scorer/1"}), flush=True)
sys.stdin.readline()
for line in sys.stdin:
    req = json.loads(line)
    if mode in ("error3", "stall3") and req["src"] == "source 3":
        if mode == "error3":
            print('{"id": %d, "error": "boom"}' % req["id"], flush=True)
        continue
    if mode == "nan":
        score = "NaN"
    elif mode == "huge":
        score = "1e308"
    else:
        hyp, ref = set(req["hyp"].split()), set(req["ref"].split())
        score = repr(2.0 * len(hyp & ref) / (len(hyp) + len(ref)))
    print('{"id": %d, "score": %s}' % (req["id"], score), flush=True)
"""


def _records(rng):
    """The n-best records of ``dev.jsonl``, every optional field filled."""
    def values(k, lo, hi):
        return [round(rng.uniform(lo, hi), 3) for _ in range(k)]

    records = []
    for i, (reference, texts, log_probs) in enumerate(_LISTS):
        candidates = []
        for text, log_prob in zip(texts, log_probs):
            tokens = text.split()
            qe, lm = values(2, -1.0, 1.0)
            candidates.append(
                {
                    "text": text,
                    "tokens": tokens,
                    "log_prob": log_prob,
                    "token_log_probs": values(len(tokens), -1.0, -0.01),
                    "external_scores": {"qe": qe, "lm": lm},
                    "mc_pass_scores": values(3, 0.0, 2.0),
                    "token_entropies": values(len(tokens), 0.0, 3.0),
                }
            )
        ref_log_probs = values(len(reference.split()), -1.5, -0.01)
        records.append(
            {
                "source": f"source {i}",
                "candidates": candidates,
                "reference": reference,
                "reference_token_log_probs": ref_log_probs,
            }
        )
    return records


def _matrix(rng, name, n, l, scale=1.0):
    """One matrix in the file format of ``rmbr.io``: a header line, then n rows."""
    header = json.dumps({"utility_name": name, "n": n, "l": l})
    rows = [
        " ".join(repr(round(rng.uniform(0.0, 1.0), 4) * scale) for _ in range(l))
        for _ in range(n)
    ]
    return "\n".join([header, *rows]) + "\n"


def write_inputs(directory: Path) -> None:
    """Write every input file of the corpus into ``directory``."""
    rng = random.Random(27)
    records = _records(rng)
    files = {"scorer.py": _SCORER}

    def jsonl(recs):
        return "".join(json.dumps(r) + "\n" for r in recs)

    files["dev.jsonl"] = jsonl(records)
    for pos in (0, 3):
        # list ``pos`` has a candidate without the external score qe
        broken = json.loads(json.dumps(records))
        del broken[pos]["candidates"][1]["external_scores"]["qe"]
        files[f"fail{pos}.jsonl"] = jsonl(broken)
    blank = json.loads(json.dumps(records))
    blank[1]["reference"] = "   "
    files["blankref.jsonl"] = jsonl(blank)
    sizes = [len(texts) for _, texts, _ in _LISTS]
    files["shared.mat"] = _matrix(rng, "ext", max(sizes), max(sizes))
    files["perlist.mat"] = "".join(_matrix(rng, "ext", n, n) for n in sizes)
    # finite entries whose row sums overflow
    files["overflow.mat"] = _matrix(rng, "ext", max(sizes), max(sizes), scale=1e308)
    hyps = [texts[0] for _, texts, _ in _LISTS]
    refs = [reference for reference, _, _ in _LISTS]
    files["hyps.txt"] = "".join(h + "\n" for h in hyps)
    files["refs.txt"] = "".join(r + "\n" for r in refs)
    files["refs4.txt"] = "".join(r + "\n" for r in refs[:4])
    files["blankhyp.txt"] = "".join(h + "\n" for h in [*hyps[:2], " ", *hyps[3:]])
    files["empty.txt"] = ""
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")


_SERVICE = "service:exec:{python} scorer.py"
_RERANK = ["rerank", "-i", "dev.jsonl", "-o", "out"]
_C2F = ["c2f", "-i", "dev.jsonl", "-o", "out"]
_TUNE_LAMBDA = ["tune-lambda", "-i", "dev.jsonl", "-o", "out"]
_TUNE_L = ["tune-l", "-i", "dev.jsonl", "-o", "out"]
_ORACLE = ["oracle", "-i", "dev.jsonl", "-o", "out"]

# each case runs as written and again with --dry-run appended
_BASE_CASES = {
    "rerank-bleu-text": _RERANK,
    "rerank-bleu-full": [*_RERANK, "--lambda", "lp=0.1", "--mode", "full"],
    "rerank-chrf-l3": [
        *_RERANK, "--utility", "chrf", "--l", "3",
        "--lambda", "qe=0.5", "--lambda", "lp=0.2", "--mode", "full",
    ],
    "rerank-uncertainty": [
        *_RERANK, "--lambda", "mc_dropout=0.3", "--lambda", "entropy=0.2", "--mode", "full",
    ],
    "rerank-matrix-shared": [*_RERANK, "--utility", "matrix:shared.mat", "--mode", "full"],
    "rerank-matrix-per-list": [
        *_RERANK, "--utility", "matrix:perlist.mat", "--lambda", "lm=1", "--mode", "full",
    ],
    "rerank-matrix-overflow": [*_RERANK, "--utility", "matrix:overflow.mat"],
    "rerank-l-too-deep": [*_RERANK, "--l", "5"],
    "rerank-fail0": ["rerank", "-i", "fail0.jsonl", "-o", "out", "--lambda", "qe=0.5"],
    "rerank-fail3": ["rerank", "-i", "fail3.jsonl", "-o", "out", "--lambda", "qe=0.5"],
    "rerank-service": [*_RERANK, "--utility", f"{_SERVICE} ok", "--mode", "full"],
    "rerank-service-error3": [*_RERANK, "--utility", f"{_SERVICE} error3"],
    "rerank-service-stall3": [*_RERANK, "--utility", f"{_SERVICE} stall3"],
    "c2f-bleu-chrf": [
        *_C2F, "--proxy", "bleu", "--utility", "chrf", "--keep", "3",
        "--lambda", "lp=0.1", "--mode", "full",
    ],
    "c2f-chrf-bleu": [*_C2F, "--proxy", "chrf", "--keep", "2", "--mode", "full"],
    "c2f-matrix-proxy-shared": [*_C2F, "--proxy", "matrix:shared.mat", "--keep", "3"],
    "c2f-matrix-proxy-per-list": [
        *_C2F, "--proxy", "matrix:perlist.mat", "--keep", "2", "--lambda", "qe=1",
        "--mode", "full",
    ],
    "c2f-matrix-target": [*_C2F, "--utility", "matrix:shared.mat", "--keep", "3"],
    "c2f-keep-too-big": [*_C2F, "--keep", "5"],
    "c2f-fail0": ["c2f", "-i", "fail0.jsonl", "-o", "out", "--keep", "3", "--lambda", "qe=1"],
    "c2f-fail3": ["c2f", "-i", "fail3.jsonl", "-o", "out", "--keep", "3", "--lambda", "qe=1"],
    "tune-lambda-bleu": [*_TUNE_LAMBDA, "--regularizers", "lp,qe", "--grid=-1,0,0.5,1"],
    "tune-lambda-chrf": [
        *_TUNE_LAMBDA, "--utility", "chrf", "--metric", "chrf", "--l", "2",
        "--regularizers", "qe,lm",
    ],
    "tune-lambda-matrix-shared": [
        *_TUNE_LAMBDA, "--utility", "matrix:shared.mat", "--regularizers", "lp",
    ],
    "tune-lambda-matrix-per-list": [
        *_TUNE_LAMBDA, "--utility", "matrix:perlist.mat", "--regularizers", "qe,lp",
        "--grid=-2,0,2",
    ],
    "tune-lambda-service": [
        *_TUNE_LAMBDA, "--utility", f"{_SERVICE} ok", "--regularizers", "lp", "--grid=0,1",
    ],
    "tune-lambda-service-error3": [
        *_TUNE_LAMBDA, "--utility", f"{_SERVICE} error3", "--regularizers", "lp", "--grid=0,1",
    ],
    "tune-lambda-fail0": [
        "tune-lambda", "-i", "fail0.jsonl", "-o", "out", "--regularizers", "qe",
    ],
    "tune-lambda-fail3": [
        "tune-lambda", "-i", "fail3.jsonl", "-o", "out", "--regularizers", "qe",
    ],
    "tune-lambda-blank-reference": [
        "tune-lambda", "-i", "blankref.jsonl", "-o", "out", "--regularizers", "lp",
    ],
    "tune-l-bleu": _TUNE_L,
    "tune-l-chrf": [*_TUNE_L, "--utility", "chrf", "--metric", "chrf", "--lambda", "lp=0.1"],
    "tune-l-matrix-shared": [*_TUNE_L, "--utility", "matrix:shared.mat"],
    "tune-l-matrix-per-list": [*_TUNE_L, "--utility", "matrix:perlist.mat", "--lambda", "lm=1"],
    "tune-l-fail0": ["tune-l", "-i", "fail0.jsonl", "-o", "out", "--lambda", "qe=0.5"],
    "tune-l-fail3": ["tune-l", "-i", "fail3.jsonl", "-o", "out", "--lambda", "qe=0.5"],
    "tune-l-blank-reference": ["tune-l", "-i", "blankref.jsonl", "-o", "out"],
    "oracle-bleu": _ORACLE,
    "oracle-chrf": [*_ORACLE, "--utility", "chrf", "--metric", "chrf", "--bins", "2"],
    "oracle-stdout": ["oracle", "-i", "dev.jsonl", "--bins", "3"],
    "oracle-bins-0": [*_ORACLE, "--bins", "0"],
    "oracle-matrix": [*_ORACLE, "--utility", "matrix:shared.mat"],
    "oracle-blank-reference": ["oracle", "-i", "blankref.jsonl", "-o", "out"],
    "oracle-service": [*_ORACLE, "--utility", f"{_SERVICE} ok"],
    "oracle-service-nan": [*_ORACLE, "--utility", f"{_SERVICE} nan"],
    "oracle-service-error3": [*_ORACLE, "--utility", f"{_SERVICE} error3"],
    "oracle-service-huge": [*_ORACLE, "--utility", f"{_SERVICE} huge"],
    "tokenprob-top1": ["tokenprob", "-i", "dev.jsonl", "-o", "out"],
    "tokenprob-reference": [
        "tokenprob", "-i", "dev.jsonl", "-o", "out", "--which", "reference", "--bins", "3",
    ],
    "tokenprob-bins-0": ["tokenprob", "-i", "dev.jsonl", "-o", "out", "--bins", "0"],
    "eval-bleu": ["eval", "--hyps", "hyps.txt", "--refs", "refs.txt"],
    "eval-chrf": ["eval", "--hyps", "hyps.txt", "--refs", "refs.txt", "--metric", "chrf"],
    "eval-length-mismatch": ["eval", "--hyps", "hyps.txt", "--refs", "refs4.txt"],
    "eval-empty-corpus": ["eval", "--hyps", "empty.txt", "--refs", "empty.txt"],
    "eval-empty-sentence": ["eval", "--hyps", "blankhyp.txt", "--refs", "refs.txt"],
}

CASES = {
    **_BASE_CASES,
    **{f"{name}-dry": [*args, "--dry-run"] for name, args in _BASE_CASES.items()},
}


def _plain(text: str, directory: Path) -> str:
    """``text`` with the interpreter's path and the run directory written as placeholders."""
    return text.replace(sys.executable, "{python}").replace(str(directory), "{dir}")


def run_case(args, directory: Path) -> dict:
    """Run one case through ``main()`` in ``directory``, a fresh copy of the inputs.

    A case whose scorer stalls runs with a scorer timeout of 2 s, well above a
    scorer's start-up, and the environment is restored afterwards.
    """
    from rmbr.cli import main

    argv = [a.replace("{python}", sys.executable) for a in args]
    env = {"RMBR_SCORER_TIMEOUT_SECS": "2"} if f"{_SERVICE} stall3" in args else {}
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with (
            contextlib.redirect_stdout(stdout),
            contextlib.redirect_stderr(stderr),
            mock.patch.dict(os.environ, env),
        ):
            code = main(argv)
    finally:
        os.chdir(cwd)
    files = {}
    for name in ("out", "out.report.json"):
        path = directory / name
        files[name] = _plain(path.read_text(encoding="utf-8"), directory) if path.exists() else None
    report = files["out.report.json"]
    if report is not None:
        report = json.loads(report)
        del report["elapsed_seconds"]
    return {
        "exit": code,
        "stdout": _plain(stdout.getvalue(), directory),
        "stderr": _plain(stderr.getvalue(), directory),
        "output": files["out"],
        "report": report,
    }


def fresh_inputs(directory: Path) -> Path:
    """A copy of ``inputs/`` under ``directory``, for one case to run in."""
    return Path(shutil.copytree(INPUTS, directory / "run"))


def main() -> None:
    if INPUTS.exists():
        shutil.rmtree(INPUTS)
    write_inputs(INPUTS)
    expected = {}
    for name, args in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            expected[name] = {"args": args, **run_case(args, fresh_inputs(Path(tmp)))}
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(expected)} cases to {EXPECTED}")


if __name__ == "__main__":
    main()
