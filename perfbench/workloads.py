"""Benchmark workloads: input shape, CLI arguments, expected output.

Why these (each stresses a different layer):

- ``rerank-bleu``: paper-default exact MBR, n=50; the pairwise token
  match counting dominates.  Any kernel change must win here.
- ``c2f-chrf``: coarse-to-fine with a chrF proxy over n=100 (n^2 pairs of
  order-6 character n-grams, many repeated); encoding and the memory of
  kernel intermediates show here.  It runs like the others but is not in
  BENCHMARK.json: on a shared 2-vCPU VM its CPU time swung by up to 75%
  between consecutive runs with the host's memory contention, and even
  relative to the host reference (run.py) its IQR/median over 5 seeds was
  0.15, too wide to gate.
- ``tune-service``: weight tuning against an external scorer process
  (``rmbr-scorer/1``); scorer spawns, round trips and corpus BLEU, no
  kernel work.  Kernel changes should not move it.
- ``rerank-short-t2``: many tiny n=8, l=4 lists on two pool threads;
  per-call overhead and GIL contention, not per-pair throughput.  It runs
  like the others and is steady (IQR/median 0.04 over 10 seeds at 35 s),
  but is not in BENCHMARK.json: with three workloads the time limit for all
  runs caps a run at about 35 s, at which ``rerank-bleu`` spread 0.07-0.11;
  two workloads buy 50 s runs.  Every layer it stresses is still measured
  on ``rerank-bleu``.

List counts are chosen so one invocation takes about 1.5 s of CPU on a
2-vCPU x86 VM.
"""

from __future__ import annotations

import json
import shlex
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from rmbr.metrics import MetricConfig

import corpus
import reference as ref
import scorer

CFG = MetricConfig()
SPOT_CHECKS = 4
# the CLI's default 5-point weight grid, passed explicitly so the benchmark
# does not depend on where the program keeps its default
LAMBDA_GRID = (0.001, 0.01, 0.1, 1.0, 10.0)


def _scorer_spec(spawn_log: str) -> str:
    argv = [sys.executable, str(Path(scorer.__file__).resolve()), "--log", spawn_log]
    return "service:exec:" + shlex.join(argv)


def _pair_scorers(rec: dict, kinds: tuple[str, ...], rng) -> dict:
    out = {}
    for kind in kinds:
        out[kind] = ref.PairScorer(rec["candidates"], kind, CFG)
        out[kind].spot_check(rng, SPOT_CHECKS)
    return out


def _with_text(rec: dict, want: dict) -> dict:
    want["source"] = rec["source"]
    want["selected_text"] = rec["candidates"][want["selected"]]["text"]
    return want


def _expect_rerank_bleu(w, records, rng):
    out = []
    for rec in records:
        s = _pair_scorers(rec, ("bleu",), rng)["bleu"]
        lp = [float(c["log_prob"]) for c in rec["candidates"]]
        out.append(_with_text(rec, ref.rerank_full(s, w.n, {"lp": lp}, {"lp": 0.1})))
    return out


def _expect_c2f(w, records, rng):
    out = []
    for rec in records:
        s = _pair_scorers(rec, ("chrf", "bleu"), rng)
        out.append(_with_text(rec, ref.coarse_to_fine(s["chrf"], s["bleu"], keep=10)))
    return out


def _expect_tune(w, records, rng):
    return ref.grid_search(
        records, scorer.score, ("lp", "lm", "qe"), LAMBDA_GRID, CFG
    )


def _expect_short(w, records, rng):
    texts = []
    for rec in records:
        s = _pair_scorers(rec, ("bleu",), rng)["bleu"]
        want = ref.rerank_full(s, w.l, {}, {})
        texts.append(rec["candidates"][want["selected"]]["text"])
    return texts


def _check_full(text: str, expected) -> str | None:
    lines = text.splitlines()
    if len(lines) != len(expected):
        return f"{len(lines)} result records for {len(expected)} lists"
    for i, (line, want) in enumerate(zip(lines, expected)):
        try:
            got = json.loads(line)
        except json.JSONDecodeError as e:
            return f"record {i}: {e}"
        diff = ref.compare(got, want, f"record {i}")
        if diff:
            return diff
    return None


def _check_tune(text: str, expected) -> str | None:
    try:
        got = json.loads(text)
    except json.JSONDecodeError as e:
        return f"bad JSON: {e}"
    if not isinstance(got, dict) or got.get("lambdas") != expected["lambdas"]:
        return f"tuned lambdas differ: {text[:200]!r} != {expected['lambdas']!r}"
    return ref.compare(got, expected, "tune")


def _check_text(text: str, expected) -> str | None:
    lines = text.split("\n")
    if lines[-1] != "" or lines[:-1] != expected:
        return "selected texts differ from the reference"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    lists: int
    n: int
    min_len: int
    max_len: int
    cli_args: Callable[[str, str, str], list[str]]
    expect: Callable
    check_output: Callable[[str, object], str | None]
    l: int | None = None
    with_reference: bool = False

    def generate(self, seed: int) -> list[dict]:
        rng = corpus.workload_rng(seed, self.name)
        return corpus.make_lists(
            rng, self.lists, self.n, self.min_len, self.max_len, self.with_reference
        )

    def argv(self, inp: Path, out: Path, spawn_log: Path) -> list[str]:
        return self.cli_args(str(inp), str(out), str(spawn_log))

    def expected(self, records: list[dict], seed: int):
        return self.expect(self, records, np.random.default_rng(seed))

    def check(self, out: Path, expected) -> str | None:
        """None when the output file matches the reference, else the first difference."""
        try:
            text = out.read_text(encoding="utf-8")
        except OSError as e:
            return f"cannot read output: {e}"
        return self.check_output(text, expected)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "rerank-bleu", lists=8, n=50, min_len=15, max_len=35,
            cli_args=lambda i, o, log: [
                "rerank", "-i", i, "-o", o, "--utility", "bleu", "--l", "full",
                "--lambda", "lp=0.1", "--mode", "full", "--threads", "1",
            ],
            expect=_expect_rerank_bleu, check_output=_check_full,
        ),
        Workload(
            "c2f-chrf", lists=2, n=100, min_len=15, max_len=35,
            cli_args=lambda i, o, log: [
                "c2f", "-i", i, "-o", o, "--proxy", "chrf", "--keep", "10",
                "--utility", "bleu", "--mode", "full",
            ],
            expect=_expect_c2f, check_output=_check_full,
        ),
        Workload(
            "tune-service", lists=16, n=12, min_len=15, max_len=35, with_reference=True,
            cli_args=lambda i, o, log: [
                "tune-lambda", "-i", i, "-o", o, "--utility", _scorer_spec(log),
                "--regularizers", "lp,lm,qe", "--grid", ",".join(map(str, LAMBDA_GRID)),
            ],
            expect=_expect_tune, check_output=_check_tune,
        ),
        Workload(
            "rerank-short-t2", lists=300, n=8, min_len=5, max_len=15, l=4,
            cli_args=lambda i, o, log: [
                "rerank", "-i", i, "-o", o, "--l", "4", "--threads", "2", "--mode", "text",
            ],
            expect=_expect_short, check_output=_check_text,
        ),
    )
}
