"""End-to-end checks of the ``rmbr`` command line."""

import json
import os
import sys

import numpy as np
import pytest

from rmbr.analysis import grid_search_lambdas, oracle_histogram, token_prob_by_length, tune_l
from rmbr.cli import main
from rmbr.core import CoarseToFine, NBestList, RerankConfig
from rmbr.io import read_results, write_nbest, write_utility_matrices
from rmbr.mbr import MatrixUtility, rerank
from rmbr.metrics import corpus_bleu

from conftest import length_score, make_candidate, make_list, random_list, random_matrix


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
    config = RerankConfig(utility="bleu", l=2, lambdas={"lp": 0.5}, regularizers=("lp",))
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
    config = RerankConfig(
        utility=per_list, lambdas={"qe": 0.0, "lp": 0.0}, regularizers=("qe", "lp")
    )
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
    config = RerankConfig(utility="bleu", lambdas={"qe": 0.0}, regularizers=("qe",))
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
        assert len(pids) == specs
    else:
        assert code == 2
        assert "timed out" in err
        # a start slower than the timeout fails the handshake before logging
        assert len(pids) <= specs
    _assert_all_gone(pids)


@pytest.mark.parametrize("dry", [False, True])
@pytest.mark.parametrize(
    "spec",
    ["tf-idf", "service:exec:", "service:exec:python3 'unclosed", "service:localhost:0"],
)
@pytest.mark.parametrize("command", sorted(_SCORER_COMMANDS))
def test_malformed_spec_exits_1(dev_file, tmp_path, capsys, command, spec, dry):
    path, _ = dev_file
    args, _ = _scorer_command(command, spec, "-i", path, "-o", tmp_path / "out")
    if dry:
        args.append("--dry-run")
    assert run(args) == 1
    assert capsys.readouterr().err.startswith("error:")


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


def test_threads_only_on_rerank_and_c2f(dev_file, tmp_path, capsys):
    path, _ = dev_file
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


def test_grid_search_with_service_spec_leaves_no_child(dev_file, tmp_path):
    _, lists = dev_file
    spec, log = _logging_scorer(tmp_path, "ok")
    config = RerankConfig(utility=spec, lambdas={"qe": 0.0}, regularizers=("qe",))
    grid_search_lambdas(lists, config, grid=(0.1, 1.0))
    pids = _started_pids(log)
    assert len(pids) == 1
    _assert_all_gone(pids)


def test_no_command_exits_1(capsys):
    assert main([]) == 1
    assert capsys.readouterr().err.startswith("error:")
