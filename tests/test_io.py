"""File round-trips, parse errors, and the scorer-service client (rmbr.scorer)."""

import json
import logging
import os
import stat
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import rmbr

from rmbr.core import Candidate, NBestList, RerankConfig, UtilityMatrix
from rmbr.errors import (
    DimensionError,
    InvalidInputError,
    ParseError,
    ScoringError,
    TransportError,
)
from rmbr.io import (
    atomic_write,
    load_nbest,
    load_utility_matrices,
    read_results,
    write_nbest,
    write_results,
    write_utility_matrices,
    write_utility_matrix,
)
from rmbr.mbr import rerank
from rmbr.scorer import ScorerClient

from conftest import (
    PROTOCOL,
    make_candidate,
    make_list,
    random_list,
    random_matrix,
    reversed_batches,
)


# ---------------------------------------------------------------------------
# n-best files


def test_nbest_round_trip_exact(tmp_path):
    rng = np.random.default_rng(20)
    lists = [random_list(rng, int(rng.integers(1, 7)), with_extras=True) for _ in range(5)]
    lists.append(
        NBestList(
            source="ünïcode söurce",
            candidates=(
                Candidate(
                    text="höhlen katze",
                    tokens=("höhlen", "katze"),
                    log_prob=-0.123456789012345,
                    token_log_probs=(-1e-300, -0.5),
                ),
            ),
            reference="höhlen katze",
            reference_token_log_probs=(-0.25, -1.5),
        )
    )
    path = tmp_path / "lists.jsonl"
    write_nbest(path, lists)
    assert load_nbest(path) == lists


def test_load_nbest_reports_bad_json_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = json.dumps(
        {"source": "s", "candidates": [{"text": "a", "tokens": ["a"], "log_prob": -1}]}
    )
    path.write_text(good + "\n{oops\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 2"):
        load_nbest(path)


def test_load_nbest_skips_blank_lines_and_refuses_a_record_that_is_not_an_object(tmp_path):
    path = tmp_path / "mixed.jsonl"
    good = json.dumps(
        {"source": "s", "candidates": [{"text": "a", "tokens": ["a"], "log_prob": -1}]}
    )
    path.write_text(f"{good}\n\n{good}\n", encoding="utf-8")
    assert len(load_nbest(path)) == 2
    path.write_text(f"{good}\n\n[1, 2]\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"^line 3: expected a JSON object$"):
        load_nbest(path)


def test_load_nbest_missing_keys(tmp_path):
    path = tmp_path / "missing.jsonl"
    path.write_text('{"source": "s"}\n', encoding="utf-8")
    with pytest.raises(ParseError, match="candidates"):
        load_nbest(path)
    path.write_text(
        json.dumps({"source": "s", "candidates": [{"text": "a", "tokens": ["a"]}]}) + "\n",
        encoding="utf-8",
    )
    with pytest.raises(ParseError, match="log_prob"):
        load_nbest(path)


def test_load_nbest_names_mismatched_field(tmp_path):
    path = tmp_path / "mismatch.jsonl"
    rec = {
        "source": "s",
        "candidates": [
            {"text": "a b", "tokens": ["a", "b"], "log_prob": -1, "token_log_probs": [-1]}
        ],
    }
    path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match="token_log_probs"):
        load_nbest(path)


def test_load_nbest_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    with pytest.raises(InvalidInputError):
        load_nbest(path)


def test_load_nbest_resorts_out_of_order_candidates(tmp_path, caplog):
    rec = {
        "source": "s",
        "candidates": [
            {"text": "second", "tokens": ["second"], "log_prob": -2.0},
            {"text": "first", "tokens": ["first"], "log_prob": -1.0},
            {"text": "tie-a", "tokens": ["tie-a"], "log_prob": -2.0},
        ],
    }
    path = tmp_path / "unsorted.jsonl"
    path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="rmbr.io"):
        lists = load_nbest(path)
    assert any("re-sorting" in message for message in caplog.messages)
    texts = [c.text for c in lists[0].candidates]
    # stable: the two -2.0 candidates keep their file order
    assert texts == ["first", "second", "tie-a"]


def test_load_nbest_keeps_beam_order_quiet(tmp_path, caplog):
    lists = [make_list(["a", "b"], log_probs=[-1.0, -1.0])]
    path = tmp_path / "sorted.jsonl"
    write_nbest(path, lists)
    with caplog.at_level(logging.WARNING, logger="rmbr.io"):
        load_nbest(path)
    assert not caplog.messages


# ---------------------------------------------------------------------------
# utility-matrix files


def test_matrix_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(21)
    matrix = random_matrix(rng, 7, 4)
    path = tmp_path / "m.matrix"
    write_utility_matrix(path, matrix)
    (loaded,) = load_utility_matrices(path)
    assert loaded.utility_name == matrix.utility_name
    assert loaded.values.tobytes() == matrix.values.tobytes()


def test_matrix_multi_record_file(tmp_path):
    rng = np.random.default_rng(22)
    matrices = [random_matrix(rng, n) for n in (2, 5, 3)]
    path = tmp_path / "many.matrix"
    write_utility_matrices(path, matrices)
    loaded = load_utility_matrices(path)
    assert len(loaded) == 3
    for got, want in zip(loaded, matrices):
        assert got.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize(
    "content,line",
    [
        ("not json\n", 1),
        ('{"utility_name": "x", "n": 2}\n', 1),
        ('{"utility_name": "x", "n": 0, "l": 1}\n', 1),
        ('{"utility_name": "x", "n": true, "l": true}\n0.5\n', 1),
        ('{"utility_name": "x", "n": 1, "l": false}\n0.5\n', 1),
        ('{"utility_name": "x", "n": 1, "l": 2}\n0.1 0.2\n', 1),  # l > n
        ('{"utility_name": 7, "n": 1, "l": 1}\n0.5\n', 1),
        ('{"utility_name": "x", "n": 2, "l": 1}\n0.5\n', 1),  # truncated body
        ('{"utility_name": "x", "n": 1, "l": 2}\n0.5\n', 2),  # short row
        ('{"utility_name": "x", "n": 1, "l": 1}\nream\n', 2),
        ('{"utility_name": "x", "n": 1, "l": 1}\nnan\n', 2),
    ],
)
def test_matrix_parse_errors(tmp_path, content, line):
    path = tmp_path / "bad.matrix"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_utility_matrices(path)
    assert err.value.line == line and str(err.value).startswith(f"line {line}: ")


def test_matrix_empty_file(tmp_path):
    path = tmp_path / "none.matrix"
    path.write_text("\n\n", encoding="utf-8")
    with pytest.raises(InvalidInputError):
        load_utility_matrices(path)


# ---------------------------------------------------------------------------
# result files


def test_results_full_mode_round_trip(tmp_path):
    rng = np.random.default_rng(25)
    lists = [random_list(rng, 5, with_extras=True) for _ in range(4)]
    cfg = RerankConfig(utility="bleu", lambdas={"lp": 0.1})
    results = [rerank(lst, cfg) for lst in lists]
    path = tmp_path / "out.full"
    write_results(path, results, lists, mode="full")
    assert read_results(path) == results


def test_results_text_mode(tmp_path):
    lists = [make_list(["pick me", "not me"]), make_list(["x", "y y"])]
    results = [rerank(lst, RerankConfig(utility="bleu")) for lst in lists]
    path = tmp_path / "out.txt"
    write_results(path, results, lists, mode="text")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == [
        lists[0].candidates[results[0].selected].text,
        lists[1].candidates[results[1].selected].text,
    ]


def test_write_results_validation(tmp_path):
    lists = [make_list(["a"])]
    results = [rerank(lists[0], RerankConfig(utility="bleu"))]
    with pytest.raises(InvalidInputError):
        write_results(tmp_path / "o", results, [], mode="text")
    with pytest.raises(InvalidInputError):
        write_results(tmp_path / "o", results, lists, mode="fancy")


def test_atomic_write_keeps_old_file_when_block_fails(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n", encoding="utf-8")
    with pytest.raises(OSError, match="disk full"):
        with atomic_write(path) as fh:
            fh.write("new, half")
            raise OSError("disk full")
    assert path.read_text(encoding="utf-8") == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]
    with atomic_write(path) as fh:
        fh.write("new\n")
    assert path.read_text(encoding="utf-8") == "new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


def test_atomic_write_keeps_symlink_and_writes_through_pipes(tmp_path):
    target = tmp_path / "real.txt"
    target.write_text("old\n", encoding="utf-8")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    with atomic_write(link) as fh:
        fh.write("new\n")
    assert link.is_symlink() and target.read_text(encoding="utf-8") == "new\n"

    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(
        target=lambda: got.append(fifo.read_text(encoding="utf-8")), daemon=True
    )
    reader.start()
    with atomic_write(fifo) as fh:
        fh.write("streamed\n")
    reader.join(timeout=5)
    assert not reader.is_alive() and got == ["streamed\n"]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "pipe", "real.txt"]


def _write_two_results(path):
    rng = np.random.default_rng(21)
    lists = [random_list(rng, 4) for _ in range(2)]
    write_results(path, [rerank(lst, RerankConfig()) for lst in lists], lists, mode="full")


def _write_two_matrices(path):
    rng = np.random.default_rng(22)
    write_utility_matrices(path, [random_matrix(rng, 3), random_matrix(rng, 2)])


def _write_two_lists(path):
    rng = np.random.default_rng(23)
    write_nbest(path, [random_list(rng, 3) for _ in range(2)])


@pytest.mark.parametrize("writer", [_write_two_results, _write_two_matrices, _write_two_lists])
def test_writer_failing_partway_leaves_earlier_file_intact(tmp_path, monkeypatch, writer):
    path = tmp_path / "out"
    path.write_text("earlier run\n", encoding="utf-8")
    real_dumps = json.dumps
    calls = []

    def dumps_then_fail(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise OSError("disk full")
        return real_dumps(*args, **kwargs)

    # the first record is written, the second fails
    monkeypatch.setattr(json, "dumps", dumps_then_fail)
    with pytest.raises(OSError, match="disk full"):
        writer(path)
    monkeypatch.undo()
    assert path.read_text(encoding="utf-8") == "earlier run\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    writer(path)
    assert path.read_text(encoding="utf-8") != "earlier run\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_read_results_errors(tmp_path):
    path = tmp_path / "bad.full"
    path.write_text("{}\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 1"):
        read_results(path)
    path.write_text("", encoding="utf-8")
    with pytest.raises(InvalidInputError):
        read_results(path)
    # a blank line is skipped, and a line that is not JSON is named by its number
    path.write_text("\n{not json\n", encoding="utf-8")
    with pytest.raises(ParseError, match="^line 2: bad JSON: "):
        read_results(path)


@pytest.mark.parametrize(
    "edit",
    [
        {"mbr_scores": "12"},
        {"ranking": [0.9, 1.7]},
        {"candidate_indices": [True, False]},
        {"utility_calls": "many"},
        {"total_scores": [float("nan"), 0.0]},
        {"regularizer_scores": {"lp": [0.0, float("inf")]}},
        {"selected": 0.0},
        {"ranking": None},
    ],
    ids=lambda edit: json.dumps(edit),
)
def test_read_results_rejects_a_field_the_result_type_rejects(tmp_path, edit):
    lists = [make_list(["a b", "a c"]) for _ in range(2)]
    results = [rerank(lst, RerankConfig(lambdas={"lp": 0.5})) for lst in lists]
    path = tmp_path / "out.full"
    write_results(path, results, lists, mode="full")
    assert read_results(path) == results
    first, second = path.read_text(encoding="utf-8").splitlines()
    path.write_text(f"{first}\n{json.dumps({**json.loads(second), **edit})}\n", encoding="utf-8")
    with pytest.raises(ParseError, match="^line 2: bad result record: "):
        read_results(path)


@pytest.mark.parametrize("line", ["[1, 2]", '{"selected": 0}'])
def test_read_results_checks_record_shape(tmp_path, line):
    path = tmp_path / "bad.full"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match="^line 1: bad result record: "):
        read_results(path)


# ---------------------------------------------------------------------------
# scorer client


def echo_id_score(req):
    return {"id": req["id"], "score": float(req["id"])}


def test_scorer_client_in_order(scorer_server):
    server = scorer_server(lambda req: {"id": req["id"], "score": float(len(req["hyp"]))})
    with ScorerClient.connect_tcp("127.0.0.1", server.port, timeout=5) as client:
        scores = client.score_pairs([("s", "aa", "b"), ("s", "cccc", "d"), (None, "e", "f")])
    assert scores == [2.0, 4.0, 1.0]


def test_scorer_client_realigns_out_of_order_responses(scorer_server):
    server = scorer_server(
        lambda req: {"id": req["id"], "score": float(len(req["hyp"]))},
        reorder=reversed_batches(4),
    )
    with ScorerClient.connect_tcp("127.0.0.1", server.port, timeout=5) as client:
        scores = client.score_pairs(
            [("s", "a" * (i + 1), "r") for i in range(4)]
        )
    assert scores == [1.0, 2.0, 3.0, 4.0]


def test_scorer_client_ids_unique_across_batches(scorer_server):
    server = scorer_server(echo_id_score)
    with ScorerClient.connect_tcp("127.0.0.1", server.port, timeout=5) as client:
        first = client.score_pairs([("s", "a", "b"), ("s", "c", "d")])
        second = client.score_pairs([("s", "e", "f")])
    assert first == [0.0, 1.0]
    assert second == [2.0]


def test_scorer_client_shared_between_threads(scorer_server):
    """Batches sent from several threads on one client get their own scores,
    and ``pairs_scored`` counts every pair once."""
    server = scorer_server(lambda req: {"id": req["id"], "score": float(len(req["hyp"]))})
    batches = [[("s", "a" * (10 * t + i + 1), "r") for i in range(t + 3)] for t in range(4)]
    results = [None] * len(batches)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ScorerClient.connect_tcp("127.0.0.1", server.port, timeout=5) as client:

            def work(t):
                results[t] = [client.score_pairs(batches[t]) for _ in range(5)]

            threads = [threading.Thread(target=work, args=(t,)) for t in range(len(batches))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            pairs = client.pairs_scored
    finally:
        sys.setswitchinterval(interval)
    for batch, got in zip(batches, results):
        assert got == [[float(len(hyp)) for _, hyp, _ in batch]] * 5
    assert pairs == 5 * sum(len(batch) for batch in batches)


def test_scorer_client_error_response(scorer_server):
    def fail_second(req):
        if req["hyp"] == "bad":
            return {"id": req["id"], "error": "cannot score that"}
        return {"id": req["id"], "score": 0.5}

    server = scorer_server(fail_second)
    client = ScorerClient.connect_tcp("127.0.0.1", server.port, timeout=5)
    try:
        with pytest.raises(ScoringError, match="pair 1.*cannot score that"):
            client.score_pairs([("s", "ok", "r"), ("s", "bad", "r")])
    finally:
        client.close()


def test_scorer_client_unknown_id(scorer_server):
    server = scorer_server(lambda req: {"id": 999, "score": 0.5})
    client = ScorerClient.connect_tcp("127.0.0.1", server.port, timeout=5)
    try:
        with pytest.raises(TransportError, match="unknown or duplicate"):
            client.score_pairs([("s", "a", "b")])
    finally:
        client.close()


@pytest.mark.parametrize("mangle", [lambda rid: [rid], bool, float], ids=["list", "bool", "float"])
def test_scorer_client_accepts_only_int_ids(scorer_server, mangle):
    # false and 0.0 compare equal to the pending id 0, and [0] is unhashable
    server = scorer_server(lambda req: {"id": mangle(req["id"]), "score": 0.5})
    client = ScorerClient.connect_tcp("127.0.0.1", server.port, timeout=5)
    try:
        with pytest.raises(TransportError) as failed:
            client.score_pairs([("s", "a", "b"), ("s", "b", "a")])
        assert str(failed.value) == f"scorer response for unknown or duplicate id {mangle(0)!r}"
    finally:
        client.close()


def test_scorer_client_non_numeric_score(scorer_server):
    server = scorer_server(lambda req: {"id": req["id"], "score": "high"})
    client = ScorerClient.connect_tcp("127.0.0.1", server.port, timeout=5)
    try:
        with pytest.raises(TransportError, match="numeric"):
            client.score_pairs([("s", "a", "b")])
    finally:
        client.close()


def test_scorer_client_timeout(scorer_server):
    server = scorer_server(respond=False)
    client = ScorerClient.connect_tcp("127.0.0.1", server.port, timeout=0.3)
    try:
        with pytest.raises(TransportError, match="timed out"):
            client.score_pairs([("s", "a", "b")])
    finally:
        client.close()


def test_scorer_client_protocol_mismatch(scorer_server):
    server = scorer_server(echo_id_score, handshake="rmbr-scorer/0")
    with pytest.raises(TransportError, match="protocol"):
        ScorerClient.connect_tcp("127.0.0.1", server.port, timeout=5)


@pytest.mark.parametrize(
    "greeting, got",
    [
        ({"protocol": "rmbr-scorer/0"}, "'rmbr-scorer/0'"),
        ({}, "None"),
        ({"protocol": "x" * 500_000}, f"'{'x' * 256}'... (500000 characters)"),
        ([0] * 200_000, f"{repr([0] * 200_000)[:256]}... (600000 characters)"),
    ],
    ids=["short", "missing", "long-string", "long-list"],
)
def test_scorer_client_quotes_a_wrong_protocol_within_the_bound(greeting, got):
    """A greeting that parses but names another protocol is quoted as its
    value, a long one as its prefix and its length."""

    def handler(reader, writer):
        writer.write(json.dumps(greeting) + "\n")
        writer.flush()
        reader.readline()

    from conftest import ScorerServer

    server = ScorerServer(handler)
    try:
        with pytest.raises(TransportError) as failed:
            ScorerClient.connect_tcp("127.0.0.1", server.port, timeout=5)
    finally:
        server.close()
    assert str(failed.value) == f"scorer protocol mismatch: want 'rmbr-scorer/1', got {got}"


def test_scorer_client_connection_refused():
    import socket

    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    with pytest.raises(TransportError):
        ScorerClient.connect_tcp("127.0.0.1", port, timeout=1)


def test_scorer_client_eof_mid_batch(scorer_server):
    def one_then_quit(reader, writer):
        writer.write(json.dumps({"protocol": PROTOCOL}) + "\n")
        writer.flush()
        reader.readline()  # our handshake
        req = json.loads(reader.readline())
        writer.write(json.dumps({"id": req["id"], "score": 1.0}) + "\n")
        writer.flush()
        # drop the connection with requests still pending

    from conftest import ScorerServer

    server = ScorerServer(one_then_quit)
    try:
        client = ScorerClient.connect_tcp("127.0.0.1", server.port, timeout=5)
        with pytest.raises(TransportError, match="closed"):
            client.score_pairs([("s", "a", "b"), ("s", "c", "d")])
        client.close()
    finally:
        server.close()


def test_a_closed_scorer_client_scores_nothing(scorer_server):
    server = scorer_server(echo_id_score)
    client = ScorerClient.connect_tcp("127.0.0.1", server.port, timeout=5)
    client.close()
    with pytest.raises(TransportError, match="^scorer client is closed$"):
        client.score_pairs([("s", "a", "b")])


def test_scorer_client_rejects_empty_batch(scorer_server):
    server = scorer_server(echo_id_score)
    with ScorerClient.connect_tcp("127.0.0.1", server.port, timeout=5) as client:
        with pytest.raises(InvalidInputError):
            client.score_pairs([])


def test_scorer_client_env_timeout(scorer_server, monkeypatch):
    monkeypatch.setenv("RMBR_SCORER_TIMEOUT_SECS", "0.2")
    server = scorer_server(respond=False)
    client = ScorerClient.connect_tcp("127.0.0.1", server.port)
    assert client.timeout == 0.2
    try:
        with pytest.raises(TransportError, match="0.2"):
            client.score_pairs([("s", "a", "b")])
    finally:
        client.close()


@pytest.mark.parametrize("value", ["soon", "-1", "0", "inf", "nan"])
def test_scorer_client_bad_env_timeout(monkeypatch, value):
    with pytest.raises(InvalidInputError):
        ScorerClient.connect_tcp("127.0.0.1", 1, timeout=value)
    monkeypatch.setenv("RMBR_SCORER_TIMEOUT_SECS", value)
    with pytest.raises(InvalidInputError):
        ScorerClient.connect_tcp("127.0.0.1", 1)
    # checked before the command starts, which would raise TransportError
    with pytest.raises(InvalidInputError):
        ScorerClient.spawn(["/nonexistent/scorer"])


_SPAWN_SCRIPT = """
import json, sys
print(json.dumps({"protocol": "rmbr-scorer/1"}), flush=True)
sys.stdin.readline()
for line in sys.stdin:
    req = json.loads(line)
    print(json.dumps({"id": req["id"], "score": float(len(req["ref"]))}), flush=True)
"""


def test_scorer_client_spawned_process():
    client = ScorerClient.spawn([sys.executable, "-c", _SPAWN_SCRIPT], timeout=10)
    try:
        assert client.score_pairs([("s", "h", "rrr"), (None, "h", "r")]) == [3.0, 1.0]
    finally:
        client.close()
    client.close()  # idempotent


_BIG_BATCH_CLIENT = """
import sys
from rmbr.scorer import ScorerClient
client = ScorerClient.spawn([sys.executable, "-c", sys.argv[1]], timeout=20)
pairs = [("s", "h", "r" * (i % 7)) for i in range(20000)]
assert client.score_pairs(pairs) == [float(i % 7) for i in range(20000)]
client.close()
"""


def test_scorer_client_reads_while_it_writes_a_batch_larger_than_the_pipes():
    """About 1 MB of requests and 0.5 MB of responses, far beyond the
    64 KiB pipe buffers: the client must drain responses while it is still
    writing.  It runs in a child process with a deadline, so a deadlock
    fails the test instead of hanging it."""
    src = os.path.dirname(os.path.dirname(rmbr.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-c", _BIG_BATCH_CLIENT, _SPAWN_SCRIPT]
    try:
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        pytest.fail("the client and the scorer deadlocked on one large batch")
    assert done.returncode == 0, done.stderr


_STALLED_SCORER = """
import json, sys, time
print(json.dumps({"protocol": "rmbr-scorer/1"}), flush=True)
sys.stdin.readline()
time.sleep(30)
"""

_STALLED_CLIENT = """
import sys, time
from rmbr.errors import TransportError
from rmbr.scorer import ScorerClient
client = ScorerClient.spawn([sys.executable, "-c", sys.argv[1]], timeout=1)
pairs = [("s", "h", "r" * 10) for i in range(20000)]
start = time.monotonic()
try:
    client.score_pairs(pairs)
except TransportError as e:
    assert "timed out" in str(e), e
else:
    raise AssertionError("a batch to a scorer that reads nothing returned")
assert time.monotonic() - start < 5, time.monotonic() - start
client.close()
"""


def test_scorer_client_times_out_on_a_scorer_that_stops_reading():
    """A scorer that answers the handshake and then reads nothing: the
    client's write of about 1 MB fills the pipe, and the timeout must end
    the batch instead of the write blocking forever.  It runs in a child
    process with a deadline, so a hang fails the test instead of hanging it."""
    src = os.path.dirname(os.path.dirname(rmbr.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-c", _STALLED_CLIENT, _STALLED_SCORER]
    try:
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=20)
    except subprocess.TimeoutExpired:
        pytest.fail("the client blocked writing to a scorer that stopped reading")
    assert done.returncode == 0, done.stderr


_AWKWARD_TEXTS = [
    "naïve café — 日本語 😀",
    'a "quoted" word',
    "back\\slash \\n not a newline",
    "tab\there, newline\nthere, cr\r, nul\x00, unit sep\x1f, del\x7f",
    "line sep \u2028, paragraph sep \u2029, lone surrogate \ud800",
    "",
]


def _recording_scorer(requests, line_end="\n"):
    """A TCP scorer that keeps each request line's raw bytes and answers
    with the line's length, ending every line it writes with ``line_end``."""

    def handler(reader, writer):
        writer.write(json.dumps({"protocol": PROTOCOL}) + line_end)
        writer.flush()
        reader.buffer.readline()
        for raw in iter(reader.buffer.readline, b""):
            requests.append(raw)
            req = json.loads(raw)
            writer.write(json.dumps({"id": req["id"], "score": float(len(raw))}) + line_end)
            writer.flush()

    from conftest import ScorerServer

    return ScorerServer(handler)


@pytest.mark.parametrize("line_end", ["\n", "\r\n"])
def test_scorer_client_request_lines_are_json_dumps_of_the_request(line_end):
    """Each request line is byte for byte ``json.dumps`` of its request
    dict, for texts JSON must escape, a None source and texts repeated
    within and across pairs; a scorer ending its lines with CRLF is read
    as well as one ending them with LF."""
    texts = _AWKWARD_TEXTS
    batches = [
        [
            (None, texts[0], texts[1]),
            (texts[2], texts[3], texts[4]),
            (texts[0], texts[0], texts[5]),
        ],
        [(texts[4], texts[1], texts[4]), ("plain", "plain", "plain")],
    ]
    requests = []
    server = _recording_scorer(requests, line_end)
    try:
        with ScorerClient.connect_tcp("127.0.0.1", server.port, timeout=5) as client:
            scores = [client.score_pairs(batch) for batch in batches]
    finally:
        server.close()
    pairs = [pair for batch in batches for pair in batch]
    expected = [
        (json.dumps({"id": i, "src": src, "hyp": hyp, "ref": ref}) + "\n").encode()
        for i, (src, hyp, ref) in enumerate(pairs)
    ]
    assert requests == expected
    assert [s for batch in scores for s in batch] == [float(len(line)) for line in expected]


def _scripted_replies(script):
    """A TCP scorer that answers the handshake and then writes raw
    ``script(requests)`` bytes, in the pieces it returns, then hangs up."""

    def handler(reader, writer):
        writer.write(json.dumps({"protocol": PROTOCOL}) + "\n")
        writer.flush()
        reader.readline()
        requests = [json.loads(reader.readline()) for _ in range(2)]
        for piece in script(requests):
            writer.buffer.write(piece)
            writer.flush()
            time.sleep(0.02)

    from conftest import ScorerServer

    return ScorerServer(handler)


def _score_two(script):
    server = _scripted_replies(script)
    try:
        with ScorerClient.connect_tcp("127.0.0.1", server.port, timeout=5) as client:
            return client.score_pairs([("s", "a", "b"), ("s", "c", "d")])
    finally:
        server.close()


def test_scorer_client_joins_lines_split_across_reads():
    """Responses cut mid-line and mid-character arrive in pieces; the last
    line may end at EOF without a newline, as a file's last line can."""

    def script(reqs):
        error = json.dumps({"id": reqs[1]["id"], "error": "naïve"}, ensure_ascii=False)
        first = (json.dumps({"id": reqs[0]["id"], "score": 0.5}) + "\n" + error).encode()
        cut = first.index("ï".encode()) + 1
        return [first[:7], first[7:cut], first[cut:]]

    with pytest.raises(ScoringError, match="pair 1: naïve"):
        _score_two(script)

    def unterminated(reqs):
        lines = [json.dumps({"id": r["id"], "score": 1.5}) for r in reqs]
        return ["\n".join(lines).encode()]

    assert _score_two(unterminated) == [1.5, 1.5]


def test_scorer_client_fails_a_response_line_past_its_bound_at_once():
    """A scorer that writes 16 MB with no newline: the batch fails as soon as
    the partial line passes the bound, well inside the timeout."""

    def script(reqs):
        return [b"x" * (16 << 20)]

    start = time.monotonic()
    with pytest.raises(TransportError, match=f"^scorer response line longer than {1 << 20} bytes$"):
        _score_two(script)
    assert time.monotonic() - start < 3


def test_scorer_client_reads_a_long_error_text_whole():
    """A 512 KB error answer, read in many pieces, arrives whole."""
    text = "e" * (512 << 10)

    def script(reqs):
        return [(json.dumps({"id": reqs[0]["id"], "error": text}) + "\n").encode()]

    with pytest.raises(ScoringError) as failed:
        _score_two(script)
    assert str(failed.value) == f"scorer failed on pair 0: {text}"


def test_scorer_client_rejects_a_malformed_line():
    def script(reqs):
        return [(json.dumps({"id": reqs[0]["id"], "score": 0.5}) + "\nnot json\n").encode()]

    with pytest.raises(TransportError, match=r"malformed scorer response: 'not json\\n'"):
        _score_two(script)


@pytest.mark.parametrize("where", ["response", "handshake"])
def test_scorer_client_quotes_a_long_malformed_line_as_a_prefix_and_its_length(where):
    """A malformed line of 512 KiB, under the line bound, is quoted as its
    first ``_QUOTED_CHARS`` characters and its length, in the handshake as
    in a batch; shorter lines are quoted whole (the tests above)."""
    from rmbr.scorer import _QUOTED_CHARS

    line = "x" * (512 << 10)
    head = _QUOTED_CHARS * "x"
    heading = "bad scorer handshake" if where == "handshake" else "malformed scorer response"
    want = f"{heading}: '{head}'... ({len(line) + 1} characters)"

    def handler(reader, writer):
        if where == "response":
            writer.write(json.dumps({"protocol": PROTOCOL}) + "\n")
            writer.flush()
            reader.readline()
            reader.readline()
        writer.write(line + "\n")
        writer.flush()
        reader.readline()

    from conftest import ScorerServer

    server = ScorerServer(handler)
    try:
        with pytest.raises(TransportError) as failed:
            with ScorerClient.connect_tcp("127.0.0.1", server.port, timeout=5) as client:
                client.score_pairs([("s", "a", "b")])
    finally:
        server.close()
    assert str(failed.value) == want


def test_scorer_client_fails_a_read_whose_lines_are_not_all_utf8():
    """The read that holds the last answer also holds a line that is not
    UTF-8: the batch fails, though it has all its answers."""

    def script(reqs):
        first, last = (json.dumps({"id": r["id"], "score": 0.5}) + "\n" for r in reqs)
        return [first.encode(), last.encode() + b"\xff\n"]

    with pytest.raises(TransportError, match="codec can't decode byte 0xff"):
        _score_two(script)


def test_scorer_client_fails_a_batch_on_a_line_read_past_its_last_answer():
    """A repeated last answer, read with the batch's last answer, fails the
    batch, though it has all its answers."""

    def script(reqs):
        lines = [json.dumps({"id": r["id"], "score": 0.5}) + "\n" for r in reqs]
        return [(lines[0] + lines[1] + lines[1]).encode()]

    with pytest.raises(TransportError, match="unknown or duplicate id 1$"):
        _score_two(script)


def test_scorer_client_fails_a_handshake_read_with_a_line_past_it():
    def handler(reader, writer):
        writer.write(json.dumps({"protocol": PROTOCOL}) + '\n{"id": 0, "score": 0.5}\n')
        writer.flush()
        reader.readline()

    from conftest import ScorerServer

    server = ScorerServer(handler)
    try:
        with pytest.raises(TransportError) as failed:
            ScorerClient.connect_tcp("127.0.0.1", server.port, timeout=5)
    finally:
        server.close()
    assert str(failed.value) == """scorer sent a line past its handshake: '{"id": 0, "score": 0.5}'"""


_FAILING_SCORER = """
import json, sys, time
print(json.dumps({"protocol": "rmbr-scorer/1"}), flush=True)
sys.stdin.readline()
rid = json.loads(sys.stdin.readline())["id"]
answers = {
    "error": json.dumps({"id": rid, "error": "cannot score that"}),
    "non-finite": json.dumps({"id": rid, "score": float("nan")}),
    "unknown-id": json.dumps({"id": rid + 1, "score": 0.5}),
    "malformed": "not json",
    "long-line": "x" * ((1 << 20) + 1),
}
if sys.argv[1] == "timeout":
    time.sleep(30)
print(answers[sys.argv[1]], flush=True)
sys.stdin.read()
"""


_BATCH_FAILURES = {
    "error": (ScoringError, "^scorer failed on pair 0: cannot score that$"),
    "non-finite": (ScoringError, "^scorer returned a non-finite score for pair 0: nan$"),
    "unknown-id": (TransportError, "^scorer response for unknown or duplicate id 1$"),
    "malformed": (TransportError, r"^malformed scorer response: 'not json\\n'$"),
    "long-line": (TransportError, f"^scorer response line longer than {1 << 20} bytes$"),
    "timeout": (TransportError, "^timed out after 1.0s waiting for scorer response$"),
}


@pytest.mark.parametrize("failure", list(_BATCH_FAILURES))
def test_a_failed_batch_closes_the_scorer_client_and_stops_its_scorer(monkeypatch, failure):
    """Whatever fails a batch, the client is closed after it: the spawned
    scorer has exited, and the next batch scores nothing."""
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    argv = [sys.executable, "-c", _FAILING_SCORER, failure]
    client = ScorerClient.spawn(argv, timeout=1 if failure == "timeout" else 10)
    try:
        error, message = _BATCH_FAILURES[failure]
        with pytest.raises(error, match=message):
            client.score_pairs([("s", "h", "r")])
        assert started[0].poll() is not None and client.pairs_scored == 0
        with pytest.raises(TransportError, match="^scorer client is closed$"):
            client.score_pairs([("s", "h", "r")])
    finally:
        client.close()
