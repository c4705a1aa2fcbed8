"""File formats and the external-scorer client.

N-best files and full-mode result files are UTF-8 line-delimited JSON, one
record per line.  Utility-matrix files are a JSON header line
``{"utility_name": ..., "n": ..., "l": ...}`` followed by n rows of l
space-separated decimals; several matrices may be concatenated in one file
(one per n-best list).  Floats are written with ``repr`` precision, so
write/load round-trips are bit-exact.

The scorer client speaks a line-JSON protocol over a TCP socket or a child
process's stdin/stdout.  Both sides send ``{"protocol": "rmbr-scorer/1"}``
on connect.  Requests are ``{"id", "src", "hyp", "ref"}``; responses are
``{"id", "score"}`` or ``{"id", "error"}`` and may arrive out of order —
the client realigns them by id.  Each response must arrive within the
timeout (default 30 s, ``RMBR_SCORER_TIMEOUT_SECS`` overrides).
"""

from __future__ import annotations

import json
import logging
import math
import os
import queue
import socket
import subprocess
import threading
import uuid
from contextlib import contextmanager
from typing import Sequence

import numpy as np

from .core import Candidate, NBestList, RerankResult, UtilityMatrix
from .errors import (
    InvalidInputError,
    ParseError,
    ScoringError,
    TransportError,
)

log = logging.getLogger(__name__)

PROTOCOL_VERSION = "rmbr-scorer/1"
DEFAULT_TIMEOUT_SECS = 30.0
TIMEOUT_ENV_VAR = "RMBR_SCORER_TIMEOUT_SECS"

RESULT_MODES = ("text", "full")


# ---------------------------------------------------------------------------
# output files


@contextmanager
def atomic_write(path):
    """Open ``path`` for UTF-8 text writing so it is never seen half-written.

    Text goes to a temp file in the same directory, which is flushed to disk
    and renamed over ``path`` only when the block exits cleanly.  On any
    error the temp file is removed and an existing ``path`` is untouched.
    A symlink is followed, so its target is replaced and the link kept; a
    path that is not a regular file, such as ``/dev/stdout`` or a pipe,
    cannot be replaced and is written in place.
    """
    path = os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# n-best files


def _candidate_from_record(rec: dict) -> Candidate:
    for key in ("text", "tokens", "log_prob"):
        if key not in rec:
            raise ParseError(f"candidate record is missing {key!r}")
    return Candidate(
        text=rec["text"],
        tokens=tuple(rec["tokens"]),
        log_prob=float(rec["log_prob"]),
        token_log_probs=rec.get("token_log_probs"),
        external_scores={k: float(v) for k, v in rec.get("external_scores", {}).items()},
        mc_pass_scores=rec.get("mc_pass_scores"),
        token_entropies=rec.get("token_entropies"),
    )


def _candidate_to_record(cand: Candidate) -> dict:
    rec = {"text": cand.text, "tokens": list(cand.tokens), "log_prob": cand.log_prob}
    if cand.token_log_probs is not None:
        rec["token_log_probs"] = list(cand.token_log_probs)
    if cand.external_scores:
        rec["external_scores"] = dict(cand.external_scores)
    if cand.mc_pass_scores is not None:
        rec["mc_pass_scores"] = list(cand.mc_pass_scores)
    if cand.token_entropies is not None:
        rec["token_entropies"] = list(cand.token_entropies)
    return rec


def load_nbest(path) -> list[NBestList]:
    """Read n-best lists from a line-JSON file.

    Candidates that are not in descending log-prob order are stably
    re-sorted with a warning.  Malformed lines raise a parse error naming
    the 1-based line number; an empty file is invalid input.
    """
    lists = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise ParseError(f"bad JSON: {e}", line=line_no) from None
            if not isinstance(rec, dict):
                raise ParseError("expected a JSON object", line=line_no)
            if "source" not in rec or "candidates" not in rec:
                raise ParseError(
                    "record is missing 'source' or 'candidates'", line=line_no
                )
            try:
                candidates = [_candidate_from_record(c) for c in rec["candidates"]]
            except ParseError as e:
                raise ParseError(str(e), line=line_no) from None
            except (InvalidInputError, TypeError, ValueError) as e:
                raise ParseError(str(e), line=line_no) from None
            probs = [c.log_prob for c in candidates]
            if any(a < b for a, b in zip(probs, probs[1:])):
                log.warning(
                    "line %d: candidates not in descending log-prob order; re-sorting",
                    line_no,
                )
                candidates.sort(key=lambda c: -c.log_prob)
            try:
                lists.append(
                    NBestList(
                        source=rec["source"],
                        candidates=tuple(candidates),
                        reference=rec.get("reference"),
                        reference_token_log_probs=rec.get("reference_token_log_probs"),
                    )
                )
            except (InvalidInputError, TypeError, ValueError) as e:
                raise ParseError(str(e), line=line_no) from None
    if not lists:
        raise InvalidInputError(f"{path} holds no n-best lists")
    return lists


def write_nbest(path, lists: Sequence[NBestList]) -> None:
    """Write n-best lists as line-JSON; inverse of :func:`load_nbest`."""
    with atomic_write(path) as fh:
        for lst in lists:
            rec = {
                "source": lst.source,
                "candidates": [_candidate_to_record(c) for c in lst.candidates],
            }
            if lst.reference is not None:
                rec["reference"] = lst.reference
            if lst.reference_token_log_probs is not None:
                rec["reference_token_log_probs"] = list(lst.reference_token_log_probs)
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


# ---------------------------------------------------------------------------
# utility-matrix files


def write_utility_matrix(path, matrix: UtilityMatrix) -> None:
    write_utility_matrices(path, [matrix])


def write_utility_matrices(path, matrices: Sequence[UtilityMatrix]) -> None:
    """Write matrices back-to-back: a JSON header line, then n rows of l
    repr-precision decimals each."""
    with atomic_write(path) as fh:
        for matrix in matrices:
            header = {"utility_name": matrix.utility_name, "n": matrix.n, "l": matrix.l}
            fh.write(json.dumps(header) + "\n")
            for row in matrix.values:
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def load_utility_matrices(path) -> list[UtilityMatrix]:
    """Read every matrix stored in a file."""
    matrices = []
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    pos = 0
    while pos < len(lines):
        if not lines[pos].strip():
            pos += 1
            continue
        header_line = pos + 1
        try:
            header = json.loads(lines[pos])
        except json.JSONDecodeError as e:
            raise ParseError(f"bad matrix header: {e}", line=header_line) from None
        if not isinstance(header, dict) or not {"utility_name", "n", "l"} <= set(header):
            raise ParseError(
                "matrix header must name utility_name, n and l", line=header_line
            )
        n, l = header["n"], header["l"]
        if not (isinstance(n, int) and isinstance(l, int)) or n < 1 or l < 1:
            raise ParseError(f"bad matrix dimensions n={n!r} l={l!r}", line=header_line)
        if pos + n >= len(lines):
            raise ParseError(
                f"matrix body is truncated: expected {n} rows", line=header_line
            )
        values = np.empty((n, l), dtype=np.float64)
        for r in range(n):
            row_line = header_line + 1 + r
            tokens = lines[pos + 1 + r].split()
            if len(tokens) != l:
                raise ParseError(
                    f"expected {l} values in matrix row, got {len(tokens)}",
                    line=row_line,
                )
            try:
                row = [float(t) for t in tokens]
            except ValueError:
                raise ParseError("matrix row holds a non-number", line=row_line) from None
            if not all(math.isfinite(v) for v in row):
                raise ParseError("matrix row holds a non-finite value", line=row_line)
            values[r] = row
        matrices.append(UtilityMatrix(values=values, utility_name=header["utility_name"]))
        pos += 1 + n
    if not matrices:
        raise InvalidInputError(f"{path} holds no utility matrices")
    return matrices


# ---------------------------------------------------------------------------
# result files


def write_results(path, results, lists, mode: str = "text") -> None:
    """Write reranking output: one selected text per line ("text" mode) or
    one JSON record per list with the full score breakdown ("full" mode)."""
    if mode not in RESULT_MODES:
        raise InvalidInputError(f"mode must be one of {RESULT_MODES}, got {mode!r}")
    if len(results) != len(lists):
        raise InvalidInputError(
            f"got {len(results)} results for {len(lists)} lists"
        )
    with atomic_write(path) as fh:
        for result, lst in zip(results, lists):
            selected_text = lst.candidates[result.selected].text
            if mode == "text":
                fh.write(selected_text + "\n")
                continue
            rec = {
                "source": lst.source,
                "selected": result.selected,
                "selected_text": selected_text,
                "ranking": list(result.ranking),
                "candidate_indices": list(result.candidate_indices),
                "mbr_scores": list(result.mbr_scores),
                "regularizer_scores": {
                    k: list(v) for k, v in result.regularizer_scores.items()
                },
                "total_scores": list(result.total_scores),
                "utility_calls": result.utility_calls,
            }
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def read_results(path) -> list[RerankResult]:
    """Re-load full-mode result records."""
    results = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                results.append(
                    RerankResult(
                        mbr_scores=rec["mbr_scores"],
                        regularizer_scores=rec["regularizer_scores"],
                        total_scores=rec["total_scores"],
                        ranking=rec["ranking"],
                        selected=rec["selected"],
                        utility_calls=rec["utility_calls"],
                        candidate_indices=rec["candidate_indices"],
                    )
                )
            except json.JSONDecodeError as e:
                raise ParseError(f"bad JSON: {e}", line=line_no) from None
            except (KeyError, InvalidInputError, TypeError, ValueError) as e:
                raise ParseError(f"bad result record: {e}", line=line_no) from None
    if not results:
        raise InvalidInputError(f"{path} holds no results")
    return results


# ---------------------------------------------------------------------------
# scorer-service client


def _resolve_timeout(timeout: float | None) -> float:
    if timeout is not None:
        return float(timeout)
    env = os.environ.get(TIMEOUT_ENV_VAR)
    if env:
        try:
            return float(env)
        except ValueError:
            raise InvalidInputError(
                f"{TIMEOUT_ENV_VAR} must be a number, got {env!r}"
            ) from None
    return DEFAULT_TIMEOUT_SECS


class _ReaderThread(threading.Thread):
    """Pumps lines from a stream into a queue so reads can time out."""

    def __init__(self, stream):
        super().__init__(daemon=True)
        self.stream = stream
        self.lines = queue.Queue()

    def run(self):
        try:
            for line in self.stream:
                self.lines.put(("line", line))
            self.lines.put(("eof", None))
        except Exception as e:  # stream closed under us, broken pipe, ...
            self.lines.put(("error", e))


class ScorerClient:
    """Client for an external scorer speaking the line-JSON protocol.

    Build one with :meth:`connect_tcp` or :meth:`spawn`; both perform the
    protocol handshake.  ``score_pairs`` pipelines all requests of a batch
    and realigns responses by id, so the scorer may answer out of order.
    The client is safe to share between threads (batches are serialized).
    """

    def __init__(
        self,
        writer,
        reader,
        timeout: float | None = None,
        shutdown=None,
        on_close=None,
    ):
        self._writer = writer
        self._reader_thread = _ReaderThread(reader)
        self._shutdown = shutdown
        self._on_close = on_close
        self._closed = False
        self._next_id = 0
        self._lock = threading.Lock()
        #: pairs of the batches this client got all scores for
        self.pairs_scored = 0
        self.timeout = _resolve_timeout(timeout)
        self._reader_thread.start()
        try:
            self._handshake()
        except BaseException:
            self.close()
            raise

    @classmethod
    def connect_tcp(cls, host: str, port: int, timeout: float | None = None):
        resolved = _resolve_timeout(timeout)
        try:
            sock = socket.create_connection((host, port), timeout=resolved)
        except OSError as e:
            raise TransportError(f"cannot connect to scorer at {host}:{port}: {e}") from None
        sock.settimeout(None)
        writer = sock.makefile("w", encoding="utf-8")
        reader = sock.makefile("r", encoding="utf-8")

        def shutdown():
            sock.shutdown(socket.SHUT_RDWR)

        return cls(
            writer, reader, timeout=resolved, shutdown=shutdown, on_close=sock.close
        )

    @classmethod
    def spawn(cls, argv: Sequence[str], timeout: float | None = None):
        try:
            proc = subprocess.Popen(
                argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        except OSError as e:
            raise TransportError(f"cannot start scorer {argv!r}: {e}") from None

        def stop():
            proc.terminate()
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

        return cls(proc.stdin, proc.stdout, timeout=timeout, shutdown=stop)

    def _send(self, payload: str):
        try:
            self._writer.write(payload)
            self._writer.flush()
        except (OSError, ValueError) as e:
            raise TransportError(f"cannot send to scorer: {e}") from None

    def _next_line(self) -> str:
        try:
            kind, value = self._reader_thread.lines.get(timeout=self.timeout)
        except queue.Empty:
            raise TransportError(
                f"timed out after {self.timeout}s waiting for scorer response"
            ) from None
        if kind == "eof":
            raise TransportError("scorer closed the connection")
        if kind == "error":
            raise TransportError(f"scorer connection failed: {value}")
        return value

    def _handshake(self):
        self._send(json.dumps({"protocol": PROTOCOL_VERSION}) + "\n")
        line = self._next_line()
        try:
            greeting = json.loads(line)
        except json.JSONDecodeError:
            raise TransportError(f"bad scorer handshake: {line!r}") from None
        if not isinstance(greeting, dict) or greeting.get("protocol") != PROTOCOL_VERSION:
            raise TransportError(
                f"scorer protocol mismatch: want {PROTOCOL_VERSION!r}, "
                f"got {greeting.get('protocol') if isinstance(greeting, dict) else greeting!r}"
            )

    def score_pairs(self, pairs: Sequence[tuple[str | None, str, str]]) -> list[float]:
        """Score (source, hypothesis, reference) triples; source may be None.

        Returns scores in the order of ``pairs`` regardless of the order the
        scorer answered in.
        """
        if not pairs:
            raise InvalidInputError("pairs must be non-empty")
        with self._lock:
            if self._closed:
                raise TransportError("scorer client is closed")
            base = self._next_id
            self._next_id += len(pairs)
            payload = "".join(
                json.dumps({"id": base + i, "src": src, "hyp": hyp, "ref": ref})
                + "\n"
                for i, (src, hyp, ref) in enumerate(pairs)
            )
            self._send(payload)
            pending = {base + i: i for i in range(len(pairs))}
            out: list[float | None] = [None] * len(pairs)
            while pending:
                line = self._next_line()
                try:
                    response = json.loads(line)
                except json.JSONDecodeError:
                    raise TransportError(f"malformed scorer response: {line!r}") from None
                rid = response.get("id") if isinstance(response, dict) else None
                if rid not in pending:
                    raise TransportError(
                        f"scorer response for unknown or duplicate id {rid!r}"
                    )
                pos = pending.pop(rid)
                if response.get("error") is not None:
                    raise ScoringError(
                        f"scorer failed on pair {pos}: {response['error']}"
                    )
                score = response.get("score")
                if isinstance(score, bool) or not isinstance(score, (int, float)):
                    raise TransportError(
                        f"scorer response for pair {pos} has no numeric score"
                    )
                if not math.isfinite(score):
                    raise ScoringError(
                        f"scorer returned a non-finite score for pair {pos}: {score!r}"
                    )
                out[pos] = float(score)
            self.pairs_scored += len(pairs)
            return out  # type: ignore[return-value]

    def close(self):
        """Tear the connection down without racing the reader thread.

        The reader may be blocked inside the stream's buffered read (and
        holding its lock), so the stream itself is only closed after the
        shutdown hook has unblocked the reader and it has exited.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        try:
            self._writer.close()
        except (OSError, ValueError):
            pass
        if self._shutdown is not None:
            try:
                self._shutdown()
            except OSError:
                pass
        self._reader_thread.join(timeout=5)
        if not self._reader_thread.is_alive():
            try:
                self._reader_thread.stream.close()
            except (OSError, ValueError):
                pass
        if self._on_close is not None:
            try:
                self._on_close()
            except OSError:
                pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
