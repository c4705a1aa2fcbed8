"""The external-scorer client: everything about reaching a scorer.

A ``service:`` utility spec names a scorer that speaks a line-JSON
protocol over a TCP socket or a child process's stdin/stdout.  Both sides
send ``{"protocol": "rmbr-scorer/1"}`` on connect.  Requests are
``{"id", "src", "hyp", "ref"}``; responses are ``{"id", "score"}`` or
``{"id", "error"}`` and may arrive out of order — the client realigns them
by id.  Each response must arrive within the timeout (default 30 s,
``RMBR_SCORER_TIMEOUT_SECS`` overrides), and so must each write to a
scorer that has stopped reading.  One thread writes a batch and reads its
responses over non-blocking descriptors, so a batch larger than the pipe
buffers cannot deadlock.  A line read past the answers of an exchange, the
handshake or one batch, fails it, and a batch that fails closes the client.

:func:`service_opener` parses the text after ``service:`` and returns an
opener that starts nothing until it is called.  Within rmbr, only
:meth:`rmbr.mbr.UtilitySession.providers` imports this module, when it
resolves a ``service:`` spec, so a BLEU, chrF or ``matrix:`` run never
loads it.
"""

from __future__ import annotations

import json
import math
import os
import select
import threading
import time
from functools import partial
from typing import Sequence

from .errors import (
    ConfigError,
    InvalidInputError,
    ScoringError,
    TransportError,
)

PROTOCOL_VERSION = "rmbr-scorer/1"
DEFAULT_TIMEOUT_SECS = 30.0
TIMEOUT_ENV_VAR = "RMBR_SCORER_TIMEOUT_SECS"


def _resolve_timeout(timeout: float | None) -> float:
    """The given timeout, else the environment's, else the default.

    Raises :class:`InvalidInputError` unless it is a finite number > 0.
    """
    name = "scorer timeout"
    if timeout is None:
        name, timeout = TIMEOUT_ENV_VAR, os.environ.get(TIMEOUT_ENV_VAR)
        if not timeout:
            return DEFAULT_TIMEOUT_SECS
    try:
        value = float(timeout)
    except (TypeError, ValueError):
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise InvalidInputError(
            f"{name} must be a finite number of seconds > 0, got {timeout!r}"
        )
    return value


def service_opener(address: str):
    """An opener of the scorer at ``address``, the text after ``service:``.

    ``address`` is ``exec:COMMAND`` (a shell-quoted command to spawn) or
    ``HOST:PORT`` with a port in 1..65535; anything else raises
    :class:`ConfigError`.  The timeout is read first, from the environment,
    and must be valid (:class:`InvalidInputError` if not).  The opener
    takes no arguments and returns a connected :class:`ScorerClient`; it
    uses the ``spawn`` or ``connect_tcp`` that the class holds when this
    is called, and nothing starts until the opener is called.
    """
    spec = f"service:{address}"
    timeout = _resolve_timeout(None)
    if address.startswith("exec:"):
        import shlex

        try:
            argv = shlex.split(address[len("exec:") :])
        except ValueError as e:
            raise ConfigError(f"bad scorer command in {spec!r}: {e}") from None
        if not argv:
            raise ConfigError(f"{spec!r} names no scorer command")
        return partial(ScorerClient.spawn, argv, timeout=timeout)
    host, sep, port = address.rpartition(":")
    if not host or not sep or not port.isdigit() or not 1 <= int(port) <= 65535:
        raise ConfigError(f"bad service address {address!r}, want HOST:PORT")
    return partial(ScorerClient.connect_tcp, host, int(port), timeout=timeout)


_READ_CHUNK = 1 << 16
# bytes of the longest response line read; a pair's answer is a few dozen
_MAX_LINE = 1 << 20
# characters of a scorer's text that an error quotes; of a longer text, it
# quotes this many and gives the length
_QUOTED_CHARS = 256


def _quoted(value) -> str:
    """``repr(value)``, cut to about ``_QUOTED_CHARS`` characters: a longer
    string is quoted as its first ``_QUOTED_CHARS`` characters and its
    length, and the repr of any other value is cut the same way."""
    if isinstance(value, str):
        text, quoted = value, repr(value[:_QUOTED_CHARS])
    else:
        text = repr(value)
        quoted = text[:_QUOTED_CHARS]
    if len(text) > _QUOTED_CHARS:
        quoted += f"... ({len(text)} characters)"
    return quoted


def _decoded(line: str, what: str):
    """The JSON value of a response ``line``.  A malformed one raises
    :class:`TransportError` headed ``what`` that quotes the line with its
    newline, as read, through :func:`_quoted`."""
    try:
        return json.loads(line)
    except json.JSONDecodeError:
        read = line + "\n"
        raise TransportError(f"{what}: {_quoted(read)}") from None


def _record(line: str, pending: dict[int, int], out: list) -> None:
    """Pop response ``line``'s id from ``pending``, and put its score in ``out`` at its pair."""
    response = _decoded(line, "malformed scorer response")
    rid = response.get("id") if isinstance(response, dict) else None
    # exactly int: true and 1.0 would match id 1, and a list is unhashable
    if type(rid) is not int or rid not in pending:
        raise TransportError(f"scorer response for unknown or duplicate id {rid!r}")
    pos = pending.pop(rid)
    if response.get("error") is not None:
        raise ScoringError(f"scorer failed on pair {pos}: {response['error']}")
    score = response.get("score")
    if isinstance(score, bool) or not isinstance(score, (int, float)):
        raise TransportError(f"scorer response for pair {pos} has no numeric score")
    if not math.isfinite(score):
        raise ScoringError(f"scorer returned a non-finite score for pair {pos}: {score!r}")
    out[pos] = float(score)


class ScorerClient:
    """Client for an external scorer speaking the line-JSON protocol.

    Build one with :meth:`connect_tcp` or :meth:`spawn`; both perform the
    protocol handshake.  ``score_pairs`` pipelines all requests of a batch
    and realigns responses by id, so the scorer may answer out of order.
    One thread does both directions: it waits on the non-blocking
    descriptors with ``poll`` and writes requests while it reads
    responses, so a batch larger than the pipe buffers cannot deadlock
    and a scorer that stops reading runs into the timeout.  A batch that
    fails closes the client.  The client is safe to share between threads
    (batches are serialized).
    """

    def __init__(self, read_fd: int, write_fd: int, timeout: float | None = None, close=None):
        self.timeout = _resolve_timeout(timeout)
        self._rfd = read_fd
        self._wfd = write_fd
        self._teardown = close
        self._closed = False
        self._next_id = 0
        self._lock = threading.Lock()
        #: pairs of the batches this client got all scores for
        self.pairs_scored = 0
        try:
            os.set_blocking(read_fd, False)
            os.set_blocking(write_fd, False)
            self._handshake()
        except BaseException:
            self.close()
            raise

    @classmethod
    def connect_tcp(cls, host: str, port: int, timeout: float | None = None):
        import socket

        resolved = _resolve_timeout(timeout)
        try:
            sock = socket.create_connection((host, port), timeout=resolved)
        except OSError as e:
            raise TransportError(f"cannot connect to scorer at {host}:{port}: {e}") from None

        def close():
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()

        fd = sock.fileno()
        return cls(fd, fd, timeout=resolved, close=close)

    @classmethod
    def spawn(cls, argv: Sequence[str], timeout: float | None = None):
        import subprocess

        timeout = _resolve_timeout(timeout)
        try:
            proc = subprocess.Popen(
                argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0
            )
        except OSError as e:
            raise TransportError(f"cannot start scorer {argv!r}: {e}") from None

        def stop():
            proc.stdin.close()
            proc.terminate()
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()

        return cls(proc.stdout.fileno(), proc.stdin.fileno(), timeout=timeout, close=stop)

    def _responses(self, payload: bytes):
        """Write ``payload`` while yielding each read's response lines as a list.

        Every wait is bounded by the timeout, which restarts when requests
        are written or complete lines arrive.  Each read's complete lines
        are decoded at once, so one invalid byte fails them all.  A last
        line that ends at EOF without a newline is still a line, as in
        ``for line in file``.  A partial line is kept as its chunks and
        joined when its newline arrives, so a long line costs linear time;
        one longer than ``_MAX_LINE`` bytes fails at once.  What a caller
        that stops early has not taken or sent is dropped.
        """
        rfd, wfd = self._rfd, self._wfd
        out, tail = memoryview(payload), []
        poller = select.poll()  # register() replaces a descriptor's mask
        poller.register(rfd, select.POLLIN)
        poller.register(wfd, select.POLLOUT | (select.POLLIN if wfd == rfd else 0))
        deadline = time.monotonic() + self.timeout
        while True:
            if out:
                try:
                    sent = os.write(wfd, out)
                except BlockingIOError:
                    sent = 0
                except OSError as e:
                    raise TransportError(f"cannot send to scorer: {e}") from None
                if sent:
                    out = out[sent:]
                    deadline = time.monotonic() + self.timeout
                    if not out:
                        poller.unregister(wfd)
                        poller.register(rfd, select.POLLIN)
            wait = deadline - time.monotonic()
            if wait <= 0 or not poller.poll(wait * 1000):
                waiting_for = "to read requests" if out else "response"
                raise TransportError(
                    f"timed out after {self.timeout}s waiting for scorer {waiting_for}"
                )
            try:
                data = os.read(rfd, _READ_CHUNK)
            except BlockingIOError:
                continue
            except OSError as e:
                raise TransportError(f"scorer connection failed: {e}") from None
            if not data:
                if not tail:
                    raise TransportError("scorer closed the connection")
                data = b"\n"  # the last line ends at EOF
            end = data.find(b"\n")  # of the line the partial one continues
            if sum(map(len, tail)) + (len(data) if end < 0 else end) > _MAX_LINE:
                raise TransportError(f"scorer response line longer than {_MAX_LINE} bytes")
            tail.append(data)
            if end < 0:
                continue
            complete, _, rest = b"".join(tail).rpartition(b"\n")
            tail = [rest] if rest else []
            try:
                lines = complete.decode("utf-8").split("\n")
            except UnicodeDecodeError as e:
                raise TransportError(f"scorer connection failed: {e}") from None
            deadline = time.monotonic() + self.timeout
            yield lines

    def _handshake(self):
        hello = (json.dumps({"protocol": PROTOCOL_VERSION}) + "\n").encode()
        lines = next(self._responses(hello))
        greeting = _decoded(lines[0], "bad scorer handshake")
        got = greeting.get("protocol") if isinstance(greeting, dict) else greeting
        if not isinstance(greeting, dict) or got != PROTOCOL_VERSION:
            raise TransportError(
                f"scorer protocol mismatch: want {PROTOCOL_VERSION!r}, got {_quoted(got)}"
            )
        if len(lines) > 1:
            raise TransportError(f"scorer sent a line past its handshake: {_quoted(lines[1])}")

    def score_pairs(self, pairs: Sequence[tuple[str | None, str, str]]) -> list[float]:
        """Score (source, hypothesis, reference) triples; source may be None.

        Returns scores in the order of ``pairs`` regardless of the order the
        scorer answered in.  A line read with the last answer fails the batch,
        and a batch that fails, for any reason, closes the client.
        """
        if not pairs:
            raise InvalidInputError("pairs must be non-empty")
        with self._lock:
            if self._closed:
                raise TransportError("scorer client is closed")
            base = self._next_id
            self._next_id += len(pairs)
            # json.dumps of each request dict, with each distinct text
            # encoded once per batch
            quoted = {text: json.dumps(text) for text in {t for pair in pairs for t in pair}}
            payload = "".join(
                f'{{"id": {base + i}, "src": {quoted[src]}, '
                f'"hyp": {quoted[hyp]}, "ref": {quoted[ref]}}}\n'
                for i, (src, hyp, ref) in enumerate(pairs)
            ).encode()
            # every id sent and not yet answered, with its pair's position
            pending = dict(zip(range(base, base + len(pairs)), range(len(pairs))))
            out: list[float | None] = [None] * len(pairs)
            try:
                for lines in self._responses(payload):
                    for line in lines:
                        _record(line, pending, out)
                    if not pending:
                        break
            except BaseException:
                self._close()
                raise
            self.pairs_scored += len(pairs)
            return out  # type: ignore[return-value]

    def close(self):
        """Close the connection and stop a spawned scorer (idempotent).

        A batch in progress on another thread finishes first.
        """
        with self._lock:
            self._close()

    def _close(self):  # close(), for a caller that holds the lock
        if not self._closed:
            self._closed = True
            if self._teardown is not None:
                try:
                    self._teardown()
                except OSError:
                    pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
