"""A scorer exchange under seeded random timing, on both kinds of descriptor.

Each case runs one ``ScorerClient`` against a scorer thread, either on a
``socket.socketpair`` (one descriptor, as a TCP scorer is reached) or on two
``os.pipe``s (as a spawned scorer is).  The scorer answers each burst of
requests it reads in a shuffled order, and writes its bytes cut at random
sizes from 1 B to 64 KiB, with random stalls of up to 2 ms.  A batch is 1,
3, 144 or 2500 pairs; the last carries several hundred KB of requests, so
the client's writes come up short on both kinds.  Some cases inject one
fault: a duplicate id, a NaN score, a line past the batch's last answer in
the same read, EOF in the middle of a line, a line past the 1 MiB bound,
or a scorer that stops answering under a short timeout.  A clean case
must get every score exactly, then score a second batch; a faulty one
must raise the documented error class and message.  Either way the
scorer thread must end and every descriptor must be closed.
"""

import fcntl
import json
import os
import random
import socket
import struct
import termios
import threading
import time

import pytest

from rmbr.errors import ScoringError, TransportError
from rmbr.scorer import ScorerClient

PROTOCOL = "rmbr-scorer/1"
# the documented bound of one response line, in bytes
_LINE_BOUND = 1 << 20
_KINDS = ("socketpair", "pipes")
_SIZES = (1, 3, 144, 2500)
_FAULTS = (None, "duplicate", None, "nan", "past", None, "eof", "long", None, "stall")
_CASES = range(len(_KINDS) * len(_SIZES) * len(_FAULTS))
_STALL_TIMEOUT = 0.2
_WORDS = ("the", "a", "naïve", "café", "日本語", "😀", 'say "hi"', "back\\slash", "tab\tnew\nline")
_WORDS += (" ", "x" * 40)


def _case(seed):
    """The descriptor kind, first batch size and fault of case ``seed``."""
    kind = _KINDS[seed % len(_KINDS)]
    size = _SIZES[seed // len(_KINDS) % len(_SIZES)]
    return kind, size, _FAULTS[seed // (len(_KINDS) * len(_SIZES))]


def _case_id(seed):
    kind, size, fault = _case(seed)
    return f"{seed}-{kind}-{size}-{fault or 'clean'}"


def _text(rng, words):
    return " ".join(rng.choices(_WORDS, k=words))


def _pairs(rng, n):
    return [
        (
            None if rng.random() < 0.2 else _text(rng, 3),
            _text(rng, rng.randint(10, 30)),
            _text(rng, rng.randint(10, 30)),
        )
        for _ in range(n)
    ]


def _score(hyp, ref):
    """A toy utility; one value in four is an int, which must come back a float."""
    return len(hyp) if len(hyp) % 4 == 0 else len(hyp) - len(ref) / 7


def _unread(fd):
    """Bytes waiting to be read on ``fd``: none once the client has closed it."""
    try:
        return struct.unpack("i", fcntl.ioctl(fd, termios.FIONREAD, b"\0" * 4))[0]
    except OSError:
        return 0


class _Link:
    """Both ends of one scorer connection of ``kind``, by descriptor."""

    def __init__(self, kind):
        if kind == "socketpair":
            client, scorer = socket.socketpair()
            self.client_fds = (client.fileno(),) * 2
            self.scorer_fds = (scorer.fileno(),) * 2
            self.close_client = client.close
            self.end_answers = lambda: scorer.shutdown(socket.SHUT_WR)
            self.close_scorer = scorer.close
        else:
            answers_r, answers_w = os.pipe()
            requests_r, requests_w = os.pipe()
            self.client_fds = (answers_r, requests_w)
            self.scorer_fds = (requests_r, answers_w)
            scorer_open = {requests_r, answers_w}

            def close_scorer(fds=(requests_r, answers_w)):
                for fd in scorer_open.intersection(fds):
                    scorer_open.discard(fd)
                    os.close(fd)

            self.close_client = lambda: (os.close(answers_r), os.close(requests_w))
            self.end_answers = lambda: close_scorer((answers_w,))
            self.close_scorer = close_scorer
        self.fds = {*self.client_fds, *self.scorer_fds}


class _Scorer(threading.Thread):
    """A scorer on ``link`` for batches of ``sizes`` pairs, with ``fault``
    injected into the first batch at answer ``at``.

    It reads requests until EOF and answers each read's requests shuffled.
    After a fault that ends its answers (EOF, a long line, a stall) it
    writes nothing more.  What it injected is kept in ``injected``.
    """

    def __init__(self, link, seed, sizes, fault, at):
        super().__init__(daemon=True)
        self.link, self.rng = link, random.Random(f"scorer {seed}")
        self.sizes, self.fault, self.at = list(sizes), fault, at
        self.injected = None
        self.request_bytes = 0

    def run(self):
        rfd, _ = self.link.scorer_fds
        try:
            self._send((json.dumps({"protocol": PROTOCOL}) + "\n").encode())
            buffered, hello, answering = b"", None, True
            batch, seen, written = 0, 0, 0
            while data := os.read(rfd, 1 << 16):
                self.request_bytes += len(data)
                *lines, buffered = (buffered + data).split(b"\n")
                if hello is None:
                    hello, *lines = lines
                    assert json.loads(hello) == {"protocol": PROTOCOL}
                burst = []
                for line in lines:
                    req = json.loads(line)
                    score = _score(req["hyp"], req["ref"])
                    if batch == 0 and self.fault == "nan" and seen == self.at:
                        score = float("nan")
                    answer = (json.dumps({"id": req["id"], "score": score}) + "\n").encode()
                    if batch == 0 and self.fault == "duplicate" and seen == self.at:
                        self.injected = req["id"]
                        answer += answer
                    burst.append(answer)
                    seen += 1
                self.rng.shuffle(burst)
                last = seen == self.sizes[batch]
                if batch == 0 and answering:
                    answering = self._first_batch(burst, last, written)
                    written += len(burst)
                elif answering:
                    self._send(b"".join(burst))
                if last:
                    batch, seen = batch + 1, 0
        except (BrokenPipeError, ConnectionResetError):
            pass  # the client closed, after its batch failed
        finally:
            self.link.close_scorer()

    def _first_batch(self, burst, last, written):
        """Write a burst of the first batch's answers, ``written`` of which
        are out already, with the fault; False once answers have ended."""
        if self.fault in ("eof", "long", "stall") and written + len(burst) > self.at:
            self._send(b"".join(burst[: self.at - written]))
            if self.fault == "eof":
                line = burst[self.at - written]
                self.injected = line[: self.rng.randrange(1, len(line) - 1)]
                self._send(self.injected)
                self.link.end_answers()
            elif self.fault == "long":
                self._send(b"x" * (_LINE_BOUND + self.rng.randint(1, 1000)) + b"\n")
            return False
        if last and self.fault in ("duplicate", "past"):
            tail = burst.pop()
            if self.fault == "past":
                self.injected = self.rng.choice(
                    [tail, b'{"id": 1000000, "score": 0.5}\n', b'{"id": true}\n', b"not json\n"]
                )
                tail += self.injected
            self._send(b"".join(burst))
            # one write into an empty buffer, so one read takes the batch's
            # last answer and the line past it together
            deadline = time.monotonic() + 5
            while _unread(self.link.client_fds[0]) and time.monotonic() < deadline:
                time.sleep(0.0005)
            burst = [tail]
        self._send(b"".join(burst))
        return True

    def _send(self, data):
        """Write ``data`` in pieces of 1 B to 64 KiB, with random stalls."""
        _, wfd = self.link.scorer_fds
        view = memoryview(data)
        while view:
            size = int(2 ** self.rng.uniform(0, 16))
            piece, view = view[:size], view[size:]
            while piece:
                piece = piece[os.write(wfd, piece) :]
            if self.rng.random() < 0.3:
                time.sleep(self.rng.uniform(0, 0.002))


def _expected(fault, scorer):
    """The error class and message the client must raise for ``fault``."""
    if fault == "nan":
        return ScoringError, f"scorer returned a non-finite score for pair {scorer.at}: nan"
    if fault == "eof":
        read = scorer.injected.decode() + "\n"
        return TransportError, f"malformed scorer response: {read!r}"
    if fault == "long":
        return TransportError, f"scorer response line longer than {_LINE_BOUND} bytes"
    if fault == "stall":
        return TransportError, f"timed out after {_STALL_TIMEOUT}s waiting for scorer response"
    if scorer.injected == b"not json\n":
        return TransportError, "malformed scorer response: 'not json\\n'"
    rid = scorer.injected if fault == "duplicate" else json.loads(scorer.injected)["id"]
    return TransportError, f"scorer response for unknown or duplicate id {rid!r}"


@pytest.mark.parametrize("seed", _CASES, ids=_case_id)
def test_a_scorer_exchange_gives_its_scores_or_the_documented_error(seed):
    kind, size, fault = _case(seed)
    rng = random.Random(4100 + seed)
    batches = [_pairs(rng, size)] + ([_pairs(rng, 3)] if fault is None else [])
    link = _Link(kind)
    scorer = _Scorer(link, seed, map(len, batches), fault, rng.randrange(size))
    scorer.start()
    failed = None
    try:
        timeout = _STALL_TIMEOUT if fault == "stall" else 10
        client = ScorerClient(*link.client_fds, timeout=timeout, close=link.close_client)
        try:
            for pairs in batches:
                scores = client.score_pairs(pairs)
                assert scores == [float(_score(hyp, ref)) for _, hyp, ref in pairs]
                assert {type(score) for score in scores} == {float}
        except (ScoringError, TransportError) as e:
            failed = e
        finally:
            client.close()
    finally:
        scorer.join(timeout=10)
    assert not scorer.is_alive()
    for fd in link.fds:
        with pytest.raises(OSError):
            os.fstat(fd)
    if fault is None:
        assert failed is None
        if size == 2500:
            assert scorer.request_bytes > 300_000
    else:
        assert failed is not None, "the batch returned its scores"
        assert (type(failed), str(failed)) == _expected(fault, scorer)
