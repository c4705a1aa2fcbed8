"""Shared builders: synthetic candidates/lists and scripted scorer doubles."""

import json
import math
import socket
import threading
from collections import Counter

import numpy as np
import pytest

from rmbr.core import Candidate, NBestList
from rmbr.errors import InvalidInputError

PROTOCOL = "rmbr-scorer/1"


def make_candidate(text, log_prob, **kwargs):
    return Candidate(text=text, tokens=tuple(text.split()), log_prob=log_prob, **kwargs)


def make_list(texts, log_probs=None, source="src", reference=None, **kwargs):
    if log_probs is None:
        log_probs = [-float(i) for i in range(len(texts))]
    cands = tuple(make_candidate(t, lp) for t, lp in zip(texts, log_probs))
    return NBestList(source=source, candidates=cands, reference=reference, **kwargs)


# ---------------------------------------------------------------------------
# independent n-gram oracle: the kernel's counts are checked against these


def ngram_counts(seq, order):
    """The order-k n-grams of a sequence as a multiset."""
    return Counter(tuple(seq[i : i + order]) for i in range(len(seq) - order + 1))


def clipped_matches(hyp, ref, max_order):
    """Clipped match counts of hyp against ref, one per order 1..max_order."""
    return [
        sum((ngram_counts(hyp, k) & ngram_counts(ref, k)).values())
        for k in range(1, max_order + 1)
    ]


# ---------------------------------------------------------------------------
# scalar count->score oracle: the array routines in rmbr.metrics must equal
# these bit for bit, pair by pair


def scalar_bleu_from_counts(matches, hyp_len, ref_len, cfg):
    """Sentence BLEU of one pair from its clipped match counts."""
    smoothing = cfg.bleu_smoothing == "epsilon-floor"
    if matches[0] == 0:
        return 0.0
    log_sum = 0.0
    orders = 0
    for k in range(cfg.bleu_max_order):
        total = hyp_len - k
        if total <= 0:
            continue
        orders += 1
        m = float(matches[k])
        if m == 0.0:
            if not smoothing:
                return 0.0
            m = cfg.bleu_epsilon
        log_sum += math.log(m / total)
    bp = math.exp(min(0.0, 1.0 - ref_len / hyp_len))
    return math.exp(log_sum / orders) * bp


def scalar_bleu_from_stats(stats, cfg):
    """Corpus BLEU from summed sufficient statistics, as Python scalars."""
    order = cfg.bleu_max_order
    matches, totals = stats[:order], stats[order : 2 * order]
    hyp_len, ref_len = stats[2 * order], stats[2 * order + 1]
    log_sum = 0.0
    for k in range(order):
        if matches[k] == 0:
            return 0.0
        log_sum += math.log(matches[k] / totals[k])
    bp = math.exp(min(0.0, 1.0 - ref_len / hyp_len))
    return math.exp(log_sum / order) * bp


def scalar_chrf_from_counts(matches, hyp_len, ref_len, cfg):
    """Sentence chrF of one pair from its per-order character match counts."""
    beta_sq = cfg.chrf_beta * cfg.chrf_beta
    f_sum = 0.0
    orders = 0
    for k in range(cfg.chrf_char_order):
        hyp_total = hyp_len - k
        ref_total = ref_len - k
        if hyp_total <= 0 and ref_total <= 0:
            continue
        orders += 1
        m = float(matches[k])
        precision = m / hyp_total if hyp_total > 0 else 0.0
        recall = m / ref_total if ref_total > 0 else 0.0
        denom = beta_sq * precision + recall
        if denom > 0.0:
            f_sum += (1.0 + beta_sq) * precision * recall / denom
    if orders == 0:
        raise InvalidInputError("no character n-grams on either side")
    return f_sum / orders


def random_tokens(rng, vocab, length):
    return [vocab[int(i)] for i in rng.integers(0, len(vocab), size=length)]


def random_list(rng, n, vocab=None, with_reference=True, with_extras=False, source="src"):
    """A synthetic beam: candidates are noisy copies of a reference sentence."""
    vocab = vocab or [f"w{i}" for i in range(20)]
    ref = random_tokens(rng, vocab, int(rng.integers(5, 12)))
    cands = []
    for i in range(n):
        toks = list(ref)
        for _ in range(int(rng.integers(0, 4))):
            toks[int(rng.integers(len(toks)))] = vocab[int(rng.integers(len(vocab)))]
        extras = {}
        if with_extras:
            extras = {
                "token_log_probs": [-float(rng.uniform(0.01, 2.0)) for _ in toks],
                "external_scores": {
                    "lm": float(rng.normal()),
                    "bt": float(rng.normal()),
                    "qe": float(rng.uniform()),
                },
                "mc_pass_scores": [float(rng.uniform(0.0, 5.0)) for _ in range(4)],
                "token_entropies": [float(rng.uniform(0.0, 3.0)) for _ in toks],
            }
        cands.append(
            Candidate(
                text=" ".join(toks),
                tokens=tuple(toks),
                log_prob=-0.1 * (i + 1) - float(rng.uniform(0, 0.05)),
                **extras,
            )
        )
    cands.sort(key=lambda c: -c.log_prob)
    return NBestList(
        source=source,
        candidates=tuple(cands),
        reference=" ".join(ref) if with_reference else None,
    )


def random_matrix(rng, n, l=None, name="random"):
    from rmbr.core import UtilityMatrix

    l = n if l is None else l
    return UtilityMatrix(values=rng.uniform(0.0, 1.0, size=(n, l)), utility_name=name)


def trivial_list(n, source="src", reference=None):
    """n distinct one-token candidates; handy as a carrier for matrix utilities."""
    cands = tuple(
        Candidate(text=f"t{i}", tokens=(f"t{i}",), log_prob=-float(i)) for i in range(n)
    )
    return NBestList(source=source, candidates=cands, reference=reference)


class Unscorable:
    """A provider that fails the test if anything scores with it, for checks
    that must raise before the first score."""

    name = "unscorable"

    def matrix(self, nbest, l):
        raise AssertionError("scored before the checks")


class IndexedUtility:
    """Stored values looked up by each candidate's ``t<i>`` text (see
    :func:`trivial_list`), so a sub-list is scored with its own rows and
    columns: a coarse-to-fine target, which a stored matrix cannot be."""

    name = "indexed"

    def __init__(self, matrix):
        self.values = matrix.values

    def matrix(self, nbest, l):
        rows = [int(c.text[1:]) for c in nbest.candidates]
        return self.values[np.ix_(rows, rows[:l])]


# ---------------------------------------------------------------------------
# scripted scorer doubles (TCP)


def scripted_handler(score_fn, reorder=None, handshake=PROTOCOL, respond=True):
    """A one-connection scorer: handshake, then answer each request batch.

    ``reorder`` permutes the buffered requests before answering (applied to
    everything read so far each time the input pauses isn't knowable, so
    the double answers after every line unless reorder is set, in which
    case it buffers ``reorder.batch`` requests first).
    """

    def handler(reader, writer):
        if handshake is not None:
            writer.write(json.dumps({"protocol": handshake}) + "\n")
            writer.flush()
            reader.readline()
        if not respond:
            # swallow everything; the client is expected to time out
            for _ in reader:
                pass
            return
        batch = []
        batch_size = getattr(reorder, "batch", 1) if reorder else 1
        for line in reader:
            batch.append(json.loads(line))
            if len(batch) < batch_size:
                continue
            ordered = reorder(batch) if reorder else batch
            for req in ordered:
                writer.write(json.dumps(score_fn(req)) + "\n")
            writer.flush()
            batch = []
        if batch:
            for req in reorder(batch) if reorder else batch:
                writer.write(json.dumps(score_fn(req)) + "\n")
            writer.flush()

    return handler


def reversed_batches(batch_size):
    def reorder(batch):
        return list(reversed(batch))

    reorder.batch = batch_size
    return reorder


class ScorerServer:
    """Runs a scripted handler on a loopback socket, one connection at a time."""

    def __init__(self, handler):
        self.handler = handler
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(4)
        self.port = self.sock.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            with conn:
                reader = conn.makefile("r", encoding="utf-8")
                writer = conn.makefile("w", encoding="utf-8")
                try:
                    self.handler(reader, writer)
                except (BrokenPipeError, ConnectionResetError, ValueError):
                    pass
                finally:
                    # the makefile objects keep the fd alive; force the peer
                    # to see EOF once the script is done
                    try:
                        conn.shutdown(socket.SHUT_RDWR)
                    except OSError:
                        pass

    def close(self):
        self.sock.close()


@pytest.fixture
def scorer_server():
    servers = []

    def start(score_fn=None, **kwargs):
        if score_fn is None:
            score_fn = lambda req: {"id": req["id"], "score": float(req["id"])}
        server = ScorerServer(scripted_handler(score_fn, **kwargs))
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.close()


def length_score(req):
    """A deterministic, asymmetric toy utility on text pairs."""
    hyp, ref = req["hyp"], req["ref"]
    if hyp == ref:
        return {"id": req["id"], "score": 1.0}
    return {"id": req["id"], "score": 1.0 / (2 + abs(len(hyp) - len(ref)) + len(hyp) % 3)}
