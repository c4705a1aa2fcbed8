"""Spans around the calls into each rmbr layer, recorded from outside.

Functions are wrapped where they are called, not where they are defined:
``rmbr.mbr`` binds ``pair_match_counts`` by name, so the span goes on
``rmbr.mbr.pair_match_counts``.  Spans are kept in memory, one stack per
thread, so work done in a ``--threads`` pool nests under the run's root
span.  A call site that a later version of rmbr no longer has is skipped and
its metrics read 0.

A span's self time is its duration minus the part of it that its child
spans cover (children from pool threads may overlap, so their union is
taken).
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        span = Span(next(self._ids), parent, name, time.perf_counter())
        stack.append(span.sid)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def root(self, name: str) -> Span:
        span = self.open(name)
        self._root = span.sid
        return span

    def self_times(self) -> dict[int, float]:
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = {}
        for s in self.spans:
            covered = 0.0
            reach = s.start
            for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[s.sid] = (s.end - s.start) - covered
        return out


class Instrument:
    """Installs wrappers on rmbr call sites and removes them again.

    With no tracer the wrappers only collect scorer clients (so the
    benchmark can close the processes it caused to be started); with a
    tracer they also record spans.
    """

    def __init__(self, rmbr_modules: dict):
        self.tracer: Tracer | None = None
        self.clients: list = []
        self._saved: list = []
        m = rmbr_modules
        cli, mbr, io, analysis = m["cli"], m["mbr"], m["io"], m["analysis"]
        self._sites = [
            (cli, "load_nbest", "io.load_nbest", None),
            (cli, "write_results", "io.write_results", None),
            (cli, "rerank", "mbr.rerank", _utility_calls),
            (cli, "grid_search_lambdas", "analysis.grid_search_lambdas", None),
            (cli, "make_utility", "mbr.make_utility", None),
            (mbr, "encode_ngram_blocks", "kernels.encode", _ngram_types),
            (mbr, "pair_match_counts", "kernels.match", _match_cells),
            (mbr, "make_utility", "mbr.make_utility", None),
            (mbr, "build_utility_matrix", "mbr.build_utility_matrix", None),
            (mbr, "regularizer_values", "mbr.regularizer_values", None),
            (mbr, "combine_scores", "core.combine_scores", None),
            (mbr, "rank_candidates", "core.rank_candidates", None),
            (getattr(mbr, "BleuUtility", None), "matrix", "metrics.bleu_matrix", None),
            (getattr(mbr, "ChrfUtility", None), "matrix", "metrics.chrf_matrix", None),
            (getattr(mbr, "ServiceUtility", None), "matrix", "mbr.service_matrix", None),
            (getattr(io, "ScorerClient", None), "score_pairs", "io.score_pairs", _pairs),
            (analysis, "rerank", "mbr.rerank", _utility_calls),
            (analysis, "corpus_objective", "analysis.corpus_objective", None),
            (analysis, "corpus_bleu", "metrics.corpus_bleu", None),
        ]
        self._spawn_owner = getattr(io, "ScorerClient", None)

    def __enter__(self):
        for owner, attr, name, count in self._sites:
            if owner is None or attr not in vars(owner):
                continue
            raw = vars(owner)[attr]
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, self._wrap(getattr(owner, attr), name, count))
        owner = self._spawn_owner
        if owner is not None and "spawn" in vars(owner):
            raw = vars(owner)["spawn"]
            self._saved.append((owner, "spawn", raw))
            setattr(owner, "spawn", staticmethod(self._wrap_spawn(owner.spawn)))
        return self

    def __exit__(self, *exc):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def _wrap(self, fn, name, count):
        def wrapper(*args, **kwargs):
            tracer = self.tracer
            if tracer is None:
                return fn(*args, **kwargs)
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span.counts.update(count(args, result))
                return result
            finally:
                tracer.close(span)

        return wrapper

    def _wrap_spawn(self, spawn):
        def wrapper(*args, **kwargs):
            tracer = self.tracer
            span = tracer.open("io.scorer_spawn") if tracer is not None else None
            try:
                client = spawn(*args, **kwargs)
            finally:
                if span is not None:
                    tracer.close(span)
            self.clients.append(client)
            return client

        return wrapper

    def close_clients(self) -> None:
        for client in self.clients:
            client.close()
        self.clients.clear()


def _utility_calls(args, result):
    return {"utility_calls": int(result.utility_calls)}


def _ngram_types(args, result):
    return {"types": int(len(result[0]))}


def _match_cells(args, result):
    return {"cells": int(result.size)}


def _pairs(args, result):
    return {"pairs": len(result)}


COUNTS = {
    "io.scorer_spawns", "io.scorer_pairs", "kernels.match_cells", "kernels.ngram_types",
    "metrics.corpus_bleu_calls", "mbr.utility_calls", "mbr.make_utility_calls",
    "analysis.objective_evals",
}


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name in COUNTS:
        return "count"
    for suffix, u in (("_s", "s"), ("_us_per_pair", "us"), ("_ns_per_cell", "ns")):
        if name.endswith(suffix):
            return u
    return "1"


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced invocation (times in seconds)."""
    selfs = tracer.self_times()
    self_s: dict[str, float] = {}
    incl_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    root = None
    for s in tracer.spans:
        if s.parent is None:
            root = s
        self_s[s.name] = self_s.get(s.name, 0.0) + selfs[s.sid]
        incl_s[s.name] = incl_s.get(s.name, 0.0) + (s.end - s.start)
        calls[s.name] = calls.get(s.name, 0) + 1
        for key, value in s.counts.items():
            counts[key] = counts.get(key, 0) + value
    wall = root.end - root.start

    def S(name: str) -> float:
        return self_s.get(name, 0.0)

    match_s = S("kernels.match")
    pairs = counts.get("pairs", 0)
    cells = counts.get("cells", 0)
    return {
        "io.load_nbest_s": S("io.load_nbest"),
        "io.write_results_s": S("io.write_results"),
        "io.scorer_spawn_s": S("io.scorer_spawn"),
        "io.score_pairs_s": S("io.score_pairs"),
        "io.scorer_pairs": pairs,
        "io.scorer_us_per_pair": S("io.score_pairs") / pairs * 1e6 if pairs else 0.0,
        "kernels.encode_s": S("kernels.encode"),
        "kernels.ngram_types": counts.get("types", 0),
        "kernels.match_s": match_s,
        "kernels.match_cells": cells,
        "kernels.match_ns_per_cell": match_s / cells * 1e9 if cells else 0.0,
        "metrics.score_s": S("metrics.bleu_matrix") + S("metrics.chrf_matrix"),
        "metrics.corpus_bleu_s": S("metrics.corpus_bleu"),
        "metrics.corpus_bleu_calls": calls.get("metrics.corpus_bleu", 0),
        "mbr.matrix_s": incl_s.get("mbr.build_utility_matrix", 0.0),
        "mbr.build_self_s": S("mbr.build_utility_matrix"),
        "mbr.service_matrix_self_s": S("mbr.service_matrix"),
        "mbr.utility_calls": counts.get("utility_calls", 0),
        "mbr.make_utility_calls": calls.get("mbr.make_utility", 0),
        "mbr.make_utility_self_s": S("mbr.make_utility"),
        "mbr.regularizers_s": S("mbr.regularizer_values"),
        "mbr.rerank_self_s": S("mbr.rerank"),
        "core.combine_rank_s": S("core.combine_scores") + S("core.rank_candidates"),
        "analysis.objective_evals": calls.get("analysis.corpus_objective", 0),
        "analysis.objective_self_s": S("analysis.corpus_objective"),
        "analysis.grid_self_s": S("analysis.grid_search_lambdas"),
        "cli.self_s": selfs[root.sid],
        "cli.traced_wall_s": wall,
        # 1 when one thread does the work; up to the pool size when pool
        # threads are inside spans at the same time
        "cli.accounted_frac": sum(selfs.values()) / wall,
        "io.spawn_spans": calls.get("io.scorer_spawn", 0),
    }
