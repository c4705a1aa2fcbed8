"""File formats: n-best lists, utility matrices and results.

N-best files and full-mode result files are UTF-8 line-delimited JSON, one
record per line.  Utility-matrix files are a JSON header line
``{"utility_name": ..., "n": ..., "l": ...}`` followed by n rows of l
space-separated decimals; several matrices may be concatenated in one file
(one per n-best list).  Floats are written with ``repr`` precision, so
write/load round-trips are bit-exact.  An input that is a directory or not
UTF-8 text is invalid input.  The constructors in :mod:`rmbr.core` decide
field types; the loaders check JSON shape (an object per line, its
required keys, ``candidates`` an array of objects) and name the line: a
constructor's error becomes a parse error on that line (a matrix's on its
header line).

The external-scorer client is :mod:`rmbr.scorer`.  ``rmbr.io.ScorerClient``
still resolves to it, on first access, for the span tracer in
``perfbench/spans.py``, which wraps the client's methods through this
module; the alias goes when that tracer does.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import fields
from typing import Sequence

import numpy as np

from .core import Candidate, NBestList, RerankResult, UtilityMatrix
from .errors import InvalidInputError, ParseError

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
    tmp = f"{path}.{os.urandom(16).hex()}.tmp"
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


@contextmanager
def open_input(path):
    """Open a UTF-8 text file; a directory or non-UTF-8 bytes are invalid input."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except (IsADirectoryError, UnicodeDecodeError):
        raise InvalidInputError(f"{path} is not a UTF-8 text file") from None


# ---------------------------------------------------------------------------
# n-best files


_CANDIDATE_FIELDS = [f.name for f in fields(Candidate)]


def _candidate_to_record(cand: Candidate) -> dict:
    """The candidate's fields in order, leaving out those that are None or empty."""
    values = {key: getattr(cand, key) for key in _CANDIDATE_FIELDS}
    return {key: v for key, v in values.items() if v is not None and v != {}}


def load_nbest(path) -> list[NBestList]:
    """Read n-best lists from a line-JSON file.

    Candidates that are not in descending log-prob order are stably
    re-sorted with a warning.  Malformed lines raise a parse error naming
    the 1-based line number; an empty file is invalid input.
    """
    lists = []
    with open_input(path) as fh:
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
            cands = rec["candidates"]
            if type(cands) is not list or not all(type(c) is dict for c in cands):
                raise ParseError("candidates must be an array of objects", line=line_no)
            for key in ("text", "tokens", "log_prob"):
                if not all(key in c for c in cands):
                    raise ParseError(f"candidate record is missing {key!r}", line=line_no)
            try:
                candidates = [Candidate(*map(c.get, _CANDIDATE_FIELDS)) for c in cands]
                probs = [c.log_prob for c in candidates]
                if any(a < b for a, b in zip(probs, probs[1:])):
                    import logging

                    logging.getLogger(__name__).warning(
                        "line %d: candidates not in descending log-prob order; re-sorting",
                        line_no,
                    )
                    candidates.sort(key=lambda c: -c.log_prob)
                lists.append(
                    NBestList(
                        source=rec["source"],
                        candidates=candidates,
                        reference=rec.get("reference"),
                        reference_token_log_probs=rec.get("reference_token_log_probs"),
                    )
                )
            except InvalidInputError as e:
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
                rec["reference_token_log_probs"] = lst.reference_token_log_probs
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
    with open_input(path) as fh:
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
        if not all(type(d) is int and d >= 1 for d in (n, l)):
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
        try:
            matrices.append(UtilityMatrix(values=values, utility_name=header["utility_name"]))
        except InvalidInputError as e:
            raise ParseError(str(e), line=header_line) from None
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
                "ranking": result.ranking,
                "candidate_indices": result.candidate_indices,
                "mbr_scores": result.mbr_scores,
                "regularizer_scores": result.regularizer_scores,
                "total_scores": result.total_scores,
                "utility_calls": result.utility_calls,
            }
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


_RESULT_FIELDS = [f.name for f in fields(RerankResult)]


def read_results(path) -> list[RerankResult]:
    """Re-load full-mode result records: each line a JSON object holding
    every :class:`~rmbr.core.RerankResult` field."""
    results = []
    with open_input(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise ParseError(f"bad JSON: {e}", line=line_no) from None
            if not isinstance(rec, dict):
                raise ParseError("bad result record: expected a JSON object", line=line_no)
            for key in _RESULT_FIELDS:
                if key not in rec:
                    raise ParseError(f"bad result record: missing {key!r}", line=line_no)
            try:
                results.append(RerankResult(*map(rec.get, _RESULT_FIELDS)))
            except InvalidInputError as e:
                raise ParseError(f"bad result record: {e}", line=line_no) from None
    if not results:
        raise InvalidInputError(f"{path} holds no results")
    return results


def __getattr__(name):
    if name == "ScorerClient":
        from .scorer import ScorerClient

        return ScorerClient
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
