"""File formats: n-best lists, utility matrices and results.

N-best files and full-mode result files are UTF-8 line-delimited JSON, one
record per line.  Utility-matrix files are a JSON header line
``{"utility_name": ..., "n": ..., "l": ...}`` followed by n rows of l
space-separated decimals; several matrices may be concatenated in one file
(one per n-best list).  Floats are written with ``repr`` precision, so
write/load round-trips are bit-exact.  An input that is a directory or not
UTF-8 text is invalid input, as is a candidate whose text is blank or not
a string, whose tokens are not a list, or a reference that is not a string.
An n-best field of the wrong JSON type is a parse error naming the line:
a number must be a JSON number (not a bool or a string), a number list an
array of numbers, ``source`` a string or null, ``external_scores`` an
object and ``candidates`` an array of objects.

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


# the types json.loads gives a JSON number (a bool is neither)
_NUMBER_TYPES = {int, float}


def _number(value, what: str) -> float:
    if type(value) not in _NUMBER_TYPES:
        raise ParseError(f"{what} must be a number, got {json.dumps(value)}")
    return float(value)


def _numbers(rec: dict, key: str) -> list | None:
    """An optional field holding an array of numbers; absent or null is None."""
    values = rec.get(key)
    if values is not None and not (
        type(values) is list and set(map(type, values)) <= _NUMBER_TYPES
    ):
        raise ParseError(f"{key} must be an array of numbers, got {json.dumps(values)}")
    return values


def _candidate_from_record(rec: dict) -> Candidate:
    for key in ("text", "tokens", "log_prob"):
        if key not in rec:
            raise ParseError(f"candidate record is missing {key!r}")
    scores = rec.get("external_scores")
    if not isinstance(scores, (dict, type(None))):
        raise ParseError(f"external_scores must be an object, got {json.dumps(scores)}")
    return Candidate(
        text=rec["text"],
        tokens=rec["tokens"],
        log_prob=_number(rec["log_prob"], "log_prob"),
        token_log_probs=_numbers(rec, "token_log_probs"),
        external_scores={
            k: _number(v, f"external score {k!r}") for k, v in (scores or {}).items()
        },
        mc_pass_scores=_numbers(rec, "mc_pass_scores"),
        token_entropies=_numbers(rec, "token_entropies"),
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
            if not isinstance(rec["source"], (str, type(None))):
                raise ParseError(
                    f"source must be a string or null, got {json.dumps(rec['source'])}",
                    line=line_no,
                )
            cands = rec["candidates"]
            if type(cands) is not list or not all(type(c) is dict for c in cands):
                raise ParseError("candidates must be an array of objects", line=line_no)
            try:
                candidates = [_candidate_from_record(c) for c in cands]
            except (ParseError, TypeError, ValueError, OverflowError) as e:
                raise ParseError(str(e), line=line_no) from None
            probs = [c.log_prob for c in candidates]
            if any(a < b for a, b in zip(probs, probs[1:])):
                import logging

                logging.getLogger(__name__).warning(
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
                        reference_token_log_probs=_numbers(rec, "reference_token_log_probs"),
                    )
                )
            except (ParseError, TypeError, ValueError) as e:
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
    with open_input(path) as fh:
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


def __getattr__(name):
    if name == "ScorerClient":
        from .scorer import ScorerClient

        return ScorerClient
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
