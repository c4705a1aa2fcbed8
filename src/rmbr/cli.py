"""Command-line front end.

Subcommands: ``rerank`` (direct expected-utility reranking), ``c2f``
(two-stage proxy/target reranking), ``tune-lambda`` (weight grid search),
``tune-l`` (truncation-depth sweep), ``oracle`` (oracle-rank histogram),
``tokenprob`` (token-probability-by-length table), ``eval`` (corpus metric
of a hypothesis file).

Exit codes: 0 on success; an rmbr error's class gives its ``exit_code``
(:mod:`rmbr.errors`): 1 for invalid input or configuration, 2 for
scorer-transport or scoring failures (including a non-finite score, or
scores whose consensus or weighted totals are not finite); a missing
file is 1, any other OS error 2, Ctrl-C 130 and SIGTERM 143 (under
:func:`run`).  An error raised while list i is checked or scored names it,
``list i:``.  An ``--output``, or its run report, that the output rule of
:mod:`rmbr.io` refuses (exit 1), and a ``--bins`` below 1, are refused
before any work, in a dry run too.
Errors go to stderr as one line prefixed ``error:``.  Output files are
written to a temp file and renamed into place, so none is left
half-written.  The commands that score (``rerank``, ``c2f``,
``tune-lambda``, ``tune-l`` and ``oracle``) also write a JSON run report
next to an output file that is replaced (``<output>.report.json``) with
timings and call counts, including the scorer connections the run opened
and the pairs they scored; an output written in place (``/dev/stdout``,
a pipe, a FIFO) gets no report.  A run whose output is stdout's own file
(``-o /dev/stdout``) prints its summary to stderr, so stdout gets the
output alone.  The report is informational and not part of the output
contract.

Each subcommand accepts only the flags it reads, by full name only, with
one exception: ``rerank`` and ``c2f`` accept ``--threads``, which has no
effect.  They rerank the lists one after another, in input order, and
start no further list once one fails.

Every command that scores opens one :class:`~rmbr.mbr.UtilitySession`
per run and no other.  Its ``--utility``/``--proxy`` specs are resolved
there once (one scorer per ``service:`` spec, started on its first batch;
a matrix file with one matrix per list gives each list its own); every
scorer is closed before the command returns, on success, on error and on
Ctrl-C.  One handler serves ``rerank`` and ``c2f``, and one
``tune-lambda`` and ``tune-l``.  In its session, each scoring command
runs one check pass on every list before the first score of any, then
one body that scores with what it returned:
:func:`~rmbr.mbr._checked_lists` then :func:`~rmbr.mbr._reranked`,
:func:`~rmbr.analysis._checked_tuning` then :func:`~rmbr.analysis.tune`,
and the oracle's pair in :mod:`rmbr.analysis`.  A ``--dry-run`` stops
between the two, so it evaluates no utility, starts no scorer and writes
nothing.

:mod:`rmbr.analysis` is imported by the handlers that use it, so
``rerank``, ``c2f`` and ``eval`` never load it, and :mod:`rmbr.scorer`
only when a ``service:`` spec is resolved.  numpy, :mod:`rmbr.kernels`
and :mod:`rmbr.metrics` load where the run first scores (or reads a
stored matrix, or ``eval`` takes its metric), never at import: without a
``matrix:`` spec, ``--help``, a dry run and a run that fails a check end
before numpy loads.

``python -m rmbr.cli`` and the installed ``rmbr`` script enter through
:func:`run`, which runs the command with the cyclic garbage collector off
and freezes the heap before the interpreter exits; tests and the
benchmark's traced runs call :func:`main` in-process, which leaves the
collector as it was.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

from .core import (
    DEFAULT_LAMBDA_GRID,
    OBJECTIVE_METRICS,
    REGULARIZER_NAMES,
    CoarseToFine,
    RerankConfig,
    _integer,
    check_corpus,
)
from .errors import ConfigError, RmbrError
from .io import RESULT_MODES, _output_target, atomic_write, load_nbest, open_input, write_results
from .mbr import UtilitySession, _checked_lists, _reranked


class _Parser(argparse.ArgumentParser):
    """Accepts full flag names only, and raises instead of exiting so
    main() controls the exit code."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigError(message)


def _add_common(sub, output_required=False):
    sub.add_argument("-i", "--input", required=True, help="n-best file (line JSON)")
    sub.add_argument(
        "-o",
        "--output",
        required=output_required,
        help="output path" + ("" if output_required else " (default: stdout summary only)"),
    )
    sub.add_argument(
        "--dry-run",
        action="store_true",
        help="make every check of the real run; score, start and write nothing",
    )


_SCORING_FLAGS = {
    "--utility": dict(
        default="bleu",
        help="utility: bleu | chrf | matrix:PATH | service:HOST:PORT | service:exec:CMD",
    ),
    "--l": dict(
        default="full",
        help="truncation depth for the expected-utility sum (int or 'full')",
    ),
    "--lambda": dict(
        dest="lambdas",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help=f"regularizer weight, repeatable (names: {' '.join(REGULARIZER_NAMES)})",
    ),
}


def _add_scoring(sub, *flags):
    """Add ``--utility`` and the named flags of :data:`_SCORING_FLAGS`."""
    for flag in ("--utility", *flags):
        sub.add_argument(flag, **_SCORING_FLAGS[flag])


def _add_rerank_options(sub):
    sub.add_argument("--mode", choices=RESULT_MODES, default="text")
    sub.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted, has no effect; lists run in order",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rmbr", description=__doc__.split("\n\n")[0])
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("rerank", help="rerank each list by expected utility")
    _add_common(p, output_required=True)
    _add_scoring(p, "--l", "--lambda")
    _add_rerank_options(p)

    p = subs.add_parser("c2f", help="coarse-to-fine rerank (proxy shortlists, target rescores)")
    _add_common(p, output_required=True)
    _add_scoring(p, "--lambda")
    p.add_argument("--proxy", default="bleu", help="stage-1 proxy utility spec")
    p.add_argument("--keep", type=int, required=True, help="survivors kept for stage 2")
    _add_rerank_options(p)

    p = subs.add_parser("tune-lambda", help="grid-search regularizer weights on a dev set")
    _add_common(p)
    _add_scoring(p, "--l")
    p.add_argument(
        "--regularizers",
        required=True,
        help="comma-separated regularizer names to tune",
    )
    p.add_argument(
        "--grid",
        default=",".join(str(g) for g in DEFAULT_LAMBDA_GRID),
        help="comma-separated candidate weights; give a grid that starts with a "
        "negative weight as one word, --grid=-1,1",
    )
    p.add_argument("--metric", choices=OBJECTIVE_METRICS, default="bleu")

    p = subs.add_parser("tune-l", help="sweep the truncation depth on a dev set")
    _add_common(p)
    _add_scoring(p, "--lambda")
    p.add_argument("--metric", choices=OBJECTIVE_METRICS, default="bleu")

    p = subs.add_parser("oracle", help="oracle-rank histogram and reranking ceiling")
    _add_common(p)
    p.add_argument("--utility", default="bleu", help="metric for picking the oracle")
    p.add_argument("--bins", type=int, default=5, help="histogram bin width (ranks)")
    p.add_argument("--metric", choices=OBJECTIVE_METRICS, default="bleu")

    p = subs.add_parser("tokenprob", help="mean token probability by sentence length")
    _add_common(p)
    p.add_argument("--bins", type=int, default=10, help="length interval width")
    p.add_argument("--which", choices=["top1", "reference"], default="top1")

    p = subs.add_parser("eval", help="corpus metric of a hypothesis file")
    p.add_argument("--hyps", required=True, help="hypothesis text, one sentence per line")
    p.add_argument("--refs", required=True, help="reference text, one sentence per line")
    p.add_argument("--metric", choices=OBJECTIVE_METRICS, default="bleu")
    p.add_argument("--dry-run", action="store_true")

    return parser


def _parse_lambdas(specs) -> dict:
    lambdas = {}
    for spec in specs:
        name, sep, value = spec.partition("=")
        if not sep or not name:
            raise ConfigError(f"--lambda wants NAME=VALUE, got {spec!r}")
        if name in lambdas:
            raise ConfigError(f"--lambda {name} given twice")
        try:
            lambdas[name] = float(value)
        except ValueError:
            raise ConfigError(f"--lambda {name}: bad number {value!r}") from None
    return lambdas


def _parse_l(value):
    if value == "full":
        return "full"
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"--l wants an integer or 'full', got {value!r}") from None


def _validated(lists) -> int:
    """End a dry run."""
    print(f"ok: {len(lists)} lists validated")
    return 0


def _write_report(args, lists, results, started, session):
    path = _report_path(args)
    if path is None:
        return
    config_echo = {
        k: v
        for k, v in vars(args).items()
        if k != "command" and isinstance(v, (str, int, float, bool, list, type(None)))
    }
    report = {
        "command": args.command,
        "config": config_echo,
        "lists": len(lists),
        "elapsed_seconds": time.monotonic() - started,
        **session.counters(),
    }
    if results is not None:
        report["utility_calls"] = [r.utility_calls for r in results]
        report["total_utility_calls"] = sum(r.utility_calls for r in results)
    with atomic_write(path) as fh:
        fh.write(json.dumps(report, indent=2) + "\n")


def _cmd_rerank(args) -> int:
    started = time.monotonic()
    lists = load_nbest(args.input)
    _integer(args.threads, "--threads", 1, ConfigError)
    stages = CoarseToFine(args.proxy, args.keep) if args.command == "c2f" else None
    config = RerankConfig(
        utility=args.utility,
        l="full" if stages else _parse_l(args.l),
        lambdas=_parse_lambdas(args.lambdas),
        coarse_to_fine=stages,
    )
    with UtilitySession() as session:
        config, checked = _checked_lists(session, lists, config)
        if args.dry_run:
            return _validated(lists)
        results = _reranked(lists, config, checked)
    write_results(args.output, results, lists, mode=args.mode)
    _write_report(args, lists, results, started, session)
    _summarize(args, [f"reranked {len(lists)} lists -> {args.output}"])
    return 0


def _summarize(args, lines):
    """Print a run's summary ``lines`` to stdout, or to stderr when its ``--output``
    is the file stdout writes to (``-o /dev/stdout``), so that stream holds the output alone."""
    stream = sys.stderr if _is_stdout(args.output) else sys.stdout
    for line in lines:
        print(line, file=stream)


def _is_stdout(path) -> bool:
    """Whether ``path`` names the file that stdout writes to."""
    if path is None:
        return False
    try:
        return os.path.samestat(os.stat(path), os.fstat(sys.stdout.fileno()))
    except (AttributeError, OSError, ValueError):  # no such file, or a stdout with no file
        return False


def _emit_record(args, record, summary_lines):
    _summarize(args, summary_lines)
    if args.output:
        with atomic_write(args.output) as fh:
            fh.write(json.dumps(record, indent=2) + "\n")


def _cmd_tune(args) -> int:
    from .analysis import _checked_tuning, tune

    started = time.monotonic()
    lists = load_nbest(args.input)
    if args.command == "tune-l":
        grid, l, lambdas = None, "full", _parse_lambdas(args.lambdas)
    else:
        names = tuple(n for n in args.regularizers.split(",") if n)
        if not names:
            raise ConfigError("--regularizers names no regularizers")
        if len(set(names)) != len(names):
            raise ConfigError(f"--regularizers repeats a name: {args.regularizers!r}")
        try:
            grid = [float(g) for g in args.grid.split(",") if g]
        except ValueError:
            raise ConfigError(f"--grid holds a non-number: {args.grid!r}") from None
        l, lambdas = _parse_l(args.l), {n: 0.0 for n in names}
    config = RerankConfig(utility=args.utility, l=l, lambdas=lambdas)
    with UtilitySession() as session:
        checked = _checked_tuning(session, lists, config, grid, args.metric)
        if args.dry_run:
            return _validated(lists)
        (best_l, best), objective, curve = tune(lists, args.metric, *checked)
    if grid is None:
        record = {"l": best_l, "objective": objective, "curve": curve, "metric": args.metric}
        best_line = f"best l: {best_l}"
    else:
        record = {"lambdas": best, "objective": objective, "metric": args.metric}
        best_line = f"best lambdas: {json.dumps(best)}"
    _emit_record(args, record, [best_line, f"{args.metric}: {objective:.6f}"])
    _write_report(args, lists, None, started, session)
    return 0


def _cmd_oracle(args) -> int:
    from .analysis import _checked_oracle, _oracle_picks, _oracle_report

    started = time.monotonic()
    lists = load_nbest(args.input)
    with UtilitySession() as session:
        bins, providers = _checked_oracle(session, lists, args.utility, args.bins, args.metric)
        if args.dry_run:
            return _validated(lists)
        report = _oracle_report(lists, _oracle_picks(lists, providers), bins, args.metric)
    _emit_record(args, report.to_record(), [report.format_table()])
    _write_report(args, lists, None, started, session)
    return 0


def _cmd_tokenprob(args) -> int:
    from .analysis import token_prob_by_length

    lists = load_nbest(args.input)
    table = token_prob_by_length(lists, interval_width=args.bins, which=args.which)
    if args.dry_run:
        return _validated(lists)
    _emit_record(args, table.to_record(), [table.format_table()])
    return 0


def _cmd_eval(args) -> int:
    with open_input(args.hyps) as fh:
        hyps = [line.rstrip("\n") for line in fh]
    with open_input(args.refs) as fh:
        refs = [line.rstrip("\n") for line in fh]
    tokens = [h.split() for h in hyps], [r.split() for r in refs]
    check_corpus(*tokens)
    if args.dry_run:
        print(f"ok: {len(hyps)} sentence pairs")
        return 0
    from .metrics import corpus_score

    print(f"{args.metric} {corpus_score(args.metric, hyps, refs, tokens[0])!r}")
    return 0


_COMMANDS = {
    "rerank": _cmd_rerank,
    "c2f": _cmd_rerank,
    "tune-lambda": _cmd_tune,
    "tune-l": _cmd_tune,
    "oracle": _cmd_oracle,
    "tokenprob": _cmd_tokenprob,
    "eval": _cmd_eval,
}


# the commands that write a run report beside their output
_REPORTING = ("rerank", "c2f", "tune-lambda", "tune-l", "oracle")


def _report_path(args):
    """The run report's path, ``<output>.report.json``, or None: a report is
    written only beside an ``--output`` that :func:`~rmbr.io._output_target`
    replaces, so an output written in place (``/dev/stdout``, a FIFO) gets
    none.  Raises as that rule does for an ``--output`` it refuses."""
    output = getattr(args, "output", None)
    if output is None or _output_target(output) is None or args.command not in _REPORTING:
        return None
    return f"{output}.report.json"


def _check_args(args) -> None:
    """Refuse an ``--output``, or its run report (:func:`_report_path`), that
    :func:`~rmbr.io.atomic_write` would refuse, and ``--bins`` below 1, before any work."""
    report = _report_path(args)
    if report is not None:
        _output_target(report)
    if getattr(args, "bins", 1) < 1:
        raise ConfigError(f"--bins must be >= 1, got {args.bins}")


class _Terminated(KeyboardInterrupt):
    """SIGTERM under :func:`run`: it unwinds the run as Ctrl-C does."""


def _terminate(signum, frame):
    raise _Terminated


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_args(args)
        return _COMMANDS[args.command](args)
    except (RmbrError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return getattr(e, "exit_code", 1 if isinstance(e, FileNotFoundError) else 2)
    except KeyboardInterrupt as e:  # the session has closed its scorers by now
        terminated = isinstance(e, _Terminated)
        print(f"error: {'terminated' if terminated else 'interrupted'}", file=sys.stderr)
        return 143 if terminated else 130


def run() -> None:
    """The process entry of ``python -m rmbr.cli`` and the ``rmbr`` script.

    Turns the cyclic garbage collector off, runs :func:`main` and exits
    with its code after ``gc.freeze()``.  A run leaves a few hundred
    objects of cyclic garbage, as many for 4 lists as for 32, so the
    process has nothing to gain from the collections the collector would
    start, each a walk of the young objects (29 of the 37 an 8-list BLEU
    rerank made; the other 8 come while this module loads).  Interpreter
    shutdown still collects with the collector off; the freeze makes those
    collections skip every object alive at exit, the tens of thousands
    numpy and rmbr create at import, whose walk was the largest cost of a
    run's teardown.  The exit is otherwise the normal one: ``atexit``
    handlers run, stdout and stderr are flushed and a broken pipe is
    reported.  SIGTERM unwinds the run as Ctrl-C does, exit 143.  :func:`main`
    turns nothing off, freezes nothing and installs no signal handler, so an
    in-process caller keeps its collector and handlers as they were.
    """
    import signal

    signal.signal(signal.SIGTERM, _terminate)
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
