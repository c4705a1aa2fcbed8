"""Command-line front end.

Subcommands: ``rerank`` (direct expected-utility reranking), ``c2f``
(two-stage proxy/target reranking), ``tune-lambda`` (weight grid search),
``tune-l`` (truncation-depth sweep), ``oracle`` (oracle-rank histogram),
``tokenprob`` (token-probability-by-length table), ``eval`` (corpus metric
of a hypothesis file).

Exit codes: 0 on success, 1 for invalid input or configuration, 2 for
scorer-transport, scoring (including a non-finite score, or scores whose
consensus or weighted totals are not finite) or other runtime failures,
and 130 on Ctrl-C.  An ``--output`` that names a directory is
invalid input, refused before any work.  Errors go to stderr prefixed
``error:``.  Output files are written to a temp file and renamed into
place, so none is left half-written.  The commands that score (``rerank``, ``c2f``,
``tune-lambda``, ``tune-l`` and ``oracle``) also write a JSON run report
next to their output file (``<output>.report.json``) with timings and
call counts, including the scorer connections the run opened and the
pairs they scored; the report is informational and not part of the
output contract.

Each subcommand accepts only the flags it reads, by full name only, with
one exception: ``rerank`` and ``c2f`` accept ``--threads``, which has no
effect.  They rerank the lists one after another, in input order, and
start no further list once one fails.

Every command that scores takes its utility providers from one
:class:`~rmbr.mbr.UtilitySession`: each ``--utility``/``--proxy`` spec is
resolved once per run (one scorer per ``service:`` spec, started on its
first batch; a matrix file with one matrix per list gives each list its
own), and every scorer is closed before the command returns, on success,
on error and on Ctrl-C.  Before the first score, a reranking command
runs :func:`~rmbr.mbr.check_list` on every list and a tuning command's
tuner makes the checks of :func:`~rmbr.analysis.check_tuning`; a
``--dry-run`` makes those same checks and stops, so it evaluates no
utility, starts no scorer and writes nothing.

:mod:`rmbr.analysis` is imported by the handlers that use it, so
``rerank``, ``c2f`` and ``eval`` never load it, and :mod:`rmbr.scorer`
only when a ``service:`` spec is resolved.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

from .core import DEFAULT_LAMBDA_GRID, REGULARIZER_NAMES, CoarseToFine, RerankConfig
from .errors import (
    ConfigError,
    DimensionError,
    InvalidInputError,
    MissingScoreError,
    ParseError,
    ScoringError,
    TransportError,
)
from .io import RESULT_MODES, atomic_write, load_nbest, open_input, write_results
from .mbr import MatrixUtility, UtilitySession, check_list, rerank
from .metrics import OBJECTIVE_METRICS, corpus_bleu, sentence_chrf

_VALIDATION_ERRORS = (
    InvalidInputError,
    ConfigError,
    ParseError,
    DimensionError,
    MissingScoreError,
)


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
        help="comma-separated candidate weights",
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
    with atomic_write(f"{args.output}.report.json") as fh:
        fh.write(json.dumps(report, indent=2) + "\n")


def _cmd_rerank(args) -> int:
    started = time.monotonic()
    lists = load_nbest(args.input)
    if args.threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {args.threads}")
    stages = CoarseToFine(args.proxy, args.keep) if args.command == "c2f" else None
    config = RerankConfig(
        utility=args.utility,
        l="full" if stages else _parse_l(args.l),
        lambdas=_parse_lambdas(args.lambdas),
        coarse_to_fine=stages,
    )
    with UtilitySession() as session:
        configs = session.configs(config, len(lists))
        for lst, c in zip(lists, configs):
            check_list(lst, c)
        if args.dry_run:
            return _validated(lists)
        results = [rerank(lst, c) for lst, c in zip(lists, configs)]
    write_results(args.output, results, lists, mode=args.mode)
    _write_report(args, lists, results, started, session)
    print(f"reranked {len(lists)} lists -> {args.output}")
    return 0


def _emit_record(args, record, summary_lines):
    for line in summary_lines:
        print(line)
    if args.output:
        with atomic_write(args.output) as fh:
            fh.write(json.dumps(record, indent=2) + "\n")


def _cmd_tune_lambda(args) -> int:
    from .analysis import check_objective, check_tuning, grid_search_lambdas, lambda_grid

    started = time.monotonic()
    lists = load_nbest(args.input)
    check_objective(lists, args.metric)
    names = tuple(n for n in args.regularizers.split(",") if n)
    if not names:
        raise ConfigError("--regularizers names no regularizers")
    if len(set(names)) != len(names):
        raise ConfigError(f"--regularizers repeats a name: {args.regularizers!r}")
    try:
        weights = [float(g) for g in args.grid.split(",") if g]
    except ValueError:
        raise ConfigError(f"--grid holds a non-number: {args.grid!r}") from None
    grid = lambda_grid(weights)
    config = RerankConfig(
        utility=args.utility, l=_parse_l(args.l), lambdas={n: 0.0 for n in names}
    )
    with UtilitySession() as session:
        config = replace(config, utility=session.providers(config.utility, len(lists)))
        if args.dry_run:
            check_tuning(lists, config, grid)
            return _validated(lists)
        best, objective = grid_search_lambdas(lists, config, grid, args.metric)
    record = {"lambdas": best, "objective": objective, "metric": args.metric}
    _emit_record(
        args,
        record,
        [f"best lambdas: {json.dumps(best)}", f"{args.metric}: {objective:.6f}"],
    )
    if args.output:
        _write_report(args, lists, None, started, session)
    return 0


def _cmd_tune_l(args) -> int:
    from .analysis import check_objective, check_tuning, tune_l

    started = time.monotonic()
    lists = load_nbest(args.input)
    check_objective(lists, args.metric)
    config = RerankConfig(utility=args.utility, lambdas=_parse_lambdas(args.lambdas))
    with UtilitySession() as session:
        config = replace(config, utility=session.providers(config.utility, len(lists)))
        if args.dry_run:
            check_tuning(lists, config)
            return _validated(lists)
        best_l, objective, curve = tune_l(lists, config, args.metric)
    record = {"l": best_l, "objective": objective, "curve": curve, "metric": args.metric}
    _emit_record(
        args,
        record,
        [f"best l: {best_l}", f"{args.metric}: {objective:.6f}"],
    )
    if args.output:
        _write_report(args, lists, None, started, session)
    return 0


def _cmd_oracle(args) -> int:
    from .analysis import check_objective, oracle_histogram

    started = time.monotonic()
    lists = load_nbest(args.input)
    check_objective(lists, args.metric)
    if args.bins < 1:
        raise ConfigError(f"--bins must be >= 1, got {args.bins}")
    with UtilitySession() as session:
        providers = session.providers(args.utility, len(lists))
        if any(isinstance(p, MatrixUtility) for p in providers):
            raise ConfigError(
                "a precomputed utility matrix cannot score against new references"
            )
        if args.dry_run:
            return _validated(lists)
        report = oracle_histogram(
            lists,
            utility=providers,
            bin_width=args.bins,
            objective_metric=args.metric,
        )
    _emit_record(args, report.to_record(), [report.format_table()])
    if args.output:
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
    if len(hyps) != len(refs):
        raise InvalidInputError(
            f"{len(hyps)} hypotheses but {len(refs)} references"
        )
    if not hyps:
        raise InvalidInputError("empty corpus")
    for pos, (hyp, ref) in enumerate(zip(hyps, refs)):
        if not hyp.split() or not ref.split():
            raise InvalidInputError(f"empty sentence at corpus position {pos}")
    if args.dry_run:
        print(f"ok: {len(hyps)} sentence pairs")
        return 0
    if args.metric == "bleu":
        score = corpus_bleu([h.split() for h in hyps], [r.split() for r in refs])
    else:
        scores = [sentence_chrf(h, r) for h, r in zip(hyps, refs)]
        score = sum(scores) / len(scores)
    print(f"{args.metric} {score!r}")
    return 0


_COMMANDS = {
    "rerank": _cmd_rerank,
    "c2f": _cmd_rerank,
    "tune-lambda": _cmd_tune_lambda,
    "tune-l": _cmd_tune_l,
    "oracle": _cmd_oracle,
    "tokenprob": _cmd_tokenprob,
    "eval": _cmd_eval,
}


def _check_output(args) -> None:
    """Refuse an ``--output`` that names a directory before any work."""
    output = getattr(args, "output", None)
    if output is not None and os.path.isdir(output):
        raise InvalidInputError(f"output path {output} is a directory")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_output(args)
        return _COMMANDS[args.command](args)
    except (*_VALIDATION_ERRORS, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (TransportError, ScoringError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # the session has closed its scorers by now
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
