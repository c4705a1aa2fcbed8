"""Command-line front end.

Subcommands: ``rerank`` (direct expected-utility reranking), ``c2f``
(two-stage proxy/target reranking), ``tune-lambda`` (weight grid search),
``tune-l`` (truncation-depth sweep), ``oracle`` (oracle-rank histogram),
``tokenprob`` (token-probability-by-length table), ``eval`` (corpus metric
of a hypothesis file).

Exit codes: 0 on success, 1 for invalid input or configuration, 2 for
scorer-transport, scoring (including a non-finite score) or other runtime
failures.  Errors go to stderr prefixed ``error:``.  Output files are
written to a temp file and renamed into place, so none is left
half-written.  The commands that score (``rerank``, ``c2f``,
``tune-lambda``, ``tune-l`` and ``oracle``) also write a JSON run report
next to their output file (``<output>.report.json``) with timings and
call counts, including the scorer connections the run opened and the
pairs they scored; the report is informational and not part of the
output contract.

Every command that scores takes its utility providers from one
:class:`~rmbr.mbr.UtilitySession`: each ``--utility``/``--proxy`` spec is
resolved once per run (one scorer per ``service:`` spec; a matrix file
with one matrix per list gives each list its own), and every scorer is
closed before the command returns, on success, on error and on Ctrl-C.
Their ``--dry-run`` checks each spec with
:func:`~rmbr.mbr.check_utility_spec` and starts or connects to no scorer.
Only ``rerank`` and ``c2f`` take ``--threads``; once one list fails,
they start no further list.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

from .analysis import (
    grid_search_lambdas,
    oracle_histogram,
    token_prob_by_length,
    tune_l,
)
from .core import DEFAULT_LAMBDA_GRID, CoarseToFine, RerankConfig
from .errors import (
    ConfigError,
    DimensionError,
    InvalidInputError,
    MissingScoreError,
    ParseError,
    ScoringError,
    TransportError,
)
from .io import atomic_write, load_nbest, write_results
from .mbr import UtilitySession, check_utility_spec, regularizer_values, rerank
from .metrics import corpus_bleu, sentence_chrf

_VALIDATION_ERRORS = (
    InvalidInputError,
    ConfigError,
    ParseError,
    DimensionError,
    MissingScoreError,
)


class _Parser(argparse.ArgumentParser):
    """Raises instead of exiting so main() controls the exit code."""

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
        help="validate inputs and configuration, compute nothing",
    )


def _add_scoring(sub):
    sub.add_argument(
        "--utility",
        default="bleu",
        help="utility: bleu | chrf | matrix:PATH | service:HOST:PORT | service:exec:CMD",
    )
    sub.add_argument(
        "--l",
        default="full",
        help="truncation depth for the expected-utility sum (int or 'full')",
    )
    sub.add_argument(
        "--lambda",
        dest="lambdas",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="regularizer weight, repeatable (names: lp lm bt qe mc_dropout entropy)",
    )


def _add_rerank_options(sub):
    sub.add_argument("--mode", choices=["text", "full"], default="text")
    sub.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker threads for per-list reranking (default 1)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rmbr", description=__doc__.split("\n\n")[0])
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("rerank", help="rerank each list by expected utility")
    _add_common(p, output_required=True)
    _add_scoring(p)
    _add_rerank_options(p)

    p = subs.add_parser("c2f", help="coarse-to-fine rerank (proxy shortlists, target rescores)")
    _add_common(p, output_required=True)
    _add_scoring(p)
    p.add_argument("--proxy", default="bleu", help="stage-1 proxy utility spec")
    p.add_argument("--keep", type=int, required=True, help="survivors kept for stage 2")
    _add_rerank_options(p)

    p = subs.add_parser("tune-lambda", help="grid-search regularizer weights on a dev set")
    _add_common(p)
    _add_scoring(p)
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
    p.add_argument("--metric", choices=["bleu", "chrf"], default="bleu")

    p = subs.add_parser("tune-l", help="sweep the truncation depth on a dev set")
    _add_common(p)
    _add_scoring(p)
    p.add_argument("--metric", choices=["bleu", "chrf"], default="bleu")

    p = subs.add_parser("oracle", help="oracle-rank histogram and reranking ceiling")
    _add_common(p)
    p.add_argument("--utility", default="bleu", help="metric for picking the oracle")
    p.add_argument("--bins", type=int, default=5, help="histogram bin width (ranks)")
    p.add_argument("--metric", choices=["bleu", "chrf"], default="bleu")

    p = subs.add_parser("tokenprob", help="mean token probability by sentence length")
    _add_common(p)
    p.add_argument("--bins", type=int, default=10, help="length interval width")
    p.add_argument("--which", choices=["top1", "reference"], default="top1")

    p = subs.add_parser("eval", help="corpus metric of a hypothesis file")
    p.add_argument("--hyps", required=True, help="hypothesis text, one sentence per line")
    p.add_argument("--refs", required=True, help="reference text, one sentence per line")
    p.add_argument("--metric", choices=["bleu", "chrf"], default="bleu")
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


def _validate_lists(lists, config):
    """Bounds and required fields of each list, no utility evaluations."""
    for lst in lists:
        if config.coarse_to_fine is not None:
            if config.coarse_to_fine.keep > lst.n:
                raise InvalidInputError(
                    f"keep={config.coarse_to_fine.keep} exceeds list size {lst.n}"
                )
        else:
            config.resolve_l(lst.n)
        for name in config.regularizers:
            regularizer_values(lst, name)


def _dry_run(lists, config) -> int:
    """End a dry run: check the utility specs, starting and connecting nothing."""
    check_utility_spec(config.utility, len(lists))
    if config.coarse_to_fine is not None:
        check_utility_spec(config.coarse_to_fine.proxy, len(lists))
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
    lambdas = _parse_lambdas(args.lambdas)
    config = RerankConfig(
        utility=args.utility,
        l=_parse_l(args.l),
        lambdas=lambdas,
        regularizers=tuple(lambdas),
        coarse_to_fine=(
            CoarseToFine(proxy=args.proxy, keep=args.keep)
            if args.command == "c2f"
            else None
        ),
    )
    _validate_lists(lists, config)
    if args.dry_run:
        return _dry_run(lists, config)
    with UtilitySession() as session:
        configs = session.configs(config, len(lists))
        failed = threading.Event()

        def rerank_list(i):
            # after a failure start no further list (each would wait out a
            # stalled scorer); skipped lists come after the failed one in the
            # queue, so map() raises before it reaches their None
            if failed.is_set():
                return None
            try:
                return rerank(lists[i], configs[i])
            except BaseException:
                failed.set()
                raise

        pool = ThreadPoolExecutor(max_workers=max(1, args.threads))
        try:
            results = list(pool.map(rerank_list, range(len(lists))))
        finally:
            # on an error or Ctrl-C, lists not yet started are dropped
            pool.shutdown(cancel_futures=True)
    write_results(args.output, results, lists, mode=args.mode)
    _write_report(args, lists, results, started, session)
    print(f"reranked {len(lists)} lists -> {args.output}")
    return 0


def _tuning_config(args, lambdas, regularizers) -> RerankConfig:
    return RerankConfig(
        utility=args.utility,
        l=_parse_l(args.l),
        lambdas=lambdas,
        regularizers=regularizers,
    )


def _emit_record(args, record, summary_lines):
    for line in summary_lines:
        print(line)
    if args.output:
        with atomic_write(args.output) as fh:
            fh.write(json.dumps(record, indent=2) + "\n")


def _cmd_tune_lambda(args) -> int:
    started = time.monotonic()
    lists = load_nbest(args.input)
    names = tuple(n for n in args.regularizers.split(",") if n)
    if not names:
        raise ConfigError("--regularizers names no regularizers")
    try:
        grid = [float(g) for g in args.grid.split(",") if g]
    except ValueError:
        raise ConfigError(f"--grid holds a non-number: {args.grid!r}") from None
    config = _tuning_config(args, {n: 0.0 for n in names}, names)
    _validate_lists(lists, config)
    if args.dry_run:
        return _dry_run(lists, config)
    with UtilitySession() as session:
        config = replace(config, utility=session.providers(args.utility, len(lists)))
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
    started = time.monotonic()
    lists = load_nbest(args.input)
    lambdas = _parse_lambdas(args.lambdas)
    config = _tuning_config(args, lambdas, tuple(lambdas))
    _validate_lists(lists, config)
    if args.dry_run:
        return _dry_run(lists, config)
    with UtilitySession() as session:
        config = replace(config, utility=session.providers(args.utility, len(lists)))
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
    started = time.monotonic()
    lists = load_nbest(args.input)
    if check_utility_spec(args.utility, len(lists))[0] == "matrix":
        raise ConfigError(
            "a precomputed utility matrix cannot score against new references"
        )
    if args.dry_run:
        for i, lst in enumerate(lists):
            if lst.reference is None:
                raise InvalidInputError(f"list {i} has no reference")
        return _dry_run(lists, RerankConfig(utility=args.utility))
    with UtilitySession() as session:
        report = oracle_histogram(
            lists,
            utility=session.providers(args.utility, len(lists)),
            bin_width=args.bins,
            objective_metric=args.metric,
        )
    _emit_record(args, report.to_record(), [report.format_table()])
    if args.output:
        _write_report(args, lists, None, started, session)
    return 0


def _cmd_tokenprob(args) -> int:
    lists = load_nbest(args.input)
    if args.dry_run:
        print(f"ok: {len(lists)} lists loaded")
        return 0
    table = token_prob_by_length(lists, interval_width=args.bins, which=args.which)
    _emit_record(args, table.to_record(), [table.format_table()])
    return 0


def _cmd_eval(args) -> int:
    with open(args.hyps, encoding="utf-8") as fh:
        hyps = [line.rstrip("\n") for line in fh]
    with open(args.refs, encoding="utf-8") as fh:
        refs = [line.rstrip("\n") for line in fh]
    if len(hyps) != len(refs):
        raise InvalidInputError(
            f"{len(hyps)} hypotheses but {len(refs)} references"
        )
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _VALIDATION_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (TransportError, ScoringError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
