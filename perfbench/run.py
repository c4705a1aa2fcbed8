#!/usr/bin/env python3
"""rmbr benchmark: the real CLI on seeded synthetic workloads.

    python3 perfbench/run.py --workload rerank-bleu --seed 1 --seconds 10 --trace 0

Run from the root of an rmbr checkout; the program under test is the
checkout's own ``src/rmbr``.  Workloads: rerank-bleu, c2f-chrf,
tune-service, rerank-short-t2 (see workloads.py for why each).

``--trace 0`` runs ``python -m rmbr.cli ...`` as a fresh process per
invocation, for ``--seconds``, and reports the end-to-end metrics:

- ``cpu_per_ref``: the mean user+sys CPU seconds of the command and every
  process under it (the scorer included), divided by the mean CPU seconds
  of ``hostref.py``, a fixed reference job that imports nothing from
  ``rmbr``.  On a shared host the CPU time of the same work swings by half
  within minutes with the other tenants' load; the reference, run between
  the commands, swings with it, so the ratio follows the program and not the
  host.  The raw seconds are printed on the ``# raw`` line.
- ``setup_s``: the median CPU seconds of the command with ``--dry-run``
  (interpreter start, imports, parse and validation).
- ``peak_rss_mb``: the median ``ru_maxrss`` of the command.

Each round runs a dry run, the reference and the full command, so every
figure samples the whole run.  Wall-clock throughput (``lists_per_s``) and
set-up wall time are printed on the ``# raw`` line but not gated: on a
shared VM they also follow the hypervisor's CPU steal.

BLAS runs single-threaded (``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` are set to 1 for the benchmark and every command it
starts): idle BLAS threads spin on the few cores such a host gives, adding
CPU time that measures the scheduler rather than the program.

The benchmark makes itself a child subreaper, so scorer processes the
command leaves behind are reaped (and their CPU counted) here; one still
running after a grace period fails the invocation.  ``failed`` /
``attempted`` count invocations that exited non-zero or whose output
differs from the reference (reference.py).

``--trace 1`` calls ``rmbr.cli.main`` in this process, alternating untraced
and traced invocations, and reports per-layer figures derived from spans
around the calls into each module (spans.py): medians over the traced
invocations, plus ``cli.trace_overhead_frac``, the traced median wall time
over the untraced one, minus 1.

Informational lines (run environment, host spin-loop time, corpus shape, raw
CPU and wall-clock figures)
are printed as ``# name {json}`` before the result, which is the last line
of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# before numpy is first imported, so this process and every command it starts
# run BLAS on one thread
os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_INVOCATIONS = 3
MIN_TRACED_PAIRS = 2
INVOCATION_TIMEOUT_S = 120.0
SCORER_GRACE_S = 5.0
SPIN_ITERATIONS = 2_000_000
PR_SET_CHILD_SUBREAPER = 36


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_rmbr():
    if not (SRC / "rmbr" / "cli.py").is_file():
        _fail(f"no rmbr sources under {SRC}; run from an rmbr checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import rmbr

    if Path(rmbr.__file__).resolve().parent != (SRC / "rmbr").resolve():
        _fail(f"imported rmbr from {rmbr.__file__}, not from {SRC}")
    return rmbr


def info(name: str, record) -> None:
    print(f"# {name} {json.dumps(record, sort_keys=True)}", flush=True)


# ---------------------------------------------------------------------------
# run environment


def _blas_record() -> dict:
    import numpy as np

    record = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        pass
    record["env"] = {k: os.environ.get(k) for k in BLAS_THREAD_VARS}
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        getter = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            record["threads"] = int(getter())
    return record


def spin_seconds() -> float:
    """A fixed pure-Python loop, timed: a host-speed diagnostic, not a metric."""
    started = time.perf_counter()
    x = 0
    for i in range(SPIN_ITERATIONS):
        x += i * i % 7
    return time.perf_counter() - started


def _cpu_ticks() -> list[int]:
    """Aggregate CPU tick counters of the host (user ... steal), from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            return [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return []


class HostNoise:
    """Spin-loop time before and after the measurement, and the share of CPU
    time the hypervisor took (steal) meanwhile: tells host drift apart from a
    change in the program."""

    def __enter__(self):
        self.spin = [spin_seconds()]
        self.ticks = _cpu_ticks()
        return self

    def __exit__(self, *exc):
        ticks = _cpu_ticks()
        self.spin.append(spin_seconds())
        delta = [b - a for a, b in zip(self.ticks, ticks)]
        info("host", {
            "spin_s": self.spin,
            "steal_frac": delta[7] / sum(delta) if len(delta) == 8 and sum(delta) else None,
            "loadavg": os.getloadavg(),
        })


def environment() -> dict:
    import numpy as np
    from rmbr import kernels

    using_numba = getattr(kernels, "using_numba", None)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_record(),
        "using_numba": using_numba() if using_numba else None,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------
# untraced end-to-end runs


class Invocation:
    """One fresh process and everything it left behind."""

    def __init__(self, command: list[str], spawn_log: Path):
        self.command = command
        self.spawn_log = spawn_log
        self.wall_s = self.cpu_s = self.rss_mb = 0.0
        self.error: str | None = None

    def run(self) -> "Invocation":
        self.spawn_log.write_text("")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        err_path = self.spawn_log.with_suffix(".stderr")
        with open(err_path, "w") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(
                self.command,
                stdout=subprocess.DEVNULL, stderr=err, env=env, cwd=ROOT,
            )
            timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                self.wall_s = time.perf_counter() - started
            except BaseException:  # interrupted: take the command down with us
                proc.kill()
                os.waitpid(proc.pid, 0)
                raise
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        leftovers = self._reap_orphans()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        self.cpu_s = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        if proc.returncode != 0:
            self.error = f"exit {proc.returncode}: {err_path.read_text().strip()[-500:]}"
        elif leftovers:
            self.error = f"scorer processes alive after the command exited: {leftovers}"
        return self

    def _reap_orphans(self) -> list[int]:
        """Reap what the command left behind (re-parented to us); after a
        grace period, kill and report whatever still runs."""
        deadline = time.monotonic() + SCORER_GRACE_S
        while time.monotonic() < deadline:
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return []
            if not pid:
                time.sleep(0.002)
        alive = _children()
        for pid in alive:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        with contextlib.suppress(ChildProcessError):
            while True:
                os.waitpid(-1, 0)
        return alive


def _children() -> list[int]:
    """Live child processes of this one, from /proc."""
    me = str(os.getpid())
    out = []
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            fields = Path(stat).read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me and fields[0] != "Z":
            out.append(int(Path(stat).parent.name))
    return out


def end_to_end(workload, argv, dry_argv, spawn_log, out_path, expected, seconds):
    invocations = []

    def attempt(args) -> Invocation:
        inv = Invocation([sys.executable, "-m", "rmbr.cli", *args], spawn_log).run()
        invocations.append(inv)
        return inv

    def reference() -> Invocation:
        inv = Invocation([sys.executable, str(HERE / "hostref.py")], spawn_log).run()
        if inv.error:
            _fail(f"host reference failed: {inv.error}")
        return inv

    attempt(dry_argv)  # warm-up: byte-compiles the sources, fills the file cache
    reference()
    setup, refs, runs = [], [], []
    deadline = time.monotonic() + seconds
    # each round: dry run, host reference, full run, so that every figure
    # samples the whole run and the reference sees the host the command saw
    while time.monotonic() < deadline or len(runs) < MIN_INVOCATIONS:
        setup.append(attempt(dry_argv))
        refs.append(reference())
        with contextlib.suppress(FileNotFoundError):
            out_path.unlink()
        inv = attempt(argv)
        if inv.error is None:
            inv.error = workload.check(out_path, expected)
        runs.append(inv)
    for inv in invocations:
        if inv.error:
            print(f"perfbench: invocation failed: {inv.error}", file=sys.stderr)
    good = [inv for inv in runs if inv.error is None] or runs
    failed = sum(inv.error is not None for inv in invocations)
    # means, not medians: a short process runs either in a fast or in a slow
    # spell of the host, and the median of such a two-humped sample jumps
    # between the humps; the mean follows the share of slow time smoothly
    cpu_s = statistics.fmean(i.cpu_s for i in good)
    ref_cpu_s = statistics.fmean(i.cpu_s for i in refs)
    metrics = {
        "cpu_per_ref": (cpu_s / ref_cpu_s, "x"),
        "setup_s": (statistics.median(i.cpu_s for i in setup), "s"),
        "peak_rss_mb": (statistics.median(i.rss_mb for i in good), "MB"),
    }
    # Raw CPU and wall-clock figures follow the host's speed, which swings by
    # half within minutes on a shared VM, so they are reported, not gated.
    info("raw", {
        "cpu_s": cpu_s,
        "ref_cpu_s": ref_cpu_s,
        "lists_per_s": statistics.median(workload.lists / i.wall_s for i in good),
        "setup_wall_s": statistics.median(i.wall_s for i in setup),
        "cpu_s_each": [round(i.cpu_s, 4) for i in runs],
        "ref_cpu_s_each": [round(i.cpu_s, 4) for i in refs],
        "failed_frac": failed / len(invocations),
    })
    return len(invocations), failed, True, metrics


# ---------------------------------------------------------------------------
# traced in-process runs


def traced(workload, argv, spawn_log, out_path, expected, seconds):
    import rmbr.analysis
    import rmbr.cli
    import rmbr.io
    import rmbr.mbr
    import spans

    modules = {"cli": rmbr.cli, "mbr": rmbr.mbr, "io": rmbr.io, "analysis": rmbr.analysis}
    failures, problems = [], []
    plain_walls, samples = [], []

    def invoke(instrument, tracer):
        spawn_log.write_text("")
        with contextlib.suppress(FileNotFoundError):
            out_path.unlink()
        sink = io.StringIO()
        instrument.tracer = tracer
        error = None
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            started = time.perf_counter()
            if tracer is not None:
                root = tracer.root("cli.main")
            try:
                code = rmbr.cli.main(argv)
            except Exception:  # a crash is a failed invocation, not a failed benchmark
                code, error = None, traceback.format_exc()
            finally:
                if tracer is not None:
                    tracer.close(root)
                wall = time.perf_counter() - started
                instrument.tracer = None
                instrument.close_clients()
        if error is None and code != 0:
            error = f"exit {code}: {sink.getvalue()[-500:]}"
        error = error or workload.check(out_path, expected)
        if error:
            failures.append(error)
        return wall, len(spawn_log.read_text().splitlines())

    with spans.Instrument(modules) as instrument:
        invoke(instrument, None)  # warm-up
        deadline = time.monotonic() + seconds
        while time.monotonic() < deadline or len(samples) < MIN_TRACED_PAIRS:
            plain_walls.append(invoke(instrument, None)[0])
            tracer = spans.Tracer()
            _, spawns = invoke(instrument, tracer)
            sample = spans.layer_metrics(tracer)
            if sample.pop("io.spawn_spans") != spawns:
                problems.append("scorer spawn log disagrees with spawn spans")
            sample["io.scorer_spawns"] = spawns
            samples.append(sample)
    for name in sorted(spans.COUNTS):
        if len({s[name] for s in samples}) != 1:
            problems.append(f"count {name} differs between invocations")
    for message in failures + problems:
        print(f"perfbench: traced run: {message}", file=sys.stderr)
    layer = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    layer.update((name, samples[0][name]) for name in spans.COUNTS)
    layer["cli.trace_overhead_frac"] = (
        layer["cli.traced_wall_s"] / statistics.median(plain_walls) - 1.0
    )
    metrics = {name: (value, spans.unit(name)) for name, value in layer.items()}
    attempted = 1 + len(plain_walls) + len(samples)
    return attempted, len(failures), not problems, metrics


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds like Ctrl-C, so commands are killed and files removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    _import_rmbr()
    import corpus
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        _fail("cannot become a child subreaper")

    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        info("environment", environment())
        records = workload.generate(args.seed)
        inp, out, spawn_log = work / "input.jsonl", work / "output", work / "spawns.log"
        corpus.write_lists(inp, records)
        info("corpus", corpus.corpus_stats(records, workload.l))
        expected = workload.expected(records, args.seed)
        argv = workload.argv(inp, out, spawn_log)
        with HostNoise():
            if args.trace:
                attempted, failed, consistent, metrics = traced(
                    workload, argv, spawn_log, out, expected, args.seconds
                )
            else:
                attempted, failed, consistent, metrics = end_to_end(
                    workload, argv, argv + ["--dry-run"], spawn_log, out, expected,
                    args.seconds,
                )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    result = {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
