"""Deterministic external scorer speaking ``rmbr-scorer/1`` over stdio.

    python3 perfbench/scorer.py --log SPAWN_LOG

Answers the handshake, then one ``{"id", "score"}`` line per request line,
and exits on stdin EOF.  Each start appends ``start <pid>`` to the log, so
the benchmark counts spawns and finds left-over processes from outside the
program under test.  Standard library only, so a spawn costs an interpreter
start and nothing more.
"""

import argparse
import json
import os
import sys

PROTOCOL = "rmbr-scorer/1"


def score(src, hyp: str, ref: str) -> float:
    """Token-set Dice overlap minus a small length-mismatch penalty."""
    h = hyp.split()
    r = ref.split()
    hs, rs = set(h), set(r)
    return 2.0 * len(hs & rs) / (len(hs) + len(rs)) - 0.01 * abs(len(h) - len(r))


def serve(stdin, stdout) -> None:
    for line in stdin:
        req = json.loads(line)
        if "protocol" in req:
            reply = {"protocol": PROTOCOL}
        else:
            reply = {"id": req["id"], "score": score(req["src"], req["hyp"], req["ref"])}
        stdout.write(json.dumps(reply) + "\n")
        stdout.flush()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--log", required=True, help="append 'start <pid>' here")
    args = parser.parse_args()
    with open(args.log, "a", encoding="utf-8") as fh:
        fh.write(f"start {os.getpid()}\n")
    serve(sys.stdin, sys.stdout)


if __name__ == "__main__":
    main()
