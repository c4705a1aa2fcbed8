"""A fixed amount of reference work, timed to gauge the host's current speed.

    python3 perfbench/hostref.py

It starts the way the CLI does (a fresh interpreter that imports numpy) and
then does the kind of work the CLI's scoring does: n-gram counting with
``Counter`` and clipped match counts of sorted id arrays with
``np.intersect1d``, over fixed pseudo-random token sequences.  It imports
nothing from ``rmbr``, so a change to the program never moves its CPU time;
only the host does.  Prints one checksum line, which never changes.
"""

from collections import Counter

import numpy as np

SEQUENCES = 125
ORDERS = 4


def main() -> None:
    rng = np.random.default_rng(0)
    table: dict[tuple, int] = {}
    encoded = []
    for _ in range(SEQUENCES):
        seq = [int(t) for t in rng.zipf(1.3, size=int(rng.integers(15, 35)))]
        blocks = []
        for k in range(ORDERS):
            grams = Counter(tuple(seq[j : j + k + 1]) for j in range(len(seq) - k))
            ids = np.array([table.setdefault(g, len(table)) for g in grams], dtype=np.int64)
            counts = np.array(list(grams.values()), dtype=np.int64)
            order = np.argsort(ids)
            blocks.append((ids[order], counts[order]))
        encoded.append(blocks)
    total = 0
    for a in encoded:
        for b in encoded:
            for (ia, ca), (ib, cb) in zip(a, b):
                _, xa, xb = np.intersect1d(ia, ib, assume_unique=True, return_indices=True)
                total += int(np.minimum(ca[xa], cb[xb]).sum())
    print(total)


if __name__ == "__main__":
    main()
