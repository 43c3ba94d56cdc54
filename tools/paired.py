"""Paired comparison of two records files of the same sweep.

    python tools/paired.py A.csv B.csv

Both files must hold the same cells, (graph_id, p, strategy, replicate).
Pairing each cell's two records, it prints one Markdown row per
(n, p, strategy): both mean approximation ratios, the mean of the paired
differences B - A with its standard error, the share of cells whose stored
final_ar is equal in the two files, and each file's total oracle calls and
BFGS iterations.

Exits 0 when every cell's final_ar is equal in the two files, 1 when any
differs, and 2 when the files do not hold the same cells.
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict

import numpy as np

from maqaoa.records import STRATEGY_KINDS, read_records

HEADER = ("n", "p", "strategy", "mean_ar A", "mean_ar B", "B - A (s.e.)",
          "equal", "calls A", "calls B", "iterations A", "iterations B")


def _cells(path):
    return {(r.graph_id, r.p, r.strategy, r.replicate): r for r in read_records(path)}


def paired_rows(a, b):
    """One table row per (n, p, strategy) of the paired cells of a and b,
    and the number of cells whose final_ar differs."""
    groups = defaultdict(list)
    for key, ra in a.items():
        groups[ra.n, ra.p, STRATEGY_KINDS.index(ra.strategy)].append((ra, b[key]))
    rows = []
    differ = 0
    for (n, p, kind), pairs in sorted(groups.items()):
        ar = np.array([(ra.final_ar, rb.final_ar) for ra, rb in pairs])
        diff = ar[:, 1] - ar[:, 0]
        se = diff.std(ddof=1) / np.sqrt(len(diff)) if len(diff) > 1 else 0.0
        equal = int((diff == 0).sum())
        differ += len(diff) - equal
        rows.append((
            n, p, STRATEGY_KINDS[kind], f"{ar[:, 0].mean():.6f}", f"{ar[:, 1].mean():.6f}",
            f"{diff.mean():+.6f} ({se:.6f})", f"{equal / len(diff):.3f}",
            sum(ra.function_evaluations for ra, _ in pairs),
            sum(rb.function_evaluations for _, rb in pairs),
            sum(ra.iterations for ra, _ in pairs),
            sum(rb.iterations for _, rb in pairs),
        ))
    return rows, differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", metavar="A.csv")
    parser.add_argument("b", metavar="B.csv")
    args = parser.parse_args(argv)
    a, b = _cells(args.a), _cells(args.b)
    if a.keys() != b.keys():
        print(f"{len(a.keys() ^ b.keys())} cells are in only one of the two files",
              file=sys.stderr)
        return 2
    rows, differ = paired_rows(a, b)
    print("| " + " | ".join(HEADER) + " |")
    print("|" + "---|" * len(HEADER))
    for row in rows:
        print("| " + " | ".join(map(str, row)) + " |")
    print(f"\n{differ} of {len(a)} cells differ in final_ar")
    return int(differ > 0)


if __name__ == "__main__":
    sys.exit(main())
