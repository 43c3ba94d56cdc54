"""Record identity: run a fixed set of sweeps and hash what they write.

Each fixture is one `maqaoa run` at --seed 1. Its hash is the sha256 of its
records.csv with the wall_time column dropped, the one column that differs
between two runs of the same code. A change meant to keep the package's bits
keeps every hash.

    python tools/identity.py                  # the working tree's hashes
    python tools/identity.py --against HEAD~1 # and those of a revision

With --against REV the fixtures also run on REV, checked out in a temporary
git worktree that is removed afterwards, and the command exits 1 when any
fixture's hash differs between the two.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FIXTURES = (
    "--dataset builtin:n4 --p 1,2,3 --replicates 3",
    "--dataset random:n=8,count=12 --p 1,2,3",
    "--dataset random:n=8,count=12 --p 1,2,3 --threads 2",
    "--dataset random:n=10,count=6 --p 2,3",
    "--dataset random:n=12,count=4 --p 2",
)

# runs the command line interface of the package under argv[1], and fails if
# Python imported the package from anywhere else
_RUN = (
    "import sys, maqaoa.cli; "
    "sys.exit(maqaoa.cli.main(sys.argv[2:]) if maqaoa.__file__.startswith(sys.argv[1]) "
    "else f'maqaoa imported from {maqaoa.__file__}, not {sys.argv[1]}')"
)


def records_hash(path: Path) -> str:
    """sha256 of a records.csv re-written without its wall_time column."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("wall_time")
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(
        row[:drop] + row[drop + 1:] for row in rows
    )
    return hashlib.sha256(text.getvalue().encode()).hexdigest()


def run_fixtures(tree: Path, scratch: Path) -> list[str]:
    """Each fixture's hash, run on the package source under tree/src."""
    src = str(tree / "src")
    env = dict(os.environ, PYTHONPATH=src)
    hashes = []
    for k, fixture in enumerate(FIXTURES):
        out = scratch / f"fixture{k}"
        command = [sys.executable, "-c", _RUN, src, "run", *fixture.split(),
                   "--seed", "1", "--out", str(out)]
        subprocess.run(command, env=env, check=True, stdout=subprocess.DEVNULL)
        hashes.append(records_hash(out / "records.csv"))
    return hashes


def revision_fixtures(rev: str, scratch: Path) -> list[str]:
    """Each fixture's hash, run on rev in a git worktree removed afterwards."""
    checkout = scratch / "checkout"
    git = ["git", "-C", str(ROOT), "worktree"]
    subprocess.run(git + ["add", "--detach", "--quiet", str(checkout), rev], check=True)
    try:
        return run_fixtures(checkout, scratch / "runs")
    finally:
        subprocess.run(git + ["remove", "--force", str(checkout)], check=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV",
                        help="a git revision whose hashes must equal the tree's")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp).resolve()
        tree = run_fixtures(ROOT, tmp / "tree")
        other = tree if args.against is None else revision_fixtures(args.against, tmp / "rev")
    for fixture, mine, theirs in zip(FIXTURES, tree, other):
        verdict = "" if mine == theirs else f"  DIFFERS, {args.against}: {theirs}"
        print(f"{mine}  {fixture}{verdict}")
    return int(tree != other)


if __name__ == "__main__":
    sys.exit(main())
