"""Command-line interface: `maqaoa run` and `maqaoa report`."""

from __future__ import annotations

import argparse
import sys

from .harness import RunConfig, report, run_experiment
from .strategies import STRATEGY_KINDS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maqaoa",
        description=(
            "Multi-angle QAOA MaxCut benchmark: optimize per-edge / per-vertex "
            "angles over graph datasets and analyze the resulting angles."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run a sweep and write records.csv")
    run_parser.add_argument(
        "--dataset",
        required=True,
        help="builtin:nK (K <= 8) | g6:PATH | edges:PATH | random:n=9,count=50[,seed=S]",
    )
    run_parser.add_argument(
        "--p", default="1", help="comma-separated layer counts, e.g. 1,2,3"
    )
    run_parser.add_argument(
        "--strategies",
        default=",".join(STRATEGY_KINDS),
        help=f"comma-separated subset of: {', '.join(STRATEGY_KINDS)}",
    )
    run_parser.add_argument("--replicates", type=int, default=1)
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--out", required=True, help="output directory")
    run_parser.add_argument(
        "--threads", type=int, default=1, help="graph-level worker processes"
    )

    report_parser = sub.add_parser("report", help="analyze a records.csv")
    report_parser.add_argument("--records", required=True)
    report_parser.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = RunConfig(
                dataset=args.dataset,
                p_values=tuple(int(x) for x in args.p.split(",") if x),
                strategies=tuple(s for s in args.strategies.split(",") if s),
                replicates=args.replicates,
                seed=args.seed,
                out_dir=args.out,
                threads=args.threads,
            )
            records = run_experiment(config)
            print(f"wrote {len(records)} records to {args.out}/records.csv")
        else:
            files = report(args.records, args.out)
            for path in files:
                print(f"wrote {path}")
    except Exception as exc:  # surface a one-line diagnostic, fail nonzero
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
