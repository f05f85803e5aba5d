"""Command line of the performance ledger.

    PYTHONPATH=src python -m benchmarks.ledger run [--seed N] [--repeats K] [--check-noise] [--smoke]
    PYTHONPATH=src python -m benchmarks.ledger compare A.json B.json [--claim METRIC:WORKLOAD]
    PYTHONPATH=src python -m benchmarks.ledger measure --workload NAME --seed N --seconds S --trace 0|1

``measure`` is one run of one workload (what ``run.py`` does); ``run`` is
the whole ledger; ``compare`` judges two ledgers against the bounds.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _parser() -> argparse.ArgumentParser:
    from benchmarks.ledger.ledger import DEFAULT_OUTPUT
    from benchmarks.ledger.workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="benchmarks.ledger", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    measure = sub.add_parser("measure", help="one run of one workload")
    measure.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    measure.add_argument("--seed", type=int, required=True)
    measure.add_argument("--seconds", type=float, required=True)
    measure.add_argument("--trace", type=int, choices=(0, 1), required=True)
    measure.add_argument("--smoke", action="store_true",
                         help="inputs a few times smaller (tests only)")

    run = sub.add_parser("run", help="every workload, interleaved, then traced")
    run.add_argument("--seed", type=int, default=7)
    run.add_argument("--repeats", type=int, default=5,
                     help="timed runs per workload (default: 5)")
    run.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    run.add_argument("--check-noise", action="store_true",
                     help="exit 1 when any metric's spread exceeds its bound")
    run.add_argument("--smoke", action="store_true",
                     help="small inputs, one repeat, one second per run")

    compare = sub.add_parser("compare", help="judge ledger B against ledger A")
    compare.add_argument("parent", type=Path)
    compare.add_argument("change", type=Path)
    compare.add_argument("--claim", action="append", default=[],
                         metavar="METRIC:WORKLOAD",
                         help="also test a claimed gain (repeatable)")
    return parser


def main(argv=None) -> int:
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    args = _parser().parse_args(argv)

    if args.command == "measure":
        from benchmarks.ledger.inputs import FULL, SMOKE
        from benchmarks.ledger.measure import measure

        result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                         SMOKE if args.smoke else FULL)
        print(json.dumps(result))
        return 0

    from benchmarks.ledger import ledger

    if args.command == "run":
        return ledger.run(args.seed, args.repeats, args.output,
                          check_noise=args.check_noise, smoke=args.smoke)
    return ledger.compare(args.parent, args.change, args.claim)


if __name__ == "__main__":
    sys.exit(main())
