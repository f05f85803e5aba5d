"""The benchmark's entry point: one run of one workload.

    python3 benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The last line of stdout is the run's JSON
result (see ``measure.py``).  Without the program's source tree beside it
the run exits with status 2 and prints no result.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main() -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.ledger.__main__ import main as ledger_main

    return ledger_main(["measure", *sys.argv[1:]])


if __name__ == "__main__":
    sys.exit(main())
