#!/usr/bin/env python3
"""Write perfbench/expected/<workload>.csv at the default seed.

The expected CSVs pin the simulator's current output. Regenerate them only
in a change that alters simulated output on purpose, and name that change
in CHANGES.md:

    python3 perfbench/make_expected.py
"""

import sys

from run import import_program


def main() -> int:
    suite, checks, _ = import_program()
    from npusim import harness

    checks.EXPECTED_DIR.mkdir(exist_ok=True)
    for workload in suite.WORKLOADS.values():
        rows = workload.execute(workload.config(), checks.DEFAULT_SEED)
        path = checks.expected_path(workload)
        path.write_text(harness.rows_to_csv(rows))
        print(f"wrote {path.name} ({len(rows)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
