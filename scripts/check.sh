#!/bin/sh
# Run the tier-1 test suite, printing its five slowest tests, then the
# benchmark's self-tests, which hold the cross-check of traced counts
# against the simulator's own counters. Ends by printing the line total
# of the simulator's source, which ROADMAP tracks, and the start-up time:
# the median of five fresh interpreters, each importing the CLI and
# validating the default config, and whether those interpreters cached
# bytecode (`sys.dont_write_bytecode`, set by PYTHONDONTWRITEBYTECODE):
# without the caches each one compiles the source again. Both are only
# printed; neither changes the exit status.
# Usage: scripts/check.sh   (from any directory; exits non-zero on failure)
set -u
cd "$(dirname "$0")/.." || exit 2
status=0
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python3 -m pytest -q \
    --continue-on-collection-errors --durations=5 || status=1
python3 -m pytest -q perfbench/tests || status=1
wc -l src/npusim/*.py | tail -n 1
PYTHONPATH=src python3 -c '
import statistics, subprocess, sys
probe = """import time; t = time.perf_counter()
import npusim.cli, npusim.config as c
c.validate(c.load_config())
print((time.perf_counter() - t) * 1e3)"""
runs = [float(subprocess.run([sys.executable, "-c", probe], check=True,
                             capture_output=True, text=True).stdout)
        for _ in range(5)]
cached = "off" if sys.dont_write_bytecode else "on"
print(f"start-up: {statistics.median(runs):.0f} ms (median of 5, "
      f"bytecode caching {cached})")'
exit $status
