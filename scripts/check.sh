#!/bin/sh
# Run the tier-1 test suite, printing its five slowest tests, then the
# benchmark's self-tests, which hold the cross-check of traced counts
# against the simulator's own counters. Ends by printing the line total
# of the simulator's source, which ROADMAP tracks.
# Usage: scripts/check.sh   (from any directory; exits non-zero on failure)
set -u
cd "$(dirname "$0")/.." || exit 2
status=0
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python3 -m pytest -q \
    --continue-on-collection-errors --durations=5 || status=1
python3 -m pytest -q perfbench/tests || status=1
wc -l src/npusim/*.py | tail -n 1
exit $status
