#!/usr/bin/env python3
"""Alternated benchmark runs of two checkouts, summarised pair by pair.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR \\
        --workload embedding-paging [gemv-baseline ...] --pairs 10 \\
        --seconds 8 [--seed 0]

Each pair runs `perfbench/run.py --trace 0` once in each checkout, with the
same workload, seed and measuring time: the parent goes first in even
pairs and the change in odd ones. The workloads run one after another,
and each gets its own table. For every end-to-end metric of the result
lines it prints each side's median and quartiles, and in how many pairs
the change read lower; a tie counts for neither side. All of them are
lower-is-better. A gain holds when the change is lower in at least nine
tenths of the pairs and its median lies below the parent's by more than
the parent's interquartile range; the change is worse under the mirror
rule: higher in at least nine tenths of the pairs, with its median above
the parent's by more than that range. The script writes no file; each
run's result line is echoed to standard error.

Exit status: 0 when every run printed a correct result, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, NamedTuple, Tuple

# End-to-end metrics, in print order; all are lower-is-better.
METRICS = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")
GAIN_SHARE = 0.9                          # of the pairs, for a gain or a loss


class Summary(NamedTuple):
    metric: str
    parent: Tuple[float, float, float]    # (first quartile, median, third)
    change: Tuple[float, float, float]
    lower: int                            # pairs in which the change read lower
    higher: int                           # pairs in which it read higher
    pairs: int

    @property
    def gain(self) -> bool:
        q1, median, q3 = self.parent
        return (self.lower >= GAIN_SHARE * self.pairs
                and median - self.change[1] > q3 - q1)

    @property
    def worse(self) -> bool:
        q1, median, q3 = self.parent
        return (self.higher >= GAIN_SHARE * self.pairs
                and self.change[1] - median > q3 - q1)


def parse_result(stdout: str) -> Dict[str, float]:
    """The metric values of a run's result line, its last line of output;
    ValueError when the run was not correct."""
    result = json.loads(stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise ValueError(f"run not correct: {result['failed']} of "
                         f"{result['attempted']} rows failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: List[Tuple[Dict[str, float], Dict[str, float]]]) -> List[Summary]:
    """One summary per end-to-end metric of (parent, change) result pairs."""
    out = []
    for metric in METRICS:
        parent = [p[metric] for p, _ in pairs]
        change = [c[metric] for _, c in pairs]
        lower = sum(c < p for p, c in zip(parent, change))
        higher = sum(c > p for p, c in zip(parent, change))
        out.append(Summary(metric, quartiles(parent), quartiles(change),
                           lower, higher, len(pairs)))
    return out


def format_summary(rows: List[Summary]) -> str:
    def side(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    lines = [f"{'metric':12s} {'parent median [q1, q3]':>28s} "
             f"{'change median [q1, q3]':>28s} {'change':>8s} {'lower':>7s} gain worse"]
    for r in rows:
        delta = (r.change[1] - r.parent[1]) / r.parent[1] if r.parent[1] else 0.0
        lines.append(f"{r.metric:12s} {side(r.parent):>28s} {side(r.change):>28s} "
                     f"{delta:+8.1%} {r.lower:>3d}/{r.pairs:<3d} "
                     f"{'yes' if r.gain else 'no':4s} {'yes' if r.worse else 'no'}")
    return "\n".join(lines)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> Dict[str, float]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=600 + 4 * seconds)
    print(f"{checkout}: {proc.stdout.strip().splitlines()[-1:]}", file=sys.stderr)
    if proc.returncode != 0:
        raise ValueError(f"{checkout}: exit {proc.returncode}: {proc.stderr[-500:]}")
    return parse_result(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", nargs="+", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    for workload in args.workload:
        pairs = []
        for i in range(args.pairs):
            order = 1 if i % 2 == 0 else -1   # parent first in even pairs
            try:
                results = [run_once(side, workload, args.seed, args.seconds)
                           for side in (args.parent, args.change)[::order]]
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            pairs.append(tuple(results[::order]))
        print(f"{workload}  seed {args.seed}  {len(pairs)} pairs  "
              f"--seconds {args.seconds:g}")
        print(format_summary(summarize(pairs)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
