#!/usr/bin/env python3
"""npusim benchmark: run one workload (or all), untraced or traced.

    python3 perfbench/run.py --workload gemv-baseline --seed 0 --seconds 30 --trace 0

The simulator is imported from the checkout's ``src/``; nothing is
installed. ``--trace 0`` repeats the workload for ``--seconds``, checks
every CSV row and prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced calls, prints the per-layer metrics, writes the spans
to ``perfbench/out/`` as a Chrome trace-event file, and checks counts seen
from outside against the program's own counters. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics, where attempted/failed count CSV rows.

Exit status: 0 if every row is correct, 1 if a row or count fails, 2 if
the simulator cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

LOADAVG_AT_START = os.getloadavg()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
ALL = "all"

# Seconds of measuring time when --seconds is not given (BENCHMARK.json's).
RUN_SECONDS = 40.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "sim_cycles_per_s": "cycles/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
# Printed but left out of the result line and of BENCHMARK.json: the cycle
# count of a workload and seed is fixed, so this is 1/wall_s rescaled and
# bounding it as well would judge one measurement twice.
PRINTED_ONLY = ("sim_cycles_per_s",)

SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
import suite
from npusim import config
errors = config.validate(suite.WORKLOADS[{name!r}].config())
print(-1.0 if errors else time.perf_counter() - t0)
"""


class ProgramMissing(Exception):
    pass


def import_program():
    """Import npusim from this checkout's src/ and the benchmark modules."""
    if not (SRC / "npusim" / "__init__.py").is_file():
        raise ProgramMissing(f"no simulator sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import npusim
    if Path(npusim.__file__).resolve().parent != SRC / "npusim":
        raise ProgramMissing(f"npusim imported from {npusim.__file__}, not {SRC}")
    import checks
    import suite
    import tracer
    return suite, checks, tracer


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("ratio", "per_translation")):
        return "ratio"
    if name.endswith("cycles"):
        return "cycles"
    return "count"


def git_commit() -> Optional[str]:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> Dict[str, Any]:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "loadavg_at_start": list(LOADAVG_AT_START),
    }


def measure_setup(name: str) -> float:
    """Time a fresh interpreter takes to import npusim, load and validate."""
    code = SETUP_PROBE.format(src=str(SRC), here=str(HERE), name=name)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True, cwd=ROOT)
    value = float(proc.stdout.strip().splitlines()[-1])
    if value < 0:
        raise RuntimeError(f"config of {name} does not validate")
    return value


class Run:
    """Timed calls of one workload and the correctness of their rows."""

    def __init__(self, checks, workload, seed: int):
        self.checks = checks
        self.workload = workload
        self.seed = seed
        self.expected = checks.expected_lines(workload, seed)
        self.compare_expected = workload.dense or seed == checks.DEFAULT_SEED
        self.first: Optional[List[str]] = None
        self.attempted = 0
        self.failed = 0
        self.cycles = 0
        self.problems: List[str] = []

    def call(self, tracer=None) -> Tuple[Optional[list], float, float]:
        """One workload call: (rows or None if it raised, wall s, cpu s)."""
        cfg = self.workload.config()
        rows = None
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                rows = self.workload.execute(cfg, self.seed)
            else:
                with tracer.patched(), tracer.span("run"):
                    rows = self.workload.execute(cfg, self.seed)
        except Exception:  # every row of the call fails; report and go on
            traceback.print_exc()
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        self.account(rows, cfg)
        return rows, wall, cpu

    def account(self, rows, cfg) -> None:
        if rows is None:
            n = len(self.expected) - 1
            self.attempted += n
            self.failed += n
            self.problems.append(f"{self.workload.name}: call raised; {n} rows failed")
            return
        total, bad = self.checks.check_rows(rows, cfg, self.expected,
                                            self.compare_expected, self.first)
        self.attempted += total
        self.failed += len(bad)
        for i, reason in sorted(bad.items()):
            self.problems.append(f"{self.workload.name} row {i}: {reason}")
        if self.first is None:
            self.first = self.checks.csv_lines(rows)
            self.cycles = sum(r["total_cycles"] for r in rows)


def run_untraced(checks, workload, seed: int, seconds: float):
    """Calls for `seconds`, each preceded by one set-up sample; medians.

    Spreading the set-up samples over the run, rather than taking them in
    one burst, keeps them from all landing in one slow spell of a shared host.
    """
    measure_setup(workload.name)  # warm-up: writes the bytecode caches
    run = Run(checks, workload, seed)
    setups, walls, cpus = [], [], []
    start = time.perf_counter()
    while True:
        setups.append(measure_setup(workload.name))
        rows, wall, cpu = run.call()
        if rows is None:
            break
        walls.append(wall)
        cpus.append(cpu)
        # stop before a call that would run past the measuring time
        if time.perf_counter() - start + wall > seconds:
            break
    setups.append(measure_setup(workload.name))
    metrics: Dict[str, float] = {}
    if walls:
        wall = statistics.median(walls)
        metrics = {
            "wall_s": wall,
            "cpu_s": statistics.median(cpus),
            "sim_cycles_per_s": run.cycles / wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return run, metrics, len(walls)


def run_traced(checks, tracermod, workload, seed: int, seconds: float,
               env: Dict[str, Any]):
    run = Run(checks, workload, seed)
    plain, traced, per_call = [], [], []
    tracers = []
    start = time.perf_counter()
    while True:
        rows, wall, _ = run.call()
        if rows is None:
            break
        tracer = tracermod.Tracer()
        rows, twall, _ = run.call(tracer)
        if rows is None:
            break
        plain.append(wall)
        traced.append(twall)
        tracers.append(tracer)
        per_call.append(tracer.metrics(rows))
        for problem in tracermod.cross_check(tracer, rows, workload):
            run.problems.append(f"{workload.name} counters: {problem}")
        if time.perf_counter() - start + wall + twall > seconds:
            break
    metrics: Dict[str, float] = {}
    if per_call:
        metrics = {k: statistics.median(m[k] for m in per_call) for k in per_call[0]}
        metrics["trace.overhead_ratio"] = (statistics.median(traced)
                                           / statistics.median(plain))
        path = OUT / f"{workload.name}-seed{seed}.trace.json"
        tracermod.write_chrome_trace(path, tracers, workload.name,
                                     {"workload": workload.name, "seed": seed, **env})
        print(f"chrome trace: {path.relative_to(ROOT)}")
    return run, metrics, len(per_call)


def print_table(workload: str, seed: int, calls: int, run,
                metrics: Dict[str, float]) -> None:
    print(f"== {workload}  seed {seed}  calls {calls}  "
          f"rows {run.attempted} ({run.failed} failed)")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {unit_of(name)}")
    print(f"  {'rows_failed':40s} {run.failed:>16d} count (of {run.attempted} rows)")
    for problem in run.problems[:20]:
        print(f"  FAIL {problem}", file=sys.stderr)


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, Dict[str, Any]]) -> str:
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def with_units(metrics: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    return {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}


def run_all(args, names: List[str]) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    attempted = failed = 0
    metrics: Dict[str, Dict[str, Any]] = {}
    ok = True
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"error: {name} printed no result", file=sys.stderr)
            ok = False
            continue
        ok = ok and proc.returncode == 0 and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(result_line(ok, max(attempted, 1), failed, metrics))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS,
                    help="measuring time; calls stop before running past it")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        suite, checks, tracermod = import_program()
    except (ImportError, ProgramMissing) as exc:
        print(f"error: cannot import the simulator: {exc}", file=sys.stderr)
        return 2
    names = list(suite.WORKLOADS)
    if args.workload == ALL:
        return run_all(args, names)
    if args.workload not in suite.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {names + [ALL]}",
              file=sys.stderr)
        return 2
    workload = suite.WORKLOADS[args.workload]

    env = environment()
    print("environment: " + json.dumps(env))
    if args.trace:
        run, metrics, calls = run_traced(checks, tracermod, workload,
                                         args.seed, args.seconds, env)
    else:
        run, metrics, calls = run_untraced(checks, workload,
                                           args.seed, args.seconds)
    print_table(workload.name, args.seed, calls, run, metrics)
    correct = run.failed == 0 and not run.problems and bool(metrics)
    reported = {k: v for k, v in metrics.items() if k not in PRINTED_ONLY}
    print(result_line(correct, max(run.attempted, 1), run.failed,
                      with_units(reported)))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
