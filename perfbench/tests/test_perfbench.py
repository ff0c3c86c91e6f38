"""Self-tests of the benchmark:  python3 -m pytest -q perfbench/tests"""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import suite
from tracer import Tracer, cross_check, write_chrome_trace

BENCH = Path(__file__).resolve().parents[1]
_TRACED = {}


def traced(name):
    """One traced call of a workload at the default seed (cached per name)."""
    if name not in _TRACED:
        workload = suite.WORKLOADS[name]
        tracer = Tracer()
        originals = {(owner, attr): vars(owner)[attr]
                     for owner, attr, _ in tracer.plan()}
        cfg = workload.config()
        with tracer.patched(), tracer.span("run"):
            rows = workload.execute(cfg, checks.DEFAULT_SEED)
        _TRACED[name] = (tracer, rows, cfg, originals)
    return _TRACED[name]


def expected_rows(name, seed=checks.DEFAULT_SEED):
    """Expected CSV parsed back into typed row dicts."""
    def typed(text):
        for cast in (int, float):
            try:
                return cast(text)
            except ValueError:
                pass
        return text
    lines = checks.expected_lines(suite.WORKLOADS[name], seed)
    return [{k: typed(v) for k, v in r.items()} for r in csv.DictReader(lines)]


@pytest.mark.parametrize("name", list(suite.WORKLOADS))
def test_counts_from_outside_match_program_counters(name):
    tracer, rows, cfg, _ = traced(name)
    workload = suite.WORKLOADS[name]
    assert cross_check(tracer, rows, workload) == []
    submit = tracer.hot("submit", "modeled").tally
    assert submit.get("blocked", 0) == tracer.stats_total("blocked_cycles")
    assert submit.get("new_walk", 0) == tracer.stats_total("walks_started")
    metrics = tracer.metrics(rows)
    assert metrics["harness.oracle_runs"] == (len(workload.model_layers)
                                              * workload.sweep_points)
    if workload.dense:
        assert metrics["mmu.blocked_cycles"] == sum(r["blocked_cycles"] for r in rows)
        assert metrics["mmu.walks_started"] == sum(r["walks_started"] for r in rows)
    else:
        assert metrics["page_table.map_page.calls"] > 0
        assert all(metrics[f"numa.{s}.s"] > 0 for s in
                   ("numa_slow", "numa_fast", "demand_4k", "demand_2m"))
    total, bad = checks.check_rows(rows, cfg, checks.expected_lines(workload, 0), True)
    assert (total, bad) == (len(rows), {})


@pytest.mark.parametrize("name", list(suite.WORKLOADS))
def test_every_patched_attribute_is_restored(name):
    _, _, _, originals = traced(name)
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr}"


def test_chrome_trace_spans_nest(tmp_path):
    tracer, _, _, _ = traced("gemv-baseline")
    path = tmp_path / "t.json"
    write_chrome_trace(path, [tracer], "gemv-baseline", {"seed": 0})
    events = [e for e in json.loads(path.read_text())["traceEvents"]
              if e["ph"] == "X"]
    ids = {e["args"]["id"] for e in events}
    assert all(e["args"]["parent"] in ids for e in events
               if e["args"]["parent"] is not None)
    names = {e["name"] for e in events}
    assert {"run", "run_layer gemv-1", "simulate_fetch", "build"} <= names
    run_layers = [e for e in events if e["name"] == "run_layer gemv-3"]
    assert sorted(e["cat"] for e in run_layers) == ["modeled", "oracle"]


def test_checks_pass_expected_rows_at_any_seed():
    for name, workload in suite.WORKLOADS.items():
        seed = 7 if workload.dense else checks.DEFAULT_SEED
        rows = expected_rows(name, seed)
        expected = checks.expected_lines(workload, seed)
        assert checks.check_rows(rows, workload.config(), expected, True) \
            == (len(rows), {})


def test_checks_flag_broken_rows():
    gemv = suite.WORKLOADS["gemv-baseline"]
    rows = expected_rows("gemv-baseline")
    expected = checks.expected_lines(gemv, 0)
    rows[1]["total_cycles"] = rows[1]["oracle_cycles"] - 1
    _, bad = checks.check_rows(rows, gemv.config(), expected, False)
    assert list(bad) == [1]
    _, bad = checks.check_rows(rows[:2], gemv.config(), expected, False)
    assert set(bad) == {1, 2}

    emb = suite.WORKLOADS["embedding-paging"]
    expected = checks.expected_lines(emb, 0)
    rows = expected_rows("embedding-paging")
    rows[3]["migration_bytes"] += 4096
    _, bad = checks.check_rows(rows, emb.config(), expected, False)
    assert list(bad) == [3]
    rows = expected_rows("embedding-paging")
    rows[0]["payload_bytes"] += 1
    _, bad = checks.check_rows(rows, emb.config(), expected, False)
    assert set(bad) == set(range(5))
    first = checks.csv_lines(expected_rows("embedding-paging"))
    rows = expected_rows("embedding-paging")
    rows[2]["total_cycles"] += 1
    _, bad = checks.check_rows(rows, emb.config(), expected, False, first)
    assert list(bad) == [2]


def test_benchmark_json_lists_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = list(Tracer().metrics([])) + ["trace.overhead_ratio"]
    assert per_layer == {n: run.unit_of(n) for n in names}
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert end_to_end == {k: u for k, u in run.END_TO_END_UNITS.items()
                          if k not in run.PRINTED_ONLY}
    assert [w["name"] for w in spec["workloads"]] == list(suite.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "gemv-baseline",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
