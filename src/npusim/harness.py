"""Experiment runner: single runs, parameter sweeps, CSV emission, reports.

Every run produces one CSV row per layer (dense workloads) or per strategy
(embedding workloads) against a versioned, order-stable column set. Each
dense layer runs once under the `Oracle` MMU, so every row carries its own
normalization baseline; in oracle mode that run is the row's own, and its
MMU counters are zero. Embedding rows in oracle mode translate gathers in
closed form (`translate_gathers`).

A dense layer's fetch plan (`npu.plan_layer`: tile steps and page runs)
depends only on the layer, the NPU config and the page size, never on the
MMU. Each `run_single` or `sweep` call owns one dict of plans under that
key: the oracle and modelled runs of a layer share its plan, and a serial
sweep shares it across every point. The dict is dropped when the call
returns, so no plan outlives the call that built it; with worker processes
each point builds its own.
"""

from __future__ import annotations

import copy
import csv
import io
import itertools
from dataclasses import asdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import config as cfgmod
from .address_space import PAGE_SIZES, PageSize
from .energy import EnergyTable, account
from .memory import Dram, DramConfig, LinksConfig
from .mmu import MmuConfig, Oracle, TranslationEngine, TranslationStats
from .npu import (LayerConfig, LayerPlan, NpuConfig, layer_segments, plan_layer,
                  run_layer)
from .numa import (
    LatencyBreakdown,
    run_baseline_copy,
    run_demand_paging,
    run_numa,
    translate_gathers,
)
from .page_table import build
from .workloads import (
    STRATEGIES,
    WorkloadConfig,
    dense_suite,
    gather_trace,
)

CSV_SCHEMA_VERSION = 1

CSV_COLUMNS = [
    "csv_schema", "config_id", "seed", "workload", "mode", "strategy",
    "total_cycles", "oracle_cycles", "mmu_overhead_pct", "tlb_hit_rate",
    "walks_started", "walk_mem_txns", "pts_merges", "blocked_cycles",
    "tpr_hit_l4", "tpr_hit_l3", "tpr_hit_l2", "energy_pj_total",
    "local_cycles", "remote_leg1", "staging", "remote_leg2",
    "translation_cycles", "numa_transfer_cycles", "fault_handling_cycles",
    "migration_cycles", "migration_bytes", "payload_bytes", "faults",
]


def _blank_row(cfg: Dict[str, Any], seed: int) -> Dict[str, Any]:
    row = {c: "" for c in CSV_COLUMNS}
    row["csv_schema"] = CSV_SCHEMA_VERSION
    row["config_id"] = cfg["config_id"]
    row["seed"] = seed
    return row


# A call's fetch plans, keyed on all that a plan depends on.
Plans = Dict[Tuple[LayerConfig, NpuConfig, PageSize], LayerPlan]


def _run_dense(cfg: Dict[str, Any], seed: int, plans: Plans) -> List[Dict[str, Any]]:
    wl = WorkloadConfig(**cfg["workload"])
    npu = NpuConfig(**cfg["npu"])
    mmu = MmuConfig(**cfg["mmu"])
    dram_cfg = DramConfig(**cfg["memory"])
    ps = PAGE_SIZES[mmu.page_size]
    etable = EnergyTable(**cfg["energy"])
    layers = dense_suite(wl.suite, npu.element_bytes)[wl.batch]

    rows = []
    for layer in layers:
        key = (layer, npu, ps)
        plan = plans.get(key)
        if plan is None:
            plan = plans[key] = plan_layer(layer, npu, ps)
        pt = build(layer_segments(layer, npu), ps)
        oracle = run_layer(layer, npu, Oracle(pt), Dram(dram_cfg), plan)
        # an oracle-mode row is its own baseline, with zero MMU counters
        total, stats = oracle, TranslationStats()
        if mmu.mode != "oracle":
            dram = Dram(dram_cfg)
            engine = TranslationEngine(mmu, pt, dram=dram)
            total = run_layer(layer, npu, engine, dram, plan)
            stats = engine.stats

        energy = account(stats, etable)
        overhead = 100.0 * (total - oracle) / oracle if oracle else 0.0
        row = _blank_row(cfg, seed)
        row.update({
            "workload": f"{wl.suite}/{wl.batch}/{layer.name}",
            "mode": mmu.mode,
            "total_cycles": total,
            "oracle_cycles": oracle,
            "mmu_overhead_pct": overhead,
            "tlb_hit_rate": stats.tlb_hit_rate,
            "walks_started": stats.walks_started,
            "walk_mem_txns": stats.walk_memory_transactions,
            "pts_merges": stats.scoreboard_merges,
            "blocked_cycles": stats.blocked_cycles,
            "tpr_hit_l4": stats.cache_hit_l4,
            "tpr_hit_l3": stats.cache_hit_l3,
            "tpr_hit_l2": stats.cache_hit_l2,
            "energy_pj_total": energy.total_pj,
        })
        rows.append(row)
    return rows


def _run_embedding(cfg: Dict[str, Any], seed: int) -> List[Dict[str, Any]]:
    wl = WorkloadConfig(**cfg["workload"])
    trace = gather_trace(wl, cfgmod.seed_for(seed, "gather"))
    dram = DramConfig(**cfg["memory"])
    links = LinksConfig(**cfg["links"])
    mmu = MmuConfig(**cfg["mmu"])

    strategies = STRATEGIES if wl.strategy == "all" else (wl.strategy,)
    breakdowns: List[LatencyBreakdown] = []
    translation_cycles = None  # shared by both NUMA links
    for strat in strategies:
        if strat == "baseline_copy":
            breakdowns.append(run_baseline_copy(trace, wl, links.pcie, dram))
        elif strat in ("numa_slow", "numa_fast"):
            if translation_cycles is None:
                translation_cycles = translate_gathers(trace, wl, mmu)
            link = links.nvlink if strat == "numa_fast" else links.pcie
            breakdowns.append(run_numa(trace, wl, translation_cycles, link, dram))
        else:
            bd, _ = run_demand_paging(trace, wl, PAGE_SIZES[strat.split("_")[1]],
                                      links.nvlink, mmu, dram)
            breakdowns.append(bd)

    rows = []
    wl_name = (f"embedding/{wl.tables}x{wl.rows}"
               f"/{wl.distribution}/b{wl.batch_samples}")
    for bd in breakdowns:
        row = _blank_row(cfg, seed)
        row.update(asdict(bd), workload=wl_name, mode=mmu.mode)
        rows.append(row)
    return rows


def _require_valid(cfg: Dict[str, Any]) -> None:
    errors = cfgmod.validate(cfg)
    if errors:
        raise cfgmod.ConfigError(errors)


def _run(cfg: Dict[str, Any], seed: Optional[int], plans: Plans) -> List[Dict[str, Any]]:
    _require_valid(cfg)
    if seed is None:
        seed = cfg["seeds"]["master"]
    if cfg["workload"]["kind"] == "dense":
        return _run_dense(cfg, seed, plans)
    return _run_embedding(cfg, seed)


def run_single(cfg: Dict[str, Any], seed: Optional[int] = None) -> List[Dict[str, Any]]:
    return _run(cfg, seed, {})


def _sweep_one(args) -> List[Dict[str, Any]]:
    cfg, seed = args
    return run_single(cfg, seed)


def sweep(
    cfg: Dict[str, Any],
    items: Sequence[Tuple[str, Sequence[Any]]],
    seed: Optional[int] = None,
    jobs: int = 1,
) -> List[Dict[str, Any]]:
    """Cross-product sweep; rows are independent and declaration-ordered."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    _require_valid(cfg)  # point ids are composed from the base config
    keys = [cfgmod.resolve_key(cfg, key) for key, _ in items]  # fail fast
    twice = sorted({key for key in keys if keys.count(key) > 1})
    if twice:
        # the later axis would overwrite the earlier one's values, and the
        # rows would be labelled with values they did not run at
        raise cfgmod.ConfigError([f"sweep key {key!r} is on more than one axis"
                                  for key in twice])
    combos = list(itertools.product(*[vals for _, vals in items]))
    tasks = []
    for combo in combos:
        sub = copy.deepcopy(cfg)
        suffix = []
        for (key, _), value in zip(items, combo):
            cfgmod.set_by_path(sub, key, value)
            suffix.append(f"{key.split('.')[-1]}={value}")
        sub["config_id"] = cfg["config_id"]
        if suffix:
            sub["config_id"] += "+" + ",".join(suffix)
        tasks.append((sub, seed))
    # a fork pool starts all its workers up front: no more than the points
    workers = min(jobs, len(tasks))
    if workers > 1:
        # here, so start-up does not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_one, tasks))
    else:
        plans: Plans = {}
        results = [_run(sub, s, plans) for sub, s in tasks]
    return [row for rows in results for row in rows]


def _format_cell(v: Any) -> str:
    if isinstance(v, float):
        return format(v, ".6g")
    return str(v)


def write_csv(rows: List[Dict[str, Any]], stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_format_cell(row.get(c, "")) for c in CSV_COLUMNS])


def rows_to_csv(rows: List[Dict[str, Any]]) -> str:
    buf = io.StringIO()
    write_csv(rows, buf)
    return buf.getvalue()


def read_csv(path: str) -> List[Dict[str, str]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_COLUMNS:
            raise ValueError(f"{path}: column set does not match schema "
                             f"v{CSV_SCHEMA_VERSION}")
        return [dict(zip(header, line)) for line in reader]


def report(csv_paths: Sequence[str]) -> str:
    """Summaries: oracle-normalized performance, NUMA reductions, energy."""
    if not csv_paths:
        raise ValueError("report needs at least one CSV")
    rows: List[Dict[str, str]] = []
    for path in csv_paths:
        rows.extend(read_csv(path))
    if not rows:
        raise ValueError("no data rows in input CSVs")

    lines: List[str] = []
    dense = [r for r in rows if not r["strategy"]]
    if dense:
        lines.append("== performance (normalized to oracle) ==")
        lines.append(f"{'workload':40s} {'config':30s} {'cycles':>12s} "
                     f"{'norm':>7s} {'overhead%':>10s}")
        for r in dense:
            total = int(r["total_cycles"])
            oracle = int(r["oracle_cycles"])
            norm = oracle / total if total else 0.0
            lines.append(f"{r['workload']:40s} {r['config_id']:30s} "
                         f"{total:12d} {norm:7.3f} {float(r['mmu_overhead_pct']):10.2f}")

    numa_rows = [r for r in rows if r["strategy"]]
    if numa_rows:
        lines.append("")
        lines.append("== embedding gather latency (reduction vs baseline copy) ==")
        by_wl: Dict[Tuple[str, str], List[Dict[str, str]]] = {}
        for r in numa_rows:
            by_wl.setdefault((r["workload"], r["config_id"]), []).append(r)
        for (wl, cid), group in by_wl.items():
            base = next((int(r["total_cycles"]) for r in group
                         if r["strategy"] == "baseline_copy"), None)
            for r in group:
                total = int(r["total_cycles"])
                red = ""
                if base and r["strategy"] != "baseline_copy":
                    red = f"{100.0 * (base - total) / base:8.1f}%"
                lines.append(f"{wl:40s} {cid:30s} {r['strategy']:15s} "
                             f"{total:12d} {red:>9s}")

    energetic = [r for r in dense if r["energy_pj_total"]]
    if energetic:
        lines.append("")
        lines.append("== translation energy ==")
        for r in energetic:
            lines.append(f"{r['workload']:40s} {r['config_id']:30s} "
                         f"{float(r['energy_pj_total']):14.6g} pJ")
    return "\n".join(lines) + "\n"
