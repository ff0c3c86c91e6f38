"""The benchmark's workloads: config overrides on the shipped defaults.

Every workload runs single-process through the public entry points
``harness.run_single`` / ``harness.sweep`` (``jobs=1``). Each call builds
fresh page tables, engines and DRAM models, so the modelled TLB, walkers,
merge buffers and translation caches start cold in every model layer.

Only ``embedding-paging`` depends on the seed: the harness passes it to
the gather trace through ``seed_for(seed, "gather")``. The dense workloads
give the same rows for every seed apart from the ``seed`` column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from npusim import config as cfgmod
from npusim import harness

Rows = List[Dict[str, Any]]


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: Dict[str, Any]                     # dotted key -> value
    axes: Sequence[Tuple[str, Sequence[Any]]]     # sweep axes; empty = one run
    model_layers: Tuple[str, ...]                 # dense layers per point
    dense: bool

    @property
    def sweep_points(self) -> int:
        points = 1
        for _, values in self.axes:
            points *= len(values)
        return points

    def config(self) -> Dict[str, Any]:
        cfg = cfgmod.load_config()
        cfg["config_id"] = self.name
        for key, value in self.overrides.items():
            cfgmod.set_by_path(cfg, key, value)
        return cfg

    def execute(self, cfg: Dict[str, Any], seed: int) -> Rows:
        if self.axes:
            return harness.sweep(cfg, self.axes, seed=seed, jobs=1)
        return harness.run_single(cfg, seed=seed)


# The walkers are the bottleneck: most modelled submits come back BLOCKED.
# Stands in for cnn/b01, whose fc-a is a GEMV of the same kind but which
# takes 70-80 s per run.
GEMV_BASELINE = Workload(
    name="gemv-baseline",
    overrides={"workload.suite": "gemv-rnn", "workload.batch": "b01"},
    axes=(),
    model_layers=("gemv-1", "gemv-2", "gemv-3"),
    dense=True,
)

# Runs the merge buffers and all three translation caches; the oracle is
# recomputed identically at every point. The weight partition is shrunk as
# in scripts/sensitivity_sweep.py to keep tiles translation-bound.
BURST_DESIGN_SWEEP = Workload(
    name="burst-design-sweep",
    overrides={
        "workload.suite": "burst",
        "workload.batch": "b01",
        "npu.spm_weight_bytes": 1024 * 1024,
        "mmu.prmb_slots": 32,
        "mmu.cache_entries": 8,
    },
    axes=(("mmu.num_ptws", (8, 128)),
          ("mmu.translation_cache", ("none", "tpr", "tpc", "uptc"))),
    model_layers=("burst-gemm",),
    dense=True,
)

# The page table is written as well as read: demand paging interleaves
# map_page with walk_path. The MMU is the NeuMMU point of
# scripts/numa_case_study.py. No NPU tile loop or oracle runs here.
EMBEDDING_PAGING = Workload(
    name="embedding-paging",
    overrides={
        "workload.kind": "embedding",
        "workload.strategy": "all",
        "workload.num_npus": 8,
        "workload.tables": 8,
        "workload.rows": 524288,
        "workload.batch_samples": 16384,
        "workload.distribution": "uniform",
        "mmu.num_ptws": 128,
        "mmu.prmb_slots": 32,
        "mmu.translation_cache": "tpr",
    },
    axes=(),
    model_layers=(),
    dense=False,
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (GEMV_BASELINE, BURST_DESIGN_SWEEP, EMBEDDING_PAGING)
}

# Layers whose per-layer run_layer time the traced run reports.
TRACED_LAYERS: Tuple[str, ...] = tuple(
    layer for w in WORKLOADS.values() for layer in w.model_layers)
