"""Remote-embedding strategies: bounce copy, fine-grained NUMA, demand paging."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from npusim import config as cfgmod
from npusim import harness, numa as numa_mod
from npusim.address_space import PageSize, vpn
from npusim.memory import LinksConfig
from npusim.mmu import MmuConfig, drain_trace
from npusim.numa import (
    run_baseline_copy,
    run_demand_paging,
    run_numa,
    translate_gathers,
)
from npusim.page_table import build
from npusim.workloads import (
    EmbeddingModel,
    Placement,
    embedding_segments,
    gather_trace,
    table_segment,
)
from walk_reference import RecordingEngine, reference_frame

ROOT = Path(__file__).resolve().parents[1]
NEUMMU = MmuConfig(**cfgmod.load_config(str(ROOT / "configs" / "neummu.yaml"))["mmu"])
PCIE = LinksConfig().pcie
NVLINK = LinksConfig().nvlink

PS4K = PageSize.SMALL_4K
PS2M = PageSize.LARGE_2M


# the placement that trace_for() uses by default
PLACEMENT = Placement.round_robin(4, 4)


def trace_for(num_npus=4, tables=4, batch=64, rows=4096, seed=11,
              distribution="uniform", npu=0):
    m = EmbeddingModel(
        tables=tables, rows=rows, batch=batch,
        index_distribution=distribution, seed=seed)
    return m, gather_trace(m, Placement.round_robin(tables, num_npus), npu)


def numa(tr, m, link, mmu=NEUMMU):
    """One NUMA row: the trace's translation, then the link arithmetic."""
    return run_numa(tr, m, translate_gathers(tr, m, mmu), link)


def copy(tr, m):
    return run_baseline_copy(tr, m, PCIE)


def demand(tr, m, ps, placement=PLACEMENT, **kwargs):
    return run_demand_paging(tr, m, ps, placement, NVLINK, NEUMMU, **kwargs)


def remote_bytes(tr):
    return sum(g.owner_npu != 0 for g in tr) * 256


def test_baseline_copy_hand_composition():
    m, tr = trace_for()
    bd = copy(tr, m)
    eb = 256
    local = sum(1 for g in tr if g.owner_npu == 0)
    remote = len(tr) - local
    leg = 150 + math.ceil(remote * eb / 16)
    assert bd.remote_leg1 == bd.remote_leg2 == leg
    assert bd.staging == 2 * (100 + math.ceil(remote * eb / 600))
    assert bd.local_cycles == 100 + math.ceil(local * eb / 600)
    assert bd.total_cycles == (bd.local_cycles + bd.remote_leg1
                               + bd.staging + bd.remote_leg2)
    assert bd.payload_bytes == len(tr) * eb


def test_numa_fast_beats_slow_beats_copy():
    m, tr = trace_for()
    bounce = copy(tr, m)
    slow = numa(tr, m, PCIE)
    fast = numa(tr, m, NVLINK)
    assert fast.total_cycles <= slow.total_cycles < bounce.total_cycles


def test_numa_remote_phase_is_max_of_translation_and_transfer():
    m, tr = trace_for()
    bd = numa(tr, m, NVLINK)
    transfer = math.ceil(remote_bytes(tr) / NVLINK.bandwidth_bytes_per_cycle)
    assert bd.numa_transfer_cycles == 150 + transfer
    assert bd.total_cycles == (bd.local_cycles + 150
                               + max(bd.translation_cycles, transfer))


def test_numa_payload_conserved_across_strategies():
    m, tr = trace_for()
    results = [copy(tr, m),
               numa(tr, m, PCIE),
               numa(tr, m, NVLINK),
               demand(tr, m, PS4K)[0]]
    assert {bd.payload_bytes for bd in results} == {len(tr) * 256}


def test_demand_paging_migrates_whole_pages():
    m, tr = trace_for()
    bd, _ = demand(tr, m, PS4K)
    assert bd.faults > 0
    assert bd.migration_bytes == bd.faults * 4096
    assert bd.migration_bytes % 4096 == 0
    assert bd.migration_cycles == bd.faults * (150 + math.ceil(4096 / 160))


def test_demand_paging_second_pass_is_fault_free():
    m, tr = trace_for()
    bd1, pt = demand(tr, m, PS4K)
    bd2, _ = demand(tr, m, PS4K, page_table=pt)
    assert bd1.faults > 0
    assert bd2.faults == 0
    assert bd2.migration_bytes == 0
    assert bd2.total_cycles < bd1.total_cycles


def test_demand_paging_maps_own_tables_without_gathers():
    # ownership comes from the placement, not from the gathers in the trace
    m, tr = trace_for()
    own = [t for t, owner in enumerate(PLACEMENT.table_to_npu) if owner == 0]
    rest = [g for g in tr if g.table not in own]
    assert own and len(rest) < len(tr)
    _, pt = demand(rest, m, PS4K)
    for t in own:
        assert all(reference_frame(pt, p) is not None
                   for p in table_segment(m, t).vpn_range(PS4K))


def test_large_pages_fault_less_but_move_more():
    # sparse uniform access over a large table: few 2M faults cover many rows
    m, tr = trace_for(rows=65536, batch=256)
    small, _ = demand(tr, m, PS4K)
    large, _ = demand(tr, m, PS2M)
    assert large.faults < small.faults
    assert large.migration_bytes > small.migration_bytes
    assert large.fault_handling_cycles < small.fault_handling_cycles


def test_page_ratio_is_512():
    assert PS2M.bytes // PS4K.bytes == 512


def test_local_only_trace_has_no_remote_terms():
    m, tr = trace_for(num_npus=1)
    assert tr and remote_bytes(tr) == 0
    for bd in (copy(tr, m), numa(tr, m, NVLINK)):
        assert bd.remote_leg1 == bd.staging == bd.remote_leg2 == 0
        assert bd.numa_transfer_cycles == 0
    bd, _ = demand(tr, m, PS4K, Placement.round_robin(4, 1))
    assert bd.faults == 0


def test_numa_requires_mapped_tables():
    m, tr = trace_for()
    from npusim.page_table import PageTable
    for mmu in (NEUMMU, MmuConfig(mode="oracle")):
        with pytest.raises(RuntimeError):
            translate_gathers(tr, m, mmu, page_table=PageTable(PS4K))


def test_a_table_of_another_page_size_is_refused():
    # a 4 KB walk of a 2 MB table would read a large page's frame as a
    # child node; the caller's table must hold the pages it asks for
    m, tr = trace_for()
    large = build(embedding_segments(m), PS2M)
    for mmu in (NEUMMU, MmuConfig(mode="oracle")):
        assert mmu.page_size == "4k"
        with pytest.raises(ValueError, match="LARGE_2M pages, not SMALL_4K"):
            translate_gathers(tr, m, mmu, page_table=large)
    with pytest.raises(ValueError, match="LARGE_2M pages, not SMALL_4K"):
        demand(tr, m, PS4K, page_table=large)
    _, small = demand(tr, m, PS4K)
    with pytest.raises(ValueError, match="SMALL_4K pages, not LARGE_2M"):
        demand(tr, m, PS2M, page_table=small)


def test_more_walkers_shrink_translation_cycles():
    m, tr = trace_for(batch=256)
    few = numa(tr, m, NVLINK, MmuConfig(num_ptws=4, prmb_slots=4,
                                        translation_cache="tpr"))
    many = numa(tr, m, NVLINK, NEUMMU)
    assert many.translation_cycles <= few.translation_cycles


def per_link_numa(tr, m, link, mmu):
    """A NUMA row with its own table, engine and translation, link by link."""
    eb = 256
    engine = RecordingEngine(mmu, build(embedding_segments(m), PS4K))
    vpns = [vpn(table_segment(m, g.table).base + g.row * eb, PS4K) for g in tr]
    translation = drain_trace(engine, vpns)
    assert len(engine.delivered) == len(vpns)
    assert all(c.frame is not None for c in engine.delivered)
    local = sum(1 for g in tr if g.owner_npu == 0)
    remote_bytes = (len(tr) - local) * eb
    transfer = math.ceil(remote_bytes / link.bandwidth_bytes_per_cycle)
    local_cycles = 100 + math.ceil(local * eb / 600)
    return (translation, link.numa_latency + transfer,
            local_cycles + link.numa_latency + max(translation, transfer))


@pytest.mark.parametrize("mmu", [NEUMMU, MmuConfig()])
def test_shared_translation_equals_per_link_runs(mmu):
    m, tr = trace_for(batch=128)
    translation = translate_gathers(tr, m, mmu)
    for kind, link in (("slow", PCIE), ("fast", NVLINK)):
        bd = run_numa(tr, m, translation, link)
        assert bd.strategy == f"numa_{kind}"
        assert ((bd.translation_cycles, bd.numa_transfer_cycles, bd.total_cycles)
                == per_link_numa(tr, m, link, mmu))


def test_strategy_all_translates_once(monkeypatch):
    drains = []
    real = numa_mod.drain_trace

    def counting(engine, vpns, *args):
        drains.append(len(vpns))
        return real(engine, vpns, *args)

    monkeypatch.setattr(numa_mod, "drain_trace", counting)
    cfg = cfgmod.load_config(None)
    cfg["workload"].update(kind="embedding", strategy="all", rows=4096,
                           batch_samples=64)
    rows = {r["strategy"]: r for r in harness.run_single(cfg)}
    assert drains == [(64 // 4) * 4]  # once, for NPU 0's 16 samples x 4 tables
    assert (rows["numa_slow"]["translation_cycles"]
            == rows["numa_fast"]["translation_cycles"] > 0)


def test_large_page_study_script_output():
    # the six table rows at 4096 rows x 4 tables and x 2 tables, seed 0
    expected = {
        "4": [["sequential", "4k", "384", "1.5", "2048.0", "152700", "264840"],
              ["sequential", "2m", "3", "6.0", "2048.0", "300", "84630"],
              ["zipf", "4k", "54", "0.2", "64.0", "20700", "31694"],
              ["zipf", "2m", "3", "6.0", "64.0", "300", "41564"],
              ["sparse", "4k", "46", "0.2", "16.0", "17500", "26044"],
              ["sparse", "2m", "3", "6.0", "16.0", "300", "40522"]],
        "2": [["sequential", "4k", "128", "0.5", "1024.0", "50900", "95756"],
              ["sequential", "2m", "1", "2.0", "1024.0", "100", "35686"],
              ["zipf", "4k", "30", "0.1", "64.0", "11700", "18470"],
              ["zipf", "2m", "1", "2.0", "64.0", "100", "14848"],
              ["sparse", "4k", "29", "0.1", "16.0", "11300", "16852"],
              ["sparse", "2m", "1", "2.0", "16.0", "100", "13806"]],
    }
    for tables, rows in expected.items():
        out = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "large_page_study.py"),
             "--rows", "4096", "--tables", tables, "--seed", "0"],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True, text=True,
            check=True).stdout
        assert [line.split() for line in out.splitlines()[1:]] == rows
