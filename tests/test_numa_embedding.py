"""Remote-embedding strategies: bounce copy, fine-grained NUMA, demand paging."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from npusim import config as cfgmod
from npusim import harness, numa as numa_mod
from npusim.address_space import PageSize, vpn
from npusim.memory import DramConfig, LinksConfig, link_transfer_cycles
from npusim.mmu import MmuConfig, drain_trace
from npusim.numa import (
    LatencyBreakdown,
    run_baseline_copy,
    run_demand_paging,
    run_numa,
    translate_gathers,
)
from npusim.page_table import build, fault_depth
from npusim.workloads import (
    DISTRIBUTIONS,
    GatherTrace,
    WorkloadConfig,
    embedding_segments,
    gather_trace,
    table_segment,
)
from trace_reference import gathers
from walk_reference import RecordingEngine, reference_frame

ROOT = Path(__file__).resolve().parents[1]
NEUMMU = MmuConfig(**cfgmod.load_config(str(ROOT / "configs" / "neummu.yaml"))["mmu"])
PCIE = LinksConfig().pcie
NVLINK = LinksConfig().nvlink

PS4K = PageSize.SMALL_4K
PS2M = PageSize.LARGE_2M


def trace_for(num_npus=4, tables=4, batch=64, rows=4096, seed=11,
              distribution="uniform", npu=0):
    m = WorkloadConfig(
        kind="embedding", num_npus=num_npus, tables=tables, rows=rows,
        batch_samples=batch, distribution=distribution)
    return m, gather_trace(m, seed, npu)


def numa(tr, m, link, mmu=NEUMMU):
    """One NUMA row: the trace's translation, then the link arithmetic."""
    return run_numa(tr, m, translate_gathers(tr, m, mmu), link)


def copy(tr, m):
    return run_baseline_copy(tr, m, PCIE)


def demand(tr, m, ps, **kwargs):
    return run_demand_paging(tr, m, ps, NVLINK, NEUMMU, **kwargs)


def remote_bytes(tr, m):
    return sum(g.owner_npu != 0 for g in gathers(tr, m)) * 256


def test_baseline_copy_hand_composition():
    m, tr = trace_for()
    bd = copy(tr, m)
    eb = 256
    local = sum(1 for g in gathers(tr, m) if g.owner_npu == 0)
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
    transfer = math.ceil(remote_bytes(tr, m) / NVLINK.bandwidth_bytes_per_cycle)
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


def test_demand_paging_maps_own_tables_without_gathers():
    # ownership comes from the round-robin placement, not from the gathers
    # in the trace
    m, tr = trace_for()
    own = [t for t in range(m.tables) if t % m.num_npus == 0]
    rest = GatherTrace.of((g.table, g.row) for g in gathers(tr, m)
                          if g.table not in own)
    assert own and len(rest) < len(tr)
    _, pt = demand(rest, m, PS4K)
    for t in own:
        assert all(reference_frame(pt, p) is not None
                   for p in table_segment(m, t).vpn_range(PS4K))


def gather_page(wl, g, ps):
    return vpn(table_segment(wl, g.table).base + g.row * wl.embedding_bytes, ps)


def per_gather_demand(tr, m, ps, link=NVLINK, mmu=NEUMMU, dram=DramConfig()):
    """`run_demand_paging` with a walk for every remote gather, mapping
    its page when the walk faults."""
    eb = m.embedding_bytes
    bd = LatencyBreakdown(f"demand_{'4k' if ps is PS4K else '2m'}",
                          payload_bytes=len(tr) * eb)
    pt = build([table_segment(m, t) for t in range(0, m.tables, m.num_npus)], ps)
    for g in gathers(tr, m):
        if g.owner_npu != 0:
            frame, level = pt.walk_outcome(gather_page(m, g, ps))
            if frame is None:
                bd.fault_handling_cycles += fault_depth(level) * mmu.walk_cycles_per_level
                bd.faults += 1
                pt.map_page(gather_page(m, g, ps))
    bd.migration_cycles = bd.faults * link_transfer_cycles(ps.bytes, link)
    bd.migration_bytes = bd.faults * ps.bytes
    bd.local_cycles = (dram.access_latency
                       + math.ceil(len(tr) * eb / dram.bandwidth_bytes_per_cycle)
                       + len(tr) * mmu.tlb_hit_latency)
    bd.total_cycles = bd.local_cycles + bd.fault_handling_cycles + bd.migration_cycles
    return bd, pt


def revisiting_traces():
    """A Zipf trace, and one remote page gathered by every sample between
    local gathers."""
    m, zipf = trace_for(batch=256, distribution="zipf")
    one_page = GatherTrace.of(g for sample in range(64)
                              for g in ((0, sample), (1, sample % 8)))
    return [(m, zipf), (m, one_page)]


@pytest.mark.parametrize("ps", [PS4K, PS2M])
@pytest.mark.parametrize("case", [0, 1])
def test_demand_paging_walks_a_page_once_as_every_gather_would(case, ps):
    m, tr = revisiting_traces()[case]
    remote = [gather_page(m, g, ps) for g in gathers(tr, m) if g.owner_npu != 0]
    assert len(set(remote)) < len(remote)     # pages are revisited
    bd, pt = demand(tr, m, ps)
    ref_bd, ref_pt = per_gather_demand(tr, m, ps)
    assert bd.faults > 0
    assert bd == ref_bd
    assert pt.nodes == ref_pt.nodes


# Two remote 4 KB pages, rows 0 and 1 of table 1, in one leaf node: NPU 0
# gathers rows 1, 0, 1 of it at seed 2
TWO_PAGES_ONE_LEAF = dict(num_npus=2, tables=2, distribution="uniform",
                          lookups=3, embedding_bytes=4096, rows=4, batch=2,
                          seed=2, ps=PS4K)
# Tables of one 2 MB page each; tables 1 and 2 are remote
TWO_MB_TABLES = dict(num_npus=3, tables=3, distribution="uniform", lookups=1,
                     embedding_bytes=8192, rows=256, batch=3, seed=0, ps=PS2M)


@settings(max_examples=60, deadline=None)
@given(num_npus=st.integers(1, 5), tables=st.integers(1, 11),
       distribution=st.sampled_from(DISTRIBUTIONS), lookups=st.integers(1, 3),
       embedding_bytes=st.integers(4, 8192), rows=st.integers(3, 4096),
       batch=st.integers(5, 40), seed=st.integers(0, 2**16),
       ps=st.sampled_from([PS4K, PS2M]))
@example(**TWO_PAGES_ONE_LEAF)
@example(**TWO_MB_TABLES)
def test_demand_count_equals_a_walk_per_gather(num_npus, tables, distribution,
                                               lookups, embedding_bytes, rows,
                                               batch, seed, ps):
    m = WorkloadConfig(kind="embedding", num_npus=num_npus, tables=tables,
                       rows=rows, embedding_bytes=embedding_bytes,
                       batch_samples=batch, distribution=distribution,
                       lookups_per_sample=lookups)
    tr = gather_trace(m, seed)
    bd, pt = demand(tr, m, ps)
    ref_bd, ref_pt = per_gather_demand(tr, m, ps)
    for field in LatencyBreakdown._fields:
        assert getattr(bd, field) == getattr(ref_bd, field), field
    assert pt.nodes == ref_pt.nodes


def last_table_trace():
    """Gathers up to the last row of table 254 of 255 tables of 1 TB, which
    ends at 2**48, the top of the address space."""
    m = WorkloadConfig(kind="embedding", tables=255, rows=2**32)
    return m, GatherTrace.of([(254, 2**32 - 1), (254, 0), (253, 2**31), (0, 5),
                              (254, 2**31 + 3)])


@pytest.mark.parametrize("ps", [PS4K, PS2M])
def test_page_numbers_are_address_space_vpns(ps):
    for m, tr in revisiting_traces() + [trace_for(rows=65536, tables=8),
                                        last_table_trace()]:
        assert numa_mod._pages(tr, m, ps) == [gather_page(m, g, ps)
                                              for g in gathers(tr, m)]


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
    assert tr and remote_bytes(tr, m) == 0
    for bd in (copy(tr, m), numa(tr, m, NVLINK)):
        assert bd.remote_leg1 == bd.staging == bd.remote_leg2 == 0
        assert bd.numa_transfer_cycles == 0
    bd, _ = demand(tr, m, PS4K)
    assert bd.faults == 0


def test_numa_requires_mapped_tables():
    # a hand-built gather past the end of its table reads an unmapped page
    m, _ = trace_for()
    tr = GatherTrace.of([(1, 5), (2, m.rows + 100_000)])
    for mmu in (NEUMMU, MmuConfig(mode="oracle")):
        with pytest.raises(RuntimeError):
            translate_gathers(tr, m, mmu)


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
    vpns = [vpn(table_segment(m, g.table).base + g.row * eb, PS4K)
            for g in gathers(tr, m)]
    translation = drain_trace(engine, vpns)
    assert len(engine.delivered) == len(vpns)
    assert all(c.frame is not None for c in engine.delivered)
    local = sum(1 for g in gathers(tr, m) if g.owner_npu == 0)
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


def large_page_study(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "large_page_study.py"), *args],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True)


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
        run = large_page_study("--rows", "4096", "--tables", tables, "--seed", "0")
        assert run.returncode == 0, run.stderr
        assert [line.split() for line in run.stdout.splitlines()[1:]] == rows


def test_large_page_study_reads_inside_small_tables():
    # with 1024-row tables the sequential pattern reads all 1024 rows of
    # each, not rows 0 .. 2047: 4 tables x 1024 rows x 256 B = 1024 KB
    run = large_page_study("--rows", "1024", "--tables", "4")
    assert run.returncode == 0, run.stderr
    sequential = [line.split() for line in run.stdout.splitlines()[1:]
                  if line.split()[0] == "sequential"]
    assert [row[4] for row in sequential] == ["1024.0", "1024.0"]


def test_large_page_study_refuses_an_empty_npu_slice():
    # the sparse batch of 64 samples over 128 NPUs leaves NPU 0 nothing to
    # gather; the script used to print all-zero sparse rows
    run = large_page_study("--rows", "4096", "--tables", "128")
    assert run.returncode != 0
    assert "batch_samples (64) must be >= num_npus (128)" in run.stderr


def test_large_page_study_sequential_needs_no_batch():
    # the sequential pattern draws no samples, so 16 NPUs are fine even
    # though its batch would once have been 8
    run = large_page_study("--rows", "4096", "--tables", "16")
    assert run.returncode == 0, run.stderr
    assert [line.split()[:2] for line in run.stdout.splitlines()[1:]] == [
        [pattern, page] for pattern in ("sequential", "zipf", "sparse")
        for page in ("4k", "2m")]
