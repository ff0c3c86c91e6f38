"""Embedding-gather case study: CPU bounce-copy baseline, fine-grained
NUMA reads, and demand-paged migration at 4KB or 2MB granularity.

All three strategies move the exact same payload bytes; only the transport
differs. Runs take the perspective of one NPU working through its share of
an all-to-all gather:

  * baseline copy: the NPU has no MMU, so every remote embedding bounces
    source-NPU -> CPU memory -> destination NPU over the CPU interconnect,
    with a staging write+read in CPU DRAM.
  * NUMA: remote embeddings are read in place over the chosen interconnect;
    translations run through the cycle-level MMU (or, in oracle mode, one
    completes per cycle) and overlap the transfer stream. The translation
    does not depend on the link, so both links share one
    `translate_gathers` result.
  * demand paging: remote pages start unmapped locally; first touch walks
    to the fault, migrates the whole page across the link, maps it, and
    retries locally.

CPU staging cost is modeled as one DRAM write plus one DRAM read with the
same fixed-latency DRAM parameters (a documented floor, not a measured CPU
model).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .address_space import PAGE_SIZES, PageSize, vpn as vpn_of
from .memory import DramConfig, LinkConfig, link_transfer_cycles
from .mmu import MmuConfig, TranslationEngine, drain_trace
from .page_table import PageTable, build, fault_depth
from .workloads import (
    EmbeddingModel,
    GatherRequest,
    Placement,
    embedding_segments,
    table_segment,
)

@dataclass
class LatencyBreakdown:
    strategy: str
    total_cycles: int = 0
    local_cycles: int = 0
    remote_leg1: int = 0          # baseline: source NPU -> CPU
    staging: int = 0              # baseline: CPU DRAM write + read
    remote_leg2: int = 0          # baseline: CPU -> this NPU
    translation_cycles: int = 0
    numa_transfer_cycles: int = 0
    fault_handling_cycles: int = 0
    migration_cycles: int = 0
    migration_bytes: int = 0
    faults: int = 0
    payload_bytes: int = 0


# NUMA strategy name by the kind of link it reads over
_NUMA_STRATEGY = {"pcie": "numa_slow", "nvlink": "numa_fast"}


def _split(trace: List[GatherRequest], npu_id: int,
           embedding_bytes: int) -> Tuple[int, int]:
    """Local and remote payload bytes of `trace` as seen by NPU `npu_id`."""
    local = sum(1 for g in trace if g.owner_npu == npu_id) * embedding_bytes
    return local, len(trace) * embedding_bytes - local


def _dram_read(nbytes: int, dram: DramConfig) -> int:
    if nbytes == 0:
        return 0
    return dram.access_latency + math.ceil(nbytes / dram.bandwidth_bytes_per_cycle)


def run_baseline_copy(
    trace: List[GatherRequest],
    model: EmbeddingModel,
    cpu_link: LinkConfig,
    dram: DramConfig = DramConfig(),
    npu_id: int = 0,
) -> LatencyBreakdown:
    """MMU-less bounce copy through CPU memory (two interconnect legs)."""
    local_bytes, remote_bytes = _split(trace, npu_id, model.embedding_bytes)
    bd = LatencyBreakdown("baseline_copy", payload_bytes=local_bytes + remote_bytes)
    bd.local_cycles = _dram_read(local_bytes, dram)
    if remote_bytes:
        bd.remote_leg1 = bd.remote_leg2 = link_transfer_cycles(remote_bytes, cpu_link)
        bd.staging = 2 * _dram_read(remote_bytes, dram)
    bd.total_cycles = bd.local_cycles + bd.remote_leg1 + bd.staging + bd.remote_leg2
    return bd


def translate_gathers(
    trace: List[GatherRequest],
    model: EmbeddingModel,
    mmu: MmuConfig,
    page_table: Optional[PageTable] = None,
) -> int:
    """Cycles to translate every gather of `trace` through the MMU.

    Gathers are submitted at one per cycle, blocked ones retried, until the
    last translation completes (`drain_trace`, which keeps no completion;
    a fault is read off the engine's stats); under the oracle MMU that is
    one cycle per gather. The engine has no DRAM, so its walk reads are
    never charged bandwidth. Pages are `mmu.page_size`. `page_table` must
    map every table (built from `embedding_segments` when not given) and
    hold pages of that size, or ValueError is raised; a fault raises
    RuntimeError.
    """
    ps = PAGE_SIZES[mmu.page_size]
    if page_table is None:
        page_table = build(embedding_segments(model), ps)
    else:
        _check_page_size(page_table, ps)
    eb = model.embedding_bytes
    bases = _table_bases(model)
    vpns = [vpn_of(bases[g.table] + g.row * eb, ps) for g in trace]
    if mmu.mode == "oracle":
        cycles = len(vpns)
        walk = page_table.walk_outcome
        faulted = any(walk(v)[0] is None for v in vpns)
    else:
        engine = TranslationEngine(mmu, page_table)
        cycles = drain_trace(engine, vpns)
        faulted = engine.stats.faults > 0
    if faulted:
        raise RuntimeError("NUMA gather faulted; remote pages must be mapped")
    return cycles


def run_numa(
    trace: List[GatherRequest],
    model: EmbeddingModel,
    translation_cycles: int,
    link: LinkConfig,
    dram: DramConfig = DramConfig(),
    npu_id: int = 0,
) -> LatencyBreakdown:
    """Fine-grained NUMA gathers over the slow (PCIe) or fast (NVLink) link.

    `translation_cycles` is `translate_gathers` of the same trace; the
    translations overlap the remote transfer stream, so the slower of the
    two paces the remote phase.
    """
    local_bytes, remote_bytes = _split(trace, npu_id, model.embedding_bytes)
    bd = LatencyBreakdown(_NUMA_STRATEGY[link.kind],
                          payload_bytes=local_bytes + remote_bytes,
                          translation_cycles=translation_cycles)
    bd.local_cycles = _dram_read(local_bytes, dram)
    remote_phase = translation_cycles
    if remote_bytes:
        bd.numa_transfer_cycles = link_transfer_cycles(remote_bytes, link)
        remote_phase = max(link.numa_latency + translation_cycles,
                           bd.numa_transfer_cycles)
    bd.total_cycles = bd.local_cycles + remote_phase
    return bd


def run_demand_paging(
    trace: List[GatherRequest],
    model: EmbeddingModel,
    ps: PageSize,
    placement: Placement,
    link: LinkConfig,
    mmu: MmuConfig,
    dram: DramConfig = DramConfig(),
    npu_id: int = 0,
    page_table: Optional[PageTable] = None,
) -> Tuple[LatencyBreakdown, PageTable]:
    """Fault-and-migrate remote pages into local memory, then gather locally.

    The local table starts with the tables `placement` gives this NPU
    mapped, whether or not the trace gathers from them. Of `mmu`, only the
    walk and TLB-hit latencies are read. A given `page_table` must hold
    pages of size `ps`, or ValueError is raised. Returns the breakdown and
    the (mutated) local page table so a second pass can demonstrate fault
    idempotence.
    """
    eb = model.embedding_bytes
    tag = "4k" if ps is PageSize.SMALL_4K else "2m"
    bd = LatencyBreakdown(f"demand_{tag}", payload_bytes=len(trace) * eb)

    if page_table is None:
        page_table = build(
            [table_segment(model, t) for t, owner in enumerate(placement.table_to_npu)
             if owner == npu_id],
            ps,
        )
    else:
        _check_page_size(page_table, ps)

    bases = _table_bases(model)
    for g in trace:
        if g.owner_npu == npu_id:
            continue
        page = vpn_of(bases[g.table] + g.row * eb, ps)
        frame, fault_level = page_table.walk_outcome(page)
        if frame is None:
            bd.fault_handling_cycles += (fault_depth(fault_level)
                                         * mmu.walk_cycles_per_level)
            bd.faults += 1
            page_table.map_page(page)

    bd.migration_cycles = bd.faults * link_transfer_cycles(ps.bytes, link)
    bd.migration_bytes = bd.faults * ps.bytes
    bd.local_cycles = (_dram_read(len(trace) * eb, dram)
                       + len(trace) * mmu.tlb_hit_latency)
    bd.total_cycles = (bd.local_cycles + bd.fault_handling_cycles
                       + bd.migration_cycles)
    return bd, page_table


def _check_page_size(page_table: PageTable, ps: PageSize) -> None:
    if page_table.page_size is not ps:
        raise ValueError(f"page table holds {page_table.page_size.name} "
                         f"pages, not {ps.name}")


def _table_bases(model: EmbeddingModel) -> List[int]:
    return [table_segment(model, t).base for t in range(model.tables)]
