"""Embedding-gather case study: CPU bounce-copy baseline, fine-grained
NUMA reads, and demand-paged migration at 4KB or 2MB granularity.

All three strategies move the exact same payload bytes; only the transport
differs. Runs take the perspective of one NPU working through its share of
an all-to-all gather:

  * baseline copy: the NPU has no MMU, so every remote embedding bounces
    source-NPU -> CPU memory -> destination NPU over the CPU interconnect,
    with a staging write+read in CPU DRAM.
  * NUMA: remote embeddings are read in place over the chosen interconnect;
    translations run through the cycle-level MMU and overlap the transfer
    stream.
  * demand paging: remote pages start unmapped locally; first touch walks
    to the fault, migrates the whole page across the link, maps it, and
    retries locally.

CPU staging cost is modeled as one DRAM write plus one DRAM read with the
same fixed-latency DRAM parameters (a documented floor, not a measured CPU
model). Fault-handling software overhead defaults to zero cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .address_space import PageSize, vpn as vpn_of
from .memory import DramConfig, LinkConfig, NVLINK_LINK, PCIE_LINK
from .mmu import MmuConfig, TranslationEngine, drain_trace
from .page_table import PageTable, build
from .workloads import (
    EmbeddingModel,
    GatherRequest,
    Placement,
    embedding_segments,
    table_segment,
)

# Throughput-oriented MMU used by the NUMA and demand-paging paths.
DEFAULT_NUMA_MMU = MmuConfig(num_ptws=128, prmb_slots=32, translation_cache="tpr")


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
    bloat_bytes: int = 0
    faults: int = 0
    payload_bytes: int = 0
    local_count: int = 0
    remote_count: int = 0


def _split(trace: List[GatherRequest], npu_id: int,
           embedding_bytes: int) -> Tuple[int, int, int, int]:
    local = sum(1 for g in trace if g.owner_npu == npu_id)
    remote = len(trace) - local
    return local, remote, local * embedding_bytes, remote * embedding_bytes


def _dram_read(nbytes: int, dram: DramConfig) -> int:
    if nbytes == 0:
        return 0
    return dram.access_latency + math.ceil(nbytes / dram.bandwidth_bytes_per_cycle)


def run_baseline_copy(
    trace: List[GatherRequest],
    model: EmbeddingModel,
    npu_id: int = 0,
    cpu_link: LinkConfig = PCIE_LINK,
    dram: DramConfig = DramConfig(),
    per_embedding: bool = False,
) -> LatencyBreakdown:
    """MMU-less bounce copy through CPU memory (two interconnect legs)."""
    eb = model.tables[0].embedding_bytes
    local_n, remote_n, local_bytes, remote_bytes = _split(trace, npu_id, eb)
    bd = LatencyBreakdown("baseline_copy", payload_bytes=local_bytes + remote_bytes,
                          local_count=local_n, remote_count=remote_n)
    bd.local_cycles = _dram_read(local_bytes, dram)
    if remote_bytes:
        if per_embedding:
            leg = remote_n * (cpu_link.numa_latency
                              + math.ceil(eb / cpu_link.bandwidth_bytes_per_cycle))
            stage = remote_n * 2 * _dram_read(eb, dram)
        else:
            leg = (cpu_link.numa_latency
                   + math.ceil(remote_bytes / cpu_link.bandwidth_bytes_per_cycle))
            stage = 2 * _dram_read(remote_bytes, dram)
        bd.remote_leg1 = leg
        bd.staging = stage
        bd.remote_leg2 = leg
    bd.total_cycles = bd.local_cycles + bd.remote_leg1 + bd.staging + bd.remote_leg2
    return bd


def run_numa(
    trace: List[GatherRequest],
    model: EmbeddingModel,
    link_kind: str = "fast",
    npu_id: int = 0,
    mmu: MmuConfig = DEFAULT_NUMA_MMU,
    dram: DramConfig = DramConfig(),
    ps: PageSize = PageSize.SMALL_4K,
    page_table: Optional[PageTable] = None,
    link: Optional[LinkConfig] = None,
) -> LatencyBreakdown:
    """Fine-grained NUMA gathers over the slow (PCIe) or fast (NVLink) link.

    Remote pages are mapped in a shared table; every gather is translated
    through the MMU at one submission per cycle, overlapped with the
    remote transfer stream. `link` defaults to the module's PCIe or NVLink
    constant for `link_kind`.
    """
    if link is None:
        link = NVLINK_LINK if link_kind == "fast" else PCIE_LINK
    eb = model.tables[0].embedding_bytes
    local_n, remote_n, local_bytes, remote_bytes = _split(trace, npu_id, eb)
    bd = LatencyBreakdown(f"numa_{link_kind}", payload_bytes=local_bytes + remote_bytes,
                          local_count=local_n, remote_count=remote_n)

    if page_table is None:
        page_table = build(embedding_segments(model), ps)
    engine = TranslationEngine(mmu, page_table, ps)
    bases = _table_bases(model)
    vpns = [vpn_of(bases[g.table] + g.row * eb, ps) for g in trace]
    bd.translation_cycles, comps = drain_trace(engine, vpns)
    if any(c.fault for c in comps):
        raise RuntimeError("NUMA gather faulted; remote pages must be mapped")

    bd.local_cycles = _dram_read(local_bytes, dram)
    transfer = math.ceil(remote_bytes / link.bandwidth_bytes_per_cycle) if remote_bytes else 0
    bd.numa_transfer_cycles = (link.numa_latency + transfer) if remote_bytes else 0
    # translations pipeline against the transfer stream; the slower of the
    # two paces the remote phase
    remote_phase = (link.numa_latency + max(bd.translation_cycles, transfer)
                    if remote_bytes else bd.translation_cycles)
    bd.total_cycles = bd.local_cycles + remote_phase
    return bd


def run_demand_paging(
    trace: List[GatherRequest],
    model: EmbeddingModel,
    ps: PageSize,
    placement: Placement,
    npu_id: int = 0,
    link: LinkConfig = NVLINK_LINK,
    dram: DramConfig = DramConfig(),
    mmu: MmuConfig = DEFAULT_NUMA_MMU,
    fault_overhead_cycles: int = 0,
    page_table: Optional[PageTable] = None,
) -> Tuple[LatencyBreakdown, PageTable]:
    """Fault-and-migrate remote pages into local memory, then gather locally.

    The local table starts with the tables `placement` gives this NPU
    mapped, whether or not the trace gathers from them. Returns the
    breakdown and the (mutated) local page table so a second pass can
    demonstrate fault idempotence.
    """
    eb = model.tables[0].embedding_bytes
    local_n, remote_n, local_bytes, remote_bytes = _split(trace, npu_id, eb)
    tag = "4k" if ps is PageSize.SMALL_4K else "2m"
    bd = LatencyBreakdown(f"demand_{tag}", payload_bytes=local_bytes + remote_bytes,
                          local_count=local_n, remote_count=remote_n)

    if page_table is None:
        page_table = build(
            [table_segment(model, t) for t, owner in enumerate(placement.table_to_npu)
             if owner == npu_id],
            ps,
        )

    bases = _table_bases(model)
    for g in trace:
        if g.owner_npu == npu_id:
            continue
        page = vpn_of(bases[g.table] + g.row * eb, ps)
        path = page_table.walk_path(page, ps)
        last = path[-1]
        if not (last.present and last.is_leaf):
            bd.fault_handling_cycles += (len(path) * mmu.walk_cycles_per_level
                                         + fault_overhead_cycles)
            bd.migration_cycles += (link.numa_latency
                                    + math.ceil(ps.bytes / link.bandwidth_bytes_per_cycle))
            bd.migration_bytes += ps.bytes
            bd.faults += 1
            page_table.map_page(page, ps)

    bd.local_cycles = (_dram_read(len(trace) * eb, dram)
                       + len(trace) * mmu.tlb_hit_latency)
    bd.bloat_bytes = max(0, bd.migration_bytes - remote_bytes)
    bd.total_cycles = (bd.local_cycles + bd.fault_handling_cycles
                       + bd.migration_cycles)
    return bd, page_table


def _table_bases(model: EmbeddingModel) -> List[int]:
    return [table_segment(model, t).base for t in range(len(model.tables))]
