"""Embedding-gather case study: CPU bounce-copy baseline, fine-grained
NUMA reads, and demand-paged migration at 4KB or 2MB granularity.

All three strategies move the exact same payload bytes; only the transport
differs. Every run is NPU 0's view of its share of an all-to-all gather:
a gather is local when its table sits on NPU 0, and tables are placed
round-robin (table t on NPU t % num_npus), as `workloads.gather_trace`
places them. The strategies read the sizes of the tables from the same
`WorkloadConfig` record the trace was drawn from. A trace is columns
(`workloads.GatherTrace`), read with array operations: local gathers are
counted, remote ones selected by mask, and page numbers computed in one
pass and turned into a list once. NumPy is imported where a trace is
read, not when this module loads.

  * baseline copy: the NPU has no MMU, so every remote embedding bounces
    source-NPU -> CPU memory -> destination NPU over the CPU interconnect,
    with a staging write+read in CPU DRAM.
  * NUMA: remote embeddings are read in place over the chosen interconnect;
    translations run through the cycle-level MMU (or, in oracle mode, one
    completes per cycle) and overlap the transfer stream. The translation
    does not depend on the link, so both links share one
    `translate_gathers` result.
  * demand paging: remote pages start unmapped locally; first touch
    faults, migrates the whole page across the link, maps it, and retries
    locally. A mapped page stays mapped, so only a page's first touch
    faults, and the walk to that fault is read off the nodes the map adds.

CPU staging cost is modeled as one DRAM write plus one DRAM read with the
same fixed-latency DRAM parameters (a documented floor, not a measured CPU
model).
"""

from __future__ import annotations

import math
from typing import List, Tuple

from .address_space import PAGE_SIZES, PageSize
from .memory import DramConfig, LinkConfig, link_transfer_cycles
from .mmu import MmuConfig, TranslationEngine, drain_trace
from .page_table import PageTable, build
from .schema import Struct
from .workloads import (
    GatherTrace,
    WorkloadConfig,
    embedding_segments,
    table_segment,
)

class LatencyBreakdown(Struct, frozen=False):
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


def _split(trace: GatherTrace, wl: WorkloadConfig) -> Tuple[int, int]:
    """Local and remote payload bytes of `trace` as seen by NPU 0."""
    eb = wl.embedding_bytes
    local = int((trace.table % wl.num_npus == 0).sum()) * eb
    return local, len(trace) * eb - local


def _dram_read(nbytes: int, dram: DramConfig) -> int:
    if nbytes == 0:
        return 0
    return dram.access_latency + math.ceil(nbytes / dram.bandwidth_bytes_per_cycle)


def run_baseline_copy(
    trace: GatherTrace,
    wl: WorkloadConfig,
    cpu_link: LinkConfig,
    dram: DramConfig = DramConfig(),
) -> LatencyBreakdown:
    """MMU-less bounce copy through CPU memory (two interconnect legs)."""
    local_bytes, remote_bytes = _split(trace, wl)
    bd = LatencyBreakdown("baseline_copy", payload_bytes=local_bytes + remote_bytes)
    bd.local_cycles = _dram_read(local_bytes, dram)
    if remote_bytes:
        bd.remote_leg1 = bd.remote_leg2 = link_transfer_cycles(remote_bytes, cpu_link)
        bd.staging = 2 * _dram_read(remote_bytes, dram)
    bd.total_cycles = bd.local_cycles + bd.remote_leg1 + bd.staging + bd.remote_leg2
    return bd


def translate_gathers(
    trace: GatherTrace,
    wl: WorkloadConfig,
    mmu: MmuConfig,
) -> int:
    """Cycles to translate every gather of `trace` through the MMU.

    Gathers are submitted at one per cycle, blocked ones retried, until the
    last translation completes (`drain_trace`, which keeps no completion;
    a fault is read off the engine's stats); under the oracle MMU that is
    one cycle per gather. The engine has no DRAM, so its walk reads are
    never charged bandwidth. Pages are `mmu.page_size`. A fault, which
    only a gather outside its table can take, raises RuntimeError.
    """
    ps = PAGE_SIZES[mmu.page_size]
    page_table = build(embedding_segments(wl), ps)
    vpns = _pages(trace, wl, ps)
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
    trace: GatherTrace,
    wl: WorkloadConfig,
    translation_cycles: int,
    link: LinkConfig,
    dram: DramConfig = DramConfig(),
) -> LatencyBreakdown:
    """Fine-grained NUMA gathers over the slow (PCIe) or fast (NVLink) link.

    `translation_cycles` is `translate_gathers` of the same trace; the
    translations overlap the remote transfer stream, so the slower of the
    two paces the remote phase.
    """
    local_bytes, remote_bytes = _split(trace, wl)
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
    trace: GatherTrace,
    wl: WorkloadConfig,
    ps: PageSize,
    link: LinkConfig,
    mmu: MmuConfig,
    dram: DramConfig = DramConfig(),
) -> Tuple[LatencyBreakdown, PageTable]:
    """Fault-and-migrate remote pages into local memory, then gather locally.

    The local table starts with NPU 0's own tables mapped, whether or not
    the trace gathers from them, and no remote page, so every remote page
    faults at its first touch. It is mapped then, in first-touch order,
    and stays mapped, so every later gather of it would walk to its frame
    and add nothing. The walk to each fault is not made: it reads from the
    root down to the first absent slot, and the map then adds one node for
    each level below that slot, so its reads and the nodes its map adds
    sum to `ps.levels`. That gives what walking every remote gather gives.
    A remote page already mapped, which only a gather outside its table
    can reach, raises `MappingError`. Of `mmu`, only the walk and TLB-hit
    latencies are read. Returns the breakdown and the local page table.
    """
    eb = wl.embedding_bytes
    tag = next(name for name, size in PAGE_SIZES.items() if size is ps)
    bd = LatencyBreakdown(f"demand_{tag}", payload_bytes=len(trace) * eb)

    page_table = build([table_segment(wl, t)
                        for t in range(0, wl.tables, wl.num_npus)], ps)
    nodes = len(page_table.nodes)
    remote = trace[trace.table % wl.num_npus != 0]
    pages = dict.fromkeys(_pages(remote, wl, ps))
    map_page = page_table.map_page
    for page in pages:
        map_page(page)

    faults = len(pages)
    reads = faults * ps.levels - (len(page_table.nodes) - nodes)
    bd.faults = faults
    bd.fault_handling_cycles = reads * mmu.walk_cycles_per_level
    bd.migration_cycles = faults * link_transfer_cycles(ps.bytes, link)
    bd.migration_bytes = faults * ps.bytes
    bd.local_cycles = (_dram_read(len(trace) * eb, dram)
                       + len(trace) * mmu.tlb_hit_latency)
    bd.total_cycles = (bd.local_cycles + bd.fault_handling_cycles
                       + bd.migration_cycles)
    return bd, page_table


def _pages(trace: GatherTrace, wl: WorkloadConfig, ps: PageSize) -> List[int]:
    """`address_space.vpn` of each gather's address: a table lies inside
    the 48-bit address space (`table_segment` refuses one that does not),
    so that is one shift, and no int64 step wraps."""
    import numpy as np

    bases = np.array([table_segment(wl, t).base for t in range(wl.tables)],
                     dtype=np.int64)
    return ((bases[trace.table] + trace.row * wl.embedding_bytes)
            >> ps.offset_bits).tolist()
