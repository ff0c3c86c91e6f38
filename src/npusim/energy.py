"""Event-count energy accounting for translation activity.

Energy is a pure linear function of finalized event counts: page-walk DRAM
reads, merge-buffer accesses, TLB probes, and path-register/cache probes.
The default per-event constants are implementer placeholders that keep the
DRAM:SRAM ratio at >= 100x; only ratios between configurations are
meaningful, not absolute joules.
"""

from __future__ import annotations

from .mmu import TranslationStats
from .schema import Record, Struct, knob


class EnergyTable(Record):
    pj_walk_dram: float = knob(100.0, gt=0)   # per page-walk DRAM read
    pj_prmb: float = knob(0.5, gt=0)          # per merge-buffer access
    pj_tlb: float = knob(0.8, gt=0)           # per TLB probe
    pj_tpr: float = knob(0.1, gt=0)           # per path-register/cache probe


class EnergyBreakdown(Struct):
    walk_dram_pj: float
    merge_buffer_pj: float
    tlb_pj: float
    path_register_pj: float

    @property
    def total_pj(self) -> float:
        return (self.walk_dram_pj + self.merge_buffer_pj
                + self.tlb_pj + self.path_register_pj)


def account(stats: TranslationStats, table: EnergyTable = EnergyTable()) -> EnergyBreakdown:
    """Itemized energy = sum(event count x per-event energy). No hidden terms."""
    return EnergyBreakdown(
        walk_dram_pj=stats.walk_memory_transactions * table.pj_walk_dram,
        merge_buffer_pj=stats.merge_buffer_accesses * table.pj_prmb,
        tlb_pj=stats.tlb_accesses * table.pj_tlb,
        path_register_pj=stats.cache_probes * table.pj_tpr,
    )
