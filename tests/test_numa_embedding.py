"""Remote-embedding strategies: bounce copy, fine-grained NUMA, demand paging."""

import math

import pytest

from npusim.address_space import PageSize
from npusim.memory import DramConfig, NVLINK_LINK, PCIE_LINK
from npusim.mmu import MmuConfig
from npusim.numa import (
    DEFAULT_NUMA_MMU,
    run_baseline_copy,
    run_demand_paging,
    run_numa,
)
from npusim.workloads import (
    EmbeddingModel,
    EmbeddingTableSpec,
    Placement,
    gather_trace,
    table_segment,
)

PS4K = PageSize.SMALL_4K
PS2M = PageSize.LARGE_2M


# the placement that trace_for() uses by default
PLACEMENT = Placement.round_robin(4, 4)


def trace_for(num_npus=4, tables=4, batch=64, rows=4096, seed=11,
              distribution="uniform", npu=0):
    m = EmbeddingModel(
        tables=tuple(EmbeddingTableSpec(rows) for _ in range(tables)),
        batch=batch, index_distribution=distribution, seed=seed)
    return m, gather_trace(m, Placement.round_robin(tables, num_npus))[npu]


def test_baseline_copy_hand_composition():
    m, tr = trace_for()
    bd = run_baseline_copy(tr, m)
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
    assert bd.local_count == local and bd.remote_count == remote


def test_per_embedding_copy_pays_latency_per_vector():
    m, tr = trace_for()
    batched = run_baseline_copy(tr, m)
    granular = run_baseline_copy(tr, m, per_embedding=True)
    assert granular.total_cycles > batched.total_cycles


def test_numa_fast_beats_slow_beats_copy():
    m, tr = trace_for()
    copy = run_baseline_copy(tr, m)
    slow = run_numa(tr, m, link_kind="slow")
    fast = run_numa(tr, m, link_kind="fast")
    assert fast.total_cycles <= slow.total_cycles < copy.total_cycles


def test_numa_remote_phase_is_max_of_translation_and_transfer():
    m, tr = trace_for()
    bd = run_numa(tr, m, link_kind="fast")
    remote_bytes = bd.remote_count * 256
    transfer = math.ceil(remote_bytes / NVLINK_LINK.bandwidth_bytes_per_cycle)
    assert bd.numa_transfer_cycles == 150 + transfer
    assert bd.total_cycles == (bd.local_cycles + 150
                               + max(bd.translation_cycles, transfer))


def test_numa_payload_conserved_across_strategies():
    m, tr = trace_for()
    results = [run_baseline_copy(tr, m),
               run_numa(tr, m, "slow"),
               run_numa(tr, m, "fast"),
               run_demand_paging(tr, m, PS4K, PLACEMENT)[0]]
    assert len({bd.payload_bytes for bd in results}) == 1
    assert len({(bd.local_count, bd.remote_count) for bd in results}) == 1


def test_demand_paging_migrates_whole_pages():
    m, tr = trace_for()
    bd, _ = run_demand_paging(tr, m, PS4K, PLACEMENT)
    assert bd.faults > 0
    assert bd.migration_bytes == bd.faults * 4096
    assert bd.migration_bytes % 4096 == 0
    assert bd.bloat_bytes == max(0, bd.migration_bytes - bd.remote_count * 256)


def test_demand_paging_second_pass_is_fault_free():
    m, tr = trace_for()
    bd1, pt = run_demand_paging(tr, m, PS4K, PLACEMENT)
    bd2, _ = run_demand_paging(tr, m, PS4K, PLACEMENT, page_table=pt)
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
    _, pt = run_demand_paging(rest, m, PS4K, PLACEMENT)
    for t in own:
        assert all(pt.is_mapped(p, PS4K)
                   for p in table_segment(m, t).vpn_range(PS4K))


def test_large_pages_fault_less_but_move_more():
    # sparse uniform access over a large table: few 2M faults cover many rows
    m, tr = trace_for(rows=65536, batch=256)
    small, _ = run_demand_paging(tr, m, PS4K, PLACEMENT)
    large, _ = run_demand_paging(tr, m, PS2M, PLACEMENT)
    assert large.faults < small.faults
    assert large.migration_bytes > small.migration_bytes
    assert large.fault_handling_cycles < small.fault_handling_cycles


def test_page_ratio_is_512():
    assert PS2M.bytes // PS4K.bytes == 512


def test_local_only_trace_has_no_remote_terms():
    m, tr = trace_for(num_npus=1)
    for bd in (run_baseline_copy(tr, m), run_numa(tr, m, "fast")):
        assert bd.remote_count == 0
        assert bd.remote_leg1 == bd.staging == bd.remote_leg2 == 0
        assert bd.numa_transfer_cycles == 0
    bd, _ = run_demand_paging(tr, m, PS4K, Placement.round_robin(4, 1))
    assert bd.faults == 0


def test_numa_requires_mapped_tables():
    m, tr = trace_for()
    from npusim.page_table import PageTable
    with pytest.raises(RuntimeError):
        run_numa(tr, m, "fast", page_table=PageTable())


def test_more_walkers_shrink_translation_cycles():
    m, tr = trace_for(batch=256)
    few = run_numa(tr, m, "fast", mmu=MmuConfig(num_ptws=4, prmb_slots=4,
                                                translation_cache="tpr"))
    many = run_numa(tr, m, "fast", mmu=DEFAULT_NUMA_MMU)
    assert many.translation_cycles <= few.translation_cycles
