"""Translation-path energy accounting."""

from hypothesis import given, strategies as st

from npusim.energy import EnergyBreakdown, EnergyTable, account
from npusim.mmu import TranslationStats


def stats(**kw):
    s = TranslationStats()
    for k, v in kw.items():
        setattr(s, k, v)
    return s


def test_zero_activity_costs_nothing():
    assert account(stats()).total_pj == 0.0


def test_accounting_is_linear_in_events():
    one = account(stats(walk_memory_transactions=3, accepted=10,
                        merge_buffer_accesses=2, cache_probes=5))
    ten = account(stats(walk_memory_transactions=30, accepted=100,
                        merge_buffer_accesses=20, cache_probes=50))
    assert abs(ten.total_pj - 10 * one.total_pj) < 1e-9


def test_default_table_keeps_dram_dominant():
    t = EnergyTable()
    assert t.pj_walk_dram >= 100 * t.pj_prmb
    assert t.pj_walk_dram >= 100 * t.pj_tpr


def test_component_attribution():
    t = EnergyTable(pj_walk_dram=100.0, pj_tlb=1.0,
                    pj_prmb=0.5, pj_tpr=0.25)
    bd = account(stats(walk_memory_transactions=2, accepted=4,
                       merge_buffer_accesses=6, cache_probes=8), t)
    assert bd.walk_dram_pj == 200.0
    assert bd.tlb_pj == 4.0
    assert bd.merge_buffer_pj == 3.0
    assert bd.path_register_pj == 2.0
    assert bd.total_pj == 209.0


@given(a=st.integers(0, 10**6), b=st.integers(0, 10**6),
       c=st.integers(0, 10**6), d=st.integers(0, 10**6))
def test_total_is_sum_of_parts(a, b, c, d):
    bd = account(stats(walk_memory_transactions=a, accepted=b,
                       merge_buffer_accesses=c, cache_probes=d))
    assert abs(bd.total_pj - (bd.walk_dram_pj + bd.tlb_pj
                              + bd.merge_buffer_pj + bd.path_register_pj)) < 1e-6
