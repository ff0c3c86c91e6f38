"""Translation engine: TLB, walkers, merge buffers, path caches.

Reference frames come from the reference walker, `PageTable.walk_path`,
through `walk_reference.reference_frame`: every completion's frame must
equal it.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from npusim.address_space import PageSize, Segment, default_segment_base
from npusim.memory import Dram, DramConfig
from npusim.mmu import (
    MmuConfig,
    SubmitStatus,
    TranslationEngine,
    TranslationStats,
    drain_trace,
)
from npusim.page_table import build
from walk_reference import RecordingEngine, build_scattered, reference_frame

PS4K = PageSize.SMALL_4K
PS2M = PageSize.LARGE_2M


def make_pt(pages=64, ps=PS4K):
    seg = Segment("s", default_segment_base(0), pages * ps.bytes)
    return build([seg], ps), seg


def drain(engine, now):
    """Tick from `now` until nothing is in flight; (next cycle, completions)."""
    comps = []
    while engine.in_flight > 0:
        comps.extend(engine.tick(now))
        now += 1
    return now, comps


def drain_all(engine, now):
    return drain(engine, now)[1]


# -- basic timing -----------------------------------------------------------

def test_cold_walk_4k_takes_four_levels():
    pt, seg = make_pt()
    eng = TranslationEngine(MmuConfig(num_ptws=1), pt)
    page = seg.vpn_range(PS4K)[0]
    res = eng.submit(page, 0)
    assert res.status is SubmitStatus.NEW_WALK
    comps = []
    for c in range(0, 401):
        comps.extend(eng.tick(c))
    assert [c.done_cycle for c in comps] == [400]
    assert eng.stats.walk_memory_transactions == 4


def test_cold_walk_2m_takes_three_levels():
    pt, seg = make_pt(pages=2, ps=PS2M)
    eng = TranslationEngine(MmuConfig(num_ptws=1), pt)
    eng.submit(seg.vpn_range(PS2M)[0], 0)
    comps = []
    for c in range(0, 301):
        comps.extend(eng.tick(c))
    assert [c.done_cycle for c in comps] == [300]
    assert eng.stats.walk_memory_transactions == 3


def test_tlb_hit_completes_after_hit_latency():
    pt, seg = make_pt()
    eng = TranslationEngine(MmuConfig(num_ptws=1), pt)
    page = seg.vpn_range(PS4K)[0]
    eng.submit(page, 0)
    drain_all(eng, 1)
    res = eng.submit(page, 1000)
    assert res.status is SubmitStatus.TLB_HIT
    assert res.done_cycle == 1005
    comps = drain_all(eng, 1001)
    assert comps[0].done_cycle == 1005
    assert comps[0].frame == reference_frame(pt, page)


def test_tlb_lru_eviction():
    pt, seg = make_pt(pages=3)
    eng = TranslationEngine(MmuConfig(num_ptws=1, tlb_entries=2), pt)
    pages = list(seg.vpn_range(PS4K))
    now = 0
    for p in pages:  # fills TLB with the last two pages
        eng.submit(p, now)
        now, _ = drain(eng, now + 1)
    hits_before = eng.stats.tlb_hits
    assert eng.submit(pages[0], now).status is SubmitStatus.NEW_WALK
    now, _ = drain(eng, now + 1)
    assert eng.stats.tlb_hits == hits_before
    assert eng.submit(pages[2], now).status is SubmitStatus.TLB_HIT


# -- scoreboard merging -----------------------------------------------------

def test_duplicate_vpns_merge_into_one_walk():
    pt, seg = make_pt()
    eng = TranslationEngine(MmuConfig(num_ptws=1, prmb_slots=8), pt)
    page = seg.vpn_range(PS4K)[0]
    results = [eng.submit(page, c) for c in range(8)]
    assert results[0].status is SubmitStatus.NEW_WALK
    assert all(r.status is SubmitStatus.MERGED for r in results[1:])
    comps = drain_all(eng, 8)
    assert eng.stats.walks_started == 1
    assert eng.stats.scoreboard_merges == 7
    # leading completion at 400; merged ones drain one per cycle after it
    assert sorted(c.done_cycle for c in comps) == [400] + list(range(401, 408))
    assert {c.frame for c in comps} == {reference_frame(pt, page)}


def test_merge_buffer_capacity_blocks():
    pt, seg = make_pt()
    eng = TranslationEngine(MmuConfig(num_ptws=1, prmb_slots=2), pt)
    page = seg.vpn_range(PS4K)[0]
    statuses = [eng.submit(page, c).status for c in range(4)]
    assert statuses == [SubmitStatus.NEW_WALK, SubmitStatus.MERGED,
                        SubmitStatus.MERGED, SubmitStatus.BLOCKED]
    assert eng.stats.blocked_cycles == 1


def test_no_merging_without_scoreboard():
    # with the merge path disabled, duplicate in-flight pages burn walkers
    pt, seg = make_pt()
    eng = TranslationEngine(MmuConfig(num_ptws=4, prmb_slots=0), pt)
    page = seg.vpn_range(PS4K)[0]
    for c in range(4):
        assert eng.submit(page, c).status is SubmitStatus.NEW_WALK
    assert eng.stats.walks_started == 4
    assert eng.stats.scoreboard_merges == 0
    comps = drain_all(eng, 4)
    assert len(comps) == 4


def test_all_walkers_busy_blocks():
    pt, seg = make_pt()
    eng = TranslationEngine(MmuConfig(num_ptws=2, prmb_slots=0), pt)
    pages = list(seg.vpn_range(PS4K))
    assert eng.submit(pages[0], 0).accepted
    assert eng.submit(pages[1], 0).accepted
    assert eng.submit(pages[2], 0).status is SubmitStatus.BLOCKED


def test_walker_frees_after_walk():
    pt, seg = make_pt()
    eng = TranslationEngine(MmuConfig(num_ptws=1, prmb_slots=0), pt)
    pages = list(seg.vpn_range(PS4K))
    eng.submit(pages[0], 0)
    drain_all(eng, 1)
    assert eng.submit(pages[1], 500).status is SubmitStatus.NEW_WALK


# -- translation path caches ------------------------------------------------

def test_path_register_cuts_walks_to_one_read():
    pt, seg = make_pt(pages=10)
    eng = RecordingEngine(
        MmuConfig(num_ptws=1, translation_cache="tpr"), pt)
    drain_trace(eng, list(seg.vpn_range(PS4K)))
    assert len(eng.delivered) == 10
    # first walk reads 4 nodes; the other nine hit the register and read 1
    assert eng.stats.walk_memory_transactions == 4 + 9
    assert eng.stats.cache_hit_l4 == 9
    assert eng.stats.cache_hit_l3 == 9
    assert eng.stats.cache_hit_l2 == 9


def test_path_cache_shared_across_walkers():
    pt, seg = make_pt(pages=16)
    eng = RecordingEngine(
        MmuConfig(num_ptws=8, prmb_slots=4,
                  translation_cache="tpc", cache_entries=8), pt)
    drain_trace(eng, list(seg.vpn_range(PS4K)))
    assert len(eng.delivered) == 16
    # one cold walk primes the shared cache for every later walker
    assert eng.stats.walk_memory_transactions < 16 * 4


def test_unified_cache_serves_interior_nodes():
    pt, seg = make_pt(pages=8)
    eng = RecordingEngine(
        MmuConfig(num_ptws=1, translation_cache="uptc",
                  cache_entries=64), pt)
    drain_trace(eng, list(seg.vpn_range(PS4K)))
    assert len(eng.delivered) == 8
    assert eng.stats.walk_memory_transactions == 4 + 7


def test_register_miss_on_distant_page():
    pt_a, seg_a = make_pt(pages=1)
    # second segment lands in a different upper-level path
    seg_b = Segment("b", default_segment_base(1), 4096)
    pt = build([seg_a, seg_b], PS4K)
    eng = TranslationEngine(
        MmuConfig(num_ptws=1, translation_cache="tpr"), pt)
    drain_trace(eng, [seg_a.vpn_range(PS4K)[0], seg_b.vpn_range(PS4K)[0]])
    assert eng.stats.walk_memory_transactions == 8


# -- faults -----------------------------------------------------------------

def test_unmapped_page_completes_as_fault():
    pt, seg = make_pt(pages=1)
    eng = TranslationEngine(MmuConfig(num_ptws=1), pt)
    bad = seg.vpn_range(PS4K)[0] + (1 << 27)  # different top-level entry
    eng.submit(bad, 0)
    comps = drain_all(eng, 1)
    assert comps[0].frame is None
    assert eng.stats.faults == 1


def test_fault_never_fills_tlb():
    pt, seg = make_pt(pages=1)
    eng = TranslationEngine(MmuConfig(num_ptws=1), pt)
    bad = seg.vpn_range(PS4K)[0] + (1 << 27)
    eng.submit(bad, 0)
    now, _ = drain(eng, 1)
    assert eng.submit(bad, now).status is SubmitStatus.NEW_WALK


# -- oracle mode ------------------------------------------------------------

def test_engine_refuses_oracle_mode():
    # the oracle is `Oracle` and its closed forms; an engine in oracle mode
    # would silently model the MMU
    pt, _ = make_pt()
    with pytest.raises(ValueError, match="oracle"):
        TranslationEngine(MmuConfig(mode="oracle"), pt)


# -- page runs (accept_run) -------------------------------------------------

def runs_of(comps):
    return [(c.vpn, c.done_cycle, c.count) for c in comps]


def test_accept_run_declines_a_miss_without_a_pending_walk():
    pt, seg = make_pt()
    a, b = seg.vpn_range(PS4K)[:2]
    for slots in (0, 8):
        eng = TranslationEngine(MmuConfig(num_ptws=1, prmb_slots=slots), pt)
        assert eng.accept_run(a, 10, 0) == 0
        assert eng.stats == TranslationStats()
        assert eng.submit(a, 0).status is SubmitStatus.NEW_WALK
        before = replace(eng.stats)
        assert eng.accept_run(b, 10, 1) == 0      # a's walk takes no b
        assert eng.stats == before


def test_accept_run_hits_stop_at_the_next_walk_end():
    pt, seg = make_pt()
    a, b = seg.vpn_range(PS4K)[:2]
    eng = TranslationEngine(MmuConfig(num_ptws=2), pt)
    eng.submit(a, 0)
    now, _ = drain(eng, 0)                        # a is in the TLB
    assert eng.submit(b, now).status is SubmitStatus.NEW_WALK
    assert eng.tick(now) == ()
    end = now + 400                               # b's walk fills the TLB
    # the request of cycle `end` is submitted before that cycle's tick
    assert eng.accept_run(a, 1000, now + 1) == end - now
    # one completion for the run, cut where b's walk (pushed first) ends
    assert runs_of(eng.tick(end)) == [(a, now + 6, end - now - 6), (b, end, 1),
                                      (a, end, 1)]
    assert runs_of(eng.tick(end + 5)) == [(a, end + 1, 5)]
    assert eng.accept_run(a, 1000, end + 6) == 1000  # no walk pending


def test_accept_run_merges_stop_at_free_slots_and_the_walk_end():
    pt, seg = make_pt()
    a, b = seg.vpn_range(PS4K)[:2]
    eng = TranslationEngine(MmuConfig(num_ptws=1, prmb_slots=8), pt)
    assert eng.submit(a, 0).status is SubmitStatus.NEW_WALK   # ends at 400
    assert eng.submit(a, 1).status is SubmitStatus.MERGED
    assert eng.accept_run(a, 100, 2) == 7         # the slots left
    assert eng.accept_run(a, 100, 9) == 0         # buffer full
    for t in range(401):
        out = eng.tick(t)
    # the merge runs drain one request per cycle after the walk's own
    assert runs_of(out) == [(a, 400, 1)]
    assert runs_of(eng.tick(401) + eng.tick(402)) == [(a, 401, 1), (a, 402, 1)]
    assert runs_of(eng.tick(407)) == [(a, 403, 5)]
    # the walker frees in the cycle its last merged request completes
    assert eng.submit(b, 408).status is SubmitStatus.BLOCKED
    assert runs_of(eng.tick(408)) == [(a, 408, 1)]
    assert eng.submit(b, 409).status is SubmitStatus.NEW_WALK

    wide = TranslationEngine(MmuConfig(num_ptws=1, prmb_slots=1000), pt)
    wide.submit(a, 0)
    assert wide.accept_run(a, 1000, 1) == 400     # cycles 1 .. 400


@pytest.mark.parametrize("slots", [0, 32])
def test_accept_run_counts_like_one_submit_per_cycle(slots):
    """Hits (and, with merge buffers, merges): after the same history, a
    run accepted in one call and ticked at once leaves every counter and
    delivers every request as one submit and one tick per cycle do."""
    pt, seg = make_pt()
    a, b = seg.vpn_range(PS4K)[:2]
    cfg = MmuConfig(num_ptws=2, prmb_slots=slots)
    engines = [TranslationEngine(cfg, pt) for _ in range(2)]
    for eng in engines:
        eng.submit(a, 0)
        now, _ = drain(eng, 0)
        eng.submit(b, now)
    one, each = engines
    n = one.accept_run(a, 50, now + 1) + one.accept_run(b, 30, now + 51)
    assert n == 50 + (30 if slots else 0)
    out_one = one.tick(now + n)
    out_each = []
    for t in range(now + 1, now + n + 1):
        assert each.submit(a if t <= now + 50 else b, t).accepted
        out_each.extend(each.tick(t))
    assert one.stats == each.stats
    assert [(c.request_id + i, c.done_cycle + i) for c in out_one
            for i in range(c.count)] == [(c.request_id, c.done_cycle)
                                         for c in out_each]


# -- protocol ---------------------------------------------------------------

def test_tick_must_be_monotone():
    pt, _ = make_pt()
    eng = TranslationEngine(MmuConfig(), pt)
    eng.tick(5)
    with pytest.raises(ValueError):
        eng.tick(5)


# -- randomized correctness & conservation ----------------------------------

ENGINE_CONFIGS = st.builds(
    MmuConfig,
    tlb_entries=st.sampled_from([2, 16, 2048]),
    num_ptws=st.sampled_from([1, 2, 8, 32]),
    prmb_slots=st.sampled_from([0, 1, 8]),
    translation_cache=st.sampled_from(["none", "tpr", "tpc", "uptc"]),
    cache_entries=st.sampled_from([1, 2, 16]),
)


@settings(max_examples=60, deadline=None)
@given(cfg=ENGINE_CONFIGS,
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       data=st.data())
def test_random_traces_translate_correctly(cfg, seed, data):
    import numpy as np
    rng = np.random.default_rng(seed)
    pages = int(rng.integers(1, 64))
    ps = PS4K if rng.integers(2) else PS2M
    seg = Segment("s", default_segment_base(int(rng.integers(4))),
                  pages * ps.bytes)
    pt = build_scattered([seg], ps, seed)
    lo = seg.vpn_range(ps)[0]
    trace = [lo + int(v) for v in rng.integers(0, pages, size=int(rng.integers(1, 80)))]

    eng = RecordingEngine(cfg, pt)
    drain_trace(eng, trace)
    comps = eng.delivered
    assert len(comps) == len(trace)
    by_rid = {}
    for c in comps:
        assert c.frame == reference_frame(pt, c.vpn)
        assert c.request_id not in by_rid  # exactly-once delivery
        by_rid[c.request_id] = c
    s = eng.stats
    assert s.accepted == s.completions == len(trace)
    assert s.tlb_hits + s.scoreboard_merges + s.walks_started == s.accepted
    if cfg.prmb_slots == 0:
        assert s.scoreboard_merges == 0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_walk_bandwidth_is_charged(seed):
    import numpy as np
    rng = np.random.default_rng(seed)
    pt, seg = make_pt(pages=8)
    dram = Dram(DramConfig())
    eng = TranslationEngine(MmuConfig(num_ptws=4), pt, dram=dram)
    trace = [seg.vpn_range(PS4K)[0] + int(v) for v in rng.integers(0, 8, 20)]
    drain_trace(eng, trace)
    # every walk transaction moved one 64B node read through the bucket
    probe = dram.issue(1, now=0)
    assert probe >= 100
    assert eng.stats.walk_memory_transactions > 0
