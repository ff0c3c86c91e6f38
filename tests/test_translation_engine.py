"""Translation engine: TLB, walkers, merge buffers, path caches.

Reference frames come from the reference walker, `PageTable.walk_path`,
through `walk_reference.reference_frame`: every completion's frame must
equal it. The unified cache's reference is `walk_reference.NodeTaggedEngine`,
which tags entries by their node addresses.
"""

from copy import copy
from itertools import groupby
from typing import NamedTuple, Tuple

import pytest
from hypothesis import example, given, settings, strategies as st

from npusim.address_space import PageSize, Segment, default_segment_base
from npusim.memory import Dram, DramConfig
from npusim.mmu import (
    MmuConfig,
    SubmitStatus,
    TranslationEngine,
    TranslationStats,
    drain_trace,
)
from npusim.npu import simulate_fetch
from npusim.page_table import PageTable, build
from walk_reference import (NodeTaggedEngine, RecordingEngine, build_scattered,
                            reference_frame)

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
    assert eng.submit(pages[0], 0).status is SubmitStatus.NEW_WALK
    assert eng.submit(pages[1], 0).status is SubmitStatus.NEW_WALK
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


@pytest.mark.parametrize("kind", ["tpr", "tpc"])
def test_path_tags_alias_above_the_radix_indices(kind):
    """A 4 KB walk reads VPN bits below 36 only, as `radix_indices` does,
    so the path tag of `a + 2**36` must alias with `a`'s: after a walk of
    `a`, its walk, which misses the TLB (keyed on the whole VPN), reads
    one node and hits at every upper level, as a walk of `a + 1`, in the
    same leaf node, does."""
    a = default_segment_base(0) >> PS4K.offset_bits
    pt = PageTable(PS4K)
    for page in (a, a + 1):
        pt.map_page(page)

    def after_a(page):
        eng = RecordingEngine(MmuConfig(num_ptws=1, translation_cache=kind), pt)
        drain_trace(eng, [a, page])
        assert [c.frame for c in eng.delivered] == [reference_frame(pt, a),
                                                    reference_frame(pt, page)]
        return eng.stats

    aliased, neighbour = after_a(a + 2**36), after_a(a + 1)
    assert aliased.tlb_hits == 0 and aliased.walks_started == 2
    assert aliased.walk_memory_transactions == 4 + 1
    assert aliased.cache_hit_l4 == aliased.cache_hit_l3 == aliased.cache_hit_l2 == 1
    assert aliased == neighbour


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
        before = copy(eng.stats)
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
        assert each.submit(a if t <= now + 50 else b, t).status is not SubmitStatus.BLOCKED
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
    cache_entries=st.sampled_from([1, 2, 3, 16]),
)


class Trace(NamedTuple):
    """VPNs offered one per cycle to the table of `segments` at page size
    `ps`, with scattered frames drawn from `seed`."""
    ps: PageSize
    segments: Tuple[Segment, ...]
    vpns: Tuple[int, ...]
    seed: int = 0


# A segment may straddle no node edge, a leaf node's (512 pages) or that of
# the node above it (2**18 pages; at 2 MB, a root slot's).
EDGES = (0, 1 << 9, 1 << 18)


def straddling(ps, slot, edge, before, pages):
    """`pages` pages of `ps` from `before` pages below `edge` pages into
    the default segment of `slot`."""
    first = (default_segment_base(slot) >> ps.offset_bits) + edge - before
    return Segment(f"s{slot}-{edge}", first * ps.bytes, pages * ps.bytes)


def probes(ps, segments):
    """The mapped VPNs of the segments and, for each, VPNs that fault
    unless another segment maps them: its next page (at the leaf, under a
    mapped path) and the pages 5 leaf nodes and 5 of the nodes above them
    on from its first, whose walks leave its path above the leaf."""
    ranges = [seg.vpn_range(ps) for seg in segments]
    mapped = [v for r in ranges for v in r]
    unmapped = {v for r in ranges
                for v in (r.stop, r.start + (5 << 9), r.start + (5 << 18))}
    return mapped + sorted(unmapped - set(mapped))


@st.composite
def traces(draw):
    ps = draw(st.sampled_from([PS4K, PS2M]))
    spots = draw(st.lists(st.tuples(st.integers(0, 3), st.sampled_from(EDGES)),
                          min_size=1, max_size=3, unique=True))
    segments = tuple(
        straddling(ps, slot, edge, draw(st.integers(1, 24)) if edge else 0,
                   draw(st.integers(1, 48)))
        for slot, edge in spots)
    vpns = draw(st.lists(st.sampled_from(probes(ps, segments)),
                         min_size=1, max_size=80))
    return Trace(ps, segments, tuple(vpns), draw(st.integers(0, 2**32 - 1)))


def looped(ps, segment, rounds=3):
    """`rounds` passes over the segment's probes, faults included."""
    return Trace(ps, (segment,), tuple(probes(ps, [segment])) * rounds)


# uptc walks that fault under a cached path: the leaf-level fault (4 nodes
# read, 3 interior entries probed) reads 1 node, as do those one and two
# levels up (probes of 2 and 1 entries)
FAULTS_UNDER_A_CACHED_PATH = Trace(PS4K, (straddling(PS4K, 0, 0, 0, 3),),
                                   (2**28, 2**28 + 1, 2**28 + 3,
                                    2**28 + (5 << 9), 2**28 + (5 << 18)))
ACROSS_A_LEAF_NODE = looped(PS4K, straddling(PS4K, 1, 1 << 9, 4, 8))
ACROSS_AN_L2_NODE = looped(PS4K, straddling(PS4K, 2, 1 << 18, 3, 6))
ACROSS_A_2M_LEAF_NODE = looped(PS2M, straddling(PS2M, 0, 1 << 9, 2, 4))
# Two walkers on two segments' paths in a 3-entry unified cache: a walk that
# hit all of its interior entries installs none when it ends, so the entries
# the other segment's walk installed in the meantime stay for the last walks.
OVERLAPPING_WALKS = Trace(PS4K, (straddling(PS4K, 0, 0, 0, 2),
                                 straddling(PS4K, 1, 0, 0, 2)),
                          (2**29, 2**28 + 1, 2**29 + 1, 2**28, 2**28))


def uptc(entries, walkers=1, **knobs):
    return MmuConfig(translation_cache="uptc", cache_entries=entries,
                     num_ptws=walkers, **knobs)


@settings(max_examples=60, deadline=None)
@given(cfg=ENGINE_CONFIGS, trace=traces())
@example(cfg=uptc(8), trace=FAULTS_UNDER_A_CACHED_PATH)
# unified caches smaller than a walk's interior entries
@example(cfg=uptc(1, walkers=2), trace=ACROSS_A_LEAF_NODE)
@example(cfg=uptc(2, walkers=2), trace=ACROSS_AN_L2_NODE)
@example(cfg=uptc(1, walkers=2), trace=ACROSS_A_2M_LEAF_NODE)
def test_random_traces_translate_correctly(cfg, trace):
    pt = build_scattered(trace.segments, trace.ps, trace.seed)
    eng = RecordingEngine(cfg, pt)
    drain_trace(eng, list(trace.vpns))
    comps = eng.delivered
    assert len(comps) == len(trace.vpns)
    by_rid = {}
    for c in comps:
        assert c.frame == reference_frame(pt, c.vpn)
        assert c.request_id not in by_rid  # exactly-once delivery
        by_rid[c.request_id] = c
    s = eng.stats
    assert s.accepted == s.completions == len(trace.vpns)
    assert s.faults == sum(reference_frame(pt, v) is None for v in trace.vpns)
    assert s.tlb_hits + s.scoreboard_merges + s.walks_started == s.accepted
    if cfg.prmb_slots == 0:
        assert s.scoreboard_merges == 0


def test_fault_under_a_cached_path_reads_one_node():
    pt = build(FAULTS_UNDER_A_CACHED_PATH.segments, PS4K)
    eng = TranslationEngine(uptc(8), pt)
    drain_trace(eng, list(FAULTS_UNDER_A_CACHED_PATH.vpns))
    # a cold walk, then one read each: a hit and three faults
    assert eng.stats.walk_memory_transactions == 4 + 4 * 1
    assert eng.stats.faults == 3


UPTC_CONFIGS = st.builds(
    MmuConfig,
    translation_cache=st.just("uptc"),
    cache_entries=st.sampled_from([1, 2, 3, 8]),
    num_ptws=st.sampled_from([2, 3, 8]),
    prmb_slots=st.sampled_from([0, 4]),
    tlb_entries=st.sampled_from([2, 16]),
    walk_cycles_per_level=st.sampled_from([1, 7, 100]),
)


@settings(max_examples=80, deadline=None)
@given(cfg=UPTC_CONFIGS, trace=traces())
@example(cfg=uptc(8, walkers=2), trace=FAULTS_UNDER_A_CACHED_PATH)
@example(cfg=uptc(2, walkers=4), trace=ACROSS_AN_L2_NODE)
@example(cfg=uptc(3, walkers=2, tlb_entries=2, walk_cycles_per_level=1),
         trace=OVERLAPPING_WALKS)
def test_unified_tags_walk_as_node_addresses(cfg, trace):
    """The engine's (depth, VPN prefix) tags give every cycle, delivered
    request and counter that node-address tags do, through `drain_trace`
    (faults included) and through `simulate_fetch` (its mapped pages, with
    walks charged to DRAM), with overlapping walks."""
    pt = build_scattered(trace.segments, trace.ps, trace.seed)
    engine, reference = (cls(cfg, pt) for cls in (RecordingEngine, NodeTaggedEngine))
    vpns = list(trace.vpns)
    assert drain_trace(engine, vpns) == drain_trace(reference, vpns)
    assert engine.delivered == reference.delivered
    assert engine.stats == reference.stats

    runs = [(v, len(list(group)), (64,)) for v, group in
            groupby(v for v in vpns if reference_frame(pt, v) is not None)]
    fetched = []
    for cls in (RecordingEngine, NodeTaggedEngine):
        dram = Dram(DramConfig())
        eng = cls(cfg, pt, dram=dram)
        fetched.append((simulate_fetch(runs, eng, dram, 0), eng.delivered, eng.stats))
    assert fetched[0] == fetched[1]


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
