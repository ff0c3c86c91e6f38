"""Blocked stretches and page runs against per-cycle loops.

`npu.simulate_fetch` and `mmu.drain_trace` skip the idle ticks of a blocked
stretch through `TranslationEngine.skip_blocked`, and `simulate_fetch`
takes a page run's TLB hits and merges through `accept_run`, ticks the
cycles they cover at once and debits DRAM a run of groups at a time. The
references here submit, tick and debit one group in every cycle, as the
submit/tick protocol was first written. Both sides must end in the same
cycle with the same engine counters, the same DRAM state and the same
completions in the same order, or fault on the same page.
"""

from dataclasses import fields

import pytest
from hypothesis import example, given, settings, strategies as st

from npusim.address_space import PageSize, Segment, default_segment_base
from npusim.memory import Dram, DramConfig
from npusim.mmu import MmuConfig, SubmitStatus, TranslationEngine, drain_trace
from npusim.npu import SimulationFault, simulate_fetch
from npusim.page_table import build
from walk_reference import RecordingEngine

BLOCKED = SubmitStatus.BLOCKED
BASE = default_segment_base(0)
MAPPED_PAGES = 6                          # page MAPPED_PAGES faults at L1


def reference_fetch(runs, engine, dram, start):
    """`simulate_fetch` with a submit and a tick in every cycle."""
    groups = [(vpn, chunks) for vpn, count, chunks in runs for _ in range(count)]
    pending = {}
    i = 0
    cycle = end = start
    while i < len(groups) or engine.in_flight > 0:
        if i < len(groups):
            vpn, chunks = groups[i]
            res = engine.submit(vpn, cycle)
            if res.status is not BLOCKED:
                pending[res.request_id] = chunks
                i += 1
        for comp in engine.tick(cycle):
            if comp.frame is None:
                raise SimulationFault(comp.vpn, comp.fault_level)
            for nbytes in pending.pop(comp.request_id, ()):
                end = max(end, dram.issue(nbytes, comp.done_cycle))
        cycle += 1
    return max(end, cycle)


def reference_drain(engine, vpns, start):
    """`drain_trace` with a submit and a tick in every cycle."""
    cycle, i = start, 0
    while i < len(vpns) or engine.in_flight > 0:
        if i < len(vpns) and engine.submit(vpns[i], cycle).status is not BLOCKED:
            i += 1
        engine.tick(cycle)
        cycle += 1
    return cycle - start


MMU_POINTS = st.builds(
    MmuConfig,
    tlb_entries=st.sampled_from([1, 4, 2048]),
    tlb_hit_latency=st.sampled_from([0, 5]),
    num_ptws=st.integers(1, 8),
    prmb_slots=st.sampled_from([0, 1, 32]),
    walk_cycles_per_level=st.sampled_from([1, 7, 100]),
    translation_cache=st.sampled_from(["none", "tpr", "tpc", "uptc"]),
    cache_entries=st.sampled_from([1, 4]),
    charge_walk_bandwidth=st.booleans(),
)
DRAM_POINTS = st.builds(DramConfig,
                        bandwidth_bytes_per_cycle=st.sampled_from([16, 600]),
                        access_latency=st.sampled_from([0, 100]))
PAGE_SIZES = st.sampled_from([PageSize.SMALL_4K, PageSize.LARGE_2M])


@st.composite
def page_runs(draw):
    """Runs (page, count, chunks) over the mapped pages and the first
    unmapped one."""
    chunk_sizes = st.lists(st.sampled_from([1, 64, 100, 700]), min_size=1, max_size=3)
    return [(draw(st.integers(0, MAPPED_PAGES)), draw(st.integers(1, 80)),
             tuple(draw(chunk_sizes)))
            for _ in range(draw(st.integers(0, 8)))]


def setup(mmu, dram_cfg, ps):
    seg = Segment("s", BASE, MAPPED_PAGES * ps.bytes)
    pt = build([seg], ps)
    dram = Dram(dram_cfg)
    return RecordingEngine(mmu, pt, dram=dram), dram, seg.vpn_range(ps)[0]


def fetch_outcome(fetch, runs, mmu, dram_cfg, ps, start):
    engine, dram, first = setup(mmu, dram_cfg, ps)
    runs = [(first + page, count, chunks) for page, count, chunks in runs]
    try:
        end = fetch(runs, engine, dram, start)
    except SimulationFault as fault:
        end = ("fault", fault.vpn, fault.level)
    return end, engine.stats, vars(dram), engine.delivered


def drain_outcome(drain, pages, mmu, dram_cfg, ps, start):
    engine, dram, first = setup(mmu, dram_cfg, ps)
    cycles = drain(engine, [first + page for page in pages], start)
    return cycles, engine.delivered, engine.stats, vars(dram)


# Two walkers, no merge buffer. Page 4 is blocked when the walk of page 2
# ends at cycle 57, and the next event is two cycles later: a skip target
# read after the tick of cycle 57 would miss the walker it frees.
@example(runs=[(page, 1, (64,)) for page in (0, 1, 2, 0, 3, 4)],
         mmu=MmuConfig(num_ptws=2, walk_cycles_per_level=7),
         dram_cfg=DramConfig(), ps=PageSize.SMALL_4K, start=0)
# One TLB entry. Page 0 hits from cycle 34 while the walk of page 1 runs;
# that walk ends at cycle 61 and evicts page 0, so the hit run stops there
# and the request of cycle 62 walks again.
@example(runs=[(0, 1, (64,)), (0, 5, (64,)), (1, 1, (64,)), (0, 40, (64,))],
         mmu=MmuConfig(num_ptws=2, tlb_entries=1, walk_cycles_per_level=7),
         dram_cfg=DramConfig(), ps=PageSize.SMALL_4K, start=0)
# One TLB entry, no merge buffer. Page 0 starts three walks, ending at
# cycles 28 .. 30, and page 1 one, ending at 31. Page 0 hits from cycle 29:
# its own walks ending at 29 and 30 leave the hit run alone, but page 1's
# fill at 31 evicts page 0, so the run stops there.
@example(runs=[(0, 3, (64,)), (1, 1, (64,)), (0, 40, (64,))],
         mmu=MmuConfig(num_ptws=4, tlb_entries=1, walk_cycles_per_level=7),
         dram_cfg=DramConfig(), ps=PageSize.SMALL_4K, start=0)
# The walk of unmapped page 6 faults at cycle 59, the cycle in which a
# pending run of page 0's hits (accepted at cycles 32 .. 59) delivers.
@example(runs=[(0, 1, (64,)), (0, 3, (64,)), (MAPPED_PAGES, 1, (64,)),
               (0, 40, (64,))],
         mmu=MmuConfig(num_ptws=2, walk_cycles_per_level=7),
         dram_cfg=DramConfig(), ps=PageSize.SMALL_4K, start=0)
# Hits complete in the cycle they are accepted, and data lands then too.
@example(runs=[(0, 1, (64,)), (0, 5, (64, 100)), (1, 1, (64,)), (0, 40, (64,))],
         mmu=MmuConfig(num_ptws=2, tlb_hit_latency=0, prmb_slots=32,
                       walk_cycles_per_level=7),
         dram_cfg=DramConfig(bandwidth_bytes_per_cycle=16, access_latency=0),
         ps=PageSize.SMALL_4K, start=0)
@settings(max_examples=300, deadline=None)
@given(runs=page_runs(), mmu=MMU_POINTS, dram_cfg=DRAM_POINTS,
       ps=PAGE_SIZES, start=st.integers(0, 40))
def test_simulate_fetch_matches_per_cycle_reference(runs, mmu, dram_cfg, ps, start):
    assert (fetch_outcome(simulate_fetch, runs, mmu, dram_cfg, ps, start)
            == fetch_outcome(reference_fetch, runs, mmu, dram_cfg, ps, start))


@example(pages=[0, 1, 2, 0, 3, 4],
         mmu=MmuConfig(num_ptws=2, walk_cycles_per_level=7),
         dram_cfg=DramConfig(), ps=PageSize.SMALL_4K, start=0)
@settings(max_examples=300, deadline=None)
@given(pages=st.lists(st.integers(0, MAPPED_PAGES), max_size=40),
       mmu=MMU_POINTS, dram_cfg=DRAM_POINTS, ps=PAGE_SIZES,
       start=st.integers(0, 40))
def test_drain_trace_matches_per_cycle_reference(pages, mmu, dram_cfg, ps, start):
    assert (drain_outcome(drain_trace, pages, mmu, dram_cfg, ps, start)
            == drain_outcome(reference_drain, pages, mmu, dram_cfg, ps, start))


def test_skip_blocked_counts_every_retry_and_returns_the_next_event():
    engine, _, first = setup(MmuConfig(num_ptws=1, walk_cycles_per_level=10),
                             DramConfig(), PageSize.SMALL_4K)
    assert engine.submit(first, 0).status is SubmitStatus.NEW_WALK
    assert engine.tick(0) == ()
    assert engine.submit(first + 1, 1).status is BLOCKED
    before = engine.stats.copy()
    # the walk ends at cycle 40: retries at 2 .. 39, ticks 1 .. 39 skipped
    assert engine.skip_blocked(first + 1, 1) == 40
    assert engine.stats.tlb_accesses == before.tlb_accesses + 38
    assert engine.stats.blocked_cycles == before.blocked_cycles + 38
    assert engine.submit(first + 1, 40).status is BLOCKED
    assert engine.skip_blocked(first + 1, 40) == 40     # an event is due now
    assert engine.stats.blocked_cycles == before.blocked_cycles + 39
    assert [c.vpn for c in engine.tick(40)] == [first]
    assert engine.submit(first + 1, 41).status is SubmitStatus.NEW_WALK


def blocked_engine(cause):
    """An engine, a page whose submit came back BLOCKED, its cycle, and the
    status that page's first submit after the stretch gets: blocked behind
    the only walker, or behind a full merge buffer with walkers free."""
    if cause == "walker busy":
        mmu, pages, after = MmuConfig(num_ptws=1), (0, 1), SubmitStatus.NEW_WALK
    else:
        mmu, pages, after = (MmuConfig(num_ptws=2, prmb_slots=1), (0, 0, 0),
                             SubmitStatus.TLB_HIT)
    engine, _, first = setup(mmu, DramConfig(), PageSize.SMALL_4K)
    for now, page in enumerate(pages):
        status = engine.submit(first + page, now).status
        if status is not BLOCKED:
            engine.tick(now)
    assert status is BLOCKED
    return engine, first + pages[-1], len(pages) - 1, after


def state(engine):
    """Everything an engine holds but its page table, with its DRAM's state."""
    held = {k: v for k, v in vars(engine).items() if k not in ("pt", "dram")}
    return held, vars(engine.dram)


@pytest.mark.parametrize("cause", ["walker busy", "merge buffer full"])
def test_skip_blocked_charges_the_stretch_up_front(cause, monkeypatch):
    """The stretch's retries are counted in one step; each retry call
    still reaches `submit` but changes nothing, and the engine is left as
    that many blocked submits would leave it."""
    engine, vpn, now, after = blocked_engine(cause)
    reference, _, _, _ = blocked_engine(cause)
    before = engine.stats.copy()
    calls = []
    submit = TranslationEngine.submit

    def counting(self, vpn, now):
        calls.append(now)
        return submit(self, vpn, now)

    monkeypatch.setattr(TranslationEngine, "submit", counting)
    due = engine.skip_blocked(vpn, now)
    monkeypatch.undo()
    retries = due - now - 1
    assert retries > 0
    assert calls == list(range(now + 1, due))
    rose = {f.name: getattr(engine.stats, f.name) - getattr(before, f.name)
            for f in fields(before)}
    assert rose == {name: retries if name == "blocked_cycles" else 0
                    for name in rose}
    for derived in ("tlb_accesses", "tlb_misses"):
        assert (getattr(engine.stats, derived)
                == getattr(before, derived) + retries)
    for t in range(now + 1, due):
        assert reference.submit(vpn, t).status is BLOCKED
    assert state(engine) == state(reference)
    engine.tick(due)
    assert engine.submit(vpn, due).status is after
