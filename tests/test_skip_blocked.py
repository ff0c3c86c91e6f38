"""Blocked stretches and page runs against per-cycle loops.

`npu.simulate_fetch` and `mmu.drain_trace` skip the idle ticks of a blocked
stretch through `TranslationEngine.skip_blocked`, and `simulate_fetch`
takes a page run's TLB hits and merges through `accept_run`, ticks the
cycles of a stretch of such runs at once and debits DRAM a run of groups
at a time. The references here submit, tick and debit one group in every
cycle, as the submit/tick protocol was first written. Both sides must end
in the same cycle with the same engine counters, the same DRAM state and
the same completions in the same order, or fault on the same page.
"""

from dataclasses import fields, replace

import pytest
from hypothesis import example, given, settings, strategies as st

from npusim import npu
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


# Stretches of page runs that `simulate_fetch` ticks once.
STRETCHES = {
    # Pages 0 and 1 are in the TLB from cycle 29; then 40 runs of hits and
    # no walk, more than one stretch holds.
    "more runs than the cap": dict(
        runs=[(0, 1, (64,)), (1, 1, (64,))]
        + [(i % 2, 1 + i % 3, (64,) if i % 4 < 2 else (100,)) for i in range(40)],
        mmu=MmuConfig(num_ptws=2, walk_cycles_per_level=7),
        dram_cfg=DramConfig(), ps=PageSize.SMALL_4K, start=0),
    # Two TLB entries. The walk of page 2 starts at cycle 31 and ends at 59,
    # the last cycle of the stretch of page 0's hits from 32; its fill
    # evicts page 1, which walks again. The stretch of cycle 30 ends at
    # page 2's miss.
    "a walk end on the stretch's last cycle": dict(
        runs=[(page, count, (64,)) for page, count in
              [(0, 1), (1, 1), (0, 2), (2, 1), (0, 10), (0, 18), (1, 3), (0, 5)]],
        mmu=MmuConfig(num_ptws=2, tlb_entries=2, walk_cycles_per_level=7),
        dram_cfg=DramConfig(), ps=PageSize.SMALL_4K, start=0),
    # Merges into the walks of pages 0 and 1 at cycles 2 .. 10, ended by
    # page 2's miss at 11; hits complete in the cycle they are accepted.
    "a stretch ending on a miss, zero hit latency": dict(
        runs=[(0, 1, (64,)), (1, 1, (64,)), (0, 3, (64, 100)), (1, 4, (64,)),
              (0, 2, (64,)), (2, 3, (64,)), (0, 4, (64,)), (2, 2, (64,))],
        mmu=MmuConfig(num_ptws=2, prmb_slots=32, tlb_hit_latency=0,
                      walk_cycles_per_level=7),
        dram_cfg=DramConfig(bandwidth_bytes_per_cycle=16, access_latency=0),
        ps=PageSize.SMALL_4K, start=0),
}


@example(**STRETCHES["more runs than the cap"])
@example(**STRETCHES["a walk end on the stretch's last cycle"])
@example(**STRETCHES["a stretch ending on a miss, zero hit latency"])
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


@pytest.mark.parametrize("cap", [1, 10**6])
@pytest.mark.parametrize("name", list(STRETCHES))
def test_stretch_cap_changes_no_outcome(name, cap, monkeypatch):
    """The cap on a stretch bounds pending events only: one run per tick,
    or no cap at all, gives the same fetch."""
    case = STRETCHES[name]
    capped = fetch_outcome(simulate_fetch, **case)
    monkeypatch.setattr(npu, "_STRETCH_RUNS", cap)
    assert fetch_outcome(simulate_fetch, **case) == capped


@example(pages=[0, 1, 2, 0, 3, 4],
         mmu=MmuConfig(num_ptws=2, walk_cycles_per_level=7),
         dram_cfg=DramConfig(), ps=PageSize.SMALL_4K, start=0)
# One walker. Page 1 is blocked at cycles 4 .. 7 behind page 0's walk,
# which ends at 7 and frees the walker in the cycle of the last blocked
# submit; page 1's walk starts at 8.
@example(pages=[0, 1, 2],
         mmu=MmuConfig(num_ptws=1, walk_cycles_per_level=1),
         dram_cfg=DramConfig(), ps=PageSize.SMALL_4K, start=3)
# Three requests merge into page 0's walk, which ends at cycle 31; they
# drain at 32 .. 34, and the last of them ends the drain.
@example(pages=[0, 0, 0, 0],
         mmu=MmuConfig(num_ptws=1, prmb_slots=32, walk_cycles_per_level=7),
         dram_cfg=DramConfig(), ps=PageSize.SMALL_4K, start=3)
# The trace is in by cycle 5, while all three walks run until 403 .. 405.
@example(pages=[0, 1, 2],
         mmu=MmuConfig(walk_cycles_per_level=100),
         dram_cfg=DramConfig(), ps=PageSize.SMALL_4K, start=3)
@settings(max_examples=300, deadline=None)
@given(pages=st.lists(st.integers(0, MAPPED_PAGES), max_size=40),
       mmu=MMU_POINTS, dram_cfg=DRAM_POINTS, ps=PAGE_SIZES,
       start=st.integers(0, 40))
def test_drain_trace_matches_per_cycle_reference(pages, mmu, dram_cfg, ps, start):
    assert (drain_outcome(drain_trace, pages, mmu, dram_cfg, ps, start)
            == drain_outcome(reference_drain, pages, mmu, dram_cfg, ps, start))


class TickCountingEngine(RecordingEngine):
    """A recording engine that keeps the cycle of every tick."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ticks = []

    def tick(self, now):
        out = super().tick(now)
        self.ticks.append((now, len(out)))
        return out


@pytest.mark.parametrize("mmu", [
    MmuConfig(num_ptws=2, walk_cycles_per_level=7),
    MmuConfig(num_ptws=2, tlb_entries=1, prmb_slots=1, walk_cycles_per_level=7),
    MmuConfig(num_ptws=8, prmb_slots=32, tlb_hit_latency=0,
              translation_cache="tpr", walk_cycles_per_level=1),
])
def test_drain_trace_makes_no_idle_tick(mmu):
    """Every tick of `drain_trace` delivers something: it ticks exactly the
    cycles in which some request completes."""
    seg = Segment("s", BASE, MAPPED_PAGES * 4096)
    engine = TickCountingEngine(mmu, build([seg], PageSize.SMALL_4K))
    first = seg.vpn_range(PageSize.SMALL_4K)[0]
    pages = [0, 1, 2, 0, 0, 3, 4, 0, MAPPED_PAGES, 5, 1, 1, 1, 2] * 3
    drain_trace(engine, [first + page for page in pages], 7)
    assert engine.stats.completions == len(pages)
    assert all(delivered for _, delivered in engine.ticks)
    assert ([now for now, _ in engine.ticks]
            == sorted({comp.done_cycle for comp in engine.delivered}))


@pytest.mark.parametrize("k", [1, 31, 32, 33, 100])
def test_all_hit_runs_tick_once_per_stretch(k):
    """A fetch of k page runs that all hit in the TLB, with no walk
    pending, ticks once per stretch of at most `_STRETCH_RUNS` runs. The
    hits complete in the cycle they are accepted, so no delivery is left
    for ticks after the last stretch."""
    seg = Segment("s", BASE, MAPPED_PAGES * 4096)
    mmu = MmuConfig(tlb_hit_latency=0)
    dram = Dram(DramConfig())
    engine = TickCountingEngine(mmu, build([seg], PageSize.SMALL_4K), dram=dram)
    first = seg.vpn_range(PageSize.SMALL_4K)[0]
    start = simulate_fetch([(first, 1, (64,)), (first + 1, 1, (64,))],
                           engine, dram, 0)
    engine.ticks.clear()
    runs = [(first + i % 2, 1 + i % 3, (64,)) for i in range(k)]
    simulate_fetch(runs, engine, dram, start)
    assert engine.stats.walks_started == 2
    assert engine.stats.completions == 2 + sum(count for _, count, _ in runs)
    assert len(engine.ticks) <= -(-k // npu._STRETCH_RUNS) + 1


def test_skip_blocked_counts_every_retry_and_returns_the_next_event():
    engine, _, first = setup(MmuConfig(num_ptws=1, walk_cycles_per_level=10),
                             DramConfig(), PageSize.SMALL_4K)
    assert engine.submit(first, 0).status is SubmitStatus.NEW_WALK
    assert engine.tick(0) == ()
    assert engine.submit(first + 1, 1).status is BLOCKED
    before = replace(engine.stats)
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
    before = replace(engine.stats)
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
