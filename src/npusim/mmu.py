"""Cycle-level translation engine: TLB, walk scoreboard, merge buffers,
parallel page-table walkers, and optional translation-path caching.

`TranslationEngine` is the modelled MMU only. The oracle MMU, which
translates every request in the cycle it is offered, is a closed form
where it is used (`npu.oracle_fetch`, `numa.translate_gathers`); `Oracle`
is the record the harness hands to `run_layer` in its place.

Request life cycle per cycle-accurate submit/tick protocol:

  submit(vpn, now) probes the TLB first. A hit schedules a completion at
  ``now + tlb_hit_latency``. On a miss, the pending-walk scoreboard is
  checked: if a walker is already translating this VPN and has a free merge
  slot, the request is absorbed and waits for that walk. Otherwise a free
  walker starts a radix walk; if none is free (or the merge buffer is full)
  the request is Blocked and the caller retries next cycle. Accepted
  requests get consecutive ids in acceptance order.

  tick(now) is called after that cycle's submits. It delivers every event
  due by `now`, in cycle order and, within a cycle, in push order: a
  finishing walk fills the TLB, updates the configured translation cache,
  completes its leading request, then drains its merged requests one per
  subsequent cycle. One tick may cover several cycles, and each completion
  carries the cycle it was due in; a submit at cycle t must follow a tick
  that covered every event due before t.

  accept_run(vpn, count, now) folds the submits of one page at cycles
  now, now + 1, ... into one call, for as many of them as would be TLB
  hits, or as would merge into the walk of that page. Only a finishing
  walk can change either outcome: it fills the TLB, which may evict the
  page or reorder the LRU list; it takes its page off the scoreboard; and
  if it faults, the caller stops. A redundant walk of a hit page itself
  (without merge buffers) refills the same frame, leaves the page at the
  MRU end, where the hit put it, and cannot fault, as the table does not
  change during a fetch. A cycle's submit comes before its tick, so a hit
  run goes up to and including the cycle in which the next walk of
  another page ends, and a merge run to the next walk end and the
  walker's free slots. No other submit is made inside the window, and
  only the tick of its last cycle can push an event (a page's own walk
  pushes none), after all of the window's submits. So a hit run is one
  pending event whose push-order place, taken at accept time, is where
  each of its requests would sort, and a merge run is one entry of the
  merge buffer. Walk starts and blocked requests go through `submit`.
  It reads only what a walk end changes, so it need only follow a tick
  that covered every *walk end* before `now`: runs up to `next_walk_end`
  can go in one after another and be ticked once, before the next submit.

  A completion covers `count` requests that complete one per cycle: one
  request, a hit run, or a merge-buffer entry drained after its walk. A
  tick hands a run out whole when it ends by `now` and no other event
  falls inside it; otherwise it cuts the run there, and the rest keeps its
  push-order place. Requests thus come out in the order, and with the
  cycles, that one submit and one tick per cycle would give.

  A tick may be skipped for a cycle before the next pending event, since it
  would deliver nothing. `skip_blocked` is how that happens: called after a
  BLOCKED submit and before that cycle's tick, it returns the cycle of the
  next event, and the caller resumes there without ticking the cycles in
  between. Nothing changes before an event fires, so each retry of the
  request up to that cycle is a TLB miss that blocks and changes no state:
  `skip_blocked` charges the whole stretch to the blocked counter in one
  step, and the TLB probe and miss counts follow from it. It still makes
  the stretch's retries, one `submit` per cycle, but a stretch marker
  answers each BLOCKED at once, with no TLB, scoreboard or walker probe.
  The calls stay because blocked cycles are still counted from outside as
  BLOCKED `submit` returns (the benchmark's traced cross-check, a DMA-loop
  test); once those counts read the skipped retries off `skip_blocked`'s
  return, the calls and the marker can go.

With merge buffers disabled (prmb_slots == 0) there is no scoreboard:
duplicate in-flight VPNs each dispatch their own redundant walk, as long as
walkers are free. This is the plain parallel-walker design the merge
buffer exists to filter.

Translation caches skip upper walk levels:

  * path register ("tpr"): one per walker, holds the upper radix indices
    (the tag, one integer: `path_tag`) of that walker's last completed
    walk. A full tag match starts the walk at the leaf node.
  * path cache ("tpc"): shared, LRU, same full-path tags.
  * unified cache ("uptc"): shared, LRU, tags individual interior entries
    by their physical address; the walk starts below the deepest
    consecutive hit from the root.

The cache names follow Barr et al., "Translation Caching: Skip, Don't Walk
(the Page Table)", ISCA 2010. Only a unified-cache walk needs the node
reads of `PageTable.walk_path`; every other walk takes its frame or fault
level from `PageTable.walk_outcome` and its depth from that.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum
from heapq import heappop, heappush
from typing import ClassVar, List, NamedTuple, Optional, Sequence

from .address_space import INDEX_BITS, PAGE_SIZES
from .memory import Dram
from .page_table import PageTable, WalkStep, fault_depth
from .schema import Record, knob


def path_tag(vpn: int, levels: int) -> int:
    """The radix indices above the leaf level of a `levels`-level walk of
    `vpn`, top-down, packed into one integer of 9 bits per level (the
    path-cache tag)."""
    return (vpn >> INDEX_BITS) & ((1 << INDEX_BITS * (levels - 1)) - 1)


def prefix_depth(a: int, b: int, levels: int) -> int:
    """Leading radix indices that the path tags `a` and `b` share."""
    return levels - 1 - ((a ^ b).bit_length() + INDEX_BITS - 1) // INDEX_BITS


@dataclass(frozen=True)
class MmuConfig(Record):
    mode: str = knob("modeled", choices=("modeled", "oracle"))
    tlb_entries: int = knob(2048, lo=1)
    tlb_hit_latency: int = knob(5, lo=0)
    num_ptws: int = knob(8, lo=1)         # parallel page-table walkers
    prmb_slots: int = knob(0, lo=0)       # per walker; 0 disables merging
    walk_cycles_per_level: int = knob(100, lo=1)
    translation_cache: str = knob("none", choices=("none", "tpr", "tpc", "uptc"))
    cache_entries: int = knob(1, lo=1)    # for tpc/uptc
    charge_walk_bandwidth: bool = True    # walk reads debit DRAM bandwidth
    page_size: str = knob("4k", choices=tuple(PAGE_SIZES))  # of pages and walks


class SubmitStatus(Enum):
    TLB_HIT = "tlb_hit"
    MERGED = "merged"
    NEW_WALK = "new_walk"
    BLOCKED = "blocked"


class SubmitResult(NamedTuple):
    status: SubmitStatus
    request_id: Optional[int] = None
    done_cycle: Optional[int] = None      # for TLB hits

    @property
    def accepted(self) -> bool:
        return self.status is not SubmitStatus.BLOCKED


# Most submits of a walker-bound run are blocked retries; they all share
# this one immutable result.
_BLOCKED = SubmitResult(SubmitStatus.BLOCKED)


class TranslationCompletion(NamedTuple):
    """Requests request_id .. request_id + count - 1 of page `vpn`, which
    complete at done_cycle .. done_cycle + count - 1, one per cycle. A
    completion is a fault exactly when `frame` is None."""
    request_id: int
    vpn: int
    frame: Optional[int]                  # None on fault
    done_cycle: int
    fault_level: Optional[int] = None
    count: int = 1


# Builds a SubmitResult or TranslationCompletion from all of its fields,
# `_new(Cls, fields)`, at about half the cost of the generated constructor.
_new = tuple.__new__


@dataclass
class TranslationStats:
    """The engine's counters. The fields are stored. Every submit probes
    the TLB once and is either accepted or blocked, so the TLB counts are
    derived: `tlb_accesses` is `accepted + blocked_cycles`, and
    `tlb_misses` is `tlb_accesses - tlb_hits`."""
    accepted: int = 0
    completions: int = 0
    faults: int = 0
    tlb_hits: int = 0
    scoreboard_merges: int = 0
    merge_buffer_accesses: int = 0
    walks_started: int = 0
    walk_memory_transactions: int = 0
    blocked_cycles: int = 0
    cache_probes: int = 0
    cache_hit_l4: int = 0
    cache_hit_l3: int = 0
    cache_hit_l2: int = 0

    @property
    def tlb_accesses(self) -> int:
        return self.accepted + self.blocked_cycles

    @property
    def tlb_misses(self) -> int:
        return self.tlb_accesses - self.tlb_hits

    @property
    def tlb_hit_rate(self) -> float:
        return self.tlb_hits / self.tlb_accesses if self.tlb_accesses else 0.0


@dataclass(frozen=True)
class Oracle:
    """The oracle MMU of one page table, at the table's page size: every
    translation completes in the cycle it is offered, with
    `PageTable.walk_outcome`'s answer, and is counted nowhere. `run_layer`
    fetches through `npu.oracle_fetch` when handed one. `cfg` and `stats`
    read as an engine's would, mode "oracle" and every counter zero, for
    perfbench's tracer, which reads them off `run_layer`'s engine
    argument; no simulator code reads them."""
    pt: PageTable
    cfg: ClassVar[MmuConfig] = MmuConfig(mode="oracle")
    stats: ClassVar[TranslationStats] = TranslationStats()


@dataclass(slots=True)
class _Walker:
    vpn: int = 0
    leading: int = 0                      # request id of the walk's owner
    merged: list = field(default_factory=list)  # (first request id, count)
    merges: int = 0                       # merge slots taken
    frame: Optional[int] = None
    fault_level: Optional[int] = None
    # what a successful walk installs in the translation cache: its path
    # tag (tpr/tpc) or its node reads (uptc); None if nothing
    cache_fill: object = None
    path_register: Optional[int] = None   # tag of the last completed walk


class TranslationEngine:
    """One modelled MMU of page table `pt`, walking at the table's page
    size; single-threaded, one simulation owns it. Its mode must be
    "modeled": the oracle is `Oracle`."""

    def __init__(self, cfg: MmuConfig, pt: PageTable, dram: Optional[Dram] = None):
        if cfg.mode != "modeled":
            raise ValueError(f"TranslationEngine models the MMU; mode "
                             f"{cfg.mode!r} is not an engine mode")
        self.cfg = cfg
        self.pt = pt
        self.dram = dram
        self.stats = TranslationStats()
        self._levels = levels = pt.page_size.levels
        self._tag_mask = (1 << INDEX_BITS * (levels - 1)) - 1  # of `path_tag`
        # the knobs the walk path reads, read once
        self._hit_latency = cfg.tlb_hit_latency
        self._prmb_slots = cfg.prmb_slots
        self._walk_cycles = cfg.walk_cycles_per_level
        self._cache_kind = cfg.translation_cache
        self._tlb_entries = cfg.tlb_entries
        self._charge_walks = dram is not None and cfg.charge_walk_bandwidth
        self._tlb: OrderedDict[int, int] = OrderedDict()
        self._walkers = [_Walker() for _ in range(cfg.num_ptws)]
        self._free = list(range(cfg.num_ptws - 1, -1, -1))
        self._scoreboard: dict[int, int] = {}
        # shared tpc tags or uptc entry addresses; keys only, as a probe
        # tests membership
        self._cache: OrderedDict = OrderedDict()
        self._events: list = []           # (cycle, seq, kind, payload)
        # (finish, vpn) of pending walks (heap). A hit run stops only at
        # another page's end, which may evict it; its own walks refill it.
        self._walk_ends: list = []
        self._seq = 0
        self._last_tick = -1
        self._retry_until = 0             # submits before it: charged retries

    # -- public API ---------------------------------------------------------

    @property
    def in_flight(self) -> int:
        return self.stats.accepted - self.stats.completions

    @property
    def next_request_id(self) -> int:
        """The id the next accepted request gets: requests are numbered
        in acceptance order from 0."""
        return self.stats.accepted

    @property
    def next_walk_end(self) -> float:
        """The cycle the next pending walk ends in; infinity if none."""
        return self._walk_ends[0][0] if self._walk_ends else math.inf

    def submit(self, vpn: int, now: int) -> SubmitResult:
        if now < self._retry_until:       # a retry `skip_blocked` charged
            return _BLOCKED
        stats = self.stats
        rid = stats.accepted
        frame = self._tlb.get(vpn)
        if frame is not None:
            self._tlb.move_to_end(vpn)
            stats.tlb_hits += 1
            stats.accepted = rid + 1
            done = now + self._hit_latency
            self._seq = seq = self._seq + 1
            heappush(self._events, (done, seq, "deliver", _new(
                TranslationCompletion, (rid, vpn, frame, done, None, 1))))
            return _new(SubmitResult, (SubmitStatus.TLB_HIT, rid, done))

        if self._prmb_slots:
            wid = self._scoreboard.get(vpn)
            if wid is not None:
                walker = self._walkers[wid]
                if walker.merges < self._prmb_slots:
                    walker.merged.append((rid, 1))
                    walker.merges += 1
                    stats.scoreboard_merges += 1
                    stats.merge_buffer_accesses += 1
                    stats.accepted = rid + 1
                    return _new(SubmitResult, (SubmitStatus.MERGED, rid, None))
                stats.blocked_cycles += 1
                return _BLOCKED

        if not self._free:
            stats.blocked_cycles += 1
            return _BLOCKED
        self._start_walk(vpn, now, rid)
        stats.accepted = rid + 1
        return _new(SubmitResult, (SubmitStatus.NEW_WALK, rid, None))

    def accept_run(self, vpn: int, count: int, now: int) -> int:
        """Accept the requests for `vpn` of cycles now, now + 1, ... (at
        most `count`) that `submit` would take as TLB hits, or as merges
        into the walk of `vpn`; return how many it took.

        A hit run stops with the cycle in which the next walk of another
        page ends, whose fill may evict `vpn`; a redundant walk of `vpn`
        itself refills the same frame and cannot fault. A merge run stops
        with the next walk end, and at the walker's free slots. Its
        requests are counted as that many submits would count them, and
        get the ids from `next_request_id` on. 0 means the request of
        cycle `now` would start a walk or block: submit it instead. It
        must follow a tick that covered every walk end before `now`; the
        deliveries and walker frees due before `now` may still be pending.
        """
        ends = self._walk_ends
        stats = self.stats
        rid = stats.accepted
        frame = self._tlb.get(vpn)
        if frame is not None:
            if ends:
                end, page = ends[0]
                if page == vpn:
                    end = min((f for f, v in ends if v != vpn), default=now + count)
                if end - now + 1 < count:
                    count = end - now + 1
            self._tlb.move_to_end(vpn)
            stats.tlb_hits += count
            done = now + self._hit_latency
            self._seq = seq = self._seq + 1
            heappush(self._events, (done, seq, "deliver", _new(
                TranslationCompletion, (rid, vpn, frame, done, None, count))))
        else:
            wid = self._scoreboard.get(vpn)   # empty without merge buffers
            if wid is None:
                return 0
            walker = self._walkers[wid]
            free = self._prmb_slots - walker.merges
            if free < count:
                count = free
            if ends[0][0] - now + 1 < count:
                count = ends[0][0] - now + 1
            if count < 1:
                return 0
            walker.merged.append((rid, count))
            walker.merges += count
            stats.scoreboard_merges += count
            stats.merge_buffer_accesses += count
        stats.accepted = rid + count
        return count

    def tick(self, now: int) -> Sequence[TranslationCompletion]:
        """Deliver every event due by cycle `now`; return the completions.

        `now` must exceed the cycle of the previous tick; the cycles in
        between are covered by this one.
        """
        if now <= self._last_tick:
            raise ValueError("tick cycles must be strictly increasing")
        self._last_tick = now
        events = self._events
        if not events or events[0][0] > now:
            return ()                     # idle cycle: nothing due
        stats = self.stats
        out: List[TranslationCompletion] = []
        while events and events[0][0] <= now:
            cycle, seq, kind, payload = heappop(events)
            if kind == "deliver":
                count = payload.count
                if count > 1:
                    # the run goes out up to `now` and up to the next
                    # event; the rest keeps its place in push order
                    cut = now
                    if events and events[0][0] <= now:
                        cut = events[0][0] - 1
                    if cut < cycle + count - 1:
                        head = cut - cycle + 1 if cut > cycle else 1
                        rid, vpn, frame, _, level, _ = payload
                        heappush(events, (cycle + head, seq, kind, _new(
                            TranslationCompletion, (rid + head, vpn, frame,
                                                    cycle + head, level,
                                                    count - head))))
                        payload = _new(TranslationCompletion,
                                       (rid, vpn, frame, cycle, level, head))
                        count = head
                out.append(payload)
                stats.completions += count
                if payload.frame is None:
                    stats.faults += count
            elif kind == "walk_done":
                heappop(self._walk_ends)  # some end of this cycle; the tick pops all
                self._finish_walk(payload, cycle, out)
            else:  # "free"
                self._free.append(payload)
        return out

    def skip_blocked(self, vpn: int, now: int) -> int:
        """Retry a blocked `vpn` until the next event; return that cycle.

        Call it after `submit(vpn, now)` came back BLOCKED and before
        `tick(now)`. Let `due` be the cycle of the earliest pending event,
        read before that tick (a walker it frees would otherwise be missed).
        If `due > now`, nothing can change before `due`, so each retry at
        now + 1 .. due - 1 would be a blocked TLB miss and nothing more.
        The due - now - 1 retries are charged in one step to
        `blocked_cycles`, the one counter such a submit adds to (the TLB
        counts follow from it), and `due` is returned; the caller skips the
        ticks of cycles now .. due - 1, which would all be idle, and
        resumes at cycle `due`. Otherwise it returns `now`.

        The retries are still made, one `submit` per cycle, for whatever
        counts BLOCKED returns from outside; a stretch marker, cleared
        before the return, makes each one return BLOCKED at once and count
        nothing more.
        """
        events = self._events
        due = events[0][0] if events else now
        if due <= now:
            return now
        self.stats.blocked_cycles += due - now - 1
        self._retry_until = due
        submit = self.submit
        for t in range(now + 1, due):
            submit(vpn, t)
        self._retry_until = 0
        return due

    # -- internals ----------------------------------------------------------

    def _start_walk(self, vpn: int, now: int, rid: int) -> None:
        wid = self._free.pop()
        walker = self._walkers[wid]
        stats = self.stats
        levels = self._levels
        kind = self._cache_kind
        fill = None
        if kind == "uptc":
            path = self.pt.walk_path(vpn)
            reads = path[self._probe_unified(path):]
            txns = len(reads)
            last = path[-1]
            if last.present:
                frame, fault_level, fill = last.value, None, reads
            else:
                frame, fault_level = None, last.level
        else:
            frame, fault_level = self.pt.walk_outcome(vpn)
            txns = levels if frame is not None else fault_depth(fault_level)
            if kind != "none":
                tag = vpn >> INDEX_BITS & self._tag_mask  # `path_tag`
                if kind == "tpr":         # a path cache of one entry
                    stats.cache_probes += 1
                    nearest = walker.path_register
                    depth = 0 if nearest is None else levels - 1 - (  # `prefix_depth`
                        (tag ^ nearest).bit_length() + INDEX_BITS - 1) // INDEX_BITS
                    if depth:
                        self._count_hits(depth)
                else:
                    depth = self._probe_path_cache(tag, levels)
                # Only a full-path tag match lets the walk jump to the leaf
                # node, and only when the radix path actually reaches it.
                if depth == levels - 1 and txns == levels:
                    txns = 1
                if frame is not None:
                    fill = tag

        walker.vpn = vpn
        walker.leading = rid
        walker.frame = frame
        walker.fault_level = fault_level
        walker.cache_fill = fill
        finish = now + txns * self._walk_cycles

        if self._prmb_slots:
            self._scoreboard[vpn] = wid
        stats.walks_started += 1
        stats.walk_memory_transactions += txns
        if self._charge_walks:
            self.dram.consume(txns * 64, now)
        self._seq = seq = self._seq + 1
        heappush(self._events, (finish, seq, "walk_done", wid))
        heappush(self._walk_ends, (finish, vpn))

    def _finish_walk(self, wid: int, now: int,
                     out: List[TranslationCompletion]) -> None:
        walker = self._walkers[wid]
        vpn = walker.vpn
        stats = self.stats
        if self._prmb_slots and self._scoreboard.get(vpn) == wid:
            del self._scoreboard[vpn]

        frame = walker.frame
        if frame is not None:
            tlb = self._tlb
            if vpn in tlb:
                tlb.move_to_end(vpn)
            elif len(tlb) >= self._tlb_entries:
                tlb.popitem(last=False)
            tlb[vpn] = frame
            fill = walker.cache_fill
            if fill is not None:
                if self._cache_kind == "tpr":
                    walker.path_register = fill
                else:
                    self._cache_fill(fill)
        else:
            stats.faults += 1
        out.append(_new(TranslationCompletion, (walker.leading, vpn, frame, now,
                                                walker.fault_level, 1)))
        stats.completions += 1

        if not walker.merges:
            self._free.append(wid)
            return
        # Merged requests drain one per cycle after the leading completion,
        # one run per merge-buffer entry; the walker frees with the last.
        events, seq = self._events, self._seq
        t = now + 1
        level = walker.fault_level
        for rid, count in walker.merged:
            seq += 1
            heappush(events, (t, seq, "deliver", _new(
                TranslationCompletion, (rid, vpn, frame, t, level, count))))
            t += count
        self._seq = seq = seq + 1
        heappush(events, (t - 1, seq, "free", wid))
        stats.merge_buffer_accesses += walker.merges
        walker.merged = []
        walker.merges = 0

    # -- translation caches -------------------------------------------------

    def _probe_path_cache(self, tag: int, levels: int) -> int:
        """Probe the path cache (tpc) for `tag`; return the longest prefix
        any entry shares with it (`levels - 1` on a full-path match) and
        count a hit at each of its levels. `_start_walk` probes a path
        register (tpr) the same way, inline."""
        self.stats.cache_probes += 1
        cache = self._cache
        if not cache:
            return 0
        # the longest shared prefix leaves the smallest XOR
        depth = prefix_depth(tag, min(cache, key=tag.__xor__), levels)
        if tag in cache:
            cache.move_to_end(tag)
        self._count_hits(depth)
        return depth

    def _probe_unified(self, path: List[WalkStep]) -> int:
        """Probe the unified cache for the walk's interior entries from the
        root down; return how many consecutive ones hit."""
        self.stats.cache_probes += 1
        cache = self._cache
        skipped = 0
        for step in path[:-1]:
            if step.entry_addr not in cache:
                break
            cache.move_to_end(step.entry_addr)
            skipped += 1
        self._count_hits(skipped)
        return skipped

    def _count_hits(self, depth: int) -> None:
        """Count a hit at each of the `depth` levels a probe skipped from
        the root: L4, then L3, then L2."""
        stats = self.stats
        stats.cache_hit_l4 += depth >= 1
        stats.cache_hit_l3 += depth >= 2
        stats.cache_hit_l2 += depth >= 3

    def _cache_fill(self, fill) -> None:  # tpc and uptc; tpr is inline
        cache = self._cache
        if self._cache_kind == "tpc":
            cache[fill] = None
            cache.move_to_end(fill)
            while len(cache) > self.cfg.cache_entries:
                cache.popitem(last=False)
        else:  # uptc: install the interior entries read, all but the leaf
            for step in fill[:-1]:
                cache[step.entry_addr] = None
                cache.move_to_end(step.entry_addr)
                while len(cache) > self.cfg.cache_entries:
                    cache.popitem(last=False)


def drain_trace(engine: TranslationEngine, vpns: List[int], start: int = 0) -> int:
    """Feed VPNs at one submit per cycle (retrying blocks) and run to drain.

    Returns the cycles elapsed, as a submit and a tick in every cycle
    would give. The completions are left to the engine's ticks and kept
    nowhere; the engine's stats count them and their faults. No tick is
    idle: one is made only in a cycle with an event due. A blocked stretch
    runs through `TranslationEngine.skip_blocked`, and once every VPN is
    in, the drain jumps from event to event.
    """
    submit, tick, skip = engine.submit, engine.tick, engine.skip_blocked
    events = engine._events               # (cycle, ...) heap; [0] is next
    blocked = SubmitStatus.BLOCKED
    cycle = start
    for vpn in vpns:
        while submit(vpn, cycle).status is blocked:
            # a block leaves an event pending: a walk end or a walker's free
            if events[0][0] > cycle:
                cycle = skip(vpn, cycle)
            else:
                tick(cycle)
                cycle += 1
        if events and events[0][0] <= cycle:
            tick(cycle)
        cycle += 1
    # every request still in flight has a pending event, and vice versa
    while events:
        if events[0][0] > cycle:
            cycle = events[0][0]
        tick(cycle)
        cycle += 1
    return cycle - start
