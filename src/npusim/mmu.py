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
  if it faults, the caller stops. A cycle's submit comes before its tick,
  so the window runs up to and including the cycle in which the next walk
  ends, and a merge run also stops at the walker's free slots. No other
  submit is made inside the window, and only the tick of its last cycle
  can push an event, after all of the window's submits. So a hit run is
  one pending event whose push-order place, taken at accept time, is
  where each of its requests would sort, and a merge run is one entry of
  the merge buffer. Walk starts and blocked requests go through `submit`.

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
  `skip_blocked` charges the whole stretch to the submit, TLB-miss and
  blocked counters in one step. It still makes the stretch's retries, one
  `submit` per cycle, but a stretch marker answers each BLOCKED at once,
  with no TLB, scoreboard or walker probe. The calls stay because blocked
  cycles are still counted from outside as BLOCKED `submit` returns (the
  benchmark's traced cross-check, a DMA-loop test); once those counts
  read the skipped retries off `skip_blocked`'s return, the calls and the
  marker can go.

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

from collections import OrderedDict
from dataclasses import dataclass, field, fields
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


@dataclass
class TranslationStats:
    submitted: int = 0
    accepted: int = 0
    completions: int = 0
    faults: int = 0
    tlb_accesses: int = 0
    tlb_hits: int = 0
    tlb_misses: int = 0
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
    def tlb_hit_rate(self) -> float:
        return self.tlb_hits / self.tlb_accesses if self.tlb_accesses else 0.0

    def copy(self) -> "TranslationStats":
        return TranslationStats(**{f.name: getattr(self, f.name) for f in fields(self)})


@dataclass(frozen=True)
class Oracle:
    """The oracle MMU of one page table, at the table's page size: every
    translation completes in the cycle it is offered, with
    `PageTable.leaf`'s answer, and is counted nowhere. `run_layer` fetches
    through `npu.oracle_fetch` when handed one. `cfg` and `stats` read as
    an engine's would, mode "oracle" and every counter zero, for what reads
    them off `run_layer`'s engine argument: its `RunStats.mmu_stats` and
    perfbench's tracer."""
    pt: PageTable
    cfg: ClassVar[MmuConfig] = MmuConfig(mode="oracle")
    stats: ClassVar[TranslationStats] = TranslationStats()


@dataclass
class _Walker:
    vpn: int = 0
    finish: int = 0
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
        self._tlb: OrderedDict[int, int] = OrderedDict()
        self._walkers = [_Walker() for _ in range(cfg.num_ptws)]
        self._free = list(range(cfg.num_ptws - 1, -1, -1))
        self._scoreboard: dict[int, int] = {}
        # shared tpc tags or uptc entry addresses; keys only, as a probe
        # tests membership
        self._cache: OrderedDict = OrderedDict()
        self._events: list = []           # (cycle, seq, kind, payload)
        self._walk_ends: list = []        # finish cycles of pending walks (heap)
        self._seq = 0
        self._next_req = 0
        self._last_tick = -1
        self._retry_until = 0             # submits before it: charged retries

    # -- public API ---------------------------------------------------------

    @property
    def in_flight(self) -> int:
        return self.stats.accepted - self.stats.completions

    @property
    def next_request_id(self) -> int:
        """The id the next accepted request gets."""
        return self._next_req

    def submit(self, vpn: int, now: int) -> SubmitResult:
        if now < self._retry_until:       # a retry `skip_blocked` charged
            return _BLOCKED
        stats, cfg = self.stats, self.cfg
        stats.submitted += 1
        stats.tlb_accesses += 1
        frame = self._tlb.get(vpn)
        if frame is not None:
            self._tlb.move_to_end(vpn)
            stats.tlb_hits += 1
            stats.accepted += 1
            rid = self._next_req
            self._next_req = rid + 1
            done = now + cfg.tlb_hit_latency
            self._seq = seq = self._seq + 1
            heappush(self._events, (done, seq, "deliver",
                                    TranslationCompletion(rid, vpn, frame, done)))
            return SubmitResult(SubmitStatus.TLB_HIT, rid, done)
        stats.tlb_misses += 1

        if cfg.prmb_slots > 0:
            wid = self._scoreboard.get(vpn)
            if wid is not None:
                walker = self._walkers[wid]
                if walker.merges < cfg.prmb_slots:
                    rid = self._next_req
                    self._next_req = rid + 1
                    walker.merged.append((rid, 1))
                    walker.merges += 1
                    stats.scoreboard_merges += 1
                    stats.merge_buffer_accesses += 1
                    stats.accepted += 1
                    return SubmitResult(SubmitStatus.MERGED, rid)
                stats.blocked_cycles += 1
                return _BLOCKED

        if not self._free:
            stats.blocked_cycles += 1
            return _BLOCKED
        rid = self._next_req
        self._next_req = rid + 1
        self._start_walk(vpn, now, rid)
        stats.accepted += 1
        return SubmitResult(SubmitStatus.NEW_WALK, rid)

    def accept_run(self, vpn: int, count: int, now: int) -> int:
        """Accept the requests for `vpn` of cycles now, now + 1, ... (at
        most `count`) that `submit` would take as TLB hits, or as merges
        into the walk of `vpn`; return how many it took.

        The run stops with the cycle in which the next walk ends and, for
        merges, at the walker's free slots. Its requests are counted as
        that many submits would count them, and get the ids from
        `next_request_id` on. 0 means the request of cycle `now` would
        start a walk or block: submit it instead. Like a submit, it must
        follow a tick that covered every event due before `now`.
        """
        ends = self._walk_ends
        if ends and ends[0] - now < count:
            count = ends[0] - now + 1
        stats = self.stats
        rid = self._next_req
        frame = self._tlb.get(vpn)
        if frame is not None:
            self._tlb.move_to_end(vpn)
            stats.tlb_hits += count
            done = now + self.cfg.tlb_hit_latency
            self._seq = seq = self._seq + 1
            heappush(self._events, (done, seq, "deliver", TranslationCompletion(
                rid, vpn, frame, done, count=count)))
        else:
            wid = self._scoreboard.get(vpn)   # empty without merge buffers
            if wid is None:
                return 0
            walker = self._walkers[wid]
            count = min(count, self.cfg.prmb_slots - walker.merges)
            if count < 1:
                return 0
            walker.merged.append((rid, count))
            walker.merges += count
            stats.tlb_misses += count
            stats.scoreboard_merges += count
            stats.merge_buffer_accesses += count
        self._next_req = rid + count
        stats.submitted += count
        stats.accepted += count
        stats.tlb_accesses += count
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
                    cut = min(now, events[0][0] - 1) if events else now
                    if cut < cycle + count - 1:
                        head = max(cut - cycle + 1, 1)
                        rid, vpn, frame, _, level, _ = payload
                        heappush(events, (cycle + head, seq, kind, TranslationCompletion(
                            rid + head, vpn, frame, cycle + head, level,
                            count - head)))
                        payload = TranslationCompletion(rid, vpn, frame, cycle,
                                                        level, head)
                        count = head
                out.append(payload)
                stats.completions += count
                if payload.frame is None:
                    stats.faults += count
            elif kind == "walk_done":
                heappop(self._walk_ends)
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
        The due - now - 1 retries are charged in one step, to the counters
        such a submit counts, and `due` is returned; the caller skips the
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
        retries = due - now - 1
        stats = self.stats
        stats.submitted += retries
        stats.tlb_accesses += retries
        stats.tlb_misses += retries
        stats.blocked_cycles += retries
        self._retry_until = due
        submit = self.submit
        for t in range(now + 1, due):
            submit(vpn, t)
        self._retry_until = 0
        return due

    # -- internals ----------------------------------------------------------

    def _push(self, cycle: int, kind: str, payload) -> None:
        self._seq += 1
        heappush(self._events, (cycle, self._seq, kind, payload))

    def _start_walk(self, vpn: int, now: int, rid: int) -> None:
        wid = self._free.pop()
        walker = self._walkers[wid]
        cfg, pt = self.cfg, self.pt
        levels = pt.page_size.levels
        kind = cfg.translation_cache
        fill = None
        if kind == "uptc":
            path = pt.walk_path(vpn)
            reads = path[self._probe_unified(path):]
            txns = len(reads)
            last = path[-1]
            if last.present:
                frame, fault_level, fill = last.value, None, reads
            else:
                frame, fault_level = None, last.level
        else:
            frame, fault_level = pt.walk_outcome(vpn)
            txns = levels if frame is not None else fault_depth(fault_level)
            if kind != "none":
                tag = path_tag(vpn, levels)
                # Only a full-path tag match lets the walk jump to the leaf
                # node, and only when the radix path actually reaches it.
                if self._probe_path_tag(walker, tag, levels) and txns == levels:
                    txns = 1
                if frame is not None:
                    fill = tag

        walker.vpn = vpn
        walker.leading = rid
        walker.frame = frame
        walker.fault_level = fault_level
        walker.cache_fill = fill
        walker.finish = now + txns * cfg.walk_cycles_per_level

        if cfg.prmb_slots > 0:
            self._scoreboard[vpn] = wid
        self.stats.walks_started += 1
        self.stats.walk_memory_transactions += txns
        if self.dram is not None and cfg.charge_walk_bandwidth:
            self.dram.consume(txns * 64, now)
        self._push(walker.finish, "walk_done", wid)
        heappush(self._walk_ends, walker.finish)

    def _finish_walk(self, wid: int, now: int,
                     out: List[TranslationCompletion]) -> None:
        walker = self._walkers[wid]
        vpn = walker.vpn
        if self.cfg.prmb_slots > 0 and self._scoreboard.get(vpn) == wid:
            del self._scoreboard[vpn]

        frame = walker.frame
        if frame is not None:
            self._tlb_fill(vpn, frame)
            self._cache_fill(walker)
        else:
            self.stats.faults += 1
        out.append(TranslationCompletion(walker.leading, vpn, frame, now,
                                         walker.fault_level))
        self.stats.completions += 1

        if not walker.merges:
            self._free.append(wid)
            return
        # Merged requests drain one per cycle after the leading completion,
        # one run per merge-buffer entry; the walker frees with the last.
        t = now + 1
        for rid, count in walker.merged:
            self._push(t, "deliver", TranslationCompletion(
                rid, vpn, frame, t, walker.fault_level, count))
            t += count
        self._push(t - 1, "free", wid)
        self.stats.merge_buffer_accesses += walker.merges
        walker.merged = []
        walker.merges = 0

    def _tlb_fill(self, vpn: int, frame: int) -> None:
        if vpn in self._tlb:
            self._tlb.move_to_end(vpn)
            self._tlb[vpn] = frame
            return
        if len(self._tlb) >= self.cfg.tlb_entries:
            self._tlb.popitem(last=False)
        self._tlb[vpn] = frame

    # -- translation caches -------------------------------------------------

    def _probe_path_tag(self, walker: _Walker, tag: int, levels: int) -> bool:
        """Probe the path register (tpr) or path cache (tpc) for `tag`;
        True on a full-path match. Counts a hit at each level of the
        longest prefix any entry shares with `tag`."""
        stats = self.stats
        stats.cache_probes += 1
        if self.cfg.translation_cache == "tpr":
            nearest = walker.path_register
        else:  # tpc: the longest shared prefix leaves the smallest XOR
            cache = self._cache
            nearest = min(cache, key=tag.__xor__) if cache else None
            if tag in cache:
                cache.move_to_end(tag)
        depth = 0 if nearest is None else prefix_depth(tag, nearest, levels)
        self._count_hits(depth)
        return depth == levels - 1

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
        if depth >= 1:
            stats.cache_hit_l4 += 1
        if depth >= 2:
            stats.cache_hit_l3 += 1
        if depth >= 3:
            stats.cache_hit_l2 += 1

    def _cache_fill(self, walker: _Walker) -> None:
        fill = walker.cache_fill
        if fill is None:
            return
        kind = self.cfg.translation_cache
        cache = self._cache
        if kind == "tpr":
            walker.path_register = fill
        elif kind == "tpc":
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

    Returns the cycles elapsed. The completions are left to the engine's
    ticks and kept nowhere; the engine's stats count them and their
    faults. A blocked stretch skips its idle ticks through
    `TranslationEngine.skip_blocked`.
    """
    submit, tick, skip = engine.submit, engine.tick, engine.skip_blocked
    blocked = SubmitStatus.BLOCKED
    n = len(vpns)
    cycle = start
    i = 0
    while i < n or engine.in_flight > 0:
        if i < n:
            vpn = vpns[i]
            if submit(vpn, cycle).status is not blocked:
                i += 1
            else:
                due = skip(vpn, cycle)
                if due > cycle:
                    cycle = due
                    continue
        tick(cycle)
        cycle += 1
    return cycle - start
