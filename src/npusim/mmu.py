"""Cycle-level translation engine: TLB, walk scoreboard, merge buffers,
parallel page-table walkers, and optional translation-path caching.

Request life cycle per cycle-accurate submit/tick protocol:

  submit(vpn, now) probes the TLB first. A hit schedules a completion at
  ``now + tlb_hit_latency``. On a miss, the pending-walk scoreboard is
  checked: if a walker is already translating this VPN and has a free merge
  slot, the request is absorbed and waits for that walk. Otherwise a free
  walker starts a radix walk; if none is free (or the merge buffer is full)
  the request is Blocked and the caller retries next cycle.

  tick(now) must be called once per cycle, after that cycle's submits. It
  delivers due completions: a finishing walk fills the TLB, updates the
  configured translation cache, completes its leading request, then drains
  one merged request per subsequent cycle.

With merge buffers disabled (prmb_slots == 0) there is no scoreboard:
duplicate in-flight VPNs each dispatch their own redundant walk, as long as
walkers are free. This is the plain parallel-walker design the merge
buffer exists to filter.

Translation caches skip upper walk levels:

  * path register ("tpr"): one per walker, holds the upper radix indices
    (the tag) of that walker's last completed walk. A full tag match
    starts the walk at the leaf node.
  * path cache ("tpc"): shared, LRU, same full-path tags.
  * unified cache ("uptc"): shared, LRU, tags individual interior entries
    by their physical address; the walk starts below the deepest
    consecutive hit from the root.

The cache names follow Barr et al., "Translation Caching: Skip, Don't Walk
(the Page Table)", ISCA 2010. Only a unified-cache walk needs the node
reads of `PageTable.walk_path`; every other walk takes its frame or fault
level from `PageTable.walk_outcome` and its depth from that.

Oracle mode bypasses all of the above: every submit completes in the same
cycle with the reference walker's frame.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import List, NamedTuple, Optional, Sequence

from .address_space import PAGE_SIZES, PageSize, radix_indices
from .memory import Dram
from .page_table import PageTable, WalkStep, fault_depth
from .schema import Record, knob


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
    request_id: int
    vpn: int
    frame: Optional[int]                  # None on fault
    done_cycle: int
    fault: bool = False
    fault_level: Optional[int] = None


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


@dataclass
class _Walker:
    wid: int
    busy: bool = False
    vpn: int = 0
    finish: int = 0
    leading: int = 0                      # request id of the walk's owner
    merged: list = field(default_factory=list)
    frame: Optional[int] = None
    fault_level: Optional[int] = None
    # what a successful walk installs in the translation cache: its path
    # tag (tpr/tpc) or its node reads (uptc); None if nothing
    cache_fill: Optional[Sequence] = None
    path_register: Optional[tuple] = None  # tag of the last completed walk


class TranslationEngine:
    """One MMU instance; single-threaded, one simulation owns it."""

    def __init__(
        self,
        cfg: MmuConfig,
        page_table: PageTable,
        page_size: PageSize = PageSize.SMALL_4K,
        dram: Optional[Dram] = None,
    ):
        self.cfg = cfg
        self.pt = page_table
        self.ps = page_size
        self.dram = dram
        self.stats = TranslationStats()
        self._tlb: OrderedDict[int, int] = OrderedDict()
        self._walkers = [_Walker(i) for i in range(cfg.num_ptws)]
        self._free = list(range(cfg.num_ptws - 1, -1, -1))
        self._scoreboard: dict[int, int] = {}
        self._cache: OrderedDict = OrderedDict()  # shared tpc/uptc entries
        self._events: list = []           # (cycle, seq, kind, payload)
        self._seq = 0
        self._next_req = 0
        self._last_tick = -1

    # -- public API ---------------------------------------------------------

    @property
    def in_flight(self) -> int:
        return self.stats.accepted - self.stats.completions

    def submit(self, vpn: int, now: int) -> SubmitResult:
        stats, cfg = self.stats, self.cfg
        stats.submitted += 1
        if cfg.mode == "oracle":
            return self._submit_oracle(vpn, now)

        stats.tlb_accesses += 1
        frame = self._tlb.get(vpn)
        if frame is not None:
            self._tlb.move_to_end(vpn)
            stats.tlb_hits += 1
            rid = self._new_request()
            done = now + cfg.tlb_hit_latency
            self._push(done, "deliver",
                       TranslationCompletion(rid, vpn, frame, done))
            stats.accepted += 1
            return SubmitResult(SubmitStatus.TLB_HIT, rid, done_cycle=done)
        stats.tlb_misses += 1

        if cfg.prmb_slots > 0:
            wid = self._scoreboard.get(vpn)
            if wid is not None:
                walker = self._walkers[wid]
                if len(walker.merged) < cfg.prmb_slots:
                    rid = self._new_request()
                    walker.merged.append(rid)
                    stats.scoreboard_merges += 1
                    stats.merge_buffer_accesses += 1
                    stats.accepted += 1
                    return SubmitResult(SubmitStatus.MERGED, rid)
                stats.blocked_cycles += 1
                return _BLOCKED

        if not self._free:
            stats.blocked_cycles += 1
            return _BLOCKED
        rid = self._new_request()
        self._start_walk(vpn, now, rid)
        stats.accepted += 1
        return SubmitResult(SubmitStatus.NEW_WALK, rid)

    def tick(self, now: int) -> Sequence[TranslationCompletion]:
        if now <= self._last_tick:
            raise ValueError("tick cycles must be strictly increasing")
        self._last_tick = now
        events = self._events
        if not events or events[0][0] > now:
            return ()                     # idle cycle: nothing due
        out: List[TranslationCompletion] = []
        while events and events[0][0] <= now:
            _, _, kind, payload = heapq.heappop(events)
            if kind == "deliver":
                out.append(payload)
                self._account_completion(payload)
            elif kind == "walk_done":
                self._finish_walk(payload, now, out)
            else:  # "free"
                walker = self._walkers[payload]
                walker.busy = False
                self._free.append(payload)
        return out

    def drain(self, now: int) -> tuple[int, List[TranslationCompletion]]:
        """Tick until nothing is in flight; returns (next free cycle, completions)."""
        out: List[TranslationCompletion] = []
        while self.in_flight > 0:
            out.extend(self.tick(now))
            now += 1
        return now, out

    # -- internals ----------------------------------------------------------

    def _new_request(self) -> int:
        rid = self._next_req
        self._next_req += 1
        return rid

    def _push(self, cycle: int, kind: str, payload) -> None:
        self._seq += 1
        heapq.heappush(self._events, (cycle, self._seq, kind, payload))

    def _account_completion(self, comp: TranslationCompletion) -> None:
        self.stats.completions += 1
        if comp.fault:
            self.stats.faults += 1

    def _submit_oracle(self, vpn: int, now: int) -> SubmitResult:
        rid = self._new_request()
        frame, fault_level = self.pt.leaf(vpn, self.ps)
        if frame is not None:
            comp = TranslationCompletion(rid, vpn, frame, now)
        else:
            comp = TranslationCompletion(rid, vpn, None, now, fault=True,
                                         fault_level=fault_level)
        self._push(now, "deliver", comp)
        self.stats.accepted += 1
        return SubmitResult(SubmitStatus.TLB_HIT, rid, done_cycle=now)

    def _start_walk(self, vpn: int, now: int, rid: int) -> None:
        wid = self._free.pop()
        walker = self._walkers[wid]
        kind = self.cfg.translation_cache
        fill = None
        if kind == "uptc":
            path = self.pt.walk_path(vpn, self.ps)
            self.stats.cache_probes += 1
            reads = path[self._probe_unified(path):]
            txns = len(reads)
            last = path[-1]
            if last.present and last.is_leaf:
                frame, fault_level, fill = last.value, None, reads
            else:
                frame, fault_level = None, last.level
        else:
            frame, fault_level = self.pt.walk_outcome(vpn, self.ps)
            txns = self.ps.levels if frame is not None else fault_depth(fault_level)
            if kind != "none":
                tag = self._upper_tag(vpn)
                # Only a full-path tag match lets the walk jump to the leaf
                # node, and only when the radix path actually reaches it.
                if self._probe_path_tag(walker, tag) and txns == self.ps.levels:
                    txns = 1
                if frame is not None:
                    fill = tag

        walker.busy = True
        walker.vpn = vpn
        walker.leading = rid
        walker.merged = []
        walker.frame = frame
        walker.fault_level = fault_level
        walker.cache_fill = fill
        walker.finish = now + txns * self.cfg.walk_cycles_per_level

        if self.cfg.prmb_slots > 0:
            self._scoreboard[vpn] = wid
        self.stats.walks_started += 1
        self.stats.walk_memory_transactions += txns
        if self.dram is not None and self.cfg.charge_walk_bandwidth:
            self.dram.consume(txns * 64, now)
        self._push(walker.finish, "walk_done", wid)

    def _finish_walk(self, wid: int, now: int,
                     out: List[TranslationCompletion]) -> None:
        walker = self._walkers[wid]
        vpn = walker.vpn
        if self.cfg.prmb_slots > 0 and self._scoreboard.get(vpn) == wid:
            del self._scoreboard[vpn]

        if walker.frame is not None:
            self._tlb_fill(vpn, walker.frame)
            self._cache_fill(walker)
            comp = TranslationCompletion(walker.leading, vpn, walker.frame, now)
        else:
            comp = TranslationCompletion(walker.leading, vpn, None, now,
                                         fault=True, fault_level=walker.fault_level)
        out.append(comp)
        self._account_completion(comp)

        # Merged requests drain one per cycle after the leading completion.
        for i, rid in enumerate(walker.merged):
            self.stats.merge_buffer_accesses += 1
            if walker.frame is not None:
                mcomp = TranslationCompletion(rid, vpn, walker.frame, now + 1 + i)
            else:
                mcomp = TranslationCompletion(rid, vpn, None, now + 1 + i,
                                              fault=True,
                                              fault_level=walker.fault_level)
            self._push(now + 1 + i, "deliver", mcomp)
        free_at = now + len(walker.merged)
        if free_at == now:
            walker.busy = False
            self._free.append(wid)
        else:
            self._push(free_at, "free", wid)
        walker.merged = []

    def _tlb_fill(self, vpn: int, frame: int) -> None:
        if vpn in self._tlb:
            self._tlb.move_to_end(vpn)
            self._tlb[vpn] = frame
            return
        if len(self._tlb) >= self.cfg.tlb_entries:
            self._tlb.popitem(last=False)
        self._tlb[vpn] = frame

    # -- translation caches -------------------------------------------------

    def _upper_tag(self, vpn: int) -> tuple:
        """Radix indices above the leaf level, top-down (path-cache tag)."""
        return radix_indices(vpn, self.ps)[:-1]

    def _probe_path_tag(self, walker: _Walker, tag: tuple) -> bool:
        """Probe the path register (tpr) or path cache (tpc) for `tag`;
        True on a full-path match."""
        self.stats.cache_probes += 1
        if self.cfg.translation_cache == "tpr":
            entry = walker.path_register
            best = self._prefix_match(tag, entry) if entry else 0
        else:  # tpc
            cache = self._cache
            best = 0
            for etag in cache:
                best = max(best, self._prefix_match(tag, etag))
            if tag in cache:
                cache.move_to_end(tag)
        self._count_prefix_hits(best)
        return best == len(tag)

    def _probe_unified(self, path: List[WalkStep]) -> int:
        cache = self._cache
        skipped = 0
        for step in path[:-1]:
            if step.entry_addr in cache:
                cache.move_to_end(step.entry_addr)
                self._count_level_hit(step.level)
                skipped += 1
            else:
                break
        return skipped

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
        else:  # uptc: install interior entries actually read
            for step in fill:
                if step.is_leaf:
                    continue
                cache[step.entry_addr] = step.value
                cache.move_to_end(step.entry_addr)
                while len(cache) > self.cfg.cache_entries:
                    cache.popitem(last=False)

    @staticmethod
    def _prefix_match(tag: tuple, etag: tuple) -> int:
        n = 0
        for a, b in zip(tag, etag):
            if a != b:
                break
            n += 1
        return n

    def _count_prefix_hits(self, depth: int) -> None:
        if depth >= 1:
            self.stats.cache_hit_l4 += 1
        if depth >= 2:
            self.stats.cache_hit_l3 += 1
        if depth >= 3:
            self.stats.cache_hit_l2 += 1

    def _count_level_hit(self, level: int) -> None:
        if level == 4:
            self.stats.cache_hit_l4 += 1
        elif level == 3:
            self.stats.cache_hit_l3 += 1
        elif level == 2:
            self.stats.cache_hit_l2 += 1


def drain_trace(engine: TranslationEngine, vpns: List[int], start: int = 0):
    """Feed VPNs at one submit per cycle (retrying blocks) and run to drain.

    Returns (cycles_elapsed, completions in delivery order).
    """
    submit, tick = engine.submit, engine.tick
    n = len(vpns)
    cycle = start
    i = 0
    comps: List[TranslationCompletion] = []
    while i < n or engine.in_flight > 0:
        if i < n and submit(vpns[i], cycle).accepted:
            i += 1
        comps.extend(tick(cycle))
        cycle += 1
    return cycle - start, comps
