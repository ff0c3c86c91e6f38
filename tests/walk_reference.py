"""The translation reference the tests compare against.

`reference_walk` reads `PageTable.walk_path`, the reference walker, down to
what a translation returns. `build_scattered` builds the table that
`page_table.build` builds, node for node, but maps every page through
`map_page` to a scattered frame, so a translation that returned a counted
frame, or another page's frame, by mistake would not match by chance.
`RecordingEngine` keeps what an engine's ticks deliver, for the tests that
check the translations themselves. `NodeTaggedEngine` is the unified
translation cache as the tree's node reads define it, for the tests that
check the engine's prefix tags against it.
"""

import random

from npusim.address_space import check_disjoint
from npusim.mmu import TranslationEngine
from npusim.page_table import PageTable

# Scattered frames lie above every frame a table's counter hands out.
SCATTER_BASE = 1 << 32
SCATTER_END = 1 << 36


def reference_walk(pt, vpn):
    """((frame, None) or (None, fault level), node reads) of `vpn`'s walk."""
    path = pt.walk_path(vpn)
    last = path[-1]
    if last.present:
        return (last.value, None), len(path)
    return (None, last.level), len(path)


def reference_frame(pt, vpn):
    """The frame `vpn` translates to, or None when its walk faults."""
    return reference_walk(pt, vpn)[0][0]


def scattered_frames(count, seed=0):
    """`count` distinct frames drawn from a 2^36-frame space."""
    frames = random.Random(seed).sample(range(SCATTER_BASE, SCATTER_END), count)
    assert len(set(frames)) == count
    return frames


def build_scattered(segments, ps, seed=0):
    """`page_table.build(segments, ps)` with scattered, distinct frames."""
    segments = list(segments)
    check_disjoint(segments)
    pages = [p for s in segments for p in s.vpn_range(ps)]
    pt = PageTable(ps)
    for page, frame in zip(pages, scattered_frames(len(pages), seed)):
        pt.map_page(page, frame)
    return pt


class RecordingEngine(TranslationEngine):
    """An engine that keeps every request its ticks complete, in order: a
    completion of a run of requests is kept as one completion per request."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.delivered = []

    def tick(self, now):
        out = super().tick(now)
        self.delivered.extend(
            comp._replace(request_id=comp.request_id + i,
                          done_cycle=comp.done_cycle + i, count=1)
            for comp in out for i in range(comp.count))
        return out


class NodeTaggedEngine(RecordingEngine):
    """A `RecordingEngine` whose unified cache (uptc) tags each interior
    entry by the physical address `PageTable.walk_path` reads it at, and
    fills only the interior entries a walk read, with its own LRU updates.
    It shares no tag code with the engine's (depth, VPN prefix) tags, so a
    run of the two can differ only where those tags fail to name an entry
    as its address does, or the engine fills other entries, or in another
    order."""

    def _probe_unified(self, vpn, txns):
        path = self.pt.walk_path(vpn)
        assert len(path) == txns
        self.stats.cache_probes += 1
        addrs = [step.entry_addr for step in path[:-1]]
        hits = 0
        while hits < len(addrs) and addrs[hits] in self._cache:
            self._cache.move_to_end(addrs[hits])
            hits += 1
        self._count_hits(hits)
        return hits, addrs[hits:]

    def _cache_fill(self, keys):
        for addr in keys:
            self._cache.pop(addr, None)
            self._cache[addr] = None
            if len(self._cache) > self.cfg.cache_entries:
                self._cache.popitem(last=False)
