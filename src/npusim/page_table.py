"""4-level radix page table with a reference walker.

The table maps virtual page numbers of a set of segments to physical frames.
`walk` is the authoritative translation oracle: every other translation path
in the simulator must agree with it. `walk_path` lists a walk's node reads;
`walk_outcome` is the same walk reduced to its frame or fault level, which
is all that most callers need, without building the list.

Page-table nodes live in a dedicated physical region disjoint from data
frames, so node addresses (used as tags by the unified translation cache)
never collide with data addresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, NamedTuple, Optional, Sequence

from .address_space import PageSize, Segment, check_disjoint, radix_indices

# Physical region reserved for page-table nodes (one 4KB node per id).
PT_NODE_REGION_BASE = 1 << 47
ENTRY_BYTES = 8
FRAME_BITS = 36
ROOT_LEVEL = 4


def fault_depth(level: int) -> int:
    """Node reads of a walk that faults at `level`: levels 4 down to `level`."""
    return ROOT_LEVEL + 1 - level


class PageFaultError(Exception):
    """Translation failed: an entry was absent at `level`."""

    def __init__(self, vpn: int, level: int, levels_touched: int):
        super().__init__(f"page fault for vpn {vpn:#x} at level L{level}")
        self.vpn = vpn
        self.level = level
        self.levels_touched = levels_touched


class MappingError(Exception):
    """Double-map or unmap of an absent page."""


class WalkStep(NamedTuple):
    """One node read of a radix walk."""

    level: int          # 4 (root) down to the leaf level
    node_addr: int      # physical address of the node being read
    entry_addr: int     # physical address of the selected entry
    present: bool
    value: int          # frame number (leaf) or child node id (interior)


@dataclass(frozen=True)
class WalkResult:
    pa: int
    frame: int
    levels_touched: int
    touched_node_addrs: List[int]


class FrameAllocator:
    """Deterministic data-frame allocator.

    "sequential" hands out 0, 1, 2, ...; "shuffled" applies a seeded,
    bijective bit-mix to the same counter so frame numbers are scattered but
    reproducible and never reused.
    """

    def __init__(self, policy: str = "sequential", seed: int = 0):
        if policy not in ("sequential", "shuffled"):
            raise ValueError(f"unknown frame policy {policy!r}")
        self.policy = policy
        self.seed = seed
        self._next = 0

    def alloc(self) -> int:
        return self.alloc_run(1)[0]

    def alloc_run(self, count: int) -> Sequence[int]:
        """The frames of `count` successive `alloc()` calls, in call order."""
        first = self._next
        self._next += count
        counters = range(first, first + count)
        if self.policy == "sequential":
            return counters
        return [self._scramble(n) for n in counters]

    def _scramble(self, n: int) -> int:
        # 4-round Feistel on 36 bits (18|18 split): a permutation, so
        # distinct counters give distinct frames for any seed.
        half = FRAME_BITS // 2
        mask = (1 << half) - 1
        left, right = n >> half, n & mask
        for round_no in range(4):
            key = (self.seed * 0x9E3779B1 + round_no * 0x85EBCA77) & 0xFFFFFFFF
            f = ((right * 0x27D4EB2F + key) ^ (right >> 7)) & mask
            left, right = right, left ^ f
        return (left << half) | right


class PageTable:
    """Radix tree of 512-slot nodes.

    `nodes` is a list indexed by node id (0 is the root), and each node a
    list of 512 slots. A slot holds None (absent), a child node id or a
    frame number: a table holds pages of one size, so a slot at the leaf
    level is a frame and any slot above it a child. A node costs about 4 KB
    however few of its slots are filled.

    `build` maps each segment with `map_range`, which descends to a leaf
    node once per run of up to 512 VPNs, then checks and fills the run with
    one slice each; `map_page` maps one VPN through the same descent. Both
    allocate missing interior nodes in VPN order, so a table gets the same
    node ids either way.

    Two walkers read the tree. `walk_path` returns every node read as a
    `WalkStep`; the unified translation cache, which tags interior entry
    addresses, and the reference `walk` use it. A walk stops at an absent
    slot or after the leaf slot, so its last step is the leaf exactly when
    it is present. `walk_outcome` follows the same slots but returns only
    `(frame, None)`, or `(None, level)` when the walk faults at `level`: a
    walk's depth is `page_size.levels` when it succeeds and
    `fault_depth(level)` when it faults, so modelled walks without a
    unified cache and demand paging need nothing more.

    `page_size` is fixed when the table is built, and every map and walk
    uses it, so a walk can never read a large page's frame as a child node.

    `leaf` answers the oracle's question from a memo of `walk_outcome`
    keyed by VPN, so an oracle MMU walks each page once rather than once
    per access. Every `map_range`, `map_page` and `unmap_page` call clears
    the whole memo once: a new interior node also changes the outcome for
    neighbouring VPNs whose walks used to fault above it.
    """

    def __init__(self, page_size: PageSize,
                 frame_allocator: Optional[FrameAllocator] = None):
        self.page_size = page_size
        self.frames = frame_allocator or FrameAllocator()
        self.nodes: List[List[Optional[int]]] = [[None] * 512]
        self.root = 0
        self.mapped_pages = 0
        # vpn -> (frame, None) or (None, fault level)
        self._leaves: dict[int, tuple[Optional[int], Optional[int]]] = {}

    # -- mutation -----------------------------------------------------------

    def _leaf_node(self, indices: tuple) -> List[Optional[int]]:
        """The node that holds a page's leaf slot, allocating missing
        interior nodes on the way down."""
        nodes = self.nodes
        node = nodes[self.root]
        for index in indices[:-1]:
            child = node[index]
            if child is None:
                child = node[index] = len(nodes)
                nodes.append([None] * 512)
            node = nodes[child]
        return node

    def map_page(self, vpn: int, frame: Optional[int] = None) -> int:
        self._leaves.clear()
        indices = radix_indices(vpn, self.page_size)
        node = self._leaf_node(indices)
        if node[indices[-1]] is not None:
            raise MappingError(f"vpn {vpn:#x} already mapped")
        if frame is None:
            frame = self.frames.alloc()
        node[indices[-1]] = frame
        self.mapped_pages += 1
        return frame

    def map_range(self, first: int, count: int) -> None:
        """Map VPNs first .. first+count-1 to frames allocated in VPN order.

        The same table as `map_page` on each VPN in turn, reached with one
        descent per leaf node. A run that meets an already-mapped VPN raises
        MappingError before any VPN of that leaf node's run is mapped.
        """
        self._leaves.clear()
        ps = self.page_size
        vpn, end = first, first + count
        while vpn < end:
            indices = radix_indices(vpn, ps)
            node = self._leaf_node(indices)
            lo = indices[-1]
            n = min(512 - lo, end - vpn)
            run = node[lo:lo + n]
            if run.count(None) != n:
                taken = next(i for i, slot in enumerate(run) if slot is not None)
                raise MappingError(f"vpn {vpn + taken:#x} already mapped")
            node[lo:lo + n] = self.frames.alloc_run(n)
            self.mapped_pages += n
            vpn += n

    def unmap_page(self, vpn: int) -> None:
        self._leaves.clear()
        nodes = self.nodes
        node = nodes[self.root]
        indices = radix_indices(vpn, self.page_size)
        for index in indices[:-1]:
            child = node[index]
            if child is None:
                raise MappingError(f"vpn {vpn:#x} not mapped")
            node = nodes[child]
        if node[indices[-1]] is None:
            raise MappingError(f"vpn {vpn:#x} not mapped")
        node[indices[-1]] = None
        self.mapped_pages -= 1

    def is_mapped(self, vpn: int) -> bool:
        return self.walk_outcome(vpn)[0] is not None

    # -- walking ------------------------------------------------------------

    def walk_path(self, vpn: int) -> List[WalkStep]:
        """Node reads of a walk, top-down, stopping at the first absent slot.

        The final step either carries the leaf slot (present) or records
        the read of the absent slot that faults the walk.
        """
        nodes = self.nodes
        steps: List[WalkStep] = []
        node = self.root
        level = ROOT_LEVEL
        for index in radix_indices(vpn, self.page_size):
            naddr = PT_NODE_REGION_BASE + node * 4096
            value = nodes[node][index]
            if value is None:
                steps.append(WalkStep(level, naddr, naddr + index * ENTRY_BYTES,
                                      False, 0))
                return steps
            steps.append(WalkStep(level, naddr, naddr + index * ENTRY_BYTES,
                                  True, value))
            node = value
            level -= 1
        return steps

    def walk_outcome(self, vpn: int) -> tuple[Optional[int], Optional[int]]:
        """`walk_path`'s last step, reduced: (frame, None), or (None, level)
        when the walk faults on an absent slot at `level`."""
        nodes = self.nodes
        node = self.root
        level = ROOT_LEVEL
        for index in radix_indices(vpn, self.page_size):
            node = nodes[node][index]
            if node is None:
                return None, level
            level -= 1
        return node, None

    def leaf(self, vpn: int) -> tuple[Optional[int], Optional[int]]:
        """`walk_outcome` of `vpn`, memoised until the next `map_range`,
        `map_page` or `unmap_page`."""
        hit = self._leaves.get(vpn)
        if hit is None:
            hit = self._leaves[vpn] = self.walk_outcome(vpn)
        return hit

    def walk(self, va: int) -> WalkResult:
        """Reference walk. Raises PageFaultError on an absent entry."""
        ps = self.page_size
        page = va >> ps.offset_bits
        path = self.walk_path(page)
        last = path[-1]
        if not last.present:
            raise PageFaultError(page, last.level, len(path))
        offset = va & ((1 << ps.offset_bits) - 1)
        pa = (last.value << ps.offset_bits) | offset
        return WalkResult(
            pa=pa,
            frame=last.value,
            levels_touched=len(path),
            touched_node_addrs=[s.node_addr for s in path],
        )

    def frame_of(self, vpn: int) -> int:
        return self.walk(vpn << self.page_size.offset_bits).frame


def build(
    segments: Iterable[Segment],
    ps: PageSize,
    frame_policy: str = "sequential",
    seed: int = 0,
) -> PageTable:
    """Map every page covered by the segments; all other VPNs stay absent."""
    segments = list(segments)
    check_disjoint(segments)
    pt = PageTable(ps, FrameAllocator(frame_policy, seed))
    for seg in segments:
        pages = seg.vpn_range(ps)
        pt.map_range(pages.start, len(pages))
    return pt
