"""4-level radix page table with a reference walker.

The table maps virtual page numbers of a set of segments to physical frames.
`walk_path` is the reference walk, the one every other translation path in
the simulator must agree with: it lists a walk's node reads. `walk_outcome`
is the same walk reduced to its frame or fault level, which is all that
the simulator's own walks need, without building the list.

Page-table nodes live in a dedicated physical region disjoint from data
frames, so the node addresses `walk_path` reports never collide with data
addresses. No modelled walk needs them: no node is shared, so a walk's
depth and VPN prefix name each entry it reads, and the unified translation
cache tags entries that way.
"""

from __future__ import annotations

import struct
from array import array
from operator import index as as_int
from typing import Iterable, List, NamedTuple, Optional

from .address_space import (INDEX_BITS, INDEX_MASK, PageSize, Segment,
                            check_disjoint, radix_indices)

# Physical region reserved for page-table nodes (one 4KB node per id).
PT_NODE_REGION_BASE = 1 << 47
ENTRY_BYTES = 8
ROOT_LEVEL = 4
# An empty slot. Child node ids and frames are never negative.
ABSENT = -1
FRAME_LIMIT = 1 << 63                   # frames are stored as signed 64-bit
_EMPTY_NODE = array("q", [ABSENT]) * 512


def fault_depth(level: int) -> int:
    """Node reads of a walk that faults at `level`: levels 4 down to `level`."""
    return ROOT_LEVEL + 1 - level


class MappingError(Exception):
    """A map of a page that is already mapped."""


class WalkStep(NamedTuple):
    """One node read of a radix walk."""

    level: int          # 4 (root) down to the leaf level
    entry_addr: int     # physical address of the selected entry
    present: bool
    value: int          # frame number (leaf) or child node id (interior)


class PageTable:
    """Radix tree of 512-slot nodes.

    `nodes` is a list indexed by node id (0 is the root), and each node an
    `array('q')` of 512 signed 64-bit slots, interior and leaf nodes alike.
    A slot holds ABSENT (-1), a child node id or a frame number: a table
    holds pages of one size, so a slot at the leaf level is a frame and any
    slot above it a child. A node costs about 4 KB (512 x 8 B) however few
    of its slots are filled. Frames are stored unboxed, so a frame lies in
    0 .. 2**63 - 1.

    `build` maps each segment with `map_range`, which descends to a leaf
    node once per run of up to 512 VPNs, then checks and fills the run with
    one slice each; `map_page` maps one VPN through the same descent. Both
    allocate missing interior nodes in VPN order, so a table gets the same
    node ids either way. Frames count up from 0 in mapping order:
    `mapped_pages` is the counter. Which frame a page gets changes no
    modelled cost, only what a translation returns; a caller that wants
    other frames passes them to `map_page` and keeps them distinct itself.

    Two walkers read the tree. `walk_path` returns every node read as a
    `WalkStep`, with the address of the entry it reads; it is the tests'
    reference. A walk stops at an absent slot or after the leaf slot, so
    its last step is the leaf exactly when it is present. `walk_outcome`
    follows the same slots but returns only `(frame, None)`, or
    `(None, level)` when the walk faults at `level`: a walk's depth is
    `page_size.levels` when it succeeds and `fault_depth(level)` when it
    faults, so modelled walks under every translation cache and the
    oracle MMU need nothing more. Each call walks the tree afresh, so an
    answer is never stale after a map.

    `page_size` is fixed when the table is built, and every map and walk
    uses it, so a walk can never read a large page's frame as a child node.
    """

    def __init__(self, page_size: PageSize):
        self.page_size = page_size
        # the shift of each radix index, top-down (`radix_indices`)
        self._shifts = tuple(range(INDEX_BITS * (page_size.levels - 1), -1,
                                   -INDEX_BITS))
        self._interior_shifts = self._shifts[:-1]
        self.nodes: List[array] = [array("q", _EMPTY_NODE)]
        self.mapped_pages = 0

    # -- mutation -----------------------------------------------------------

    def _leaf_node(self, vpn: int) -> array:
        """The node that holds `vpn`'s leaf slot, at index
        `vpn & INDEX_MASK`, allocating missing interior nodes on the way
        down."""
        nodes = self.nodes
        node = nodes[0]
        for shift in self._interior_shifts:
            index = vpn >> shift & INDEX_MASK
            child = node[index]
            if child < 0:
                child = node[index] = len(nodes)
                nodes.append(array("q", _EMPTY_NODE))
            node = nodes[child]
        return node

    def map_page(self, vpn: int, frame: Optional[int] = None) -> int:
        """Map `vpn` to `frame`, or to the next counted frame; return it.

        An explicit frame must be an int in 0 .. 2**63 - 1: ValueError
        (TypeError for a non-int) is raised before anything is mapped.
        """
        if frame is None:
            frame = self.mapped_pages
        else:
            frame = as_int(frame)
            if not 0 <= frame < FRAME_LIMIT:
                raise ValueError(f"frame {frame} outside 0 .. 2**63 - 1")
        node = self._leaf_node(vpn)
        leaf = vpn & INDEX_MASK
        if node[leaf] >= 0:
            raise MappingError(f"vpn {vpn:#x} already mapped")
        node[leaf] = frame
        self.mapped_pages += 1
        return frame

    def map_range(self, first: int, count: int) -> None:
        """Map VPNs first .. first+count-1 to counted frames in VPN order.

        The same table as `map_page` on each VPN in turn, reached with one
        descent per leaf node; a leaf node's run of counted frames is
        packed in one `struct.pack` and written in one slice. A run that
        meets an already-mapped VPN raises MappingError before any VPN of
        that leaf node's run is mapped.
        """
        vpn, end = first, first + count
        while vpn < end:
            node = self._leaf_node(vpn)
            lo = vpn & INDEX_MASK
            n = min(512 - lo, end - vpn)
            run = node[lo:lo + n]
            if run.count(ABSENT) != n:
                taken = next(i for i, slot in enumerate(run) if slot >= 0)
                raise MappingError(f"vpn {vpn + taken:#x} already mapped")
            frame = self.mapped_pages
            node[lo:lo + n] = array("q", struct.pack(f"{n}q", *range(frame, frame + n)))
            self.mapped_pages = frame + n
            vpn += n

    # -- walking ------------------------------------------------------------

    def walk_path(self, vpn: int) -> List[WalkStep]:
        """Node reads of a walk, top-down, stopping at the first absent slot.

        The final step either carries the leaf slot (present) or records
        the read of the absent slot that faults the walk.
        """
        nodes = self.nodes
        steps: List[WalkStep] = []
        node = 0
        level = ROOT_LEVEL
        for index in radix_indices(vpn, self.page_size):
            entry = PT_NODE_REGION_BASE + node * 4096 + index * ENTRY_BYTES
            value = nodes[node][index]
            if value < 0:
                steps.append(WalkStep(level, entry, False, 0))
                return steps
            steps.append(WalkStep(level, entry, True, value))
            node = value
            level -= 1
        return steps

    def walk_outcome(self, vpn: int) -> tuple[Optional[int], Optional[int]]:
        """`walk_path`'s last step, reduced: (frame, None), or (None, level)
        when the walk faults on an absent slot at `level`."""
        nodes = self.nodes
        node = 0
        for shift in self._shifts:
            node = nodes[node][vpn >> shift & INDEX_MASK]
            if node < 0:
                return None, ROOT_LEVEL - self._shifts.index(shift)
        return node, None


def build(segments: Iterable[Segment], ps: PageSize) -> PageTable:
    """Map every page covered by the segments; all other VPNs stay absent."""
    segments = list(segments)
    check_disjoint(segments)
    pt = PageTable(ps)
    for seg in segments:
        pages = seg.vpn_range(ps)
        pt.map_range(pages.start, len(pages))
    return pt
