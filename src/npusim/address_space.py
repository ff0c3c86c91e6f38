"""48-bit virtual address arithmetic for a 4-level radix translation scheme.

Addresses are plain ints. Only the low 48 bits participate in translation;
bits 48-63 are masked off on input. A virtual address splits (`vpn`, then
`radix_indices`) into four 9-bit radix indices (l4..l1) plus a page offset
for 4KB pages, or three indices (l4..l2) plus a 21-bit offset for 2MB pages.

Segments describe named, non-overlapping regions of the virtual address
space (input activations, weights, embedding tables, ...). Default bases
are spaced 1TB apart and 2MB-aligned so distinct segments never share
upper-level radix entries unless deliberately configured to.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

VA_BITS = 48
VA_MASK = (1 << VA_BITS) - 1
INDEX_BITS = 9
INDEX_MASK = (1 << INDEX_BITS) - 1

# Default spacing between auto-assigned segment bases: 1TB, 2MB-aligned.
SEGMENT_SPACING = 1 << 40


class PageSize(Enum):
    SMALL_4K = 4096
    LARGE_2M = 2 * 1024 * 1024

    @property
    def bytes(self) -> int:
        return self.value

    @property
    def offset_bits(self) -> int:
        return 12 if self is PageSize.SMALL_4K else 21

    @property
    def levels(self) -> int:
        """Radix levels touched by a full walk (leaf included)."""
        return 4 if self is PageSize.SMALL_4K else 3

    @property
    def leaf_level(self) -> int:
        """Level at which the leaf entry lives (L1 for 4KB, L2 for 2MB)."""
        return 1 if self is PageSize.SMALL_4K else 2


# Config and strategy names of the page sizes.
PAGE_SIZES = {"4k": PageSize.SMALL_4K, "2m": PageSize.LARGE_2M}


def vpn(va: int, ps: PageSize) -> int:
    """Virtual page number of an address."""
    return (va & VA_MASK) >> ps.offset_bits


def radix_indices(page: int, ps: PageSize) -> tuple:
    """Radix indices of a VPN, top-down: (l4, l3, l2, l1) or (l4, l3, l2) for 2MB.

    VPN bits above the 48-bit address fall outside every mask.
    """
    if ps is PageSize.SMALL_4K:
        return ((page >> 27) & INDEX_MASK, (page >> 18) & INDEX_MASK,
                (page >> 9) & INDEX_MASK, page & INDEX_MASK)
    return ((page >> 18) & INDEX_MASK, (page >> 9) & INDEX_MASK, page & INDEX_MASK)


@dataclass(frozen=True)
class Segment:
    """A named, contiguous region of the virtual address space."""

    name: str
    base: int
    length: int

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError(f"segment {self.name}: length must be positive")
        if (self.base & VA_MASK) != self.base or self.base + self.length > VA_MASK + 1:
            raise ValueError(f"segment {self.name}: exceeds 48-bit address space")

    @property
    def end(self) -> int:
        """One past the last byte."""
        return self.base + self.length

    def vpn_range(self, ps: PageSize) -> range:
        """VPNs covered by this segment (inclusive of partial pages)."""
        return range(self.base >> ps.offset_bits, (self.end - 1 >> ps.offset_bits) + 1)

    def num_pages(self, ps: PageSize) -> int:
        return len(self.vpn_range(ps))


def check_disjoint(segments: Iterable[Segment]) -> None:
    """Raise ValueError if any two segments overlap."""
    ordered = sorted(segments, key=lambda s: s.base)
    for a, b in zip(ordered, ordered[1:]):
        if a.end > b.base:
            raise ValueError(f"segments {a.name} and {b.name} overlap")


def default_segment_base(slot: int) -> int:
    """Auto-assigned base for the slot-th segment: 1TB apart, 2MB-aligned."""
    return (slot + 1) * SEGMENT_SPACING
