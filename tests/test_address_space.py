"""Virtual address layout: VPNs, radix indices, path tags and segment pages."""

import pytest
from hypothesis import example, given, settings, strategies as st

from npusim.address_space import (
    PageSize,
    Segment,
    VA_MASK,
    check_disjoint,
    default_segment_base,
    radix_indices,
    vpn,
)
from npusim.mmu import path_tag, prefix_depth, unified_tags
from npusim.page_table import PageTable

PAGE_SIZES = [PageSize.SMALL_4K, PageSize.LARGE_2M]
# VPNs at and above 2**36 reach bits above the 48-bit address
VPNS = st.one_of(st.integers(min_value=0, max_value=(1 << 36) - 1),
                 st.integers(min_value=1 << 36, max_value=1 << 64))


def address_fields(page, ps):
    """Radix indices of a VPN taken from its 48-bit address, top-down."""
    va = (page << ps.offset_bits) & VA_MASK
    return tuple((va >> shift) & 511 for shift in (39, 30, 21, 12))[:ps.levels]


@given(st.integers(min_value=0, max_value=(1 << 63) - 1))
def test_addresses_masked_to_48_bits(va):
    for ps in PAGE_SIZES:
        assert vpn(va, ps) == vpn(va & VA_MASK, ps) < 1 << (48 - ps.offset_bits)


def test_index_fields_bounded():
    assert radix_indices(vpn(VA_MASK, PageSize.SMALL_4K), PageSize.SMALL_4K) == (511,) * 4
    assert radix_indices(vpn(VA_MASK, PageSize.LARGE_2M), PageSize.LARGE_2M) == (511,) * 3


def test_page_geometry():
    assert PageSize.SMALL_4K.bytes == 4096
    assert PageSize.LARGE_2M.bytes == 2 * 1024 * 1024
    assert PageSize.SMALL_4K.levels == 4
    assert PageSize.LARGE_2M.levels == 3


def test_five_mb_segment_spans_1280_small_pages():
    seg = Segment("ia", default_segment_base(0), 5 * 1024 * 1024)
    assert len(seg.vpn_range(PageSize.SMALL_4K)) == 1280


def test_one_gb_segment_spans_512_large_pages():
    seg = Segment("w", default_segment_base(1), 512 * 2 * 1024 * 1024)
    assert len(seg.vpn_range(PageSize.LARGE_2M)) == 512


@given(st.integers(min_value=0, max_value=10),
       st.integers(min_value=1, max_value=1 << 30))
def test_segment_vpns_contiguous(slot, length):
    seg = Segment("s", default_segment_base(slot), length)
    pages = seg.vpn_range(PageSize.SMALL_4K)
    assert pages[0] == vpn(seg.base, PageSize.SMALL_4K)
    for va in (seg.base, seg.base + length - 1):
        assert pages[0] <= vpn(va, PageSize.SMALL_4K) <= pages[-1]


def test_default_bases_disjoint():
    segs = [Segment(f"s{i}", default_segment_base(i), 1 << 30) for i in range(6)]
    check_disjoint(segs)


def test_overlap_detected():
    a = Segment("a", default_segment_base(0), 4096)
    b = Segment("b", default_segment_base(0) + 2048, 4096)
    with pytest.raises(ValueError):
        check_disjoint([a, b])


@given(st.integers(min_value=0, max_value=VA_MASK >> 12))
def test_vpn_indices_roundtrip(page):
    l4, l3, l2, l1 = radix_indices(page, PageSize.SMALL_4K)
    assert (l4 << 27 | l3 << 18 | l2 << 9 | l1) == page
    assert vpn(page << 12, PageSize.SMALL_4K) == page


@settings(max_examples=300, deadline=None)
@given(VPNS, st.sampled_from(PAGE_SIZES))
def test_radix_indices_match_address_fields(page, ps):
    fields = address_fields(page, ps)
    assert radix_indices(page, ps) == fields
    tag = 0
    for index in fields[:-1]:
        tag = tag << 9 | index
    assert path_tag(page, ps.levels) == tag


@settings(max_examples=300, deadline=None)
@given(VPNS, VPNS, st.integers(min_value=0, max_value=40),
       st.sampled_from(PAGE_SIZES))
def test_prefix_depth_counts_shared_upper_indices(a, other, low_bits, ps):
    near = a ^ (other & ((1 << low_bits) - 1))  # shares a's bits above low_bits
    for b in (near, other):
        upper_a, upper_b = radix_indices(a, ps)[:-1], radix_indices(b, ps)[:-1]
        shared = 0
        while shared < len(upper_a) and upper_a[shared] == upper_b[shared]:
            shared += 1
        tags = path_tag(a, ps.levels), path_tag(b, ps.levels)
        assert prefix_depth(*tags, ps.levels) == shared


@settings(max_examples=300, deadline=None)
@given(VPNS, VPNS, st.integers(min_value=0, max_value=40),
       st.sampled_from(PAGE_SIZES))
# above the 48-bit address: bits 36 and up of a 4 KB VPN select nothing
@example(5 << 27 | 7 << 18 | 9, 1 << 36, 18, PageSize.SMALL_4K)
@example((3 << 36) + (5 << 27 | 7 << 18 | 9), 2 << 9, 18, PageSize.SMALL_4K)
@example(1 << 64, 1, 1, PageSize.LARGE_2M)
def test_unified_tags_name_the_entries_walks_read(a, other, low_bits, ps):
    """On a table that maps `a` and `b`, the unified-cache tags of two
    interior entries of their walks are equal exactly when `walk_path`
    reads the two at the same address: no node is shared, so a depth and a
    radix prefix name one entry, and VPN bits the radix indices drop are
    dropped from the tags too."""
    b = a ^ (other & ((1 << low_bits) - 1))  # shares a's bits above low_bits
    pt = PageTable(ps)
    for page in (b, a):
        if pt.walk_outcome(page)[0] is None:
            pt.map_page(page)
    levels = ps.levels
    entries = [(tag, step.entry_addr) for page in (a, b, other)
               if pt.walk_outcome(page)[0] is not None
               for tag, step in zip(unified_tags(path_tag(page, levels),
                                                 levels - 1, levels),
                                    pt.walk_path(page))]
    assert len(entries) >= 2 * (levels - 1)
    for tag, addr in entries:
        for tag2, addr2 in entries:
            assert (tag == tag2) == (addr == addr2)
