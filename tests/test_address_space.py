"""Virtual address layout: decompose/compose round trips and segment pages."""

import pytest
from hypothesis import given, settings, strategies as st

from npusim.address_space import (
    PageSize,
    Segment,
    VA_MASK,
    check_disjoint,
    compose,
    decompose,
    default_segment_base,
    indices_of_vpn,
    radix_indices,
    vpn,
)
from npusim.mmu import MmuConfig, TranslationEngine
from npusim.page_table import PageTable


@given(st.integers(min_value=0, max_value=VA_MASK))
def test_decompose_compose_roundtrip_4k(va):
    assert compose(decompose(va, PageSize.SMALL_4K), PageSize.SMALL_4K) == va


@given(st.integers(min_value=0, max_value=VA_MASK))
def test_decompose_compose_roundtrip_2m(va):
    assert compose(decompose(va, PageSize.LARGE_2M), PageSize.LARGE_2M) == va


@given(st.integers(min_value=0, max_value=(1 << 63) - 1))
def test_addresses_masked_to_48_bits(va):
    idx = decompose(va, PageSize.SMALL_4K)
    assert compose(idx, PageSize.SMALL_4K) == (va & VA_MASK)


def test_index_fields_bounded():
    idx = decompose(VA_MASK, PageSize.SMALL_4K)
    assert (idx.l4, idx.l3, idx.l2, idx.l1) == (511, 511, 511, 511)
    assert idx.offset == 4095


def test_page_geometry():
    assert PageSize.SMALL_4K.bytes == 4096
    assert PageSize.LARGE_2M.bytes == 2 * 1024 * 1024
    assert PageSize.SMALL_4K.levels == 4
    assert PageSize.LARGE_2M.levels == 3
    assert PageSize.SMALL_4K.leaf_level == 1
    assert PageSize.LARGE_2M.leaf_level == 2


def test_five_mb_segment_spans_1280_small_pages():
    seg = Segment("ia", default_segment_base(0), 5 * 1024 * 1024)
    assert seg.num_pages(PageSize.SMALL_4K) == 1280
    assert len(seg.vpn_range(PageSize.SMALL_4K)) == 1280


def test_one_gb_segment_spans_512_large_pages():
    seg = Segment("w", default_segment_base(1), 512 * 2 * 1024 * 1024)
    assert seg.num_pages(PageSize.LARGE_2M) == 512


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
    idx = indices_of_vpn(page, PageSize.SMALL_4K)
    assert idx.offset == 0
    assert vpn(compose(idx, PageSize.SMALL_4K), PageSize.SMALL_4K) == page


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(min_value=0, max_value=(1 << 36) - 1),
                 st.integers(min_value=1 << 36, max_value=1 << 64)),
       st.sampled_from([PageSize.SMALL_4K, PageSize.LARGE_2M]))
def test_radix_indices_match_decompose(page, ps):
    # VPNs at and above 2**36 reach bits that decompose masks off
    idx = indices_of_vpn(page, ps)
    fields = (idx.l4, idx.l3, idx.l2, idx.l1)
    assert radix_indices(page, ps) == fields[:ps.levels]
    engine = TranslationEngine(MmuConfig(), PageTable(), ps)
    assert engine._upper_tag(page) == idx.upper_tag(ps)
