"""Radix page tables: construction, the reference walker, mapping, sharing."""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from npusim.address_space import (
    PageSize, Segment, default_segment_base, radix_indices, vpn)
from npusim.page_table import (
    ENTRY_BYTES,
    MappingError,
    PT_NODE_REGION_BASE,
    PageTable,
    build,
    fault_depth,
)
from walk_reference import (
    build_scattered, reference_frame, reference_walk, scattered_frames)

PS4K = PageSize.SMALL_4K
PS2M = PageSize.LARGE_2M


def seg(slot, length, name="s"):
    return Segment(f"{name}{slot}", default_segment_base(slot), length)


def test_walk_matches_hand_decomposition():
    # one page at a hand-picked address gets the first frame, 0; `build`
    # allocates nodes 1, 2, 3 on its path below the root, node 0
    s = seg(0, 4096)
    pt = build([s], PS4K)
    page = vpn(s.base + 123, PS4K)
    path = pt.walk_path(page)
    assert reference_walk(pt, page) == ((0, None), 4)
    assert [step.level for step in path] == [4, 3, 2, 1]
    # entries are 8 B slots of 4 KB nodes in the reserved region
    assert [step.entry_addr for step in path] == [
        PT_NODE_REGION_BASE + node * 4096 + index * ENTRY_BYTES
        for node, index in enumerate(radix_indices(page, PS4K))]


def test_sequential_frames_are_dense():
    s = seg(0, 16 * 4096)
    pt = build([s], PS4K)
    frames = [reference_frame(pt, p) for p in s.vpn_range(PS4K)]
    assert frames == list(range(16))


def test_walk_path_depth_2m():
    s = seg(0, 4 * 1024 * 1024)
    pt = build([s], PS2M)
    path = pt.walk_path(vpn(s.base, PS2M))
    assert len(path) == 3
    assert path[-1].present and path[-1].level == 2


def test_one_leaf_node_per_512_contiguous_pages():
    # 1024 contiguous 4K pages share exactly two L1 nodes
    s = seg(0, 1024 * 4096)
    pt = build([s], PS4K)
    leaves = set()
    for p in s.vpn_range(PS4K):
        leaves.add(pt.walk_path(p)[-1].entry_addr >> 12)
    assert len(leaves) == 2


def test_unmapped_page_faults_with_depth():
    s = seg(0, 4096)
    pt = build([s], PS4K)
    far = vpn(s.base + (1 << 39), PS4K)     # different l4 entry
    assert pt.walk_outcome(far) == (None, 4)
    assert reference_walk(pt, far) == ((None, 4), 1)
    near = vpn(s.base + (1 << 12) * 512, PS4K)  # same l3 node, no l1 node
    assert pt.walk_outcome(near) == (None, 2)
    assert reference_walk(pt, near) == ((None, 2), 3)


def test_double_map_is_refused():
    pt = PageTable(PS4K)
    page = vpn(default_segment_base(0), PS4K)
    assert pt.map_page(page) == 0
    with pytest.raises(MappingError):
        pt.map_page(page)
    with pytest.raises(MappingError):
        pt.map_page(page, 7)
    assert pt.walk_outcome(page) == (0, None)
    assert pt.mapped_pages == 1


@pytest.mark.parametrize("frame, error", [
    (-1, ValueError), (-(2**40), ValueError), (2**63, ValueError),
    (2**64, ValueError), (7.0, TypeError), ("7", TypeError)])
def test_map_page_refuses_a_frame_no_slot_holds(frame, error):
    # a slot holds 0 .. 2**63 - 1, and -1 reads back as an absent slot:
    # such a frame must be refused before anything is mapped
    pt = PageTable(PS4K)
    page = vpn(default_segment_base(0), PS4K)
    with pytest.raises(error):
        pt.map_page(page, frame)
    assert pt.walk_outcome(page) == (None, 4)
    assert len(pt.nodes) == 1 and pt.mapped_pages == 0
    assert pt.map_page(page, 2**63 - 1) == 2**63 - 1
    assert reference_walk(pt, page) == ((2**63 - 1, None), 4)


def test_a_mapped_page_costs_one_slot():
    # frames are stored unboxed: a 64Ki-page table keeps about 8 B a page
    # (its slot), not a slot and an int object (about 40 B)
    s = seg(0, 65536 * 4096)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pt = build([s], PS4K)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert pt.mapped_pages == 65536
    assert kept / pt.mapped_pages <= 16


def test_build_rejects_overlap():
    a = Segment("a", default_segment_base(0), 8192)
    b = Segment("b", default_segment_base(0) + 4096, 8192)
    with pytest.raises(ValueError):
        build([a, b], PS4K)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31),
       st.integers(min_value=1, max_value=64),
       st.sampled_from([PS4K, PS2M]))
def test_every_segment_byte_translates(seed, pages, ps):
    s = Segment("s", default_segment_base(0), pages * ps.bytes)
    pt = build_scattered([s], ps, seed)
    frames = scattered_frames(pages, seed)
    for p, frame in zip(s.vpn_range(ps), frames):
        for va in (p * ps.bytes, (p + 1) * ps.bytes - 1):
            assert reference_walk(pt, vpn(va, ps)) == ((frame, None), ps.levels)
        # entries are 8 B slots in the reserved node region
        for step in pt.walk_path(p):
            assert step.entry_addr >= PT_NODE_REGION_BASE
            assert step.entry_addr % ENTRY_BYTES == 0


# Segment lists start just below a boundary of one leaf node (512 pages) or
# of the node above it (512 leaf nodes), so runs cross both.
@st.composite
def page_disjoint_segments(draw, ps):
    page = ps.bytes
    span = draw(st.sampled_from([512, 512 * 512]))
    cursor = (default_segment_base(0) // page + span * draw(st.integers(1, 3))
              - draw(st.integers(0, 700)))
    segs = []
    for i in range(draw(st.integers(1, 4))):
        first = cursor + draw(st.integers(0, 600))
        base = first * page + draw(st.integers(0, page - 1))
        length = draw(st.integers(1, 1100 * page))
        segs.append(Segment(f"s{i}", base, length))
        cursor = (base + length - 1) // page + 1  # next page no segment touches
    return draw(st.permutations(segs))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([PS4K, PS2M]))
def test_build_equals_per_page_mapping(data, ps):
    segs = data.draw(page_disjoint_segments(ps))
    bulk = build(segs, ps)
    ref = PageTable(ps)
    for s in segs:
        for p in s.vpn_range(ps):
            ref.map_page(p)
    assert bulk.nodes == ref.nodes
    assert len(bulk.nodes) == len(ref.nodes)
    assert bulk.mapped_pages == ref.mapped_pages


@pytest.mark.parametrize("ps", [PS4K, PS2M])
@pytest.mark.parametrize("lower_first", [True, False])
def test_build_rejects_segments_sharing_a_page(ps, lower_first):
    base = default_segment_base(0) + 3 * ps.bytes
    a = Segment("a", base, 2 * ps.bytes + 100)   # its last page is shared
    b = Segment("b", a.end, 5 * ps.bytes)        # byte-disjoint from a
    with pytest.raises(MappingError):
        build([a, b] if lower_first else [b, a], ps)


def test_map_range_clears_the_leaf_memo():
    pt = PageTable(PS4K)
    page = vpn(default_segment_base(0), PS4K)
    assert pt.leaf(page + 2) == (None, 4)
    pt.map_range(page, 3)
    assert pt.leaf(page + 2) == (2, None)


def test_leaf_memo_follows_maps():
    # `leaf` memoises each page's outcome; every map must drop it,
    # including for neighbours whose walks faulted above a node a map creates.
    pt = PageTable(PS4K)
    page = default_segment_base(0) >> PS4K.offset_bits
    probes = [page, page + 1, page + 512, page + 512 * 512]

    def check_all():
        outcomes = [pt.leaf(p) for p in probes]
        for p, (frame, level) in zip(probes, outcomes):
            last = pt.walk_path(p)[-1]
            if last.present:
                assert (frame, level) == (last.value, None)
            else:
                assert (frame, level) == (None, last.level)
        return [level for _, level in outcomes]

    assert set(check_all()) == {4}
    pt.map_page(page)                       # neighbours now fault at L1/L2/L3
    assert check_all() == [None, 1, 2, 3]
    pt.map_page(page + 512)                 # new L1 node under an old L2 node
    assert check_all() == [None, 1, None, 3]


def test_map_range_maps_nothing_of_a_leaf_node_run_that_meets_a_mapped_page():
    pt = PageTable(PS4K)
    page = vpn(default_segment_base(0), PS4K)
    pt.map_page(page + 600)                  # frame 0, mid leaf node 2
    with pytest.raises(MappingError, match=hex(page + 600)):
        pt.map_range(page + 300, 400)        # leaf node 1's run, then 2's
    assert [reference_frame(pt, page + d) for d in (300, 511, 512, 599, 601)] == \
        [1, 212, None, None, None]
    assert pt.mapped_pages == 1 + 212
    # node 2's run took no frames: the next page gets the frame after node 1's
    assert pt.map_page(page + 512) == 213


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([PS4K, PS2M]))
def test_walk_outcome_is_walk_path_reduced(data, ps):
    segs = data.draw(page_disjoint_segments(ps))
    pt = build(segs, ps)
    near = st.sampled_from([p + d for s in segs for p in s.vpn_range(ps)
                            for d in (-513, -1, 0, 1, 512)])
    anywhere = st.integers(0, (1 << (48 - ps.offset_bits)) - 1)
    maps = data.draw(st.lists(near, max_size=20))
    probes = data.draw(st.lists(st.one_of(near, anywhere), min_size=1,
                                max_size=40))
    for page in maps:
        if reference_frame(pt, page) is None:
            pt.map_page(page)
    for page in maps + probes:
        (frame, level), depth = reference_walk(pt, page)
        assert pt.walk_outcome(page) == (frame, level)
        assert pt.leaf(page) == (frame, level)
        assert depth == (ps.levels if frame is not None else fault_depth(level))
