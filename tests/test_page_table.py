"""Radix page tables: construction, reference walks, map/unmap, sharing."""

import pytest
from hypothesis import given, settings, strategies as st

from npusim.address_space import PageSize, Segment, default_segment_base, vpn
from npusim.page_table import (
    ENTRY_BYTES,
    FrameAllocator,
    MappingError,
    PT_NODE_REGION_BASE,
    PageFaultError,
    PageTable,
    build,
    fault_depth,
)

PS4K = PageSize.SMALL_4K
PS2M = PageSize.LARGE_2M


def seg(slot, length, name="s"):
    return Segment(f"{name}{slot}", default_segment_base(slot), length)


def test_walk_matches_hand_decomposition():
    # one page at a hand-picked address; frame 0 under sequential policy
    s = seg(0, 4096)
    pt = build([s], PS4K)
    res = pt.walk(s.base + 123, PS4K)
    assert res.levels_touched == 4
    assert res.frame == 0
    assert res.pa == (0 << 12) | 123
    # interior node addresses live in the reserved region, 8B entries
    for addr in res.touched_node_addrs:
        assert addr >= PT_NODE_REGION_BASE
        assert addr % ENTRY_BYTES == 0


def test_sequential_frames_are_dense():
    s = seg(0, 16 * 4096)
    pt = build([s], PS4K)
    frames = [pt.frame_of(p, PS4K) for p in s.vpn_range(PS4K)]
    assert frames == list(range(16))


def test_walk_path_depth_2m():
    s = seg(0, 4 * 1024 * 1024)
    pt = build([s], PS2M)
    path = pt.walk_path(vpn(s.base, PS2M), PS2M)
    assert len(path) == 3
    assert path[-1].is_leaf


def test_one_leaf_node_per_512_contiguous_pages():
    # 1024 contiguous 4K pages share exactly two L1 nodes
    s = seg(0, 1024 * 4096)
    pt = build([s], PS4K)
    leaves = set()
    for p in s.vpn_range(PS4K):
        leaves.add(pt.walk_path(p, PS4K)[-1].node_addr)
    assert len(leaves) == 2


def test_unmapped_page_faults_with_depth():
    s = seg(0, 4096)
    pt = build([s], PS4K)
    far = s.base + (1 << 39)  # different l4 entry
    with pytest.raises(PageFaultError) as exc:
        pt.walk(far, PS4K)
    assert exc.value.level == 4
    near = s.base + (1 << 12) * 512  # same l3 node path, missing l1 entry
    with pytest.raises(PageFaultError) as exc:
        pt.walk(near, PS4K)
    assert exc.value.level in (1, 2)


def test_map_unmap_idempotence_rules():
    pt = PageTable()
    page = vpn(default_segment_base(0), PS4K)
    pt.map_page(page, PS4K)
    assert pt.is_mapped(page, PS4K)
    with pytest.raises(MappingError):
        pt.map_page(page, PS4K)
    pt.unmap_page(page, PS4K)
    assert not pt.is_mapped(page, PS4K)
    with pytest.raises(MappingError):
        pt.unmap_page(page, PS4K)


def test_shuffled_policy_deterministic_and_bijective():
    a = FrameAllocator("shuffled", seed=7)
    b = FrameAllocator("shuffled", seed=7)
    xs = [a.alloc() for _ in range(2000)]
    ys = [b.alloc() for _ in range(2000)]
    assert xs == ys
    assert len(set(xs)) == len(xs)
    c = FrameAllocator("shuffled", seed=8)
    assert [c.alloc() for _ in range(2000)] != xs


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
    pt = build([s], ps, frame_policy="shuffled", seed=seed)
    for p in s.vpn_range(ps):
        base_va = p * ps.bytes
        frame = pt.frame_of(p, ps)
        res = pt.walk(base_va + ps.bytes - 1, ps)
        assert res.frame == frame
        assert res.pa == frame * ps.bytes + ps.bytes - 1


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
@given(st.data(), st.sampled_from([PS4K, PS2M]),
       st.sampled_from(["sequential", "shuffled"]),
       st.integers(min_value=0, max_value=2**31))
def test_build_equals_per_page_mapping(data, ps, policy, seed):
    segs = data.draw(page_disjoint_segments(ps))
    bulk = build(segs, ps, policy, seed)
    ref = PageTable(FrameAllocator(policy, seed))
    for s in segs:
        for p in s.vpn_range(ps):
            ref.map_page(p, ps)
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
    pt = PageTable()
    page = vpn(default_segment_base(0), PS4K)
    assert pt.leaf(page + 2, PS4K) == (None, 4)
    pt.map_range(page, 3, PS4K)
    assert pt.leaf(page + 2, PS4K) == (2, None)


def test_map_range_maps_nothing_of_a_leaf_node_run_that_meets_a_mapped_page():
    pt = PageTable()
    page = vpn(default_segment_base(0), PS4K)
    pt.map_page(page + 600, PS4K)            # frame 0, mid leaf node 2
    with pytest.raises(MappingError, match=hex(page + 600)):
        pt.map_range(page + 300, 400, PS4K)  # leaf node 1's run, then 2's
    assert [pt.is_mapped(page + d, PS4K) for d in (300, 511, 512, 599, 601)] == \
        [True, True, False, False, False]
    assert pt.mapped_pages == 1 + 212
    # node 2's run took no frames: the next page gets the frame after node 1's
    assert pt.map_page(page + 512, PS4K) == 213


def test_unmapped_slot_maps_again():
    pt = PageTable()
    page = vpn(default_segment_base(0), PS4K)
    pt.map_range(page, 4, PS4K)
    pt.unmap_page(page + 1, PS4K)
    assert pt.walk_outcome(page + 1, PS4K) == (None, 1)
    assert pt.mapped_pages == 3
    assert pt.map_page(page + 1, PS4K) == 4
    assert pt.walk_outcome(page + 1, PS4K) == (4, None)
    assert pt.mapped_pages == 4
    with pytest.raises(MappingError):
        pt.map_range(page, 2, PS4K)


def test_leaf_memo_of_an_empty_table_holds_for_either_size():
    pt = PageTable()
    page = vpn(default_segment_base(0), PS2M)
    assert pt.leaf(page, PS4K) == (None, 4)
    assert pt.leaf(page, PS2M) == (None, 4)
    pt.map_page(page, PS2M)
    assert pt.leaf(page, PS2M) == (0, None)
    with pytest.raises(ValueError):
        pt.leaf(page, PS4K)


def test_a_table_holds_one_page_size():
    s = seg(0, 4 * 1024 * 1024)
    pt = build([s], PS2M)
    assert pt.page_size is PS2M
    small = s.base >> PS4K.offset_bits
    # a 4 KB walk used to read the 2 MB leaf's frame 0 as node 0 (the root)
    # and report a fault at level 1
    for walk in (pt.walk_path, pt.walk_outcome, pt.leaf, pt.is_mapped):
        with pytest.raises(ValueError, match="LARGE_2M pages, not SMALL_4K"):
            walk(small, PS4K)
    for change in (pt.map_page, pt.unmap_page):
        with pytest.raises(ValueError):
            change(small + (8 << 20 >> 12), PS4K)
    with pytest.raises(ValueError):
        pt.map_range(small + (8 << 20 >> 12), 1, PS4K)
    assert pt.walk_outcome(s.base >> PS2M.offset_bits, PS2M) == (0, None)

    # an empty table walks at any size; its first mapping fixes the size
    empty = PageTable()
    assert empty.walk_outcome(small, PS4K) == (None, 4)
    assert empty.walk_outcome(small >> 9, PS2M) == (None, 4)
    assert empty.page_size is None
    empty.map_page(small >> 9, PS2M)
    assert empty.page_size is PS2M
    with pytest.raises(ValueError):
        empty.walk_outcome(small, PS4K)


def reduced_walk(pt, page, ps):
    """The reference walk's outcome and depth, read off its step list."""
    path = pt.walk_path(page, ps)
    last = path[-1]
    if last.present and last.is_leaf:
        return (last.value, None), len(path)
    return (None, last.level), len(path)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([PS4K, PS2M]))
def test_walk_outcome_is_walk_path_reduced(data, ps):
    segs = data.draw(page_disjoint_segments(ps))
    pt = build(segs, ps)
    near = st.sampled_from([p + d for s in segs for p in s.vpn_range(ps)
                            for d in (-513, -1, 0, 1, 512)])
    anywhere = st.integers(0, (1 << (48 - ps.offset_bits)) - 1)
    toggles = data.draw(st.lists(near, max_size=20))
    probes = data.draw(st.lists(st.one_of(near, anywhere), min_size=1,
                                max_size=40))
    for page in toggles:
        if pt.is_mapped(page, ps):
            pt.unmap_page(page, ps)
        else:
            pt.map_page(page, ps)
    for page in toggles + probes:
        (frame, level), depth = reduced_walk(pt, page, ps)
        assert pt.walk_outcome(page, ps) == (frame, level)
        assert pt.leaf(page, ps) == (frame, level)
        assert pt.is_mapped(page, ps) == (frame is not None)
        assert depth == (ps.levels if frame is not None else fault_depth(level))
