"""A tile's translation groups, and the two fetch loops that consume them.

`linearize` is the only code that turns a tile into translation groups, so
it is held to a naive chunk-by-chunk reference written here.

`run_layer` fetches tiles under an oracle MMU with `_oracle_fetch`, which
skips the translation engine's submit/tick loop. The reference is
`simulate_fetch` on an oracle engine: given the same groups, both must give
the same end cycle, the same DRAM state and the same engine counters, and
fault on the same page at the same level.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from npusim.address_space import PageSize, Segment, default_segment_base
from npusim.memory import Dram, DramConfig
from npusim.mmu import MmuConfig, TranslationEngine
from npusim.npu import (
    NpuConfig,
    SimulationFault,
    TileFetch,
    _oracle_fetch,
    linearize,
    simulate_fetch,
)
from npusim.page_table import build

PS4K = PageSize.SMALL_4K
PS2M = PageSize.LARGE_2M
BASE = default_segment_base(0)
MAPPED_PAGES = 8


def mapped_table(pages=MAPPED_PAGES):
    return build([Segment("s", BASE, pages * PS4K.bytes)], PS4K)


def run(fetch_path, tile, npu, pt, dram_cfg, warmup, start):
    """Fetch `tile` after a warm-up DRAM transaction; returns the outcome."""
    engine = TranslationEngine(MmuConfig(mode="oracle"), pt, PS4K)
    dram = Dram(dram_cfg)
    dram.issue(warmup, 0)
    try:
        end = fetch_path(linearize(tile, npu, PS4K), engine, dram, start)
    except SimulationFault as fault:
        end = ("fault", fault.vpn, fault.level)
    return end, engine.stats, dram.bytes_issued, dram.txns, dram.issue(1, start)


@st.composite
def tiles(draw):
    """Strided rows plus an optional short tail, ascending from BASE; may be empty."""
    spans = []
    cursor = BASE + draw(st.integers(0, 3 * PS4K.bytes))
    for _ in range(draw(st.integers(0, 3))):
        rows = draw(st.integers(1, 6))
        row_bytes = draw(st.integers(1, 700))
        stride = row_bytes + draw(st.sampled_from([0, 1, 63, 4096, 3 << 20]))
        spans.extend((cursor + r * stride, row_bytes) for r in range(rows))
        cursor += rows * stride + draw(st.integers(0, PS4K.bytes))
    if draw(st.booleans()):
        spans.append((cursor, draw(st.integers(1, 63))))
    return TileFetch("w", tuple(spans), sum(n for _, n in spans))


def reference_groups(tile, chunk, reuse, ps):
    """Cut every span into chunks one by one, then merge same-page neighbours."""
    chunks = []
    for base, length in tile.spans:
        off = 0
        while off < length:
            chunks.append(((base + off) % 2**48 // ps.bytes, min(chunk, length - off)))
            off += chunk
    groups = []
    for page, nbytes in chunks:
        if reuse and groups and groups[-1][0] == page:
            groups[-1][1].append(nbytes)
        else:
            groups.append((page, [nbytes]))
    return groups


@settings(max_examples=300, deadline=None)
@given(tile=tiles(),
       chunk=st.sampled_from([16, 64, 100, 256]),
       reuse=st.booleans(),
       ps=st.sampled_from([PS4K, PS2M]))
def test_linearize_matches_chunk_by_chunk_reference(tile, chunk, reuse, ps):
    npu = NpuConfig(dma_txn_bytes=chunk, reuse_last_translation=reuse)
    runs = linearize(tile, npu, ps)
    groups = [(vpn, list(chunks)) for vpn, count, chunks in runs
              for _ in range(count)]
    assert groups == reference_groups(tile, chunk, reuse, ps)
    assert sum(sum(sizes) for _, sizes in groups) == tile.total_bytes


@settings(max_examples=300, deadline=None)
@given(tile=tiles(),
       chunk=st.sampled_from([16, 64, 100, 256]),
       reuse=st.booleans(),
       bandwidth=st.sampled_from([1, 40, 64, 600]),
       latency=st.sampled_from([0, 100]),
       warmup=st.integers(1, 2000),
       start=st.integers(0, 40))
@example(tile=TileFetch("w", ((BASE + MAPPED_PAGES * PS4K.bytes - 100, 200),), 200),
         chunk=64, reuse=True, bandwidth=40, latency=100, warmup=1, start=3)
def test_oracle_fetch_matches_engine_driven_oracle(tile, chunk, reuse, bandwidth,
                                                   latency, warmup, start):
    npu = NpuConfig(dma_txn_bytes=chunk, reuse_last_translation=reuse)
    dram_cfg = DramConfig(bandwidth_bytes_per_cycle=bandwidth,
                          access_latency=latency)
    pt = mapped_table()
    assert (run(_oracle_fetch, tile, npu, pt, dram_cfg, warmup, start)
            == run(simulate_fetch, tile, npu, pt, dram_cfg, warmup, start))


@pytest.mark.parametrize("second, unmapped, level", [
    # a row that crosses from the last mapped page into the next one
    (MAPPED_PAGES * PS4K.bytes - 64, MAPPED_PAGES * PS4K.bytes, 1),
    # a row in the next 1 GB region, whose L3 entry is absent
    (1 << 30, 1 << 30, 3),
])
def test_tile_into_unmapped_page_faults_alike(second, unmapped, level):
    tile = TileFetch("w", ((BASE, 512), (BASE + second, 128)), 640)
    npu = NpuConfig()
    outcomes = [run(path, tile, npu, mapped_table(), DramConfig(), 1, 0)
                for path in (_oracle_fetch, simulate_fetch)]
    assert outcomes[0] == outcomes[1]
    end, stats = outcomes[0][:2]
    assert end == ("fault", (BASE + unmapped) >> PS4K.offset_bits, level)
    assert stats.faults == 1
