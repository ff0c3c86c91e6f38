"""A tile's translation groups, and the two fetch loops that consume them.

`linearize` is the only code that turns a tile into translation groups, so
it is held to a naive chunk-by-chunk reference written here.

`run_layer` fetches tiles under the oracle MMU with `oracle_fetch`, a
closed form over page runs. Its reference here goes group by group: the
last step of a reference walk, then one `Dram.issue` per chunk in the
group's cycle. Both must give the same end cycle and the same DRAM state,
and fault on the same page at the same level. `oracle_fetch` debits a
stretch of runs with the same chunks in one `Dram.issue_run`.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from npusim.address_space import PageSize, Segment, default_segment_base
from npusim.memory import Dram, DramConfig
from npusim.mmu import MmuConfig, Oracle, TranslationEngine
from npusim.npu import (
    NpuConfig,
    SimulationFault,
    TileFetch,
    linearize,
    oracle_fetch,
    simulate_fetch,
)
from npusim.page_table import build

PS4K = PageSize.SMALL_4K
PS2M = PageSize.LARGE_2M
BASE = default_segment_base(0)
MAPPED_PAGES = 8


def mapped_table(pages=MAPPED_PAGES):
    return build([Segment("s", BASE, pages * PS4K.bytes)], PS4K)


def fetch_oracle(tile, npu, pt, dram, start):
    return oracle_fetch(linearize(tile, npu, PS4K), Oracle(pt), dram, start)


def fetch_modeled(tile, npu, pt, dram, start):
    engine = TranslationEngine(MmuConfig(), pt, dram=dram)
    return simulate_fetch(linearize(tile, npu, PS4K), engine, dram, start)


def fetch_reference(tile, npu, pt, dram, start):
    """The oracle group by group: group i is translated by the last step of
    a reference walk and issues its chunks one by one in cycle start + i."""
    groups = reference_groups(tile, npu.dma_txn_bytes,
                              npu.reuse_last_translation, PS4K)
    end = start
    for i, (page, chunks) in enumerate(groups):
        last = pt.walk_path(page)[-1]
        if not last.present:
            raise SimulationFault(page, last.level)
        for nbytes in chunks:
            end = max(end, dram.issue(nbytes, start + i))
    return max(end, start + len(groups))


def run(fetch, tile, npu, pt, dram_cfg, warmup, start):
    """Fetch `tile` after a warm-up DRAM transaction; returns the outcome."""
    dram = Dram(dram_cfg)
    dram.issue(warmup, 0)
    try:
        end = fetch(tile, npu, pt, dram, start)
    except SimulationFault as fault:
        end = ("fault", fault.vpn, fault.level)
    return end, dram.bytes_issued, dram.txns, dram.issue(1, start)


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
def test_oracle_fetch_matches_per_group_reference(tile, chunk, reuse, bandwidth,
                                                  latency, warmup, start):
    npu = NpuConfig(dma_txn_bytes=chunk, reuse_last_translation=reuse)
    dram_cfg = DramConfig(bandwidth_bytes_per_cycle=bandwidth,
                          access_latency=latency)
    pt = mapped_table()
    assert (run(fetch_oracle, tile, npu, pt, dram_cfg, warmup, start)
            == run(fetch_reference, tile, npu, pt, dram_cfg, warmup, start))


@pytest.mark.parametrize("second, unmapped, level", [
    # a row that crosses from the last mapped page into the next one
    (MAPPED_PAGES * PS4K.bytes - 64, MAPPED_PAGES * PS4K.bytes, 1),
    # a row in the next 1 GB region, whose L3 entry is absent
    (1 << 30, 1 << 30, 3),
])
def test_tile_into_unmapped_page_faults_alike(second, unmapped, level):
    tile = TileFetch("w", ((BASE, 512), (BASE + second, 128)), 640)
    npu = NpuConfig()
    oracle, reference, modeled = [
        run(fetch, tile, npu, mapped_table(), DramConfig(), 1, 0)
        for fetch in (fetch_oracle, fetch_reference, fetch_modeled)]
    assert oracle == reference
    fault = ("fault", (BASE + unmapped) >> PS4K.offset_bits, level)
    assert oracle[0] == modeled[0] == fault


class CountingDram(Dram):
    """A DRAM model that keeps the arguments of every `issue_run`."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.runs = []

    def issue_run(self, chunks, count, now):
        self.runs.append((chunks, count, now))
        return super().issue_run(chunks, count, now)


def page_runs(pattern, first_page=0):
    """Runs on consecutive pages from page `first_page` of BASE's table,
    one per (count, chunks)."""
    first = (BASE >> PS4K.offset_bits) + first_page
    return [(first + i, count, chunks) for i, (count, chunks) in enumerate(pattern)]


def debit_each(runs, dram, start):
    """What one `issue_run` per page run leaves in `dram`; the end cycle."""
    end = cycle = start
    for _, count, chunks in runs:
        end = dram.issue_run(chunks, count, cycle)
        cycle += count
    return max(end, cycle)


@pytest.mark.parametrize("pages", [1, 2, MAPPED_PAGES])
def test_runs_with_the_same_chunks_are_one_debit(pages):
    runs = page_runs([(3, (64,))] * pages)
    dram = CountingDram(DramConfig(bandwidth_bytes_per_cycle=40))
    end = oracle_fetch(runs, Oracle(mapped_table()), dram, 5)
    assert dram.runs == [((64,), 3 * pages, 5)]
    each = Dram(DramConfig(bandwidth_bytes_per_cycle=40))
    assert end == debit_each(runs, each, 5)
    assert {k: v for k, v in vars(dram).items() if k != "runs"} == vars(each)


def test_a_change_of_chunks_starts_a_new_debit():
    runs = page_runs([(2, (64,)), (1, (64,)), (4, (100,)), (2, (100,)),
                      (1, (64, 8)), (3, (64,))])
    dram = CountingDram(DramConfig(bandwidth_bytes_per_cycle=40))
    end = oracle_fetch(runs, Oracle(mapped_table()), dram, 0)
    assert dram.runs == [((64,), 3, 0), ((100,), 6, 3), ((64, 8), 1, 9),
                         ((64,), 3, 10)]
    each = Dram(DramConfig(bandwidth_bytes_per_cycle=40))
    assert end == debit_each(runs, each, 0)
    assert {k: v for k, v in vars(dram).items() if k != "runs"} == vars(each)


@pytest.mark.parametrize("k", [0, 1, 3])
def test_a_fault_debits_the_runs_before_it(k):
    """The runs before the first unmapped page, run k, are debited, and
    nothing after."""
    runs = page_runs([(2, (64,))] * 4, first_page=MAPPED_PAGES - k)
    pt = mapped_table()
    dram = Dram(DramConfig(bandwidth_bytes_per_cycle=40))
    with pytest.raises(SimulationFault) as fault:
        oracle_fetch(runs, Oracle(pt), dram, 7)
    assert fault.value.vpn == runs[k][0]
    before = Dram(DramConfig(bandwidth_bytes_per_cycle=40))
    debit_each(runs[:k], before, 7)
    assert vars(dram) == vars(before)
