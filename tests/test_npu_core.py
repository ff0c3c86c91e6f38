"""NPU tiling, DMA linearization, systolic timing, pipeline invariants."""

from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from npusim import config as cfgmod
from npusim import npu as npumod
from npusim.address_space import PageSize, Segment, default_segment_base
from npusim.memory import Dram, DramConfig
from npusim.mmu import MmuConfig, Oracle, TranslationEngine
from npusim.npu import (
    NpuConfig,
    SimulationFault,
    compute_cycles,
    layer_segments,
    linearize,
    plan_layer,
    run_layer,
    simulate_fetch,
    tile_steps,
)
from npusim.page_table import build
from npusim.workloads import dense_suite, make_layer

PS4K = PageSize.SMALL_4K
PS2M = PageSize.LARGE_2M
MB = 1024 * 1024
NEUMMU_YAML = Path(__file__).resolve().parents[1] / "configs" / "neummu.yaml"


def mmu_of(mode, pt, dram=None):
    """The oracle, or a default modelled engine over `pt`."""
    if mode == "oracle":
        return Oracle(pt)
    return TranslationEngine(MmuConfig(), pt, dram=dram)


def test_compute_cycles_weight_stationary_formula():
    npu = NpuConfig()
    # one pass: m + 2P drain for each of ceil(k/P)*ceil(n/P) passes
    assert compute_cycles(1, 128, 128, npu) == 257
    assert compute_cycles(128, 128, 128, npu) == 384
    assert compute_cycles(128, 256, 128, npu) == 768
    assert compute_cycles(4, 2048, 1024, npu) == 16 * 8 * 260


def page(va):
    return va >> PS4K.offset_bits


def nbytes(spans):
    """The bytes a tile fetch's (start va, length) spans carry."""
    return sum(length for _, length in spans)


def groups(runs):
    """Expand page runs into one (vpn, chunk sizes) pair per translation group."""
    return [(vpn, list(chunks)) for vpn, count, chunks in runs
            for _ in range(count)]


def test_linearize_page_span_into_64b_txns():
    base = default_segment_base(0)
    tile = ((base, 4096),)
    runs = linearize(tile, NpuConfig(), PS4K)
    assert runs == [(page(base), 64, (64,))]
    txns = groups(runs)
    assert len(txns) == 64
    assert all(sizes == [64] for _, sizes in txns)
    assert txns[0][0] == page(base)
    assert txns[-1][0] == page(base + 4096 - 64)
    # the reuse window translates the whole page once
    reuse = NpuConfig(reuse_last_translation=True)
    assert groups(linearize(tile, reuse, PS4K)) == [(page(base), [64] * 64)]


def test_linearize_strided_rows():
    base = default_segment_base(0)
    tile = tuple((base + r * 1024, 256) for r in range(100))
    runs = linearize(tile, NpuConfig(), PS4K)
    # the four rows that share a page make one run of 16 beats
    assert runs == [(page(base) + p, 16, (64,)) for p in range(25)]
    txns = groups(runs)
    assert len(txns) == 400  # four 64B beats per 256B row
    assert txns[4][0] == page(base + 1024)
    # with reuse, a group runs across the four rows that share a page
    reuse = groups(linearize(tile, NpuConfig(reuse_last_translation=True), PS4K))
    assert reuse == [(page(base) + p, [64] * 16) for p in range(25)]


def test_tail_transaction_is_short():
    tile = ((default_segment_base(0), 100),)
    runs = linearize(tile, NpuConfig(), PS4K)
    assert [sizes for _, sizes in groups(runs)] == [[64], [36]]
    # a short tail is a run of its own
    assert [chunks for _, _, chunks in runs] == [(64,), (36,)]


def test_contiguous_rows_merge_into_one_span():
    # m=1: IA rows are trivially contiguous; whole K strip is one span
    layer = make_layer("l", 1, 512, 128)
    steps = tile_steps(layer, NpuConfig())
    assert len(steps) == 1
    ia = steps[0].fetches[0]
    assert len(ia) == 1
    assert nbytes(ia) == 512


def test_tiling_covers_all_operand_bytes():
    layer = make_layer("l", 64, 2048, 1024)
    npu = NpuConfig(spm_activation_bytes=1 * MB, spm_weight_bytes=1 * MB)
    steps = tile_steps(layer, npu)
    eb = npu.element_bytes
    ia_bytes = sum(nbytes(s.fetches[0]) for s in steps)
    w_bytes = sum(nbytes(s.fetches[1]) for s in steps)
    n_blocks = len({s.gemm[2] for s in steps})  # just sanity on shape
    assert w_bytes == layer.k * layer.n * eb    # W fetched exactly once
    assert ia_bytes % (layer.m * layer.k * eb) == 0  # IA refetched per N block
    assert sum(nbytes(s.out) for s in steps) >= layer.m * layer.n * eb


def test_tiles_respect_half_partitions():
    layer = make_layer("l", 64, 2048, 1024)
    npu = NpuConfig(spm_activation_bytes=1 * MB, spm_weight_bytes=1 * MB)
    for step in tile_steps(layer, npu):
        ia, w = step.fetches
        assert nbytes(ia) <= npu.spm_activation_bytes // 2
        assert nbytes(w) <= npu.spm_weight_bytes // 2


def test_unfittable_layer_rejected():
    layer = make_layer("l", 4096, 4096, 128)
    with pytest.raises(ValueError):
        tile_steps(layer, NpuConfig(spm_activation_bytes=1024,
                                    spm_weight_bytes=1024))


@pytest.mark.parametrize("spm_weight_bytes, element_bytes", [(1, 1), (3, 2)])
def test_weight_half_below_one_element_rejected(spm_weight_bytes, element_bytes):
    layer = make_layer("l", 4, 64, 64, element_bytes=element_bytes)
    npu = NpuConfig(spm_weight_bytes=spm_weight_bytes, element_bytes=element_bytes)
    with pytest.raises(ValueError, match="W tile cannot fit half the SPM"):
        tile_steps(layer, npu)


def test_batch_multiplies_rows():
    l1 = make_layer("l", 4, 64, 64, batch=1)
    l8 = make_layer("l", 4, 64, 64, batch=8)
    assert l8.m_eff == 8 * l1.m_eff
    s1 = tile_steps(l1, NpuConfig())[0]
    s8 = tile_steps(l8, NpuConfig())[0]
    assert nbytes(s8.fetches[0]) == 8 * nbytes(s1.fetches[0])
    assert nbytes(s8.fetches[1]) == nbytes(s1.fetches[1])


@pytest.mark.parametrize("mirror", [False, True], ids=["plain", "mirrored"])
@pytest.mark.parametrize("mode", ["oracle", "modeled"])
def test_pipeline_follows_the_double_buffering_rules(mode, mirror, monkeypatch):
    """Every fetch starts, and the layer ends, where the pipeline's rules
    put them, given each fetch's recorded end:
    - one DMA fetches the steps' IA, then W, in order;
    - a step's buffer is free once the compute two steps back ends;
    - with mirrored writes, the DMA is busy until the previous compute
      ends, and writes each step's output from its compute end on;
    - a compute starts after its data and after the previous compute."""
    layer = make_layer("l", 64, 2048, 1024)
    npu = NpuConfig(array_dim=32, spm_activation_bytes=1 * MB,
                    spm_weight_bytes=1 * MB, mirror_write_traffic=mirror)
    pt = build(layer_segments(layer, npu), PS4K)
    fetches = []                          # (start, end) of every fetch, in order
    for name in ("oracle_fetch", "simulate_fetch"):
        def recording(runs, engine, dram, start, fetch=getattr(npumod, name)):
            end = fetch(runs, engine, dram, start)
            fetches.append((start, end))
            return end
        monkeypatch.setattr(npumod, name, recording)
    plan = plan_layer(layer, npu, PS4K)
    dram = Dram(DramConfig())
    total = run_layer(layer, npu, mmu_of(mode, pt, dram), dram, plan)

    recorded = iter(fetches)
    # the previous fetch's end, and the compute ends of steps i-2 and i-1
    fetch_end = older = last = 0
    overlaps = []                         # per step: fetch before the last compute ends
    for step in plan:
        due = max(fetch_end, older, last if mirror else 0)
        overlaps.append(due < last)
        for _ in step.fetches:
            start, fetch_end = next(recorded)
            assert start == due
            due = fetch_end
        end = max(fetch_end, last) + step.compute
        if mirror:
            start, written = next(recorded)
            assert start == end
            end = written
        older, last = last, end
    assert next(recorded, None) is None
    assert total == last
    assert len(plan) >= 3
    # double buffering: some fetch overlaps the previous tile's compute,
    # unless the DMA was writing its output back
    assert any(overlaps) == (not mirror)


def test_modeled_run_never_faster_than_oracle():
    layer = make_layer("l", 8, 1024, 512)
    npu = NpuConfig(spm_activation_bytes=64 * 1024, spm_weight_bytes=64 * 1024)
    pt = build([layer.ia_segment, layer.w_segment], PS4K)
    oracle_dram = Dram(DramConfig())
    oracle = run_layer(layer, npu, Oracle(pt), oracle_dram)
    dram = Dram(DramConfig())
    eng = TranslationEngine(MmuConfig(), pt, dram=dram)
    modeled = run_layer(layer, npu, eng, dram)
    assert modeled >= oracle
    assert dram.bytes_issued == oracle_dram.bytes_issued


@pytest.mark.parametrize("mode", ["oracle", "modeled"])
def test_run_layer_plans_at_the_table_page_size(mode):
    # without a plan, run_layer plans at its MMU's page size: the table's
    layer = make_layer("l", 4, 512, 1024)
    npu = NpuConfig(spm_weight_bytes=256 * 1024)
    pt = build([layer.ia_segment, layer.w_segment], PS2M)

    def run(plan):
        dram = Dram(DramConfig())
        mmu = mmu_of(mode, pt, dram)
        cycles = run_layer(layer, npu, mmu, dram, plan)
        return cycles, replace(mmu.stats)

    planned = run(plan_layer(layer, npu, PS2M))
    if mode == "modeled":                   # 3-level walks: 2 MB pages
        mmu_stats = planned[1]
        assert mmu_stats.walk_memory_transactions == 3 * mmu_stats.walks_started > 0
    assert run(None) == planned


def test_unmapped_segment_raises_simulation_fault():
    layer = make_layer("l", 4, 64, 64)
    pt = build([layer.ia_segment], PS4K)  # weights left unmapped
    eng = TranslationEngine(MmuConfig(), pt)
    with pytest.raises(SimulationFault):
        run_layer(layer, NpuConfig(), eng, Dram(DramConfig()))


def test_unmapped_segment_raises_simulation_fault_in_oracle_mode():
    layer = make_layer("l", 4, 64, 64)
    pt = build([layer.ia_segment], PS4K)  # weights left unmapped
    with pytest.raises(SimulationFault) as fault:
        run_layer(layer, NpuConfig(), Oracle(pt), Dram(DramConfig()))
    assert fault.value.vpn == layer.w_segment.base >> PS4K.offset_bits


@pytest.mark.parametrize("mode", ["oracle", "modeled"])
def test_mirrored_output_tiles_land_at_their_columns(mode):
    # 4 x 8192 output: each 1024-column tile writes a 1 KB piece of every row
    layer = make_layer("l", 4, 64, 8192)
    npu = NpuConfig(spm_weight_bytes=128 * 1024, mirror_write_traffic=True)
    out = layer.out_segment
    pt = build([layer.ia_segment, layer.w_segment, out], PS4K)
    touched = set()
    walk_outcome = pt.walk_outcome

    def spy(vpn):
        touched.add(vpn)
        return walk_outcome(vpn)
    pt.walk_outcome = spy
    run_layer(layer, npu, mmu_of(mode, pt), Dram(DramConfig()))
    assert set(out.vpn_range(PS4K)) <= touched

    steps = tile_steps(layer, npu)
    assert len(steps) == 8
    written = sorted(span for step in steps for span in step.out)
    assert written == [(out.base + r * 8192 + c * 1024, 1024)
                       for r in range(4) for c in range(8)]


@pytest.mark.parametrize("mode", ["oracle", "modeled"])
def test_mirrored_writes_without_output_segment_fail_before_any_fetch(mode):
    layer = replace(make_layer("l", 4, 64, 64), out_segment=None)
    pt = build([layer.ia_segment, layer.w_segment], PS4K)
    dram = Dram(DramConfig())
    engine = mmu_of(mode, pt, dram)
    with pytest.raises(ValueError, match="output segment"):
        run_layer(layer, NpuConfig(mirror_write_traffic=True), engine, dram)
    assert engine.stats.tlb_accesses == 0
    assert dram.txns == 0


def test_translation_reuse_window_collapses_sequential_pages():
    layer = make_layer("l", 1, 8192, 128)
    pt = build([layer.ia_segment, layer.w_segment], PS4K)
    base = TranslationEngine(MmuConfig(), pt)
    run_layer(layer, NpuConfig(), base, Dram(DramConfig()))
    reuse = TranslationEngine(MmuConfig(), pt)
    run_layer(layer, NpuConfig(reuse_last_translation=True), reuse,
              Dram(DramConfig()))
    assert reuse.stats.tlb_accesses < base.stats.tlb_accesses


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 64), k=st.integers(1, 1024), n=st.integers(1, 512),
       batch=st.sampled_from([1, 4, 8]))
def test_plan_covers_operands_generic(m, k, n, batch):
    layer = make_layer("l", m, k, n, batch=batch)
    npu = NpuConfig()
    steps = tile_steps(layer, npu)
    w_bytes = sum(nbytes(step.fetches[1]) for step in steps)
    assert w_bytes == k * n
    for step in steps:
        ia, w = step.fetches
        for seg, spans in ((layer.ia_segment, ia), (layer.w_segment, w)):
            for start, length in spans:
                assert length > 0
                assert seg.base <= start and start + length <= seg.end


class SubmitCountingEngine(TranslationEngine):
    submits = 0

    def submit(self, vpn, now):
        self.submits += 1
        return super().submit(vpn, now)


class AcceptRunRecordingEngine(TranslationEngine):
    """An engine that keeps how many requests each `accept_run` call took."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.taken = []

    def accept_run(self, vpn, count, now):
        taken = super().accept_run(vpn, count, now)
        self.taken.append(taken)
        return taken


def test_a_pages_own_walks_do_not_cut_its_hit_run():
    """Without merge buffers, every walker starts a redundant walk of a
    missing page. Those walks refill the same frame, so once the first one
    ends, `accept_run` takes the rest of the page's run in one call."""
    seg = Segment("w", default_segment_base(0), PS4K.bytes)
    pt = build([seg], PS4K)
    dram = Dram(DramConfig())
    engine = AcceptRunRecordingEngine(MmuConfig(), pt, dram=dram)
    groups = 64
    simulate_fetch([(seg.vpn_range(PS4K)[0], groups, (64,))], engine, dram, 0)
    walks = engine.stats.walks_started
    assert walks == MmuConfig().num_ptws
    assert [n for n in engine.taken if n] == [groups - walks]


@pytest.mark.parametrize("point", ["default", "neummu"])
def test_tlb_hits_and_merges_never_reach_submit(point):
    """The burst layer's fetches take every TLB hit and merge through
    `accept_run`: `submit` only starts walks and makes blocked retries."""
    mmu = MmuConfig()
    if point == "neummu":
        mmu = MmuConfig(**cfgmod.load_config(str(NEUMMU_YAML))["mmu"])
    (layer,) = dense_suite("burst")["b01"]
    pt = build([layer.ia_segment, layer.w_segment], PS4K)
    dram = Dram(DramConfig())
    engine = SubmitCountingEngine(mmu, pt, dram=dram)
    run_layer(layer, NpuConfig(), engine, dram)
    stats = engine.stats
    assert engine.submits == stats.walks_started + stats.blocked_cycles
    assert stats.tlb_hits > 0
    assert (stats.scoreboard_merges > 0) == (point == "neummu")
