"""NPU tiling, DMA linearization, systolic timing, pipeline invariants."""

from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from npusim import config as cfgmod
from npusim.address_space import PageSize, Segment, default_segment_base
from npusim.memory import Dram, DramConfig
from npusim.mmu import MmuConfig, TranslationEngine
from npusim.npu import (
    LayerConfig,
    NpuConfig,
    SimulationFault,
    TileFetch,
    compute_cycles,
    linearize,
    run_layer,
    tile_steps,
)
from npusim.page_table import build
from npusim.workloads import dense_suite, make_layer

PS4K = PageSize.SMALL_4K
MB = 1024 * 1024
NEUMMU_YAML = Path(__file__).resolve().parents[1] / "configs" / "neummu.yaml"


def oracle_engine(layer, ps=PS4K):
    pt = build([layer.ia_segment, layer.w_segment], ps)
    return TranslationEngine(MmuConfig(mode="oracle"), pt, ps)


def test_compute_cycles_weight_stationary_formula():
    npu = NpuConfig()
    # one pass: m + 2P drain for each of ceil(k/P)*ceil(n/P) passes
    assert compute_cycles(1, 128, 128, npu) == 257
    assert compute_cycles(128, 128, 128, npu) == 384
    assert compute_cycles(128, 256, 128, npu) == 768
    assert compute_cycles(4, 2048, 1024, npu) == 16 * 8 * 260


def page(va):
    return va >> PS4K.offset_bits


def groups(runs):
    """Expand page runs into one (vpn, chunk sizes) pair per translation group."""
    return [(vpn, list(chunks)) for vpn, count, chunks in runs
            for _ in range(count)]


def test_linearize_page_span_into_64b_txns():
    base = default_segment_base(0)
    tile = TileFetch("ia", ((base, 4096),), 4096)
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
    spans = tuple((base + r * 1024, 256) for r in range(100))
    tile = TileFetch("w", spans, 100 * 256)
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
    tile = TileFetch("ia", ((default_segment_base(0), 100),), 100)
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
    assert len(ia.spans) == 1
    assert ia.total_bytes == 512


def test_tiling_covers_all_operand_bytes():
    layer = make_layer("l", 64, 2048, 1024)
    npu = NpuConfig(spm_activation_bytes=1 * MB, spm_weight_bytes=1 * MB)
    steps = tile_steps(layer, npu)
    eb = npu.element_bytes
    ia_bytes = sum(f.total_bytes for s in steps for f in s.fetches
                   if f.tensor == "ia")
    w_bytes = sum(f.total_bytes for s in steps for f in s.fetches
                  if f.tensor == "w")
    n_blocks = len({s.gemm[2] for s in steps})  # just sanity on shape
    assert w_bytes == layer.k * layer.n * eb    # W fetched exactly once
    assert ia_bytes % (layer.m * layer.k * eb) == 0  # IA refetched per N block
    assert sum(s.out_bytes for s in steps) >= layer.m * layer.n * eb


def test_tiles_respect_half_partitions():
    layer = make_layer("l", 64, 2048, 1024)
    npu = NpuConfig(spm_activation_bytes=1 * MB, spm_weight_bytes=1 * MB)
    for step in tile_steps(layer, npu):
        ia, w = step.fetches
        assert ia.total_bytes <= npu.spm_activation_bytes // 2
        assert w.total_bytes <= npu.spm_weight_bytes // 2


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
    assert s8.fetches[0].total_bytes == 8 * s1.fetches[0].total_bytes
    assert s8.fetches[1].total_bytes == s1.fetches[1].total_bytes


def test_oracle_pipeline_overlaps_fetch_and_compute():
    layer = make_layer("l", 64, 2048, 1024)
    npu = NpuConfig(spm_activation_bytes=1 * MB, spm_weight_bytes=1 * MB)
    eng = oracle_engine(layer)
    stats = run_layer(layer, npu, eng, Dram(DramConfig()))
    phases = stats.tile_phases
    assert len(phases) >= 2
    for prev, cur in zip(phases, phases[1:]):
        assert cur.fetch_start >= prev.fetch_end       # single DMA engine
        assert cur.compute_start >= prev.compute_end   # single array
        assert cur.compute_start >= cur.fetch_end      # data before compute
    # double buffering: some fetch overlaps the previous tile's compute
    assert any(cur.fetch_start < prev.compute_end
               for prev, cur in zip(phases, phases[1:]))
    assert stats.total_cycles == phases[-1].compute_end


def test_modeled_run_never_faster_than_oracle():
    layer = make_layer("l", 8, 1024, 512)
    npu = NpuConfig(spm_activation_bytes=64 * 1024, spm_weight_bytes=64 * 1024)
    pt = build([layer.ia_segment, layer.w_segment], PS4K)
    oracle_dram = Dram(DramConfig())
    oracle = run_layer(layer, npu,
                       TranslationEngine(MmuConfig(mode="oracle"), pt, PS4K),
                       oracle_dram)
    dram = Dram(DramConfig())
    eng = TranslationEngine(MmuConfig(), pt, PS4K, dram=dram)
    modeled = run_layer(layer, npu, eng, dram)
    assert modeled.total_cycles >= oracle.total_cycles
    assert dram.bytes_issued == oracle_dram.bytes_issued


def test_unmapped_segment_raises_simulation_fault():
    layer = make_layer("l", 4, 64, 64)
    pt = build([layer.ia_segment], PS4K)  # weights left unmapped
    eng = TranslationEngine(MmuConfig(), pt, PS4K)
    with pytest.raises(SimulationFault):
        run_layer(layer, NpuConfig(), eng, Dram(DramConfig()))


def test_unmapped_segment_raises_simulation_fault_in_oracle_mode():
    layer = make_layer("l", 4, 64, 64)
    pt = build([layer.ia_segment], PS4K)  # weights left unmapped
    eng = TranslationEngine(MmuConfig(mode="oracle"), pt, PS4K)
    with pytest.raises(SimulationFault) as fault:
        run_layer(layer, NpuConfig(), eng, Dram(DramConfig()))
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

    def spy(vpn, ps):
        touched.add(vpn)
        return walk_outcome(vpn, ps)
    pt.walk_outcome = spy
    run_layer(layer, npu, TranslationEngine(MmuConfig(mode=mode), pt, PS4K),
              Dram(DramConfig()))
    assert set(out.vpn_range(PS4K)) <= touched

    steps = tile_steps(layer, npu)
    assert len(steps) == 8
    written = sorted(span for step in steps for span in step.out.spans)
    assert written == [(out.base + r * 8192 + c * 1024, 1024)
                       for r in range(4) for c in range(8)]


@pytest.mark.parametrize("mode", ["oracle", "modeled"])
def test_mirrored_writes_without_output_segment_fail_before_any_fetch(mode):
    layer = replace(make_layer("l", 4, 64, 64), out_segment=None)
    pt = build([layer.ia_segment, layer.w_segment], PS4K)
    dram = Dram(DramConfig())
    engine = TranslationEngine(MmuConfig(mode=mode), pt, PS4K, dram=dram)
    with pytest.raises(ValueError, match="output segment"):
        run_layer(layer, NpuConfig(mirror_write_traffic=True), engine, dram)
    assert engine.stats.submitted == 0
    assert dram.txns == 0


def test_translation_reuse_window_collapses_sequential_pages():
    layer = make_layer("l", 1, 8192, 128)
    pt = build([layer.ia_segment, layer.w_segment], PS4K)
    base = TranslationEngine(MmuConfig(), pt, PS4K)
    run_layer(layer, NpuConfig(), base, Dram(DramConfig()))
    reuse = TranslationEngine(MmuConfig(), pt, PS4K)
    run_layer(layer, NpuConfig(reuse_last_translation=True), reuse,
              Dram(DramConfig()))
    assert reuse.stats.submitted < base.stats.submitted


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 64), k=st.integers(1, 1024), n=st.integers(1, 512),
       batch=st.sampled_from([1, 4, 8]))
def test_plan_covers_operands_generic(m, k, n, batch):
    layer = make_layer("l", m, k, n, batch=batch)
    npu = NpuConfig()
    tiles = [f for step in tile_steps(layer, npu) for f in step.fetches]
    w_bytes = sum(t.total_bytes for t in tiles if t.tensor == "w")
    assert w_bytes == k * n
    for t in tiles:
        for start, length in t.spans:
            assert length > 0
            seg = layer.ia_segment if t.tensor == "ia" else layer.w_segment
            assert seg.base <= start and start + length <= seg.end


class SubmitCountingEngine(TranslationEngine):
    submits = 0

    def submit(self, vpn, now):
        self.submits += 1
        return super().submit(vpn, now)


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
    engine = SubmitCountingEngine(mmu, pt, PS4K, dram=dram)
    run_layer(layer, NpuConfig(), engine, dram)
    stats = engine.stats
    assert engine.submits == stats.walks_started + stats.blocked_cycles
    assert stats.tlb_hits > 0
    assert (stats.scoreboard_merges > 0) == (point == "neummu")
