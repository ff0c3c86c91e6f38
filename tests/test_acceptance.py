"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Each criterion pairs an exact structural property with a scaled trend
check; thresholds and time budgets live next to the asserts. Run with
`pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import time
from pathlib import Path

import numpy as np

from npusim import config as cfgmod
from npusim import harness
from npusim.address_space import PageSize, Segment, default_segment_base, vpn
from npusim.energy import account
from npusim.memory import Dram, DramConfig, LinksConfig
from npusim.mmu import MmuConfig, Oracle, TranslationEngine, drain_trace
from npusim.npu import MB, NpuConfig, linearize, run_layer, tile_steps
from npusim.numa import (
    run_baseline_copy,
    run_demand_paging,
    run_numa,
    translate_gathers,
)
from npusim.page_table import build
from walk_reference import RecordingEngine, build_scattered, reference_frame
from trace_reference import gathers
from npusim.workloads import (
    GatherTrace,
    WorkloadConfig,
    gather_trace,
    make_layer,
)

PS4K = PageSize.SMALL_4K
PS2M = PageSize.LARGE_2M

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
NEUMMU = MmuConfig(**cfgmod.load_config(str(CONFIGS / "neummu.yaml"))["mmu"])
LINKS = LinksConfig()


def check(num: int, desc: str, ok: bool) -> None:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num:02d} failed: {desc}"


def burst_txn_vpns(tiles=1):
    """Per-transaction VPN stream of the burst layer's strided weight tiles.

    Each 4KB page of the weight matrix contributes 16 transactions, so the
    stream hammers the translation path the way a real tile DMA does.
    """
    layer = make_layer("burst", 4, 2048, 1024)
    npu = NpuConfig(spm_weight_bytes=1 * MB)
    steps = tile_steps(layer, npu)
    vpns = []
    for step in steps[:tiles]:
        w = step.fetches[1]
        vpns.extend(page for page, count, chunks in linearize(w, npu, PS4K)
                    for _ in range(count * len(chunks)))
    pt = build([layer.ia_segment, layer.w_segment], PS4K)
    return vpns, pt, layer, npu


def test_criterion_01_translation_correctness():
    t0 = time.monotonic()
    rng = np.random.default_rng(1)
    configs = [
        MmuConfig(),
        MmuConfig(num_ptws=32, prmb_slots=8),
        NEUMMU,
        MmuConfig(num_ptws=8, prmb_slots=1, translation_cache="tpc",
                  cache_entries=4),
        MmuConfig(num_ptws=16, translation_cache="uptc", cache_entries=32),
        MmuConfig(num_ptws=8, tlb_entries=128),
        MmuConfig(num_ptws=64, prmb_slots=4, translation_cache="tpc",
                  cache_entries=2, tlb_entries=256),
        MmuConfig(num_ptws=32, prmb_slots=32, translation_cache="uptc",
                  cache_entries=2),
    ]
    verified = 0
    mismatches = 0
    for trial in range(48):
        cfg = configs[trial % len(configs)]
        ps = PS4K if trial % 3 else PS2M
        pool = int(rng.integers(4, 64))
        seg = Segment("s", default_segment_base(int(rng.integers(8))),
                      pool * ps.bytes)
        pt = build_scattered([seg], ps, seed=trial)
        lo = seg.vpn_range(ps)[0]
        trace = [lo + int(v) for v in rng.integers(0, pool, size=2500)]
        engine = RecordingEngine(cfg, pt)
        drain_trace(engine, trace)
        comps = engine.delivered
        for c in comps:
            verified += 1
            if c.frame is None or c.frame != reference_frame(pt, c.vpn):
                mismatches += 1
        assert len(comps) == len(trace)
    dt = time.monotonic() - t0
    check(1, f"{verified} random translations, {mismatches} mismatches, "
             f"{dt:.1f}s (<60s)",
          verified >= 100_000 and mismatches == 0 and dt < 60)


def test_criterion_02_oracle_bound_and_monotonicity():
    pt4k = build([Segment("s", default_segment_base(0), 2048 * 4096)], PS4K)
    distinct = list(range(vpn(default_segment_base(0), PS4K),
                          vpn(default_segment_base(0), PS4K) + 2048))
    two_pass = distinct[:512] * 2
    burst, pt_b, _, _ = burst_txn_vpns()

    def cycles(cfg, trace, pt):
        return drain_trace(TranslationEngine(cfg, pt), trace)

    violations = []
    oracle_ok = True
    for trace, pt in ((distinct, pt4k), (two_pass, pt4k), (burst, pt_b)):
        o = len(trace)  # the oracle: one translation per cycle, all mapped
        for cfg in (MmuConfig(), NEUMMU):
            if cycles(cfg, trace, pt) < o:
                oracle_ok = False

    ptw_c = [cycles(MmuConfig(num_ptws=w, prmb_slots=32), distinct, pt4k)
             for w in (8, 16, 32, 64, 128)]
    prmb_c = [cycles(MmuConfig(num_ptws=8, prmb_slots=s), burst, pt_b)
              for s in (1, 2, 8, 16, 32)]
    tlb_c = [cycles(MmuConfig(num_ptws=NEUMMU.num_ptws, tlb_entries=e),
                    two_pass, pt4k)
             for e in (128, 256, 512, 1024, 2048)]
    for name, seq in (("num_ptws", ptw_c), ("prmb_slots", prmb_c),
                      ("tlb_entries", tlb_c)):
        if any(b > a for a, b in zip(seq, seq[1:])):
            violations.append(f"{name}={seq}")
    check(2, f"oracle<=modeled, cycles non-increasing: ptw={ptw_c} "
             f"prmb={prmb_c} tlb={tlb_c}",
          oracle_ok and not violations)


def test_criterion_03_merge_buffer_filters_walks():
    trace, pt, _, _ = burst_txn_vpns()
    off = RecordingEngine(MmuConfig(num_ptws=8, prmb_slots=0), pt)
    drain_trace(off, trace)
    on = RecordingEngine(MmuConfig(num_ptws=8, prmb_slots=8), pt)
    drain_trace(on, trace)
    comps_off, comps_on = off.delivered, on.delivered

    pas = lambda comps: sorted((c.vpn, c.frame) for c in comps)
    ratio = off.stats.walks_started / on.stats.walks_started
    check(3, f"walks {off.stats.walks_started} -> {on.stats.walks_started} "
             f"({ratio:.1f}x >= 4x), identical PAs",
          ratio >= 4.0 and pas(comps_off) == pas(comps_on))


def test_criterion_04_full_system_gap():
    t0 = time.monotonic()
    layer = make_layer("burst", 4, 2048, 1024)
    npu = NpuConfig(spm_weight_bytes=1 * MB)
    pt = build([layer.ia_segment, layer.w_segment], PS4K)

    def cycles(mmu):
        dram = Dram(DramConfig())
        eng = TranslationEngine(mmu, pt, dram=dram)
        return run_layer(layer, npu, eng, dram)

    oracle = run_layer(layer, npu, Oracle(pt), Dram(DramConfig()))
    baseline = cycles(MmuConfig(num_ptws=8, prmb_slots=0,
                                translation_cache="none", tlb_entries=2048))
    full = cycles(NEUMMU)
    perf_base = oracle / baseline
    perf_full = oracle / full
    dt = time.monotonic() - t0
    check(4, f"oracle={oracle} baseline={baseline} ({perf_base:.1%} <=50%) "
             f"full={full} ({perf_full:.1%} >=95%), {dt:.1f}s (<300s)",
          perf_base <= 0.50 and perf_full >= 0.95 and dt < 300)


def test_criterion_05_walk_cost_exact():
    results = {}
    for ps, pages in ((PS4K, 1), (PS2M, 1)):
        seg = Segment("s", default_segment_base(0), pages * ps.bytes)
        pt = build([seg], ps)
        eng = RecordingEngine(MmuConfig(num_ptws=1), pt)
        drain_trace(eng, [seg.vpn_range(ps)[0]])
        results[ps] = (eng.stats.walk_memory_transactions,
                       eng.delivered[0].done_cycle)
    check(5, f"4KB walk = {results[PS4K]} (4 txns, 400 cyc); "
             f"2MB walk = {results[PS2M]} (3 txns, 300 cyc)",
          results[PS4K] == (4, 400) and results[PS2M] == (3, 300))


def _stream_engines(cache, entries=1):
    seg = Segment("s", default_segment_base(0), 4 * MB)  # 1024 pages
    pt = build([seg], PS4K)
    eng = TranslationEngine(
        MmuConfig(num_ptws=1, translation_cache=cache,
                  cache_entries=entries), pt)
    drain_trace(eng, list(seg.vpn_range(PS4K)))
    return eng


def test_criterion_06_path_register_streaming():
    on = _stream_engines("tpr")
    off = _stream_engines("none")
    walks = on.stats.walks_started
    upper_rate = min(on.stats.cache_hit_l4, on.stats.cache_hit_l3) / walks
    ratio = off.stats.walk_memory_transactions / on.stats.walk_memory_transactions
    check(6, f"(l4,l3) hit rate {upper_rate:.3%} (>=99%), txns "
             f"{off.stats.walk_memory_transactions} -> "
             f"{on.stats.walk_memory_transactions} ({ratio:.2f}x >= 2x)",
          upper_rate >= 0.99 and ratio >= 2.0)


def test_criterion_07_path_cache_beats_unified():
    tpc = _stream_engines("tpc", entries=2)
    uptc = _stream_engines("uptc", entries=2)
    check(7, f"walk txns at 2 entries: tpc={tpc.stats.walk_memory_transactions}"
             f" < uptc={uptc.stats.walk_memory_transactions}",
          tpc.stats.walk_memory_transactions
          < uptc.stats.walk_memory_transactions)


def test_criterion_08_energy_ordering():
    trace, pt, _, _ = burst_txn_vpns()
    brute = TranslationEngine(MmuConfig(num_ptws=1024, prmb_slots=0), pt)
    drain_trace(brute, trace)
    filtered = TranslationEngine(MmuConfig(num_ptws=NEUMMU.num_ptws,
                                           prmb_slots=NEUMMU.prmb_slots), pt)
    drain_trace(filtered, trace)
    e_brute = account(brute.stats).total_pj
    e_filt = account(filtered.stats).total_pj
    ratio = e_brute / e_filt

    on = _stream_engines("tpr")
    off = _stream_engines("none")
    # walk-DRAM energy must scale exactly with walk transaction counts
    linear = (account(on.stats).walk_dram_pj * off.stats.walk_memory_transactions
              == account(off.stats).walk_dram_pj * on.stats.walk_memory_transactions)
    check(8, f"energy {e_brute:.0f}pJ vs {e_filt:.0f}pJ ({ratio:.1f}x > 1.5x), "
             f"TPR energy linear in txns",
          e_brute > e_filt and ratio > 1.5 and linear)


def test_criterion_09_numa_case_study():
    t0 = time.monotonic()
    model = WorkloadConfig(
        kind="embedding", num_npus=8, tables=8, rows=65536, batch_samples=256)
    trace = gather_trace(model, 5)
    copy = run_baseline_copy(trace, model, LINKS.pcie)
    translation = translate_gathers(trace, model, NEUMMU)
    slow = run_numa(trace, model, translation, LINKS.pcie)
    fast = run_numa(trace, model, translation, LINKS.nvlink)
    red_slow = 1 - slow.total_cycles / copy.total_cycles
    red_fast = 1 - fast.total_cycles / copy.total_cycles
    dt = time.monotonic() - t0
    mostly_remote = trace and sum(
        g.owner_npu != 0 for g in gathers(trace, model)) / len(trace) > 0.5
    check(9, f"copy={copy.total_cycles} slow={slow.total_cycles} "
             f"(-{red_slow:.0%} >=20%) fast={fast.total_cycles} "
             f"(-{red_fast:.0%} >=50%), {dt:.1f}s (<60s)",
          mostly_remote
          and fast.total_cycles < slow.total_cycles < copy.total_cycles
          and red_slow >= 0.20 and red_fast >= 0.50 and dt < 60)


def test_criterion_10_large_page_pitfall():
    model = WorkloadConfig(
        kind="embedding", num_npus=4, tables=4, rows=1 << 20, batch_samples=64)
    trace = gather_trace(model, 9)
    touches = {}
    for g in gathers(trace, model):
        key = (g.table, g.row * 256 // 4096)
        touches[key] = touches.get(key, 0) + 1
    sparse_enough = sum(touches.values()) / len(touches) < 2

    def demand(trace, ps):
        return run_demand_paging(trace, model, ps, LINKS.nvlink, MmuConfig())[0]

    small = demand(trace, PS4K)
    large = demand(trace, PS2M)
    bloat = large.migration_bytes / large.payload_bytes

    seq = GatherTrace.of((t, r) for t in range(4) for r in range(512))
    sm_seq = demand(seq, PS4K)
    lg_seq = demand(seq, PS2M)
    check(10, f"sparse: 2M migrates {bloat:.0f}x payload (>=100x), total "
              f"{large.total_cycles} > {small.total_cycles}; sequential: "
              f"fault cycles {lg_seq.fault_handling_cycles} < "
              f"{sm_seq.fault_handling_cycles}; page ratio "
              f"{PS2M.bytes // PS4K.bytes} = 512",
          sparse_enough
          and large.migration_bytes >= 100 * large.payload_bytes
          and large.total_cycles > small.total_cycles
          and large.migration_bytes % PS2M.bytes == 0
          and small.migration_bytes % PS4K.bytes == 0
          and PS2M.bytes // PS4K.bytes == 512
          and lg_seq.fault_handling_cycles < sm_seq.fault_handling_cycles)


def test_criterion_11_determinism():
    dense = cfgmod.load_config(None)
    dense["workload"]["suite"] = "toy"
    emb = cfgmod.load_config(None)
    emb["workload"]["kind"] = "embedding"
    emb["workload"]["strategy"] = "all"
    emb["workload"]["batch_samples"] = 32
    same = True
    for cfg in (dense, emb):
        a = harness.rows_to_csv(harness.run_single(cfg, seed=7))
        b = harness.rows_to_csv(harness.run_single(cfg, seed=7))
        same = same and (a == b)
    check(11, "identical config+seed reruns produce byte-identical CSV", same)
