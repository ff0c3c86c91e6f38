"""Systolic-array NPU timing model with a double-buffered scratchpad.

No tensor arithmetic happens here: layers are GEMMs whose operands live in
virtual-address segments, and the model tracks only address and timing
behavior. The DMA blocks input activations (IA) and weights (W) into tiles
that each fit half of the corresponding scratchpad partition (`tile_fit`
sizes them). A tile fetch is its tuple of (start va, length) spans, and it
becomes translation groups in one place, `linearize`: its spans are cut
into fixed-size DMA chunks, and a group is one chunk's page, or with the
reuse window a run of same-page chunks. `linearize` hands the groups out
as page runs, (vpn, count, chunks): `count` consecutive groups on one page
that carry the same chunk sizes. The DMA offers the MMU one group per
cycle while fetching. Compute for tile n overlaps the fetch of tile n+1; a
tile's compute starts only after its fetch fully lands (barrier), and a
buffer is reusable only after the compute reading it ends.

None of that blocking depends on the MMU, so `plan_layer` does it once: a
layer's plan holds, per tile step, the page runs of its IA and W fetches
(and, when write traffic is mirrored, its output tile), and the step's
compute cycles. A plan is a function of (layer, NPU config, page size)
alone; the harness builds it once per run or sweep call and hands the same
plan to a layer's oracle and modelled `run_layer` at every sweep point, so
`run_layer` only walks precomputed runs and returns the layer's cycles.

Both fetch loops walk the same runs, and `run_layer` picks one by its MMU.
Under a modelled `TranslationEngine`, `simulate_fetch` drives the engine
with the timing of one submit and one tick per cycle, but a page run's
TLB hits and merges go in through one `TranslationEngine.accept_run`
call, a stretch of such runs is ticked once, and the engine delivers
them as runs of groups, each debited to DRAM in one closed-form
`Dram.issue_run`. While the MMU blocks a group (walkers busy or merge
buffer full), nothing changes until the engine's next event, so the
engine's `skip_blocked` charges the group's retries up to that cycle to
its counters in one step and the loop skips its idle ticks.
`skip_blocked` still makes one `submit` call per retry, each answered
BLOCKED at once from a stretch marker, because blocked cycles are still
counted from outside as BLOCKED returns. Under the `Oracle`
every translation completes in the cycle it is offered, so `oracle_fetch`
is a closed form: group i and its data go out at cycle start + i, with
one page-table read per page and one DRAM debit per stretch of runs with
the same chunks.

Weight-stationary compute timing for a (m, k, n) sub-GEMM on a PxP array:
load a PxP weight block, stream m rows, drain the pipeline, repeated per
weight block:  ceil(k/P) * ceil(n/P) * (m + 2P) cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from .address_space import VA_MASK, PageSize, Segment
from .memory import Dram
from .mmu import Oracle, SubmitStatus, TranslationEngine
from .schema import Record, knob

MB = 1024 * 1024

# A tile fetch's translation groups, in DMA order, as page runs:
# (vpn, count, chunks) is `count` groups on page `vpn`, each of `chunks` bytes.
Runs = List[Tuple[int, int, Tuple[int, ...]]]
_NO_RUN = (0, 0, ())                      # past the last run: no groups left
# The most page runs `simulate_fetch` accepts between two ticks: it bounds
# the deliveries they leave pending in the engine, and changes no result.
_STRETCH_RUNS = 32


class SimulationFault(Exception):
    """A fetch touched an unmapped page with demand paging disabled."""

    def __init__(self, vpn: int, level: int):
        super().__init__(f"unmapped page vpn={vpn:#x} (fault at L{level})")
        self.vpn = vpn
        self.level = level


@dataclass(frozen=True)
class NpuConfig(Record):
    array_dim: int = knob(128, lo=1)
    spm_activation_bytes: int = knob(15 * MB, lo=1)
    spm_weight_bytes: int = knob(10 * MB, lo=1)
    dma_txn_bytes: int = knob(64, lo=1)
    element_bytes: int = knob(1, lo=1)
    reuse_last_translation: bool = False   # DMA-side reuse window of size 1
    mirror_write_traffic: bool = False     # extrapolation: OA write-back traffic


@dataclass(frozen=True)
class LayerConfig:
    name: str
    m: int
    k: int
    n: int
    ia_segment: Segment
    w_segment: Segment
    batch: int = 1
    out_segment: Optional[Segment] = None

    def __post_init__(self):
        if min(self.m, self.k, self.n, self.batch) < 1:
            raise ValueError("layer dimensions must be >= 1")

    @property
    def m_eff(self) -> int:
        """Batching maps onto extra GEMM rows."""
        return self.m * self.batch


# A tile fetch: its (start va, length) spans, ascending.
Spans = Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class TileStep:
    fetches: Tuple[Spans, Spans]      # IA then W, never interleaved
    gemm: Tuple[int, int, int]        # (m, k, n) of this sub-GEMM
    out: Optional[Spans]              # output write-back; None without out segment


@dataclass(frozen=True)
class PlanStep:
    """What `run_layer` reads of one tile step; its spans are not kept."""
    fetches: Tuple[Runs, ...]         # IA then W runs, fetched in that order
    compute: int                      # compute cycles of the sub-GEMM
    out: Optional[Runs]               # output runs; None unless mirrored


# A layer's tile steps in order, as `plan_layer` builds them.
LayerPlan = Tuple[PlanStep, ...]


def _row_spans(base: int, rows: int, row_stride: int, row_bytes: int):
    """Spans for `rows` rows of `row_bytes`, merging contiguous neighbors."""
    spans: List[Tuple[int, int]] = []
    for r in range(rows):
        start = base + r * row_stride
        if spans and spans[-1][0] + spans[-1][1] == start:
            spans[-1] = (spans[-1][0], spans[-1][1] + row_bytes)
        else:
            spans.append((start, row_bytes))
    return tuple(spans)


def tile_fit(layer: LayerConfig, npu: NpuConfig) -> Tuple[int, int]:
    """The tile sizes (k_t, n_t): K is tiled to fit the IA half-partition
    with all m_eff rows resident, then N to fit the W half-partition.
    ValueError if no tile fits."""
    eb = npu.element_bytes
    m, k, n = layer.m_eff, layer.k, layer.n
    half_a = npu.spm_activation_bytes // 2
    half_w = npu.spm_weight_bytes // 2
    k_t = min(k, half_a // (m * eb))
    if k_t < 1:
        raise ValueError(f"layer {layer.name}: one IA row set exceeds half the SPM")
    n_t = min(n, half_w // (k_t * eb))
    if n_t < 1:
        # shrink K further so at least one W column strip fits
        k_t = min(k_t, half_w // eb)
        if k_t < 1:
            raise ValueError(f"layer {layer.name}: W tile cannot fit half the SPM")
        n_t = min(n, half_w // (k_t * eb))
    return k_t, n_t


def layer_segments(layer: LayerConfig, npu: NpuConfig) -> List[Segment]:
    """The segments a layer's run maps: IA, W, and the output when write
    traffic is mirrored."""
    segs = [layer.ia_segment, layer.w_segment]
    if npu.mirror_write_traffic and layer.out_segment is not None:
        segs.append(layer.out_segment)
    return segs


def tile_steps(layer: LayerConfig, npu: NpuConfig) -> List[TileStep]:
    """Block the layer into double-bufferable tile steps of `tile_fit`'s
    sizes. IA and W are both row-major inside their segments (IA: m_eff x
    k, W: k x n), and so is the m_eff x n output.
    """
    eb = npu.element_bytes
    m, k, n = layer.m_eff, layer.k, layer.n
    if layer.ia_segment.length < m * k * eb or layer.w_segment.length < k * n * eb:
        raise ValueError(f"layer {layer.name}: segments smaller than operands")
    k_t, n_t = tile_fit(layer, npu)

    steps: List[TileStep] = []
    for k0 in range(0, k, k_t):
        kt = min(k_t, k - k0)
        for n0 in range(0, n, n_t):
            nt = min(n_t, n - n0)
            ia = _row_spans(layer.ia_segment.base + k0 * eb, m, k * eb, kt * eb)
            w = _row_spans(layer.w_segment.base + k0 * n * eb + n0 * eb,
                           kt, n * eb, nt * eb)
            out = None
            if layer.out_segment is not None:
                # the m x nt output tile sits at column n0 of the m x n output
                out = _row_spans(layer.out_segment.base + n0 * eb,
                                 m, n * eb, nt * eb)
            steps.append(TileStep((ia, w), (m, kt, nt), out))
    return steps


def linearize(spans: Spans, npu: NpuConfig, ps: PageSize) -> Runs:
    """A tile fetch's translation groups in DMA order, as page runs.

    Each span is cut into `dma_txn_bytes` chunks, the last one short. A
    group is one chunk; with the reuse window it is all consecutive
    same-page chunks, which may cross span boundaries. A run
    (vpn, count, chunks) is `count` consecutive groups on page `vpn` that
    each carry the chunk sizes `chunks`: without the window, the equal
    chunks that start on one page; with it, one group.
    """
    chunk = npu.dma_txn_bytes
    reuse = npu.reuse_last_translation
    shift = ps.offset_bits
    same = (chunk,)
    runs: list = []                       # [vpn, count, chunks] while building
    run = page = None
    for base, length in spans:
        full, tail = divmod(length, chunk)
        va = base & VA_MASK
        while full or tail:
            # the next n equal chunks that start on page vpn
            vpn = va >> shift
            if full:
                n = min(full, (((vpn + 1) << shift) - va + chunk - 1) // chunk)
                full -= n
                chunks = same
                va = (va + n * chunk) & VA_MASK
            else:
                n, tail, chunks = 1, 0, (tail,)
            if vpn != page:
                page = vpn
                run = [vpn, 1, list(chunks * n)] if reuse else [vpn, n, chunks]
                runs.append(run)
            elif reuse:
                run[2] += chunks * n
            elif run[2] == chunks:
                run[1] += n
            else:
                run = [vpn, n, chunks]
                runs.append(run)
    return [(vpn, count, tuple(chunks)) for vpn, count, chunks in runs]


def compute_cycles(m: int, k: int, n: int, npu: NpuConfig) -> int:
    p = npu.array_dim
    return math.ceil(k / p) * math.ceil(n / p) * (m + 2 * p)


def plan_layer(layer: LayerConfig, npu: NpuConfig, ps: PageSize) -> LayerPlan:
    """Block the layer into tile steps and linearize every fetch once."""
    mirror = npu.mirror_write_traffic
    if mirror and layer.out_segment is None:
        raise ValueError("mirror_write_traffic requires an output segment")
    return tuple(
        PlanStep(tuple(linearize(spans, npu, ps) for spans in step.fetches),
                 compute_cycles(*step.gemm, npu),
                 linearize(step.out, npu, ps) if mirror else None)
        for step in tile_steps(layer, npu))


def simulate_fetch(
    runs: Runs,
    engine: TranslationEngine,
    dram: Dram,
    start: int,
) -> int:
    """Run one tile fetch through the MMU and DRAM; return its end cycle.

    Offers one translation group per cycle, in DMA order. A page run's
    TLB hits and merges go in through one `engine.accept_run` call. While
    runs are taken whole and no walk ends by their last cycle, nothing
    that call reads can change, so those of the next run go in from the
    cycle after; one tick covers a stretch of at most `_STRETCH_RUNS` runs.
    A group that starts a walk or blocks goes through `engine.submit`,
    after a tick of every earlier cycle. A blocked stretch runs through
    `engine.skip_blocked`, which charges the retries and lets the loop
    skip the idle ticks until the next engine event. Groups that complete
    in consecutive cycles with the same chunks are debited to DRAM in one
    `Dram.issue_run`, before anything else reaches DRAM (a walk reads the
    page table). The engine hands completions out in cycle order, so DRAM
    sees walk reads and data in the per-cycle order. The fetch ends when
    its last data lands, and no earlier than the cycle after the engine's
    last tick: with a zero DRAM latency data lands in the cycle it was
    translated, and the next fetch must not tick that cycle again.
    """
    accept, submit = engine.accept_run, engine.submit
    tick, skip = engine.tick, engine.skip_blocked
    issue_run = dram.issue_run
    blocked = SubmitStatus.BLOCKED
    # first request id -> (chunks, groups) of the accepted groups not yet
    # delivered; a completion takes the groups from its first request on
    pending: dict[int, Tuple[Tuple[int, ...], int]] = {}
    rid = engine.next_request_id
    # Delivered groups not yet debited: `owed` groups of `owed_chunks` from
    # cycle `owed_at` on. Completions that carry on in the next cycle with
    # the same chunks extend them; they are debited before anything else
    # reaches DRAM (a submit can start a walk, which reads the page table).
    owed_chunks: Tuple[int, ...] = ()
    owed_at = owed = 0
    rest = iter(runs)
    vpn, left, chunks = next(rest, _NO_RUN)  # left: groups not yet accepted
    cycle = end = start
    while left or engine.in_flight > 0:
        last = cycle                      # the last cycle this pass ticks
        if left:
            n = accept(vpn, left, cycle)
            if n:
                # A stretch: while runs are taken whole and no walk ends by
                # `last`, the next run goes in at `last + 1`; one tick for all
                last -= 1
                stretch = _STRETCH_RUNS
                while True:
                    pending[rid] = (chunks, n)
                    rid += n
                    last += n
                    left -= n
                    if left:
                        break
                    vpn, left, chunks = next(rest, _NO_RUN)
                    stretch -= 1
                    if not (left and stretch) or engine.next_walk_end <= last:
                        break
                    n = accept(vpn, left, last + 1)
                    if not n:
                        break
            else:
                if owed:
                    if (landed := issue_run(owed_chunks, owed, owed_at)) > end:
                        end = landed
                    owed = 0
                if submit(vpn, cycle).status is blocked:
                    due = skip(vpn, cycle)
                    if due > cycle:       # cycles before `due` tick idle
                        cycle = due
                        continue
                else:
                    pending[rid] = (chunks, 1)
                    rid += 1
                    left -= 1
                    if not left:
                        vpn, left, chunks = next(rest, _NO_RUN)
        for first, page, frame, at, level, n in tick(last):
            if frame is None:
                if owed:
                    issue_run(owed_chunks, owed, owed_at)
                raise SimulationFault(page, level)
            group, groups = pending.pop(first)
            if n < groups:
                pending[first + n] = (group, groups - n)
            if owed and at == owed_at + owed and group == owed_chunks:
                owed += n
                continue
            if owed and (landed := issue_run(owed_chunks, owed, owed_at)) > end:
                end = landed
            owed_chunks, owed_at, owed = group, at, n
        cycle = last + 1
    if owed and (landed := issue_run(owed_chunks, owed, owed_at)) > end:
        end = landed
    return end if end > cycle else cycle


def oracle_fetch(runs: Runs, oracle: Oracle, dram: Dram, start: int) -> int:
    """One tile fetch under the oracle MMU; return its end cycle.

    Group i is translated in cycle start + i, and its chunks go to DRAM
    then. Runs sit in consecutive cycles, so a stretch of runs with the
    same chunks is one `Dram.issue_run`, the closed form of their debits.
    One `PageTable.walk_outcome` per page serves consecutive runs on it.
    A group on an unmapped page raises SimulationFault once the groups
    before it are debited. Like `simulate_fetch`, the fetch ends no
    earlier than the cycle after its last group.
    """
    walk, issue_run = oracle.pt.walk_outcome, dram.issue_run
    cycle = end = start
    page = None                           # the last page walked; it is mapped
    owed_chunks, owed = (), 0             # the last groups before `cycle`, undebited
    for vpn, count, chunks in runs:
        if vpn != page:
            frame, level = walk(vpn)
            if frame is None:
                if owed:
                    issue_run(owed_chunks, owed, cycle - owed)
                raise SimulationFault(vpn, level)
            page = vpn
        if chunks != owed_chunks:
            if owed:
                end = issue_run(owed_chunks, owed, cycle - owed)
            owed_chunks, owed = chunks, 0
        owed += count
        cycle += count
    if owed:
        end = issue_run(owed_chunks, owed, cycle - owed)
    return max(end, cycle)


def run_layer(
    layer: LayerConfig,
    npu: NpuConfig,
    engine: Union[TranslationEngine, Oracle],
    dram: Dram,
    plan: Optional[LayerPlan] = None,
) -> int:
    """Execute the double-buffered tile pipeline for one layer; return
    its total cycles, the end of its last compute.

    `engine` is a modelled MMU, or the `Oracle`. `plan` is
    `plan_layer(layer, npu, engine.pt.page_size)`, built here if not given.
    One DMA fetches the steps in order; a step's fetch waits for the
    compute two steps back to free its buffer and, with mirrored writes,
    for the previous compute, whose output the DMA then writes. A compute
    starts after its data lands and after the previous compute ends.
    """
    if plan is None:
        plan = plan_layer(layer, npu, engine.pt.page_size)
    fetch = oracle_fetch if isinstance(engine, Oracle) else simulate_fetch
    mirror = npu.mirror_write_traffic
    # the previous fetch's end, and the compute ends of steps i-2 and i-1
    fetch_end = older = last = 0
    for step in plan:
        # compute ends rise, so with mirrored writes `last` covers `older`
        cursor = max(fetch_end, last if mirror else older)
        for runs in step.fetches:
            cursor = fetch(runs, engine, dram, cursor)
        fetch_end = cursor
        end = max(fetch_end, last) + step.compute
        if step.out is not None:
            end = fetch(step.out, engine, dram, end)
        older, last = last, end
    return last
