"""Per-layer tracing of npusim, taken from outside the program.

``Tracer.patched()`` replaces public functions and methods of each module
under the names their callers look up, times every call, and restores
every original attribute on exit. Nothing under ``src/`` is edited.

Coarse calls become spans with parent ids: the workload run, run_layer,
simulate_fetch, the embedding strategies, drain_trace, build and
gather_trace. Hot calls (submit, tick, walk_path, map_page, issue and
linearize; up to about 1M per run) are aggregated per (parent span, name,
mode) as count, total time and child time, so tracer memory stays bounded.
A call's mode is its engine's ``cfg.mode`` where it has an engine and its
parent's mode otherwise, so oracle work is kept apart from modelled work
(oracle submits always return TLB_HIT and would inflate hit counts).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from npusim import harness, npu, numa
from npusim.memory import Dram
from npusim.mmu import SubmitStatus, TranslationEngine
from npusim.page_table import PageTable

from suite import TRACED_LAYERS, Rows, Workload

STRATEGIES = ("baseline_copy", "numa_slow", "numa_fast", "demand_4k", "demand_2m")


class _Frame:
    __slots__ = ("sid", "mode", "child")

    def __init__(self, sid: int, mode: str):
        self.sid = sid          # span that hot calls under this frame belong to
        self.mode = mode
        self.child = 0.0        # time spent in traced calls made from here


class Span(_Frame):
    __slots__ = ("parent", "name", "start", "end", "detail")

    def __init__(self, sid: int, parent: int, name: str, mode: str, start: float):
        super().__init__(sid, mode)
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.detail = ""        # model layer or strategy

    @property
    def duration(self) -> float:
        return self.end - self.start


class Agg:
    """Hot calls of one name under one span: count, time, child time."""

    __slots__ = ("calls", "total", "child", "tally")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.tally: Dict[str, int] = {}

    def add(self, other: "Agg") -> None:
        self.calls += other.calls
        self.total += other.total
        self.child += other.child
        for key, n in other.tally.items():
            self.tally[key] = self.tally.get(key, 0) + n


def _tally_status(tally: Dict[str, int], result) -> None:
    key = result.status.value
    tally[key] = tally.get(key, 0) + 1


def _tally_idle(tally: Dict[str, int], result) -> None:
    if not result:
        tally["idle"] = tally.get("idle", 0) + 1


def _tally_txns(tally: Dict[str, int], result) -> None:
    tally["txns"] = tally.get("txns", 0) + len(result)


def _strategy(args, result) -> str:
    bd = result[0] if isinstance(result, tuple) else result
    return bd.strategy


class Tracer:
    """Spans and hot-call aggregates of the calls made while patched."""

    def __init__(self):
        self._root = _Frame(0, "-")
        self._stack: List[_Frame] = [self._root]
        self.spans: List[Span] = []
        self.aggs: Dict[Tuple[int, str, str], Agg] = {}
        # TranslationStats of every engine seen, by id: (mode, stats)
        self.engine_stats: Dict[int, Tuple[str, Any]] = {}

    # -- recording ------------------------------------------------------------

    @contextmanager
    def span(self, name: str, mode: Optional[str] = None) -> Iterator[Span]:
        parent = self._stack[-1]
        s = Span(len(self.spans) + 1, parent.sid, name, mode or parent.mode,
                 time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            parent.child += s.duration

    def _spanned(self, name: str, engine_at: Optional[int] = None,
                 detail: Optional[Callable] = None) -> Callable:
        def make(fn):
            def wrapper(*args, **kwargs):
                mode = None
                if engine_at is not None:
                    engine = args[engine_at]
                    mode = engine.cfg.mode
                    self.engine_stats[id(engine.stats)] = (mode, engine.stats)
                with self.span(name, mode) as s:
                    result = fn(*args, **kwargs)
                    if detail is not None:
                        s.detail = detail(args, result)
                    return result
            return wrapper
        return make

    def _hot(self, name: str, own_mode: bool = False,
             tally: Optional[Callable] = None) -> Callable:
        stack = self._stack
        aggs = self.aggs
        clock = time.perf_counter

        def make(fn):
            def wrapper(*args, **kwargs):
                parent = stack[-1]
                mode = args[0].cfg.mode if own_mode else parent.mode
                frame = _Frame(parent.sid, mode)
                stack.append(frame)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stack.pop()
                    parent.child += dt
                key = (frame.sid, name, mode)
                agg = aggs.get(key)
                if agg is None:
                    agg = aggs[key] = Agg()
                agg.calls += 1
                agg.total += dt
                agg.child += frame.child
                if tally is not None:
                    tally(agg.tally, result)
                return result
            return wrapper
        return make

    def plan(self) -> List[Tuple[Any, str, Callable]]:
        """(owner, attribute, wrapper factory) for every patched name."""
        layer = (lambda args, result: args[0].name)
        return [
            (harness, "run_layer", self._spanned("run_layer", 2, layer)),
            (harness, "build", self._spanned("build")),
            (harness, "gather_trace", self._spanned("gather_trace")),
            (harness, "run_numa", self._spanned("strategy", None, _strategy)),
            (harness, "run_demand_paging", self._spanned("strategy", None, _strategy)),
            (harness, "run_baseline_copy", self._spanned("strategy", None, _strategy)),
            (npu, "simulate_fetch", self._spanned("simulate_fetch")),
            (npu, "linearize", self._hot("linearize", tally=_tally_txns)),
            (numa, "build", self._spanned("build")),
            (numa, "drain_trace", self._spanned("drain_trace", 0)),
            (TranslationEngine, "submit", self._hot("submit", True, _tally_status)),
            (TranslationEngine, "tick", self._hot("tick", True, _tally_idle)),
            (PageTable, "walk_path", self._hot("walk_path")),
            (PageTable, "map_page", self._hot("map_page")),
            (Dram, "issue", self._hot("issue")),
        ]

    @contextmanager
    def patched(self) -> Iterator["Tracer"]:
        """Install every wrapper; put every original object back on exit."""
        saved = []
        try:
            for owner, attr, make in self.plan():
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, make(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- reading --------------------------------------------------------------

    def hot(self, name: str, mode: Optional[str] = None) -> Agg:
        out = Agg()
        for (_, n, m), agg in self.aggs.items():
            if n == name and (mode is None or m == mode):
                out.add(agg)
        return out

    def spans_named(self, name: str, mode: Optional[str] = None,
                    detail: Optional[str] = None) -> List[Span]:
        return [s for s in self.spans if s.name == name
                and (mode is None or s.mode == mode)
                and (detail is None or s.detail == detail)]

    def stats_total(self, field: str, mode: str = "modeled") -> int:
        return sum(getattr(stats, field)
                   for m, stats in self.engine_stats.values() if m == mode)

    def metrics(self, rows: Rows) -> Dict[str, float]:
        """Per-layer metrics of one traced workload call (0 where unused)."""
        def total(spans):
            return sum(s.duration for s in spans)

        def ratio(num, den):
            return num / den if den else 0.0

        m: Dict[str, float] = {}
        for mode in ("oracle", "modeled"):
            m[f"harness.{mode}_s"] = total(self.spans_named("run_layer", mode))
        m["harness.oracle_runs"] = len(self.spans_named("run_layer", "oracle"))
        for layer in TRACED_LAYERS:
            for mode in ("oracle", "modeled"):
                m[f"npu.run_layer.{layer}.{mode}_s"] = total(
                    self.spans_named("run_layer", mode, layer))
        fetches = self.spans_named("simulate_fetch")
        m["npu.simulate_fetch.calls"] = len(fetches)
        m["npu.simulate_fetch.self_s"] = sum(s.duration - s.child for s in fetches)
        lin = self.hot("linearize")
        m["npu.linearize.s"] = lin.total
        m["npu.linearize.txns"] = lin.tally.get("txns", 0)

        submit = self.hot("submit", "modeled")
        blocked = submit.tally.get(SubmitStatus.BLOCKED.value, 0)
        m["mmu.submit.calls"] = submit.calls
        m["mmu.submit.self_s"] = submit.total - submit.child
        m["mmu.submit.blocked"] = blocked
        m["mmu.submit.accept_ratio"] = ratio(submit.calls - blocked, submit.calls)
        tick = self.hot("tick", "modeled")
        m["mmu.tick.calls"] = tick.calls
        m["mmu.tick.s"] = tick.total
        m["mmu.tick.idle_ratio"] = ratio(tick.tally.get("idle", 0), tick.calls)
        m["mmu.drain_trace.s"] = total(self.spans_named("drain_trace"))
        m["mmu.walks_started"] = self.stats_total("walks_started")
        m["mmu.walk_mem_txns"] = self.stats_total("walk_memory_transactions")
        m["mmu.merges"] = self.stats_total("scoreboard_merges")
        m["mmu.blocked_cycles"] = self.stats_total("blocked_cycles")
        m["npu.sim_cycles"] = sum(r["total_cycles"] for r in rows)

        # reference-walker calls (oracle, modelled and demand paging) per
        # translation a modelled engine accepted
        walks = self.hot("walk_path")
        m["page_table.walk_path.calls"] = walks.calls
        m["page_table.walk_path.s"] = walks.total
        m["page_table.walks_per_translation"] = ratio(walks.calls,
                                                      submit.calls - blocked)
        maps = self.hot("map_page")
        m["page_table.map_page.calls"] = maps.calls
        m["page_table.map_page.s"] = maps.total
        m["page_table.build.s"] = total(self.spans_named("build"))

        issue = self.hot("issue")
        m["memory.issue.calls"] = issue.calls
        m["memory.issue.s"] = issue.total
        for strategy in STRATEGIES:
            m[f"numa.{strategy}.s"] = total(
                self.spans_named("strategy", detail=strategy))
        m["workloads.gather_trace.s"] = total(self.spans_named("gather_trace"))
        return m

    def chrome_events(self, pid: int) -> List[Dict[str, Any]]:
        """Spans as Chrome trace-event "X" events; hot aggregates as args."""
        calls: Dict[int, Dict[str, Any]] = defaultdict(dict)
        for (sid, name, mode), agg in self.aggs.items():
            calls[sid][f"{name} [{mode}]"] = {
                "calls": agg.calls, "s": agg.total,
                "self_s": agg.total - agg.child, **agg.tally}
        origin = self.spans[0].start if self.spans else 0.0
        events = []
        for s in self.spans:
            events.append({
                "name": f"{s.name} {s.detail}".strip(),
                "cat": s.mode,
                "ph": "X",
                "ts": (s.start - origin) * 1e6,
                "dur": s.duration * 1e6,
                "pid": pid,
                "tid": 1,
                "args": {"id": s.sid, "parent": s.parent or None,
                         "self_s": s.duration - s.child, "calls": calls[s.sid]},
            })
        return events


def write_chrome_trace(path: Path, tracers: List[Tracer], label: str,
                       meta: Dict[str, Any]) -> None:
    """One process per traced iteration; Perfetto and chrome://tracing open it."""
    events: List[Dict[str, Any]] = []
    for pid, tracer in enumerate(tracers, start=1):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": f"{label} traced iteration {pid}"}})
        events.extend(tracer.chrome_events(pid))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms",
                                "otherData": meta}))


def cross_check(tracer: Tracer, rows: Rows, workload: Workload) -> List[str]:
    """Counts seen from outside against the program's own counters."""
    problems = []
    submit = tracer.hot("submit", "modeled").tally
    dense_rows = [r for r in rows if not r["strategy"]]
    for status, field, column in (
            (SubmitStatus.BLOCKED, "blocked_cycles", "blocked_cycles"),
            (SubmitStatus.NEW_WALK, "walks_started", "walks_started")):
        seen = submit.get(status.value, 0)
        counted = {f"engine {field}": tracer.stats_total(field)}
        if dense_rows:
            counted[f"CSV {column}"] = sum(r[column] for r in dense_rows)
        for what, n in counted.items():
            if seen != n:
                problems.append(f"{status.value} returns {seen} != {what} {n}")
    runs = len(tracer.spans_named("run_layer", "oracle"))
    want = len(workload.model_layers) * workload.sweep_points
    if runs != want:
        problems.append(f"oracle runs {runs} != model layers x sweep points {want}")
    return problems
