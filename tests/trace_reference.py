"""Gather traces one gather at a time, for the tests that read entries.

A trace is columns (`workloads.GatherTrace`); `gathers` expands one into
a list of `GatherRequest`s, the per-gather form, with each gather's owner
NPU taken from the round-robin placement (table t on NPU t % num_npus).
"""

from typing import List, NamedTuple

from npusim.workloads import GatherTrace, WorkloadConfig


class GatherRequest(NamedTuple):
    table: int
    row: int
    owner_npu: int


def gathers(trace: GatherTrace, wl: WorkloadConfig) -> List[GatherRequest]:
    """`trace`'s gathers in order, as `wl` places their tables."""
    nn = wl.num_npus
    return [GatherRequest(t, r, t % nn)
            for t, r in zip(trace.table.tolist(), trace.row.tolist())]
