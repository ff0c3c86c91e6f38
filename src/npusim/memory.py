"""Fixed-latency, bandwidth-capped DRAM model and NUMA interconnect links.

DRAM is modeled as a per-cycle token bucket: every cycle offers
`bandwidth_bytes_per_cycle` bytes of issue capacity and each transaction
completes a fixed access latency after its last byte is accepted. No
bank/row timing is modeled. A link transfer takes a fixed NUMA latency
plus a bandwidth-proportional term.
"""

from __future__ import annotations

import math
from typing import Tuple

from .schema import Record, Struct, knob


class DramConfig(Record):
    bandwidth_bytes_per_cycle: int = knob(600, lo=1)   # 600 GB/s at 1GHz
    access_latency: int = knob(100, lo=0)


class LinkConfig(Struct):
    kind: str  # "pcie" (CPU<->NPU) or "nvlink" (NPU<->NPU)
    bandwidth_bytes_per_cycle: int
    numa_latency: int

    def __post_init__(self):
        if self.bandwidth_bytes_per_cycle <= 0:
            raise ValueError("bandwidth must be positive")


class LinksConfig(Record):
    pcie_bandwidth: int = knob(16, lo=1)       # bytes/cycle, CPU<->NPU
    nvlink_bandwidth: int = knob(160, lo=1)    # bytes/cycle, NPU<->NPU
    numa_latency: int = knob(150, lo=0)

    @property
    def pcie(self) -> LinkConfig:
        return LinkConfig("pcie", self.pcie_bandwidth, self.numa_latency)

    @property
    def nvlink(self) -> LinkConfig:
        return LinkConfig("nvlink", self.nvlink_bandwidth, self.numa_latency)


class Dram:
    """Work-conserving token-bucket DRAM.

    Transactions are accepted in call order; the bucket never gives bytes
    back, so completions are FIFO.

    The bucket is one number, `_accepted`: the bytes it has taken since
    cycle 0, idle cycles' tokens included, so cycle c's tokens are bytes
    c * bw .. (c + 1) * bw - 1. A debit of g bytes at cycle c takes the
    next g of them, no earlier than cycle c's first:

        accepted = max(accepted, c * bw) + g

    and its last byte goes out in cycle (accepted - 1) // bw.
    """

    def __init__(self, cfg: DramConfig):
        self._bw = cfg.bandwidth_bytes_per_cycle
        self._latency = cfg.access_latency
        self._accepted = 0
        self.bytes_issued = 0
        self.txns = 0

    def issue(self, nbytes: int, now: int) -> int:
        """Accept a transaction at `now`; return its completion cycle.

        No simulator path calls it: data is debited a run of groups at a
        time through `issue_run`. It is the per-transaction reference that
        `issue_run` is tested against, and a patch point the benchmark's
        tracer counts.
        """
        if nbytes <= 0:
            raise ValueError("transaction must carry at least one byte")
        bw = self._bw
        self._accepted = accepted = max(self._accepted, now * bw) + nbytes
        self.bytes_issued += nbytes
        self.txns += 1
        return (accepted - 1) // bw + self._latency

    def issue_run(self, chunks: Tuple[int, ...], count: int, now: int) -> int:
        """Accept `count` groups of transactions, one group per cycle from `now`.

        Leaves the same state and returns the same cycle as `issue` called
        for each of `chunks` at cycle now, then now + 1, ... now + count - 1,
        but in closed form. After the run of groups of g bytes, the bytes
        accepted are the larger of

            max(accepted, now * bw) + count * g      (DRAM stays backlogged)
            (now + count - 1) * bw + g               (it drains between groups)
        """
        group = sum(chunks)
        if count < 1 or min(chunks, default=0) < 1:
            raise ValueError("a run needs groups of non-empty transactions")
        bw = self._bw
        self._accepted = accepted = max(
            max(self._accepted, now * bw) + count * group,
            (now + count - 1) * bw + group)
        self.bytes_issued += count * group
        self.txns += count * len(chunks)
        return (accepted - 1) // bw + self._latency

    def consume(self, nbytes: int, now: int) -> None:
        """Debit bandwidth without a data transaction (page-walk reads).

        Walk latency is charged separately by the walker timing, so only the
        token bucket is touched here.
        """
        if nbytes > 0:
            self._accepted = max(self._accepted, now * self._bw) + nbytes


def link_transfer_cycles(nbytes: int, link: LinkConfig) -> int:
    """Cycles for one transfer: fixed NUMA latency + bandwidth term."""
    if nbytes <= 0:
        raise ValueError("transfer must carry at least one byte")
    return link.numa_latency + math.ceil(nbytes / link.bandwidth_bytes_per_cycle)

