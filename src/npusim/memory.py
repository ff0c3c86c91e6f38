"""Fixed-latency, bandwidth-capped DRAM model and NUMA interconnect links.

DRAM is modeled as a per-cycle token bucket: every cycle offers
`bandwidth_bytes_per_cycle` bytes of issue capacity and each transaction
completes a fixed access latency after its last byte is accepted. No
bank/row timing is modeled. A link transfer takes a fixed NUMA latency
plus a bandwidth-proportional term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from .schema import Record, knob


@dataclass(frozen=True)
class DramConfig(Record):
    bandwidth_bytes_per_cycle: int = knob(600, lo=1)   # 600 GB/s at 1GHz
    access_latency: int = knob(100, lo=0)


@dataclass(frozen=True)
class LinkConfig:
    kind: str  # "pcie" (CPU<->NPU) or "nvlink" (NPU<->NPU)
    bandwidth_bytes_per_cycle: int
    numa_latency: int

    def __post_init__(self):
        if self.bandwidth_bytes_per_cycle <= 0:
            raise ValueError("bandwidth must be positive")


@dataclass(frozen=True)
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

    Transactions are accepted in call order; the issue cursor never moves
    backwards, so completions are FIFO.
    """

    def __init__(self, cfg: DramConfig):
        self.cfg = cfg
        self._cursor = 0                # cycle currently accepting bytes
        self._tokens = cfg.bandwidth_bytes_per_cycle
        self.bytes_issued = 0
        self.txns = 0

    def issue(self, nbytes: int, now: int) -> int:
        """Accept a transaction at `now`; return its completion cycle."""
        if nbytes <= 0:
            raise ValueError("transaction must carry at least one byte")
        if now > self._cursor:
            self._cursor = now
            self._tokens = self.cfg.bandwidth_bytes_per_cycle
        if nbytes <= self._tokens:        # fits in the current cycle
            self._tokens -= nbytes
        else:
            self._take(nbytes, now)
        self.bytes_issued += nbytes
        self.txns += 1
        return self._cursor + self.cfg.access_latency

    def issue_run(self, chunks: Tuple[int, ...], count: int, now: int) -> int:
        """Accept `count` groups of transactions, one group per cycle from `now`.

        Leaves the same state and returns the same cycle as `issue` called
        for each of `chunks` at cycle now, then now + 1, ... now + count - 1,
        but in closed form. Let `accepted` count the bytes the bucket has
        taken since cycle 0, idle cycles' tokens included. A debit of g
        bytes at cycle c sets it to max(accepted, c * bw) + g, so after the
        run of groups of g bytes it is the larger of

            max(accepted, now * bw) + count * g      (DRAM stays backlogged)
            (now + count - 1) * bw + g               (it drains between groups)

        and the cursor is the cycle of its last byte.
        """
        group = sum(chunks)
        if count < 1 or min(chunks, default=0) < 1:
            raise ValueError("a run needs groups of non-empty transactions")
        bw = self.cfg.bandwidth_bytes_per_cycle
        accepted = self._cursor * bw + bw - self._tokens
        accepted = max(max(accepted, now * bw) + count * group,
                       (now + count - 1) * bw + group)
        self._cursor, spent = divmod(accepted - 1, bw)
        self._tokens = bw - 1 - spent
        self.bytes_issued += count * group
        self.txns += count * len(chunks)
        return self._cursor + self.cfg.access_latency

    def consume(self, nbytes: int, now: int) -> None:
        """Debit bandwidth without a data transaction (page-walk reads).

        Walk latency is charged separately by the walker timing, so only the
        token bucket is touched here.
        """
        if nbytes > 0:
            self._take(nbytes, now)

    def _take(self, nbytes: int, now: int) -> None:
        """Debit `nbytes` from the token bucket, starting no earlier than `now`."""
        if now > self._cursor:
            self._cursor = now
            self._tokens = self.cfg.bandwidth_bytes_per_cycle
        remaining = nbytes
        while remaining > 0:
            take = min(remaining, self._tokens)
            remaining -= take
            self._tokens -= take
            if self._tokens == 0 and remaining > 0:
                self._cursor += 1
                self._tokens = self.cfg.bandwidth_bytes_per_cycle


def link_transfer_cycles(nbytes: int, link: LinkConfig) -> int:
    """Cycles for one transfer: fixed NUMA latency + bandwidth term."""
    if nbytes <= 0:
        raise ValueError("transfer must carry at least one byte")
    return link.numa_latency + math.ceil(nbytes / link.bandwidth_bytes_per_cycle)

