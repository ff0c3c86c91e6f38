#!/usr/bin/env python3
"""Demand-paging page-size study: migration bloat vs fault amortization.

Runs the 4KB and 2MB demand-paging strategies over access patterns from
fully sequential to uniformly sparse and prints migrated bytes, fault
counts, and total latency side by side. Each of `--tables` tables sits on
its own NPU, and the rows are NPU 0's gathers.
"""

import argparse

from npusim.address_space import PAGE_SIZES
from npusim.memory import LinksConfig
from npusim.mmu import MmuConfig
from npusim.numa import run_demand_paging
from npusim.workloads import GatherTrace, WorkloadConfig, gather_trace


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rows", type=int, default=1 << 20)
    ap.add_argument("--tables", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    def workload(**kw):
        try:
            return WorkloadConfig(kind="embedding", tables=args.tables,
                                  num_npus=args.tables, rows=args.rows, **kw)
        except ValueError as e:
            ap.error(str(e))

    # the sequential pattern reads each table's first 2048 rows (all of
    # them, in a smaller table) in order; the others draw a batch of
    # samples from the seed
    sequential = range(min(args.rows, 2048))
    patterns = [("sequential", workload(),
                 GatherTrace.of((t, r) for t in range(args.tables)
                                for r in sequential))]
    for pattern, dist, zipf_s, batch in (("zipf", "zipf", 1.2, 256),
                                         ("sparse", "uniform", 1.0, 64)):
        wl = workload(distribution=dist, zipf_s=zipf_s, batch_samples=batch)
        patterns.append((pattern, wl, gather_trace(wl, args.seed)))

    print(f"{'pattern':12s} {'page':5s} {'faults':>7s} {'migrated_MB':>12s} "
          f"{'payload_KB':>11s} {'fault_cyc':>10s} {'total_cyc':>12s}")
    for pattern, wl, trace in patterns:
        for tag, ps in PAGE_SIZES.items():
            bd, _ = run_demand_paging(trace, wl, ps, LinksConfig().nvlink,
                                      MmuConfig())
            print(f"{pattern:12s} {tag:5s} {bd.faults:7d} "
                  f"{bd.migration_bytes / 2**20:12.1f} "
                  f"{bd.payload_bytes / 1024:11.1f} "
                  f"{bd.fault_handling_cycles:10d} {bd.total_cycles:12d}")


if __name__ == "__main__":
    main()
