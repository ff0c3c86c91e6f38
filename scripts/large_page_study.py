#!/usr/bin/env python3
"""Demand-paging page-size study: migration bloat vs fault amortization.

Runs the 4KB and 2MB demand-paging strategies over access patterns from
fully sequential to uniformly sparse and prints migrated bytes, fault
counts, and total latency side by side.
"""

import argparse

from npusim.address_space import PageSize
from npusim.memory import LinksConfig
from npusim.mmu import MmuConfig
from npusim.numa import run_demand_paging
from npusim.workloads import (
    EmbeddingModel,
    GatherRequest,
    Placement,
    gather_trace,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rows", type=int, default=1 << 20)
    ap.add_argument("--tables", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print(f"{'pattern':12s} {'page':5s} {'faults':>7s} {'migrated_MB':>12s} "
          f"{'payload_KB':>11s} {'fault_cyc':>10s} {'total_cyc':>12s}")
    for pattern, dist, zipf_s, batch in (
            ("sequential", "uniform", 1.0, 8),
            ("zipf", "zipf", 1.2, 256),
            ("sparse", "uniform", 1.0, 64)):
        model = EmbeddingModel(
            tables=args.tables, rows=args.rows, batch=batch,
            index_distribution=dist, zipf_s=zipf_s, seed=args.seed)
        placement = Placement.round_robin(args.tables, args.tables)
        trace = gather_trace(model, placement, 0)
        if pattern == "sequential":
            trace = [GatherRequest(t, r, t % args.tables)
                     for t in range(args.tables) for r in range(2048)]
        for ps in (PageSize.SMALL_4K, PageSize.LARGE_2M):
            bd, _ = run_demand_paging(trace, model, ps, placement,
                                      LinksConfig().nvlink, MmuConfig())
            tag = "4k" if ps is PageSize.SMALL_4K else "2m"
            print(f"{pattern:12s} {tag:5s} {bd.faults:7d} "
                  f"{bd.migration_bytes / 2**20:12.1f} "
                  f"{bd.payload_bytes / 1024:11.1f} "
                  f"{bd.fault_handling_cycles:10d} {bd.total_cycles:12d}")


if __name__ == "__main__":
    main()
