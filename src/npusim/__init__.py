"""Cycle-level simulator for a scratchpad NPU with virtual address translation.

Modules:
  address_space  -- virtual address layout, segments, page geometry
  page_table     -- multi-level radix page tables and the reference walker
  memory         -- DRAM bandwidth/latency model and inter-node links
  mmu            -- translation engine: TLB, walkers, merge buffers, caches
  npu            -- tiled GEMM pipeline with double-buffered scratchpads
  workloads      -- dense layer suites and embedding gather traces
  numa           -- remote-memory strategies for embedding gathers
  energy         -- per-event energy accounting for the translation path
  schema         -- config records: per-field defaults, types and ranges
  config         -- config documents: sections, validation, env overrides, seeds
  harness        -- runs, sweeps, CSV emission, reports
"""

__version__ = "0.1.0"
