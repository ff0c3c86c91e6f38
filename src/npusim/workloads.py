"""Workload generators: dense GEMM layer suites and sparse embedding
gather traces with model-parallel tables placed round-robin.

Dense suite shapes are representative stand-ins for the public model
families they are named after (lowered to GEMM); they are not measured
layer lists. An embedding trace is drawn from the `WorkloadConfig` record
itself: per-sample rows come from a uniform or bounded-Zipf distribution,
deterministically from a seed (the harness passes
`config.seed_for(master, "gather")`), and table t sits on NPU
t % num_npus. A trace is a `GatherTrace`: int64 columns of table and row,
reshaped from the draws, with no object per gather. NumPy is imported
only where a trace is drawn or built, so importing the simulator does not
load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Tuple

from .address_space import Segment, default_segment_base
from .npu import LayerConfig
from .schema import Record, knob

if TYPE_CHECKING:
    import numpy as np

_DENSE_SHAPES: Dict[str, List[tuple]] = {
    # name -> [(layer name, m, k, n), ...]
    "toy": [("toy-gemm", 32, 64, 64)],
    "gemv-rnn": [
        ("gemv-1", 1, 1024, 1024),
        ("gemv-2", 1, 1760, 1760),
        ("gemv-3", 1, 2048, 2048),
    ],
    "cnn": [
        ("conv-a", 3025, 363, 96),
        ("conv-b", 729, 1200, 128),
        ("fc-a", 1, 9216, 4096),
    ],
    # memory-bound layer whose strided tiles produce dense translation bursts
    "burst": [("burst-gemm", 4, 2048, 1024)],
}

BATCH_TAGS = {"b01": 1, "b04": 4, "b08": 8}

DISTRIBUTIONS = ("uniform", "zipf")

# Embedding-gather strategies, in CSV row order.
STRATEGIES = ("baseline_copy", "numa_slow", "numa_fast", "demand_4k", "demand_2m")


class WorkloadConfig(Record):
    kind: str = knob("dense", choices=("dense", "embedding"))
    suite: str = knob("toy", choices=tuple(_DENSE_SHAPES))
    batch: str = knob("b01", choices=tuple(BATCH_TAGS))
    # embedding-only knobs
    strategy: str = knob("all", choices=("all",) + STRATEGIES)
    num_npus: int = knob(4, lo=1)
    tables: int = knob(4, lo=1)
    rows: int = knob(65536, lo=1)
    embedding_bytes: int = knob(256, lo=1)
    batch_samples: int = knob(256, lo=1)
    distribution: str = knob("uniform", choices=DISTRIBUTIONS)
    zipf_s: float = knob(1.0, gt=0)
    lookups_per_sample: int = knob(1, lo=1)

    def __post_init__(self):
        super().__post_init__()
        if self.kind != "embedding":
            return
        # the harness reports NPU 0's gathers; with fewer samples than NPUs
        # its batch slice is empty and every strategy would report 0 cycles
        if self.batch_samples < self.num_npus:
            raise ValueError(
                f"WorkloadConfig: batch_samples ({self.batch_samples}) must be "
                f">= num_npus ({self.num_npus}), or NPU 0 gathers nothing")
        if self.rows < self.lookups_per_sample:
            raise ValueError(
                f"WorkloadConfig: rows ({self.rows}) must be >= "
                f"lookups_per_sample ({self.lookups_per_sample})")
        if self.rows > 2**63:
            raise ValueError(f"WorkloadConfig: rows ({self.rows}) must be <= "
                             "2**63, as a trace draws int64 row indices")
        if self.distribution == "zipf" and self.rows > 2**24:
            raise ValueError(f"WorkloadConfig: rows ({self.rows}) must be <= "
                             "2**24 under distribution zipf, whose draw holds "
                             "one float64 per row")


def make_layer(name: str, m: int, k: int, n: int, batch: int = 1,
               slot: int = 0, element_bytes: int = 1) -> LayerConfig:
    """Build a layer with auto-placed IA/W/OUT segments (3 slots per layer)."""
    m_eff = m * batch
    ia = Segment(f"{name}-ia", default_segment_base(3 * slot), m_eff * k * element_bytes)
    w = Segment(f"{name}-w", default_segment_base(3 * slot + 1), k * n * element_bytes)
    out = Segment(f"{name}-out", default_segment_base(3 * slot + 2),
                  m_eff * n * element_bytes)
    return LayerConfig(name=name, m=m, k=k, n=n, batch=batch,
                       ia_segment=ia, w_segment=w, out_segment=out)


def dense_suite(name: str, tag: str, element_bytes: int) -> List[LayerConfig]:
    """The layers of a shipped suite at batch tag `tag` (b01/b04/b08)."""
    if name not in _DENSE_SHAPES:
        raise ValueError(f"unknown suite {name!r}; shipped: {sorted(_DENSE_SHAPES)}")
    return [make_layer(lname, m, k, n, batch=BATCH_TAGS[tag], slot=i,
                       element_bytes=element_bytes)
            for i, (lname, m, k, n) in enumerate(_DENSE_SHAPES[name])]


class GatherTrace:
    """A gather trace as columns: `table` and `row` are int64 NumPy arrays
    with one entry per gather, in gather order. Table t sits on NPU
    t % num_npus, so a gather's owner is read off its table."""

    __slots__ = ("table", "row")

    def __init__(self, table: np.ndarray, row: np.ndarray):
        self.table, self.row = table, row

    def __len__(self) -> int:
        return len(self.row)

    def __getitem__(self, index) -> GatherTrace:
        """The gathers that `index`, a mask, slice or index array, selects."""
        return GatherTrace(self.table[index], self.row[index])

    @classmethod
    def of(cls, gathers: Iterable[Tuple[int, int]]) -> GatherTrace:
        """A hand-built trace of `(table, row)` pairs, in order."""
        import numpy as np

        return cls(*np.array(list(gathers), dtype=np.int64).reshape(-1, 2).T.copy())


def table_segment(wl: WorkloadConfig, table: int) -> Segment:
    return Segment(f"emb{table}", default_segment_base(table),
                   wl.rows * wl.embedding_bytes)


def embedding_segments(wl: WorkloadConfig) -> List[Segment]:
    return [table_segment(wl, t) for t in range(wl.tables)]


def _draw_rows(rng: np.random.Generator, wl: WorkloadConfig) -> np.ndarray:
    """Every table's rows for the whole batch: shape (tables, samples *
    lookups), drawn from `rng` in table order."""
    import numpy as np

    count = wl.batch_samples * wl.lookups_per_sample
    if wl.distribution == "uniform":
        return np.stack([rng.integers(0, wl.rows, size=count)
                         for _ in range(wl.tables)])
    # bounded Zipf: prob(rank r) ~ r^-s over 1..rows, one array in place
    cdf = np.arange(1, wl.rows + 1, dtype=np.float64)
    np.power(cdf, -wl.zipf_s, out=cdf)
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    return np.searchsorted(cdf, rng.random((wl.tables, count)))


def gather_trace(wl: WorkloadConfig, seed: int, npu: int = 0) -> GatherTrace:
    """NPU `npu`'s gathers for one minibatch's all-to-all.

    Samples are data-parallel: NPU i owns a contiguous slice of the batch
    and gathers that slice's lookups from every table, remote or not, in
    sample, table, lookup order. Table t sits on NPU t % num_npus.
    Deterministic for a fixed (wl, seed). `wl` must be of kind
    "embedding", whose batch and row checks the trace relies on, or
    ValueError is raised.
    """
    if wl.kind != "embedding":
        raise ValueError(f"gather_trace needs an embedding workload, "
                         f"not {wl.kind!r}")
    nn = wl.num_npus
    if not 0 <= npu < nn:
        raise ValueError(f"npu {npu} out of range for {nn} NPUs")
    import numpy as np                    # here, so start-up does not load it

    tables, lps = wl.tables, wl.lookups_per_sample
    lo = npu * wl.batch_samples // nn
    hi = (npu + 1) * wl.batch_samples // nn
    # every table's whole batch is drawn, independent of num_npus and of
    # `npu`, so re-placing tables replays the same trace
    draws = _draw_rows(np.random.default_rng(seed), wl)
    # (table, sample, lookup) -> (sample, table, lookup)
    rows = draws.reshape(tables, -1, lps)[:, lo:hi].transpose(1, 0, 2).ravel()
    table = np.tile(np.repeat(np.arange(tables, dtype=np.int64), lps), hi - lo)
    return GatherTrace(table, rows)
