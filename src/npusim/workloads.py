"""Workload generators: dense GEMM layer suites and sparse embedding
gather traces with model-parallel table placement.

Dense suite shapes are representative stand-ins for the public model
families they are named after (lowered to GEMM); they are not measured
layer lists. Embedding traces draw per-sample rows from a uniform or
bounded-Zipf distribution, deterministically from a seed. NumPy is imported
only when a trace is drawn, so importing the simulator does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, NamedTuple

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


@dataclass(frozen=True)
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
        # the harness reports NPU 0's gathers; with fewer samples than NPUs
        # its batch slice is empty and every strategy would report 0 cycles
        if self.kind == "embedding" and self.batch_samples < self.num_npus:
            raise ValueError(
                f"WorkloadConfig: batch_samples ({self.batch_samples}) must be "
                f">= num_npus ({self.num_npus}), or NPU 0 gathers nothing")


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


def dense_suite(name: str, element_bytes: int = 1) -> Dict[str, List[LayerConfig]]:
    """Layer lists for a shipped suite, keyed by batch tag b01/b04/b08."""
    if name not in _DENSE_SHAPES:
        raise ValueError(f"unknown suite {name!r}; shipped: {sorted(_DENSE_SHAPES)}")
    out: Dict[str, List[LayerConfig]] = {}
    for tag, batch in BATCH_TAGS.items():
        out[tag] = [
            make_layer(lname, m, k, n, batch=batch, slot=i,
                       element_bytes=element_bytes)
            for i, (lname, m, k, n) in enumerate(_DENSE_SHAPES[name])
        ]
    return out


@dataclass(frozen=True)
class EmbeddingTableSpec:
    rows: int
    embedding_bytes: int = 256

    def __post_init__(self):
        if self.rows < 1 or self.embedding_bytes < 1:
            raise ValueError("table must have positive rows and vector size")


@dataclass(frozen=True)
class EmbeddingModel:
    tables: tuple                       # of EmbeddingTableSpec
    batch: int
    lookups_per_sample: int = 1
    index_distribution: str = "uniform"  # "uniform" | "zipf"
    zipf_s: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.index_distribution not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.index_distribution!r}")
        for t in self.tables:
            if t.rows < self.lookups_per_sample:
                raise ValueError("table rows must cover lookups_per_sample")


@dataclass(frozen=True)
class Placement:
    num_npus: int
    table_to_npu: tuple

    def __post_init__(self):
        if any(not 0 <= o < self.num_npus for o in self.table_to_npu):
            raise ValueError("table owner out of range")

    @staticmethod
    def round_robin(num_tables: int, num_npus: int) -> "Placement":
        return Placement(num_npus, tuple(t % num_npus for t in range(num_tables)))


class GatherRequest(NamedTuple):
    table: int
    row: int
    owner_npu: int


def table_segment(model: EmbeddingModel, table: int) -> Segment:
    spec = model.tables[table]
    return Segment(f"emb{table}", default_segment_base(table),
                   spec.rows * spec.embedding_bytes)


def embedding_segments(model: EmbeddingModel) -> List[Segment]:
    return [table_segment(model, t) for t in range(len(model.tables))]


def _draw_rows(rng: np.random.Generator, spec: EmbeddingTableSpec,
               count: int, model: EmbeddingModel) -> np.ndarray:
    import numpy as np

    if model.index_distribution == "uniform":
        return rng.integers(0, spec.rows, size=count)
    # bounded Zipf: prob(rank r) ~ r^-s over 1..rows
    ranks = np.arange(1, spec.rows + 1, dtype=np.float64)
    probs = ranks ** -model.zipf_s
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    return np.searchsorted(cdf, rng.random(count))


def gather_trace(model: EmbeddingModel, placement: Placement,
                 npu: int) -> List[GatherRequest]:
    """NPU `npu`'s gather list for one minibatch's all-to-all.

    Samples are data-parallel: NPU i owns a contiguous slice of the batch
    and gathers that slice's lookups from every table, remote or not, in
    sample, table, lookup order. Deterministic for a fixed (model.seed,
    placement).
    """
    if len(model.tables) != len(placement.table_to_npu):
        raise ValueError("placement must assign every table")
    nn = placement.num_npus
    if not 0 <= npu < nn:
        raise ValueError(f"npu {npu} out of range for {nn} NPUs")
    import numpy as np                    # here, so start-up does not load it

    rng = np.random.default_rng(model.seed)
    lps = model.lookups_per_sample
    lo = npu * model.batch // nn
    hi = (npu + 1) * model.batch // nn
    # every table's whole batch is drawn, independent of the placement and
    # of `npu`, so re-placing tables replays the same trace
    rows = [_draw_rows(rng, spec, model.batch * lps, model)
            .reshape(model.batch, lps)[lo:hi].tolist()
            for spec in model.tables]
    owners = placement.table_to_npu
    return [GatherRequest(t, row, owners[t])
            for sample in range(hi - lo)
            for t in range(len(owners))
            for row in rows[t][sample]]
