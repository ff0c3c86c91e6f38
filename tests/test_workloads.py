"""Dense layer suites and embedding gather trace generation."""

import numpy as np
import pytest

from npusim.address_space import check_disjoint
from npusim.workloads import (
    BATCH_TAGS,
    DISTRIBUTIONS,
    GatherTrace,
    WorkloadConfig,
    dense_suite,
    embedding_segments,
    gather_trace,
    make_layer,
)
from trace_reference import GatherRequest, gathers

SEED = 3


def workload(**kw):
    base = dict(kind="embedding", tables=4, rows=1024, batch_samples=16)
    base.update(kw)
    return WorkloadConfig(**base)


def trace_of(wl, seed=SEED, npu=0):
    """`gather_trace`, one gather at a time."""
    return gathers(gather_trace(wl, seed, npu), wl)


def test_suites_present_with_batch_variants():
    for name in ("toy", "gemv-rnn", "cnn", "burst"):
        for tag in BATCH_TAGS:
            assert dense_suite(name, tag, 1), f"{name}/{tag} empty"


def test_layer_segments_disjoint():
    suite = dense_suite("cnn", "b04", 1)
    check_disjoint([s for l in suite for s in (l.ia_segment, l.w_segment)])


def test_make_layer_sizes_segments_to_operands():
    layer = make_layer("l", 8, 128, 64, batch=2, element_bytes=2)
    assert layer.ia_segment.length >= 16 * 128 * 2
    assert layer.w_segment.length >= 128 * 64 * 2


def test_gather_trace_deterministic():
    wl = workload(num_npus=2)
    for npu in range(2):
        a = trace_of(wl, SEED, npu)
        b = trace_of(wl, SEED, npu)
        assert a == b
        c = trace_of(wl, 4, npu)
        assert a != c


def test_all_to_all_counts():
    wl = workload(num_npus=2, batch_samples=16, lookups_per_sample=2)
    traces = {npu: trace_of(wl, SEED, npu) for npu in range(wl.num_npus)}
    assert set(traces) == {0, 1}
    with pytest.raises(ValueError):
        gather_trace(wl, SEED, 2)
    # each NPU's batch slice gathers from every table
    for npu, trace in traces.items():
        assert len(trace) == (16 // 2) * 4 * 2
        assert {g.table for g in trace} == {0, 1, 2, 3}
        assert {g.owner_npu for g in trace} == {0, 1}


def test_replacement_keeps_rows_fixed():
    rows_a = [g.row for g in trace_of(workload(num_npus=2))]
    rows_b = [g.row for g in trace_of(workload(num_npus=4))]
    # same draw, different owners and batch split; prefix slice matches
    assert rows_b == rows_a[:len(rows_b)]


def test_owners_follow_placement():
    for num_npus in (1, 2, 3):
        for g in trace_of(workload(num_npus=num_npus)):
            assert g.owner_npu == g.table % num_npus


def test_zipf_is_more_concentrated_than_uniform():
    big = dict(num_npus=1, tables=1, rows=4096, batch_samples=4096)
    uni = trace_of(workload(distribution="uniform", **big))
    zipf = trace_of(workload(distribution="zipf", zipf_s=1.2, **big))
    assert len({g.row for g in zipf}) < len({g.row for g in uni})


def test_rows_in_range():
    for g in trace_of(workload(num_npus=1)):
        assert 0 <= g.row < 1024


def test_embedding_segments_disjoint():
    check_disjoint(embedding_segments(workload()))


def test_bad_distribution_rejected():
    with pytest.raises(ValueError):
        workload(distribution="gaussian")


def test_zipf_rows_stop_at_the_cap():
    assert workload(distribution="zipf", rows=2**24).rows == 2**24
    with pytest.raises(ValueError, match=r"must be <= 2\*\*24 under distribution zipf"):
        workload(distribution="zipf", rows=2**24 + 1)
    assert workload(distribution="uniform", rows=2**24 + 1).rows == 2**24 + 1


def test_gather_trace_refuses_a_dense_record():
    # the batch and row checks apply only to embedding records, so a dense
    # one could hand the trace an empty NPU slice or too few rows
    for wl in (WorkloadConfig(kind="dense", batch_samples=2, num_npus=4),
               WorkloadConfig(kind="dense", rows=1, lookups_per_sample=2),
               WorkloadConfig()):
        with pytest.raises(ValueError, match="needs an embedding workload"):
            gather_trace(wl, SEED)


def reference_trace(wl, seed, npu=0):
    """NPU `npu`'s trace built one gather at a time from the same draws:
    each table's whole batch in turn, then a sample, table, lookup
    comprehension."""
    rng = np.random.default_rng(seed)
    batch, lps, nn = wl.batch_samples, wl.lookups_per_sample, wl.num_npus
    lo, hi = npu * batch // nn, (npu + 1) * batch // nn

    def draw():
        if wl.distribution == "uniform":
            return rng.integers(0, wl.rows, size=batch * lps)
        ranks = np.arange(1, wl.rows + 1, dtype=np.float64)
        probs = ranks ** -wl.zipf_s
        cdf = np.cumsum(probs)
        cdf /= cdf[-1]
        return np.searchsorted(cdf, rng.random(batch * lps))

    rows = [draw().reshape(batch, lps)[lo:hi].tolist() for _ in range(wl.tables)]
    return [GatherRequest(t, row, t % nn)
            for sample in range(hi - lo)
            for t in range(wl.tables)
            for row in rows[t][sample]]


@pytest.mark.parametrize("distribution", DISTRIBUTIONS)
@pytest.mark.parametrize("num_npus, tables, lookups, npu", [
    (1, 4, 1, 0), (3, 4, 1, 0), (3, 4, 1, 2), (3, 5, 3, 1), (4, 6, 2, 3)],
    ids=["one-npu", "npus-split-tables", "last-npu", "three-lookups",
         "two-lookups"])
def test_columns_follow_the_per_gather_trace(distribution, num_npus, tables,
                                             lookups, npu):
    # 17 samples over 3 NPUs give slices of 5, 6 and 6
    wl = workload(num_npus=num_npus, tables=tables, lookups_per_sample=lookups,
                  batch_samples=17, distribution=distribution, zipf_s=1.2)
    trace = gather_trace(wl, SEED, npu)
    assert trace.table.dtype == trace.row.dtype == np.int64
    assert len(trace) == len(trace.table) == (17 * (npu + 1) // num_npus
                                              - 17 * npu // num_npus) * tables * lookups
    assert gathers(trace, wl) == reference_trace(wl, SEED, npu)


def test_a_hand_built_trace_keeps_its_order():
    wl = workload(num_npus=2)
    pairs = [(3, 7), (0, 1), (3, 7), (2, 1023)]
    trace = GatherTrace.of(iter(pairs))
    assert trace.table.dtype == trace.row.dtype == np.int64
    assert gathers(trace, wl) == [GatherRequest(t, r, t % 2) for t, r in pairs]
    remote = trace[trace.table % 2 != 0]
    assert gathers(remote, wl) == [GatherRequest(3, 7, 1), GatherRequest(3, 7, 1)]
    assert len(GatherTrace.of([])) == 0
