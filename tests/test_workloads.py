"""Dense layer suites and embedding gather trace generation."""

import numpy as np
import pytest

from npusim.address_space import check_disjoint
from npusim.workloads import (
    BATCH_TAGS,
    WorkloadConfig,
    dense_suite,
    embedding_segments,
    gather_trace,
    make_layer,
)

SEED = 3


def workload(**kw):
    base = dict(kind="embedding", tables=4, rows=1024, batch_samples=16)
    base.update(kw)
    return WorkloadConfig(**base)


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
        a = gather_trace(wl, SEED, npu)
        b = gather_trace(wl, SEED, npu)
        assert a == b
        c = gather_trace(wl, 4, npu)
        assert a != c


def test_all_to_all_counts():
    wl = workload(num_npus=2, batch_samples=16, lookups_per_sample=2)
    traces = {npu: gather_trace(wl, SEED, npu) for npu in range(wl.num_npus)}
    assert set(traces) == {0, 1}
    with pytest.raises(ValueError):
        gather_trace(wl, SEED, 2)
    # each NPU's batch slice gathers from every table
    for npu, trace in traces.items():
        assert len(trace) == (16 // 2) * 4 * 2
        assert {g.table for g in trace} == {0, 1, 2, 3}
        assert {g.owner_npu for g in trace} == {0, 1}


def test_replacement_keeps_rows_fixed():
    rows_a = [g.row for g in gather_trace(workload(num_npus=2), SEED)]
    rows_b = [g.row for g in gather_trace(workload(num_npus=4), SEED)]
    # same draw, different owners and batch split; prefix slice matches
    assert rows_b == rows_a[:len(rows_b)]


def test_owners_follow_placement():
    for num_npus in (1, 2, 3):
        for g in gather_trace(workload(num_npus=num_npus), SEED):
            assert g.owner_npu == g.table % num_npus


def test_zipf_is_more_concentrated_than_uniform():
    big = dict(num_npus=1, tables=1, rows=4096, batch_samples=4096)
    uni = gather_trace(workload(distribution="uniform", **big), SEED)
    zipf = gather_trace(workload(distribution="zipf", zipf_s=1.2, **big), SEED)
    assert len({g.row for g in zipf}) < len({g.row for g in uni})


def test_rows_in_range():
    for g in gather_trace(workload(num_npus=1), SEED):
        assert 0 <= g.row < 1024


def test_embedding_segments_disjoint():
    check_disjoint(embedding_segments(workload()))


def test_bad_distribution_rejected():
    with pytest.raises(ValueError):
        workload(distribution="gaussian")


def test_gather_trace_refuses_a_dense_record():
    # the batch and row checks apply only to embedding records, so a dense
    # one could hand the trace an empty NPU slice or too few rows
    for wl in (WorkloadConfig(kind="dense", batch_samples=2, num_npus=4),
               WorkloadConfig(kind="dense", rows=1, lookups_per_sample=2),
               WorkloadConfig()):
        with pytest.raises(ValueError, match="needs an embedding workload"):
            gather_trace(wl, SEED)
