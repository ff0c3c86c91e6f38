"""Dense layer suites and embedding gather trace generation."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import npusim

from npusim.address_space import check_disjoint
from npusim.workloads import (
    BATCH_TAGS,
    EmbeddingModel,
    Placement,
    dense_suite,
    embedding_segments,
    gather_trace,
    make_layer,
)


def model(**kw):
    base = dict(tables=4, rows=1024, batch=16, seed=3)
    base.update(kw)
    return EmbeddingModel(**base)


def test_suites_present_with_batch_variants():
    for name in ("toy", "gemv-rnn", "cnn", "burst"):
        suite = dense_suite(name)
        assert set(suite) == set(BATCH_TAGS)
        for tag, layers in suite.items():
            assert layers, f"{name}/{tag} empty"


def test_layer_segments_disjoint():
    suite = dense_suite("cnn")["b04"]
    check_disjoint([s for l in suite for s in (l.ia_segment, l.w_segment)])


def test_make_layer_sizes_segments_to_operands():
    layer = make_layer("l", 8, 128, 64, batch=2, element_bytes=2)
    assert layer.ia_segment.length >= 16 * 128 * 2
    assert layer.w_segment.length >= 128 * 64 * 2


def test_gather_trace_deterministic():
    p = Placement.round_robin(4, 2)
    for npu in range(2):
        a = gather_trace(model(), p, npu)
        b = gather_trace(model(), p, npu)
        assert a == b
        c = gather_trace(model(seed=4), p, npu)
        assert a != c


def test_all_to_all_counts():
    m = model(batch=16, lookups_per_sample=2)
    p = Placement.round_robin(4, 2)
    traces = {npu: gather_trace(m, p, npu) for npu in range(p.num_npus)}
    assert set(traces) == {0, 1}
    with pytest.raises(ValueError):
        gather_trace(m, p, 2)
    # each NPU's batch slice gathers from every table
    for npu, trace in traces.items():
        assert len(trace) == (16 // 2) * 4 * 2
        assert {g.table for g in trace} == {0, 1, 2, 3}
        assert {g.owner_npu for g in trace} == {0, 1}


def test_replacement_keeps_rows_fixed():
    m = model()
    rows_a = [g.row for g in gather_trace(m, Placement.round_robin(4, 2), 0)]
    rows_b = [g.row for g in gather_trace(m, Placement.round_robin(4, 4), 0)]
    # same draw, different owners and batch split; prefix slice matches
    assert rows_b == rows_a[:len(rows_b)]


def test_owners_follow_placement():
    p = Placement(2, (1, 0, 1, 0))
    for g in gather_trace(model(), p, 0):
        assert g.owner_npu == p.table_to_npu[g.table]


def test_zipf_is_more_concentrated_than_uniform():
    p = Placement.round_robin(1, 1)
    big = dict(tables=1, rows=4096, batch=4096)
    uni = gather_trace(model(index_distribution="uniform", **big), p, 0)
    zipf = gather_trace(model(index_distribution="zipf", zipf_s=1.2, **big), p, 0)
    assert len({g.row for g in zipf}) < len({g.row for g in uni})


def test_rows_in_range():
    for g in gather_trace(model(), Placement.round_robin(4, 1), 0):
        assert 0 <= g.row < 1024


def test_embedding_segments_disjoint():
    check_disjoint(embedding_segments(model()))


def test_bad_distribution_rejected():
    with pytest.raises(ValueError):
        model(index_distribution="gaussian")


def test_importing_the_simulator_leaves_numpy_unloaded():
    # NumPy is imported when a gather trace is drawn, not at start-up
    code = ("import sys, npusim.cli, npusim.harness, npusim.config; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
    env = dict(os.environ, PYTHONPATH=str(Path(npusim.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
