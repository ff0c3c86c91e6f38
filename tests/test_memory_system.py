"""DRAM token bucket and interconnect link timing."""

import pytest
from hypothesis import example, given, settings, strategies as st

from npusim.memory import (
    Dram,
    DramConfig,
    LinkConfig,
    LinksConfig,
    link_transfer_cycles,
)

PCIE = LinksConfig().pcie
NVLINK = LinksConfig().nvlink


def test_single_access_sees_fixed_latency():
    dram = Dram(DramConfig())
    assert dram.issue(64, now=0) == 100


def test_bandwidth_limits_back_to_back_issues():
    # 1200B at 600 B/cycle consumes two cycles of tokens; the second large
    # request lands one cycle later than the first.
    dram = Dram(DramConfig())
    first = dram.issue(1200, now=0)
    second = dram.issue(1200, now=0)
    assert second - first == 2


def test_tokens_refill_over_time():
    dram = Dram(DramConfig())
    assert dram.issue(6000, now=0) == 109  # ten cycles of tokens
    # after the bucket drains, a later issue is latency-bound again
    assert dram.issue(600, now=100) == 200


def test_zero_bytes_rejected():
    dram = Dram(DramConfig())
    with pytest.raises(ValueError):
        dram.issue(0, now=0)


def test_consume_debits_without_latency():
    dram = Dram(DramConfig())
    dram.consume(1200, now=0)
    # the debit pushes the next issue's bandwidth slot out by two cycles
    assert dram.issue(600, now=0) == 102


def test_link_transfer_examples():
    assert link_transfer_cycles(32, PCIE) == 152       # 150 + ceil(32/16)
    assert link_transfer_cycles(2560, NVLINK) == 166   # 150 + 2560/160


def test_link_bandwidth_ordering():
    for nbytes in (1, 64, 4096, 1 << 20):
        assert (link_transfer_cycles(nbytes, NVLINK)
                <= link_transfer_cycles(nbytes, PCIE))


@given(st.integers(min_value=1, max_value=1 << 24))
def test_link_cycles_formula(nbytes):
    link = LinkConfig(kind="x", bandwidth_bytes_per_cycle=16, numa_latency=150)
    got = link_transfer_cycles(nbytes, link)
    assert got == 150 + -(-nbytes // 16)


@given(st.lists(st.integers(min_value=1, max_value=4096), min_size=1, max_size=50))
def test_issue_completions_monotone_at_fixed_cycle(sizes):
    dram = Dram(DramConfig())
    dones = [dram.issue(s, now=0) for s in sizes]
    assert all(b >= a for a, b in zip(dones, dones[1:]))
    assert dram.bytes_issued == sum(sizes)


def dram_state(dram):
    return dram._cursor, dram._tokens, dram.bytes_issued, dram.txns


@settings(max_examples=300, deadline=None)
@given(bandwidth=st.sampled_from([16, 40, 64, 600]),
       latency=st.sampled_from([0, 100]),
       warmup=st.lists(st.tuples(st.integers(1, 5000), st.integers(0, 30)),
                       max_size=3),
       chunks=st.lists(st.sampled_from([1, 36, 39, 40, 41, 64, 100, 600, 4096]),
                       min_size=1, max_size=3).map(tuple),
       count=st.integers(1, 100),
       now=st.integers(0, 60))
@example(bandwidth=40, latency=100, warmup=[(2000, 0)], chunks=(64,), count=64,
         now=3)
@example(bandwidth=64, latency=0, warmup=[], chunks=(64,), count=5, now=0)
def test_issue_run_equals_issues_one_cycle_apart(bandwidth, latency, warmup,
                                                 chunks, count, now):
    """A run debit leaves DRAM as `issue` does, group by group, one per cycle."""
    cfg = DramConfig(bandwidth_bytes_per_cycle=bandwidth, access_latency=latency)
    run, ref = Dram(cfg), Dram(cfg)
    for dram in (run, ref):  # warm up, possibly leaving a backlog
        for nbytes, cycle in sorted(warmup, key=lambda w: w[1]):
            dram.issue(nbytes, cycle)
    end = run.issue_run(chunks, count, now)
    ref_end = [ref.issue(nbytes, cycle) for cycle in range(now, now + count)
               for nbytes in chunks][-1]
    assert end == ref_end
    assert dram_state(run) == dram_state(ref)
    assert run.issue(64, now + count) == ref.issue(64, now + count)


@pytest.mark.parametrize("chunks, count", [((0,), 1), ((64,), 0), ((), 1)])
def test_issue_run_rejects_empty_runs(chunks, count):
    with pytest.raises(ValueError):
        Dram(DramConfig()).issue_run(chunks, count, 0)
