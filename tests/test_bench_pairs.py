"""The summary arithmetic of `scripts/bench_pairs.py`, on canned result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def result_line(wall, cpu=1.0, setup=0.1, rss=40.0, correct=True):
    metrics = {"wall_s": wall, "cpu_s": cpu, "setup_s": setup, "peak_rss_mb": rss}
    return "noise\n" + json.dumps({
        "correct": correct, "attempted": 8, "failed": 0 if correct else 2,
        "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}})


def summary(parent_walls, change_walls, **change):
    pairs = [(bench_pairs.parse_result(result_line(p)),
              bench_pairs.parse_result(result_line(c, **change)))
             for p, c in zip(parent_walls, change_walls)]
    return {s.metric: s for s in bench_pairs.summarize(pairs)}


def test_parse_result_reads_the_last_line_and_refuses_wrong_rows():
    assert bench_pairs.parse_result(result_line(0.5))["wall_s"] == 0.5
    with pytest.raises(ValueError):
        bench_pairs.parse_result(result_line(0.5, correct=False))


def test_medians_quartiles_and_pairs_won():
    parent = [1.0, 1.1, 1.2, 1.3, 1.4]
    change = [0.8, 0.9, 1.0, 1.1, 1.5]
    s = summary(parent, change)["wall_s"]
    assert s.parent == (1.1, 1.2, 1.3)
    assert s.change == (0.9, 1.0, 1.1)
    assert (s.lower, s.pairs) == (4, 5)
    # 4 of 5 pairs is under nine tenths, though the medians differ by
    # exactly the parent's quartile spread
    assert not s.gain


def test_gain_needs_nine_tenths_and_a_gap_beyond_the_parent_spread():
    parent = [1.0 + 0.01 * i for i in range(10)]
    assert summary(parent, [p - 0.2 for p in parent])["wall_s"].gain
    # wins every pair, but by less than the parent's interquartile range
    narrow = summary(parent, [p - 0.03 for p in parent])["wall_s"]
    assert narrow.lower == 10 and not narrow.gain
    # a tie counts for neither side: 8 wins and 2 ties of 10 is not enough
    tied = summary(parent, [p - 0.2 for p in parent[:8]] + parent[8:])["wall_s"]
    assert tied.lower == 8 and not tied.gain


def test_every_end_to_end_metric_is_summarised():
    s = summary([1.0, 1.0], [1.0, 1.0], cpu=0.5, rss=41.0)
    assert list(s) == ["wall_s", "cpu_s", "setup_s", "peak_rss_mb"]
    assert s["cpu_s"].lower == 2 and s["peak_rss_mb"].lower == 0
    assert s["setup_s"].change == s["setup_s"].parent == (0.1, 0.1, 0.1)
    text = bench_pairs.format_summary(list(s.values()))
    assert "cpu_s" in text and "-50.0%" in text and "2/2" in text
