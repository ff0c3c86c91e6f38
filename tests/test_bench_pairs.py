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


def summaries(parent, change):
    """Summaries of pairs of (wall, rss) readings."""
    pairs = [(bench_pairs.parse_result(result_line(pw, rss=pr)),
              bench_pairs.parse_result(result_line(cw, rss=cr)))
             for (pw, pr), (cw, cr) in zip(parent, change)]
    return {s.metric: s for s in bench_pairs.summarize(pairs)}


def test_worse_mirrors_the_gain_rule():
    parent = [(1.0, 31.96 + 0.005 * (i % 3)) for i in range(10)]
    # peak RSS higher in every pair, by more than the parent's spread
    rss = summaries(parent, [(w - 0.2, r + 0.19) for w, r in parent])
    assert rss["peak_rss_mb"].higher == 10 and rss["peak_rss_mb"].worse
    assert not rss["peak_rss_mb"].gain
    assert rss["wall_s"].gain and not rss["wall_s"].worse
    # higher in every pair, but within the parent's interquartile range
    narrow = summaries(parent, [(w, r + 0.004) for w, r in parent])["peak_rss_mb"]
    assert narrow.higher == 10 and not narrow.worse
    # 9 of 10 is enough, 8 of 10 is not; a tie counts for neither side
    nine = summaries(parent, [(w, r + 0.19) for w, r in parent[:9]] + parent[9:])
    assert nine["peak_rss_mb"].higher == 9 and nine["peak_rss_mb"].worse
    eight = summaries(parent, [(w, r + 0.19) for w, r in parent[:8]] + parent[8:])
    assert eight["peak_rss_mb"].higher == 8 and not eight["peak_rss_mb"].worse
    assert (eight["wall_s"].higher, eight["wall_s"].lower) == (0, 0)


def test_tables_print_gain_and_worse_columns():
    parent = [(1.0 + 0.01 * i, 32.0) for i in range(10)]
    rows = summaries(parent, [(w + 0.5, r) for w, r in parent])
    lines = bench_pairs.format_summary(list(rows.values())).splitlines()
    assert lines[0].split()[-2:] == ["gain", "worse"]
    wall = next(line for line in lines if line.startswith("wall_s"))
    assert wall.split()[-2:] == ["no", "yes"]


def test_every_workload_gets_its_own_table(monkeypatch, capsys):
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload))
        wall = 1.0 if checkout.name == "parent" else 0.5
        return bench_pairs.parse_result(result_line(wall))

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main(["parent", "change", "--workload", "a", "b",
                             "--pairs", "2", "--seconds", "1"]) == 0
    assert calls == [("parent", "a"), ("change", "a"), ("change", "a"),
                     ("parent", "a"), ("parent", "b"), ("change", "b"),
                     ("change", "b"), ("parent", "b")]
    out = capsys.readouterr().out
    assert [line.split()[0] for line in out.splitlines()
            if "pairs" in line] == ["a", "b"]
    assert out.count("wall_s") == 2
