"""Config plumbing, CSV schema, sweeps, reports, CLI surface."""

import concurrent.futures
import copy
import itertools

import pytest

from npusim import cli
from npusim import config as cfgmod
from npusim import harness, npu
from npusim.numa import LatencyBreakdown
from npusim.workloads import STRATEGIES, dense_suite


def small_cfg(**overrides):
    cfg = cfgmod.load_config(None)
    cfg["workload"]["suite"] = "toy"
    for key, value in overrides.items():
        cfgmod.set_by_path(cfg, key, value)
    return cfg


# -- config -----------------------------------------------------------------

def test_defaults_validate_clean():
    assert cfgmod.validate(cfgmod.load_config(None)) == []


def test_validation_reports_key_paths():
    cfg = small_cfg()
    cfg["mmu"]["num_ptws"] = 0
    cfg["mmu"]["mode"] = "psychic"
    errors = cfgmod.validate(cfg)
    assert any(e.startswith("mmu.num_ptws") for e in errors)
    assert any(e.startswith("mmu.mode") for e in errors)


def test_env_overrides_nested_keys():
    cfg = cfgmod.apply_env_overrides(
        cfgmod.load_config(None),
        {"NPUSIM_MMU__NUM_PTWS": "32", "NPUSIM_WORKLOAD__SUITE": "cnn",
         "IGNORED": "1"})
    assert cfg["mmu"]["num_ptws"] == 32
    assert cfg["workload"]["suite"] == "cnn"


def test_yaml_file_merges_over_defaults(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("mmu:\n  num_ptws: 64\nconfig_id: mine\n")
    cfg = cfgmod.load_config(str(p))
    assert cfg["mmu"]["num_ptws"] == 64
    assert cfg["config_id"] == "mine"
    assert cfg["mmu"]["tlb_entries"] == 2048  # untouched default survives


def test_bare_leaf_key_resolves_uniquely():
    cfg = cfgmod.load_config(None)
    assert cfgmod.resolve_key(cfg, "num_ptws") == "mmu.num_ptws"
    with pytest.raises(cfgmod.ConfigError):
        cfgmod.resolve_key(cfg, "definitely_not_a_key")


def test_seed_fanout_is_stable_and_distinct():
    a = cfgmod.seed_for(42, "gather")
    assert a == cfgmod.seed_for(42, "gather")
    assert a != cfgmod.seed_for(42, "frames")
    assert a != cfgmod.seed_for(43, "gather")


def test_dump_effective_is_sorted_yaml():
    text = cfgmod.dump_effective(cfgmod.load_config(None))
    assert text == cfgmod.dump_effective(cfgmod.load_config(None))
    import yaml
    assert yaml.safe_load(text)["mmu"]["num_ptws"] == 8


# -- harness ----------------------------------------------------------------

def test_run_single_rows_are_deterministic():
    cfg = small_cfg()
    a = harness.rows_to_csv(harness.run_single(cfg))
    b = harness.rows_to_csv(harness.run_single(cfg))
    assert a == b


def test_csv_schema_round_trip(tmp_path):
    rows = harness.run_single(small_cfg())
    path = tmp_path / "out.csv"
    with open(path, "w", newline="") as fh:
        harness.write_csv(rows, fh)
    back = harness.read_csv(str(path))
    assert len(back) == len(rows)
    assert back[0]["workload"] == rows[0]["workload"]
    assert int(back[0]["total_cycles"]) == rows[0]["total_cycles"]


def test_csv_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("foo,bar\n1,2\n")
    with pytest.raises(ValueError):
        harness.read_csv(str(path))


def test_invalid_config_raises():
    cfg = small_cfg()
    cfg["mmu"]["num_ptws"] = -1
    with pytest.raises(cfgmod.ConfigError):
        harness.run_single(cfg)


def test_sweep_is_a_stable_cross_product():
    cfg = small_cfg()
    rows = harness.sweep(cfg, [("mmu.num_ptws", [1, 8]),
                               ("prmb_slots", [0, 4])])
    assert len(rows) == 4  # toy suite has one layer
    ids = [r["config_id"] for r in rows]
    assert ids == sorted(ids, key=ids.index)  # declaration order preserved
    assert ids[0].endswith("num_ptws=1,prmb_slots=0")
    assert ids[-1].endswith("num_ptws=8,prmb_slots=4")


def test_sweep_without_axes_names_rows_by_config_id(tmp_path):
    out = tmp_path / "s.csv"
    assert cli.main(["sweep", "--out", str(out)]) == 0
    assert {r["config_id"] for r in harness.read_csv(str(out))} == {"default"}


def test_sweep_parallel_matches_serial():
    cfg = small_cfg()
    items = [("mmu.num_ptws", [1, 8])]
    serial = harness.rows_to_csv(harness.sweep(cfg, items, jobs=1))
    parallel = harness.rows_to_csv(harness.sweep(cfg, items, jobs=2))
    assert serial == parallel


def test_sweep_starts_no_more_workers_than_points(monkeypatch):
    # a fork pool starts all its workers up front, so --jobs is capped at
    # the points; one point, or none, runs in this process
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    cfg = small_cfg()
    assert harness.sweep(cfg, [("mmu.num_ptws", [])], jobs=4) == []
    one = harness.sweep(cfg, [("mmu.num_ptws", [8])], jobs=4)
    two = harness.sweep(cfg, [("mmu.num_ptws", [1, 8])], jobs=4)
    assert sizes == [2]
    assert harness.rows_to_csv(one + two) == harness.rows_to_csv(
        harness.sweep(cfg, [("mmu.num_ptws", [8])])
        + harness.sweep(cfg, [("mmu.num_ptws", [1, 8])]))


def test_shared_fetch_plans_keep_every_point_exact():
    # every axis a fetch plan depends on, plus axes it must not depend on:
    # sharing plans across a serial sweep's points must not change a byte
    cfg = small_cfg()
    items = [("workload.suite", ["toy", "burst"]),
             ("npu.dma_txn_bytes", [64, 100]),
             ("npu.reuse_last_translation", [False, True]),
             ("npu.mirror_write_traffic", [False, True]),
             ("mmu.page_size", ["4k", "2m"]),
             ("mmu.mode", ["modeled", "oracle"])]
    serial = harness.rows_to_csv(harness.sweep(cfg, items, jobs=1))
    single = []
    for combo in itertools.product(*[values for _, values in items]):
        point = copy.deepcopy(cfg)
        for (key, _), value in zip(items, combo):
            cfgmod.set_by_path(point, key, value)
        point["config_id"] += "+" + ",".join(
            f"{key.split('.')[-1]}={value}" for (key, _), value in zip(items, combo))
        single.extend(harness.run_single(point))
    assert serial == harness.rows_to_csv(single)
    assert serial == harness.rows_to_csv(harness.sweep(cfg, items, jobs=2))


def counted_linearize(monkeypatch):
    calls = []
    real = npu.linearize

    def counting(tile, *args):
        calls.append(tile)
        return real(tile, *args)

    monkeypatch.setattr(npu, "linearize", counting)
    return calls


def burst_tile_fetches(cfg):
    (layer,) = dense_suite("burst", cfg["workload"]["batch"], 1)
    return sum(len(step.fetches)
               for step in npu.tile_steps(layer, npu.NpuConfig(**cfg["npu"])))


def test_serial_sweep_linearizes_each_tile_fetch_once(monkeypatch):
    calls = counted_linearize(monkeypatch)
    cfg = small_cfg(**{"workload.suite": "burst"})
    rows = harness.sweep(cfg, [("mmu.num_ptws", [8, 128]),
                               ("mmu.translation_cache", ["none", "tpr"])])
    assert len(rows) == 4
    assert len(calls) == burst_tile_fetches(cfg) > 1


def test_each_run_single_call_builds_its_own_plans(monkeypatch):
    calls = counted_linearize(monkeypatch)
    cfg = small_cfg(**{"workload.suite": "burst"})
    first = harness.run_single(cfg)
    assert len(calls) == burst_tile_fetches(cfg)
    assert harness.run_single(cfg) == first
    assert len(calls) == 2 * burst_tile_fetches(cfg)


def test_a_layer_is_mapped_before_it_is_planned(monkeypatch):
    planned = []

    def refuse(segments, ps):
        raise ValueError("segments overlap")

    monkeypatch.setattr(harness, "build", refuse)
    monkeypatch.setattr(harness, "plan_layer", lambda *args: planned.append(args))
    with pytest.raises(ValueError, match="segments overlap"):
        harness.run_single(small_cfg())
    assert planned == []


def test_embedding_rows_cover_strategies():
    cfg = small_cfg(**{"workload.kind": "embedding", "workload.strategy": "all",
                       "workload.batch_samples": 16})
    rows = harness.run_single(cfg)
    assert [r["strategy"] for r in rows] == [
        "baseline_copy", "numa_slow", "numa_fast", "demand_4k", "demand_2m"]


def test_every_latency_breakdown_field_is_a_csv_column():
    # embedding rows are the breakdown's fields, and `write_csv` drops
    # any key that is not a column
    assert set(LatencyBreakdown._fields) <= set(harness.CSV_COLUMNS)


def test_report_summarizes_and_rejects_empty(tmp_path):
    cfg = small_cfg()
    path = tmp_path / "r.csv"
    with open(path, "w", newline="") as fh:
        harness.write_csv(harness.run_single(cfg), fh)
    text = harness.report([str(path)])
    assert "normalized to oracle" in text
    empty = tmp_path / "e.csv"
    with open(empty, "w", newline="") as fh:
        harness.write_csv([], fh)
    with pytest.raises(ValueError):
        harness.report([str(empty)])


def test_report_tells_embedding_sweep_points_apart(tmp_path):
    cfg = small_cfg(**{"workload.kind": "embedding", "workload.strategy": "all",
                       "workload.rows": 4096, "workload.batch_samples": 16})
    path = tmp_path / "s.csv"
    with open(path, "w", newline="") as fh:
        harness.write_csv(harness.sweep(cfg, [("num_ptws", [1, 128])]), fh)
    lines = harness.report([str(path)]).splitlines()
    for cid in ("default+num_ptws=1", "default+num_ptws=128"):
        rows = [line.split() for line in lines if cid in line.split()]
        assert [r[2] for r in rows] == list(STRATEGIES)


def test_report_prints_whole_dense_config_ids(tmp_path):
    """Ids that differ only past their 30th character stay apart in the
    performance and the energy section."""
    path = tmp_path / "s.csv"
    with open(path, "w", newline="") as fh:
        harness.write_csv(harness.sweep(small_cfg(), [("num_ptws", [1, 8]),
                                                      ("prmb_slots", [4, 8])]), fh)
    lines = harness.report([str(path)]).splitlines()
    ids = [row["config_id"] for row in harness.read_csv(str(path))]
    assert len({cid[:30] for cid in ids}) < len(set(ids)) == 4
    for cid in ids:
        assert sum(line.split()[1:2] == [cid] for line in lines) == 2


# -- CLI --------------------------------------------------------------------

def test_cli_run_writes_csv(tmp_path):
    out = tmp_path / "run.csv"
    assert cli.main(["run", "--out", str(out)]) == 0
    assert len(harness.read_csv(str(out))) >= 1


def test_cli_sweep_and_report(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", "--set", "num_ptws=1,8", "--out", str(out)])
    assert rc == 0
    assert len(harness.read_csv(str(out))) == 2
    assert cli.main(["report", str(out)]) == 0
    assert "normalized to oracle" in capsys.readouterr().out


@pytest.mark.parametrize("key", ["npu.reuse_last_translation",
                                 "npu.mirror_write_traffic",
                                 "mmu.charge_walk_bandwidth"])
def test_boolean_knobs_reject_non_booleans(key):
    env = {"NPUSIM_" + key.upper().replace(".", "__"): "maybe"}
    cfg = cfgmod.apply_env_overrides(small_cfg(), env)
    assert cfg[key.split(".")[0]][key.split(".")[1]] == "maybe"
    assert any(e.startswith(key) for e in cfgmod.validate(cfg))
    with pytest.raises(cfgmod.ConfigError):
        harness.run_single(cfg)


@pytest.mark.parametrize("key, strategy", [("links.nvlink_bandwidth", "numa_fast"),
                                           ("links.pcie_bandwidth", "numa_slow")])
def test_link_bandwidth_reaches_numa_strategies(key, strategy):
    def total(bandwidth):
        cfg = small_cfg(**{"workload.kind": "embedding",
                           "workload.strategy": strategy,
                           "workload.batch_samples": 16, key: bandwidth})
        return harness.run_single(cfg)[0]["total_cycles"]
    assert total(1) > total(160)


def test_cli_validate_rejects_bad_config(tmp_path, capsys):
    p = tmp_path / "bad.yaml"
    p.write_text("mmu:\n  mode: psychic\n")
    assert cli.main(["validate", "--config", str(p)]) == 1
    assert "mmu.mode" in capsys.readouterr().err


def test_cli_validate_prints_effective_config(capsys):
    assert cli.main(["validate"]) == 0
    assert "num_ptws" in capsys.readouterr().out


def test_cli_seed_flag_overrides_master(tmp_path):
    out = tmp_path / "s.csv"
    assert cli.main(["run", "--seed", "99", "--out", str(out)]) == 0
    assert harness.read_csv(str(out))[0]["seed"] == "99"


def test_cli_seed_flag_is_checked_like_the_config(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert cli.main(["run", "--seed", "-1", "--out", str(out)]) == 1
    assert "seeds.master: must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_cli_sweep_rejects_jobs_below_one(tmp_path, capsys, jobs):
    out = tmp_path / "s.csv"
    assert cli.main(["sweep", "--jobs", jobs, "--set", "num_ptws=1,8",
                     "--out", str(out)]) == 1
    assert "jobs must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_run_has_no_jobs_option(capsys):
    # `run` used to accept `--jobs`, shared with `sweep`, and ignore it
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--jobs", "-2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs -2" in capsys.readouterr().err


def test_embedding_rejects_fewer_samples_than_npus(monkeypatch, capsys):
    cfg = small_cfg(**{"workload.kind": "embedding", "workload.num_npus": 4,
                       "workload.batch_samples": 2})
    with pytest.raises(ValueError, match="NPU 0 gathers nothing"):
        harness.run_single(cfg)
    monkeypatch.setenv("NPUSIM_WORKLOAD__KIND", "embedding")
    monkeypatch.setenv("NPUSIM_WORKLOAD__BATCH_SAMPLES", "2")
    assert cli.main(["run"]) == 1
    assert "batch_samples (2) must be >= num_npus (4)" in capsys.readouterr().err
    # one sample per NPU is enough
    cfg["workload"]["batch_samples"] = 4
    assert all(r["total_cycles"] > 0 for r in harness.run_single(cfg))


def test_cli_run_reports_unfittable_weight_partition(monkeypatch, capsys):
    monkeypatch.setenv("NPUSIM_NPU__SPM_WEIGHT_BYTES", "1")
    assert cli.main(["run"]) == 1
    assert "W tile cannot fit half the SPM" in capsys.readouterr().err


def test_sweep_rejects_a_key_on_two_axes(tmp_path, capsys):
    # the later axis would overwrite the earlier: rows labelled num_ptws=8
    # and num_ptws=16 would both run at 128
    out = tmp_path / "s.csv"
    assert cli.main(["sweep", "--set", "num_ptws=8,16",
                     "--set", "mmu.num_ptws=128", "--out", str(out)]) == 1
    assert "'mmu.num_ptws' is on more than one axis" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(cfgmod.ConfigError):
        harness.sweep(small_cfg(), [("prmb_slots", [0]), ("mmu.prmb_slots", [1])])


def test_cli_sweep_rejects_invalid_base_config(tmp_path, capsys):
    p = tmp_path / "c.yaml"
    p.write_text("config_id: 5\n")
    assert cli.main(["sweep", "--config", str(p), "--set", "num_ptws=1,8"]) == 1
    assert "error: config_id:" in capsys.readouterr().err


@pytest.mark.parametrize("key, raw", [("npu.reuse_last_translation", "True"),
                                      ("mmu.num_ptws", "0x10")])
def test_set_and_env_parse_values_alike(tmp_path, monkeypatch, key, raw):
    swept, env = tmp_path / "set.csv", tmp_path / "env.csv"
    assert cli.main(["sweep", "--set", f"{key}={raw}", "--out", str(swept)]) == 0
    monkeypatch.setenv("NPUSIM_" + key.upper().replace(".", "__"), raw)
    assert cli.main(["run", "--out", str(env)]) == 0

    def results(path):
        return [{k: v for k, v in r.items() if k != "config_id"}
                for r in harness.read_csv(str(path))]
    assert results(swept) == results(env)


def test_page_size_reaches_numa_strategies():
    def rows(page_size):
        cfg = small_cfg(**{"workload.kind": "embedding", "workload.strategy": "all",
                           "workload.rows": 4096, "workload.batch_samples": 64,
                           "mmu.page_size": page_size})
        return {r["strategy"]: r for r in harness.run_single(cfg)}
    small, large = rows("4k"), rows("2m")
    for strategy in ("numa_slow", "numa_fast"):
        assert (large[strategy]["translation_cycles"]
                < small[strategy]["translation_cycles"])
    for strategy in ("baseline_copy", "demand_4k", "demand_2m"):
        assert large[strategy] == small[strategy]


@pytest.mark.parametrize("key", ["mmu.walk_cycles_per_level", "mmu.tlb_hit_latency"])
def test_demand_paging_follows_mmu_timing_in_oracle_mode(key):
    def faulting(mode):
        cfg = small_cfg(**{"workload.kind": "embedding", "workload.rows": 4096,
                           "workload.batch_samples": 64, "mmu.mode": mode,
                           key: 50})
        return {r["strategy"]: (r["fault_handling_cycles"], r["total_cycles"])
                for r in harness.run_single(cfg)
                if r["strategy"].startswith("demand")}
    assert faulting("oracle") == faulting("modeled")


@pytest.mark.parametrize("suite", ["toy", "burst"])
def test_zero_latency_dram_runs_modelled_layers(suite):
    # the last data of a fetch lands in the cycle it was translated, so the
    # next fetch must start after the engine's last tick, not on it
    cfg = small_cfg(**{"workload.suite": suite, "memory.access_latency": 0})
    rows = harness.run_single(cfg)
    assert rows
    for row in rows:
        assert row["mode"] == "modeled"
        assert row["total_cycles"] >= row["oracle_cycles"] > 0


def test_oracle_mode_runs_each_layer_once(monkeypatch):
    calls = []
    real = harness.run_layer

    def counting(layer, *args):
        calls.append(layer.name)
        return real(layer, *args)

    monkeypatch.setattr(harness, "run_layer", counting)
    cfg = small_cfg(**{"workload.suite": "gemv-rnn", "mmu.mode": "oracle"})
    rows = harness.run_single(cfg)
    assert calls == ["gemv-1", "gemv-2", "gemv-3"]
    assert [r["total_cycles"] for r in rows] == [r["oracle_cycles"] for r in rows]
