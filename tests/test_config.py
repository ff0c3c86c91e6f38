"""Config schema: the section records are the only keys, defaults and ranges,
and every key changes some output."""

import copy
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import npusim
from npusim import cli
from npusim import config as cfgmod
from npusim import harness
from npusim.energy import EnergyTable
from npusim.memory import DramConfig, LinksConfig
from npusim.mmu import MmuConfig
from npusim.npu import NpuConfig
from npusim.schema import Record
from npusim.workloads import WorkloadConfig, dense_suite

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("text, path", [
    ("mmu:\n  num_ptw: 64\n", "mmu.num_ptw"),
    ("mmuu:\n  num_ptws: 64\n", "mmuu"),
    ("memory:\n  channels: 8\n", "memory.channels"),
])
def test_unknown_yaml_keys_rejected(tmp_path, capsys, text, path):
    p = tmp_path / "typo.yaml"
    p.write_text(text)
    assert f"{path}: unknown key" in cfgmod.validate(cfgmod.load_config(str(p)))
    assert cli.main(["validate", "--config", str(p)]) == 1
    assert path in capsys.readouterr().err


def test_unknown_env_key_rejected(monkeypatch, capsys):
    monkeypatch.setenv("NPUSIM_MMU__NUM_PTW", "64")
    assert cli.main(["validate"]) == 1
    assert "mmu.num_ptw" in capsys.readouterr().err


def test_malformed_env_value_names_its_variable(monkeypatch, capsys):
    with pytest.raises(cfgmod.ConfigError, match="NPUSIM_MMU__NUM_PTWS='\\[1'"):
        cfgmod.apply_env_overrides(cfgmod.load_config(),
                                   {"NPUSIM_MMU__NUM_PTWS": "[1"})
    monkeypatch.setenv("NPUSIM_MMU__NUM_PTWS", "[1")
    assert cli.main(["validate"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: NPUSIM_MMU__NUM_PTWS='[1': ")


def test_malformed_set_value_names_its_key(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert cli.main(["sweep", "--set", "num_ptws=8,[1", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --set num_ptws='[1': ")
    assert not out.exists()


def test_yaml_syntax_error_in_a_file_is_a_config_error(tmp_path, capsys):
    p = tmp_path / "bad.yaml"
    p.write_text("mmu:\n  num_ptws: [1\n")
    with pytest.raises(cfgmod.ConfigError, match=str(p)):
        cfgmod.load_config(str(p))
    assert cli.main(["validate", "--config", str(p)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {p}: ")


# Imported where they are used: NumPy when a gather trace is drawn, PyYAML
# when a file, env or --set value is read or a config dumped, hashlib when
# a seeded stream is drawn, the process pool when a sweep has workers.
# Records are built without `dataclasses`, which would load `inspect`.
DEFERRED = ("numpy", "yaml", "hashlib", "_hashlib", "concurrent.futures",
            "multiprocessing", "dataclasses", "inspect")


def test_start_up_leaves_deferred_modules_unloaded():
    code = ("import sys, npusim.cli, npusim.harness, npusim.config as c; "
            "assert c.validate(c.load_config()) == []; "
            f"print(sorted(m for m in {DEFERRED!r} if m in sys.modules))")
    env = {k: v for k, v in os.environ.items() if not k.startswith(cfgmod.ENV_PREFIX)}
    env["PYTHONPATH"] = str(Path(npusim.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("key", ["workload.zipf_s", "energy.pj_walk_dram",
                                 "energy.pj_prmb", "energy.pj_tlb", "energy.pj_tpr"])
def test_nan_rejected(key):
    cfg = cfgmod.load_config(None)
    cfgmod.set_by_path(cfg, key, math.nan)
    assert any(e.startswith(key) for e in cfgmod.validate(cfg))


@pytest.mark.parametrize("kwargs", [{"walk_cycles_per_level": -5},
                                    {"cache_entries": 0},
                                    {"num_ptws": True},
                                    {"page_size": "1g"}])
def test_records_check_direct_construction(kwargs):
    with pytest.raises(ValueError):
        MmuConfig(**kwargs)


HUGE_SPM = ("  spm_activation_bytes: 100000000000000\n"
            "  spm_weight_bytes: 100000000000000\n")


@pytest.mark.parametrize("text, error", [
    ("workload:\n  kind: embedding\n  rows: 1\n  lookups_per_sample: 2\n",
     "workload: WorkloadConfig: rows (1) must be >= lookups_per_sample (2)"),
    ("workload:\n  kind: embedding\n  batch_samples: 2\n  num_npus: 4\n",
     "workload: WorkloadConfig: batch_samples (2) must be >= num_npus (4)"),
    ("npu:\n  spm_activation_bytes: 1\n",
     "npu: layer toy-gemm: one IA row set exceeds half the SPM"),
    ("npu:\n  spm_weight_bytes: 1\n",
     "npu: layer toy-gemm: W tile cannot fit half the SPM"),
    ("npu:\n  element_bytes: 1000000000\nworkload:\n  suite: cnn\n",
     "npu: segment conv-a-ia: exceeds 48-bit address space"),
    # without the check, `run` would linearize terabyte spans before mapping
    ("npu:\n  element_bytes: 1000000000\n" + HUGE_SPM,
     "npu: segments toy-gemm-ia and toy-gemm-w overlap"),
    # tables sit 1 TB apart, so a 2 TB table runs into the next one
    ("workload:\n  kind: embedding\n  rows: 8589934592\n  tables: 2\n",
     "workload: segments emb0 and emb1 overlap"),
    ("workload:\n  kind: embedding\n  tables: 300\n",
     "workload: segment emb255: exceeds 48-bit address space"),
    # baseline_copy maps no table, but its trace still draws row indices
    ("workload:\n  kind: embedding\n  strategy: baseline_copy\n"
     "  rows: 36893488147419103232\n",
     "workload: WorkloadConfig: rows (36893488147419103232) must be <= 2**63"),
    # a Zipf draw holds one float64 per row
    ("workload:\n  kind: embedding\n  strategy: baseline_copy\n"
     "  distribution: zipf\n  rows: 4611686018427387904\n",
     "workload: WorkloadConfig: rows (4611686018427387904) must be <= 2**24 "
     "under distribution zipf"),
], ids=["rows-below-lookups", "samples-below-npus", "ia-spm-too-small",
        "w-spm-too-small", "segment-past-48-bits", "segments-overlap",
        "tables-overlap", "table-past-48-bits", "rows-past-int64",
        "zipf-rows-past-cap"])
def test_validate_rejects_what_run_rejects(tmp_path, capsys, text, error):
    # each key passes its own check; only the record or the layers built
    # from them fail
    p = tmp_path / "c.yaml"
    p.write_text(text)
    assert cli.main(["validate", "--config", str(p)]) == 1
    assert f"error: {error}" in capsys.readouterr().err
    assert cli.main(["run", "--config", str(p)]) == 1
    assert f"error: {error}" in capsys.readouterr().err


def test_baseline_copy_alone_maps_no_tables(tmp_path, capsys):
    # tables past the 48-bit address space, which no strategy but
    # baseline_copy could map
    p = tmp_path / "c.yaml"
    p.write_text("workload:\n  kind: embedding\n  strategy: baseline_copy\n"
                 "  tables: 300\n  batch_samples: 8\n")
    assert cli.main(["validate", "--config", str(p)]) == 0
    assert cli.main(["run", "--config", str(p)]) == 0
    assert "baseline_copy" in capsys.readouterr().out


def test_parse_keeps_the_records_it_checks():
    parsed = cfgmod.parse(cfgmod.load_config())
    assert parsed.config_id == "default"
    assert (parsed.seeds, parsed.npu, parsed.mmu, parsed.memory, parsed.links,
            parsed.workload, parsed.energy) == (
        cfgmod.Seeds(), NpuConfig(), MmuConfig(), DramConfig(), LinksConfig(),
        WorkloadConfig(), EnergyTable())
    assert parsed.layers == tuple(dense_suite("toy", "b01", 1))
    embedding = cfgmod.load_config()
    cfgmod.set_by_path(embedding, "workload.kind", "embedding")
    assert cfgmod.parse(embedding).layers == ()


@pytest.mark.parametrize("text", [
    "mmu:\n  num_ptws: 0\n  mode: psychic\nconfig_id: 7\n",
    "workload:\n  kind: embedding\n  rows: 1\n  lookups_per_sample: 2\n",
    "npu:\n  spm_weight_bytes: 1\n",
], ids=["bad-keys", "record-check", "layer-fit"])
def test_parse_refuses_with_the_errors_validate_lists(tmp_path, text):
    p = tmp_path / "c.yaml"
    p.write_text(text)
    doc = cfgmod.load_config(str(p))
    with pytest.raises(cfgmod.ConfigError) as refused:
        cfgmod.parse(doc)
    assert refused.value.errors == cfgmod.validate(doc) != []


@pytest.mark.parametrize("kind", ["dense", "embedding"])
def test_a_run_builds_each_section_record_once(monkeypatch, kind):
    built = []
    post_init = Record.__post_init__

    def counting(self):
        built.append(type(self).__name__)
        post_init(self)

    monkeypatch.setattr(Record, "__post_init__", counting)
    cfg = cfgmod.load_config()
    cfgmod.set_by_path(cfg, "workload.kind", kind)
    assert harness.run_single(cfg)
    assert sorted(built) == sorted(r.__name__ for r in cfgmod.SECTIONS.values())


def test_documented_example_matches_defaults():
    example = cfgmod.load_config(str(ROOT / "configs" / "default.yaml"))
    defaults = copy.deepcopy(cfgmod.DEFAULT_CONFIG)
    example.pop("config_id")
    defaults.pop("config_id")
    assert example == defaults


@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.yaml")),
                         ids=lambda p: p.name)
def test_shipped_configs_validate(path):
    assert cfgmod.validate(cfgmod.load_config(str(path))) == []


# -- every knob acts ----------------------------------------------------------

EMB = {"workload.kind": "embedding", "workload.rows": 4096,
       "workload.batch_samples": 64}
# Eight toy tiles that re-fetch the same IA and W pages.
TILED = {"npu.spm_weight_bytes": 1024}

# leaf -> (context overrides, a value that differs from the default)
KNOBS = {
    "seeds.master": (EMB, 1),
    "npu.array_dim": ({}, 64),
    "npu.spm_activation_bytes": ({}, 1024),
    "npu.spm_weight_bytes": ({}, 1024),
    "npu.dma_txn_bytes": ({}, 128),
    "npu.element_bytes": ({}, 2),
    "npu.reuse_last_translation": ({}, True),
    "npu.mirror_write_traffic": ({}, True),
    "mmu.mode": ({}, "oracle"),
    "mmu.tlb_entries": (TILED, 1),
    "mmu.tlb_hit_latency": ({}, 50),
    "mmu.num_ptws": ({}, 1),
    "mmu.prmb_slots": ({}, 4),
    "mmu.walk_cycles_per_level": ({}, 50),
    "mmu.translation_cache": ({}, "tpr"),
    "mmu.cache_entries": ({**TILED, "mmu.tlb_entries": 1,
                           "mmu.translation_cache": "uptc"}, 8),
    "mmu.charge_walk_bandwidth": ({"memory.bandwidth_bytes_per_cycle": 1}, False),
    "mmu.page_size": ({}, "2m"),
    "memory.bandwidth_bytes_per_cycle": ({}, 1),
    "memory.access_latency": ({}, 10),
    "links.pcie_bandwidth": (EMB, 1),
    "links.nvlink_bandwidth": (EMB, 1),
    "links.numa_latency": (EMB, 1),
    "workload.kind": ({"workload.rows": 4096, "workload.batch_samples": 64},
                      "embedding"),
    "workload.suite": ({"npu.dma_txn_bytes": 65536}, "burst"),
    "workload.batch": ({}, "b04"),
    "workload.strategy": (EMB, "numa_fast"),
    "workload.num_npus": (EMB, 2),
    "workload.tables": (EMB, 2),
    "workload.rows": (EMB, 64),
    "workload.embedding_bytes": (EMB, 128),
    "workload.batch_samples": (EMB, 32),
    "workload.distribution": (EMB, "zipf"),
    "workload.zipf_s": ({**EMB, "workload.distribution": "zipf"}, 2.0),
    "workload.lookups_per_sample": (EMB, 2),
    "energy.pj_walk_dram": ({}, 50.0),
    "energy.pj_prmb": ({"mmu.prmb_slots": 4}, 1.0),
    "energy.pj_tlb": ({}, 1.6),
    "energy.pj_tpr": ({"mmu.translation_cache": "tpr"}, 0.2),
}

# Columns that name a run rather than report a result.
LABELS = ("csv_schema", "config_id", "seed", "workload", "mode")

LEAVES = [f"{section}.{key}" for section, sub in cfgmod.DEFAULT_CONFIG.items()
          if isinstance(sub, dict) for key in sub]


def results(overrides):
    cfg = cfgmod.load_config(None)
    for key, value in overrides.items():
        cfgmod.set_by_path(cfg, key, value)
    return [{k: v for k, v in row.items() if k not in LABELS}
            for row in harness.run_single(cfg)]


@pytest.mark.parametrize("leaf", LEAVES)
def test_every_knob_acts(leaf):
    assert leaf in KNOBS, f"add {leaf} to KNOBS with a context in which it acts"
    context, value = KNOBS[leaf]
    assert results(context) != results({**context, leaf: value})
