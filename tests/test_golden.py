"""Golden CSVs: the simulator's output for a small config matrix, byte for byte.

A change that alters any of these files changes the simulator's results and
must say so. Regenerate only for an intended semantic change:

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest
import yaml

from npusim import config as cfgmod
from npusim import harness, numa
from walk_reference import build_scattered

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
# the MMU keys configs/neummu.yaml sets over the defaults
NEUMMU = {f"mmu.{key}": value for key, value in
          yaml.safe_load((ROOT / "configs" / "neummu.yaml").read_text())["mmu"].items()}

POINTS = {
    "default": {},
    "ptw128-prmb32-tpr": NEUMMU,
    "prmb4-uptc8": {"mmu.prmb_slots": 4, "mmu.translation_cache": "uptc",
                    "mmu.cache_entries": 8},
    "prmb4-tpc8": {"mmu.prmb_slots": 4, "mmu.translation_cache": "tpc",
                   "mmu.cache_entries": 8},
    # DMA side: the reuse window, short 100 B chunk tails, mirrored write-back
    "reuse-mirror-txn100": {"npu.reuse_last_translation": True,
                            "npu.mirror_write_traffic": True,
                            "npu.dma_txn_bytes": 100},
    # 64 B chunks wider than one cycle's DRAM tokens, so DRAM backs up
    "dram40": {"memory.bandwidth_bytes_per_cycle": 40},
    "page2m": {"mmu.page_size": "2m"},
    "oracle": {"mmu.mode": "oracle"},
}

MATRIX = {
    f"{suite}-{point}": {"workload.suite": suite, **overrides}
    for suite in ("toy", "burst")
    for point, overrides in POINTS.items()
}
# the walker-bound GEMV layers, where most submits block
MATRIX["gemv-rnn-default"] = {"workload.suite": "gemv-rnn"}
MATRIX["embedding-all"] = {"workload.kind": "embedding", "workload.strategy": "all"}
MATRIX["embedding-all-oracle"] = {**MATRIX["embedding-all"], "mmu.mode": "oracle"}
# unified-cache walks that overlap, where the order of the cache fills counts
MATRIX["embedding-all-uptc8"] = {**MATRIX["embedding-all"],
                                 "mmu.translation_cache": "uptc",
                                 "mmu.cache_entries": 8}


def config_for(name: str, overrides: dict) -> dict:
    cfg = cfgmod.load_config(None)
    cfg["config_id"] = name
    for key, value in overrides.items():
        cfgmod.set_by_path(cfg, key, value)
    return cfg


def golden_csv(name: str) -> str:
    return harness.rows_to_csv(harness.run_single(config_for(name, MATRIX[name])))


@pytest.mark.parametrize("name", sorted(MATRIX))
def test_output_matches_golden(name):
    assert golden_csv(name) == (GOLDEN / f"{name}.csv").read_text()


# What a walk costs depends on the nodes it reads and on the translation
# caches, never on the frame it ends at: tables whose every page has a
# scattered frame give the same rows as tables of counted frames.
FRAME_POINTS = {name: MATRIX[name] for name in
                ("toy-default", "burst-prmb4-uptc8", "toy-prmb4-tpc8",
                 "embedding-all-uptc8")}


@pytest.mark.parametrize("name", sorted(FRAME_POINTS))
def test_rows_do_not_depend_on_frame_values(name, monkeypatch):
    cfg = config_for(name, FRAME_POINTS[name])
    counted = harness.run_single(cfg)
    built = []

    def scattered(segments, ps):
        built.append(ps)
        return build_scattered(segments, ps, seed=len(built))

    monkeypatch.setattr(harness, "build", scattered)
    monkeypatch.setattr(numa, "build", scattered)
    assert harness.run_single(cfg) == counted
    assert built


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(MATRIX):
        (GOLDEN / f"{name}.csv").write_text(golden_csv(name))
        print(f"wrote {GOLDEN / name}.csv")
