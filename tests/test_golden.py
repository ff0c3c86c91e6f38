"""Golden CSVs: the simulator's output for a small config matrix, byte for byte.

A change that alters any of these files changes the simulator's results and
must say so. Regenerate only for an intended semantic change:

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest
import yaml

from npusim import config as cfgmod
from npusim import harness

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
MATRIX["embedding-all"] = {"workload.kind": "embedding", "workload.strategy": "all"}
MATRIX["embedding-all-oracle"] = {**MATRIX["embedding-all"], "mmu.mode": "oracle"}


def golden_csv(name: str) -> str:
    cfg = cfgmod.load_config(None)
    cfg["config_id"] = name
    for key, value in MATRIX[name].items():
        cfgmod.set_by_path(cfg, key, value)
    return harness.rows_to_csv(harness.run_single(cfg))


@pytest.mark.parametrize("name", sorted(MATRIX))
def test_output_matches_golden(name):
    assert golden_csv(name) == (GOLDEN / f"{name}.csv").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(MATRIX):
        (GOLDEN / f"{name}.csv").write_text(golden_csv(name))
        print(f"wrote {GOLDEN / name}.csv")
