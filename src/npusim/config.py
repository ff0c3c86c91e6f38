"""Config schema, validation, env overrides, and seed fan-out.

Configs are hierarchical YAML documents with a fixed section set (npu, mmu,
memory, links, workload, energy, seeds) and an explicit schema_version.
User files are deep-merged over the shipped defaults, then environment
variables with the ``NPUSIM_`` prefix override individual keys
(``NPUSIM_MMU__NUM_PTWS=16`` maps to ``mmu.num_ptws``; values are parsed
as YAML scalars).

One master seed fans out to per-generator sub-seeds via
``seed_for(master, tag)`` (SHA-256 of "master:tag", low 63 bits), so adding
a consumer never perturbs the streams of existing ones.
"""

from __future__ import annotations

import copy
import hashlib
import os
from typing import Any, Dict, List, Optional

import yaml

from .address_space import PageSize
from .energy import EnergyTable
from .memory import DramConfig, LinkConfig
from .mmu import MmuConfig
from .npu import MB, NpuConfig

SCHEMA_VERSION = 1

DEFAULT_CONFIG: Dict[str, Any] = {
    "schema_version": SCHEMA_VERSION,
    "config_id": "default",
    "seeds": {"master": 0},
    "npu": {
        "array_dim": 128,
        "spm_activation_bytes": 15 * MB,
        "spm_weight_bytes": 10 * MB,
        "dma_txn_bytes": 64,
        "element_bytes": 1,
        "reuse_last_translation": False,
        "mirror_write_traffic": False,
    },
    "mmu": {
        "mode": "modeled",            # modeled | oracle
        "tlb_entries": 2048,
        "tlb_hit_latency": 5,
        "num_ptws": 8,
        "prmb_slots": 0,
        "walk_cycles_per_level": 100,
        "translation_cache": "none",  # none | tpr | tpc | uptc
        "cache_entries": 1,
        "charge_walk_bandwidth": True,
        "page_size": "4k",            # 4k | 2m
    },
    "memory": {
        "channels": 8,
        "bandwidth_bytes_per_cycle": 600,
        "access_latency": 100,
    },
    "links": {
        "pcie_bandwidth": 16,
        "nvlink_bandwidth": 160,
        "numa_latency": 150,
    },
    "workload": {
        "kind": "dense",              # dense | embedding
        "suite": "toy",
        "batch": "b01",
        # embedding-only knobs
        "strategy": "all",            # all | baseline_copy | numa_fast | numa_slow
                                      # | demand_4k | demand_2m
        "num_npus": 4,
        "tables": 4,
        "rows": 65536,
        "embedding_bytes": 256,
        "batch_samples": 256,
        "distribution": "uniform",    # uniform | zipf
        "zipf_s": 1.0,
        "lookups_per_sample": 1,
    },
    "energy": {
        "pj_walk_dram": 100.0,
        "pj_prmb": 0.5,
        "pj_tlb": 0.8,
        "pj_tpr": 0.1,
    },
}

ENV_PREFIX = "NPUSIM_"


class ConfigError(Exception):
    def __init__(self, errors: List[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


def _deep_merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value, f"{path}{key}.")
        else:
            out[key] = value
    return out


def load_config(path: Optional[str] = None) -> Dict[str, Any]:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        with open(path) as fh:
            user = yaml.safe_load(fh) or {}
        if not isinstance(user, dict):
            raise ConfigError([f"{path}: top level must be a mapping"])
        cfg = _deep_merge(cfg, user)
    return cfg


def apply_env_overrides(
    cfg: Dict[str, Any], environ: Optional[Dict[str, str]] = None
) -> Dict[str, Any]:
    cfg = copy.deepcopy(cfg)
    if environ is None:
        environ = dict(os.environ)
    for name, raw in sorted(environ.items()):
        if not name.startswith(ENV_PREFIX):
            continue
        key = name[len(ENV_PREFIX):].lower().replace("__", ".")
        set_by_path(cfg, key, yaml.safe_load(raw))
    return cfg


def resolve_key(cfg: Dict[str, Any], key: str) -> str:
    """Expand a bare leaf name (e.g. "num_ptws") to its dotted path."""
    if "." in key:
        return key
    matches = [f"{section}.{leaf}"
               for section, sub in cfg.items() if isinstance(sub, dict)
               for leaf in sub if leaf == key]
    if key in cfg and not isinstance(cfg[key], dict):
        matches.append(key)
    if len(matches) != 1:
        raise ConfigError([f"sweep key {key!r}: "
                           + ("not found" if not matches else f"ambiguous {matches}")])
    return matches[0]


def set_by_path(cfg: Dict[str, Any], key: str, value: Any) -> None:
    parts = resolve_key(cfg, key).split(".")
    node = cfg
    for p in parts[:-1]:
        if not isinstance(node.get(p), dict):
            raise ConfigError([f"unknown config section {p!r} in {key!r}"])
        node = node[p]
    if parts[-1] not in node:
        raise ConfigError([f"unknown config key {key!r}"])
    node[parts[-1]] = value


def get_by_path(cfg: Dict[str, Any], key: str) -> Any:
    node = cfg
    for p in resolve_key(cfg, key).split("."):
        node = node[p]
    return node


_CHOICES = {
    "mmu.mode": ("modeled", "oracle"),
    "mmu.translation_cache": ("none", "tpr", "tpc", "uptc"),
    "mmu.page_size": ("4k", "2m"),
    "workload.kind": ("dense", "embedding"),
    "workload.distribution": ("uniform", "zipf"),
    "workload.batch": ("b01", "b04", "b08"),
    "workload.strategy": ("all", "baseline_copy", "numa_fast", "numa_slow",
                          "demand_4k", "demand_2m"),
}

_POSITIVE_INTS = [
    "npu.array_dim", "npu.spm_activation_bytes", "npu.spm_weight_bytes",
    "npu.dma_txn_bytes", "npu.element_bytes",
    "mmu.tlb_entries", "mmu.num_ptws", "mmu.walk_cycles_per_level",
    "mmu.cache_entries",
    "memory.channels", "memory.bandwidth_bytes_per_cycle",
    "links.pcie_bandwidth", "links.nvlink_bandwidth",
    "workload.num_npus", "workload.tables", "workload.rows",
    "workload.embedding_bytes", "workload.batch_samples",
    "workload.lookups_per_sample",
]

_NON_NEGATIVE_INTS = [
    "mmu.prmb_slots", "mmu.tlb_hit_latency",
    "memory.access_latency", "links.numa_latency", "seeds.master",
]

_BOOLS = [
    "npu.reuse_last_translation", "npu.mirror_write_traffic",
    "mmu.charge_walk_bandwidth",
]


def validate(cfg: Dict[str, Any]) -> List[str]:
    """Return a list of "key.path: problem" strings; empty means valid."""
    errors: List[str] = []

    def lookup(path: str):
        node = cfg
        for p in path.split("."):
            if not isinstance(node, dict) or p not in node:
                errors.append(f"{path}: missing")
                return None
            node = node[p]
        return node

    if cfg.get("schema_version") != SCHEMA_VERSION:
        errors.append(f"schema_version: expected {SCHEMA_VERSION}, "
                      f"got {cfg.get('schema_version')!r}")
    for path, choices in _CHOICES.items():
        v = lookup(path)
        if v is not None and v not in choices:
            errors.append(f"{path}: {v!r} not in {choices}")
    for path in _POSITIVE_INTS:
        v = lookup(path)
        if v is not None and (not isinstance(v, int) or isinstance(v, bool) or v < 1):
            errors.append(f"{path}: must be a positive integer, got {v!r}")
    for path in _NON_NEGATIVE_INTS:
        v = lookup(path)
        if v is not None and (not isinstance(v, int) or isinstance(v, bool) or v < 0):
            errors.append(f"{path}: must be a non-negative integer, got {v!r}")
    for path in _BOOLS:
        v = lookup(path)
        if v is not None and not isinstance(v, bool):
            errors.append(f"{path}: must be true or false, got {v!r}")
    for path in ("energy.pj_walk_dram", "energy.pj_prmb", "energy.pj_tlb",
                 "energy.pj_tpr", "workload.zipf_s"):
        v = lookup(path)
        if v is not None and (not isinstance(v, (int, float)) or isinstance(v, bool)
                              or v <= 0):
            errors.append(f"{path}: must be a positive number, got {v!r}")
    known_suites = ("toy", "gemv-rnn", "cnn", "burst")
    suite = lookup("workload.suite")
    if suite is not None and suite not in known_suites:
        errors.append(f"workload.suite: {suite!r} not in {known_suites}")
    return errors


def dump_effective(cfg: Dict[str, Any]) -> str:
    """Canonical YAML of the effective config; reloads to an identical run."""
    return yaml.safe_dump(cfg, sort_keys=True)


def seed_for(master: int, tag: str) -> int:
    digest = hashlib.sha256(f"{master}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


# -- builders ---------------------------------------------------------------

def page_size_of(cfg: Dict[str, Any]) -> PageSize:
    return PageSize.SMALL_4K if cfg["mmu"]["page_size"] == "4k" else PageSize.LARGE_2M


def mmu_config(cfg: Dict[str, Any]) -> MmuConfig:
    m = cfg["mmu"]
    return MmuConfig(
        mode=m["mode"],
        tlb_entries=m["tlb_entries"],
        tlb_hit_latency=m["tlb_hit_latency"],
        num_walkers=m["num_ptws"],
        merge_slots=m["prmb_slots"],
        walk_cycles_per_level=m["walk_cycles_per_level"],
        translation_cache=m["translation_cache"],
        cache_entries=m["cache_entries"],
        charge_walk_bandwidth=m["charge_walk_bandwidth"],
    )


def npu_config(cfg: Dict[str, Any]) -> NpuConfig:
    n = cfg["npu"]
    return NpuConfig(
        array_dim=n["array_dim"],
        spm_activation_bytes=n["spm_activation_bytes"],
        spm_weight_bytes=n["spm_weight_bytes"],
        dma_txn_bytes=n["dma_txn_bytes"],
        element_bytes=n["element_bytes"],
        reuse_last_translation=n["reuse_last_translation"],
        mirror_write_traffic=n["mirror_write_traffic"],
    )


def dram_config(cfg: Dict[str, Any]) -> DramConfig:
    m = cfg["memory"]
    return DramConfig(
        channels=m["channels"],
        bandwidth_bytes_per_cycle=m["bandwidth_bytes_per_cycle"],
        access_latency=m["access_latency"],
    )


def link_config(cfg: Dict[str, Any], kind: str) -> LinkConfig:
    links = cfg["links"]
    bw = links["pcie_bandwidth"] if kind == "pcie" else links["nvlink_bandwidth"]
    return LinkConfig(kind=kind, bandwidth_bytes_per_cycle=bw,
                      numa_latency=links["numa_latency"])


def energy_table(cfg: Dict[str, Any]) -> EnergyTable:
    e = cfg["energy"]
    return EnergyTable(
        pj_per_walk_dram_access=e["pj_walk_dram"],
        pj_per_merge_buffer_access=e["pj_prmb"],
        pj_per_tlb_access=e["pj_tlb"],
        pj_per_path_register_access=e["pj_tpr"],
    )
