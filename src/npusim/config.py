"""Config documents: defaults, validation, env overrides, and seed fan-out.

Configs are hierarchical YAML documents with a fixed section set and an
explicit schema_version. Each section is the frozen record named in
``SECTIONS``; its fields are the section's keys, with their defaults,
types and ranges (see ``schema``). User files are deep-merged over the
defaults, then environment variables with the ``NPUSIM_`` prefix override
individual keys (``NPUSIM_MMU__NUM_PTWS=16`` maps to ``mmu.num_ptws``;
values are parsed as YAML scalars by ``parse_scalar``, as are the CLI's
``--set`` values). YAML that does not parse is a ``ConfigError`` naming its
file, variable or key.

PyYAML and hashlib are imported by the functions that use them, so a run
with no config file, env override or seeded stream loads neither.

One master seed fans out to per-generator sub-seeds via
``seed_for(master, tag)`` (SHA-256 of "master:tag", low 63 bits), so adding
a consumer never perturbs the streams of existing ones.
"""

from __future__ import annotations

import copy
import os
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional

from .address_space import check_disjoint
from .energy import EnergyTable
from .memory import DramConfig, LinksConfig
from .mmu import MmuConfig
from .npu import NpuConfig, layer_segments, tile_fit
from .schema import Record, check, knob
from .workloads import WorkloadConfig, dense_suite

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Header(Record):
    """The top-level scalars of a config document."""
    schema_version: int = knob(SCHEMA_VERSION, choices=(SCHEMA_VERSION,))
    config_id: str = "default"


@dataclass(frozen=True)
class Seeds(Record):
    master: int = knob(0, lo=0)


SECTIONS = {
    "seeds": Seeds,
    "npu": NpuConfig,
    "mmu": MmuConfig,
    "memory": DramConfig,
    "links": LinksConfig,
    "workload": WorkloadConfig,
    "energy": EnergyTable,
}

DEFAULT_CONFIG: Dict[str, Any] = {
    **asdict(Header()),
    **{name: asdict(record()) for name, record in SECTIONS.items()},
}

ENV_PREFIX = "NPUSIM_"


class ConfigError(ValueError):
    """A config that fails validation: a bad value, as a record's own
    checks would find it, so it is a ValueError too."""

    def __init__(self, errors: List[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def _yaml_error(where: str, exc: Exception) -> ConfigError:
    """One line: where the YAML came from, its problem and its place."""
    problem = getattr(exc, "problem", None) or str(exc)
    mark = getattr(exc, "problem_mark", None)
    if mark is not None:
        problem += f" (line {mark.line + 1}, column {mark.column + 1})"
    return ConfigError([f"{where}: {problem}"])


def parse_scalar(text: str, where: str) -> Any:
    """Parse an env or --set value as YAML; `where` names it in errors."""
    import yaml  # here, so start-up does not load it
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise _yaml_error(f"{where}={text!r}", exc) from None


def load_config(path: Optional[str] = None) -> Dict[str, Any]:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        import yaml  # here, so start-up does not load it
        with open(path) as fh:
            try:
                user = yaml.safe_load(fh) or {}
            except yaml.YAMLError as exc:
                raise _yaml_error(path, exc) from None
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
        set_by_path(cfg, key, parse_scalar(raw, name))
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
        raise ConfigError([f"config key {key!r}: "
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


def validate(cfg: Dict[str, Any]) -> List[str]:
    """Return a list of "key.path: problem" strings; empty means valid.

    A section whose keys all pass is also built as its record, so checks
    that span keys (`WorkloadConfig`'s) run as they do in a run. A valid
    dense workload's layers are built too, and each must fit the SPM and
    map disjoint segments, as its run checks.
    """
    errors = check(Header, {k: v for k, v in cfg.items() if k not in SECTIONS})
    for name, record in SECTIONS.items():
        section = cfg.get(name)
        if not isinstance(section, dict):
            errors.append(f"{name}: must be a mapping, got {section!r}")
            continue
        problems = check(record, section)
        if problems:
            errors += [f"{name}.{e}" for e in problems]
            continue
        try:
            record(**section)
        except ValueError as exc:
            errors.append(f"{name}: {exc}")
    if not errors and cfg["workload"]["kind"] == "dense":
        npu, wl = NpuConfig(**cfg["npu"]), WorkloadConfig(**cfg["workload"])
        try:
            for layer in dense_suite(wl.suite, npu.element_bytes)[wl.batch]:
                tile_fit(layer, npu)
                check_disjoint(layer_segments(layer, npu))
        except ValueError as exc:
            errors.append(f"npu: {exc}")
    return errors


def dump_effective(cfg: Dict[str, Any]) -> str:
    """Canonical YAML of the effective config; reloads to an identical run."""
    import yaml  # here, so start-up does not load it
    return yaml.safe_dump(cfg, sort_keys=True)


def seed_for(master: int, tag: str) -> int:
    import hashlib  # here, so a run that draws no seeded stream skips it
    digest = hashlib.sha256(f"{master}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1
