"""Config documents: defaults, validation, env overrides, and seed fan-out.

Configs are hierarchical YAML documents with a fixed section set and an
explicit schema_version. ``parse`` builds a document into one ``Config``:
each section as the frozen record that types its field there (its fields
are the section's keys, with their defaults, types and ranges; see
``schema``), plus the dense suite's layers. A run uses that record, and
``validate`` lists ``parse``'s errors. User files are deep-merged over the
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

import copy
import os
from typing import Any, Dict, List, Optional, Tuple

from .address_space import check_disjoint
from .energy import EnergyTable
from .memory import DramConfig, LinksConfig
from .mmu import MmuConfig
from .npu import LayerConfig, NpuConfig, layer_segments, tile_fit
from .schema import Record, Struct, check, knob
from .workloads import WorkloadConfig, dense_suite, embedding_segments

SCHEMA_VERSION = 1


class Header(Record):
    """The top-level scalars of a config document."""
    schema_version: int = knob(SCHEMA_VERSION, choices=(SCHEMA_VERSION,))
    config_id: str = "default"


class Seeds(Record):
    master: int = knob(0, lo=0)


class Config(Struct):
    """A parsed document: its id, section records and dense layers."""
    config_id: str
    seeds: Seeds
    npu: NpuConfig
    mmu: MmuConfig
    memory: DramConfig
    links: LinksConfig
    workload: WorkloadConfig
    energy: EnergyTable
    layers: Tuple[LayerConfig, ...]


# `Config`'s annotations are classes: this module does not defer them
SECTIONS = {name: kind for name, kind in Config.__annotations__.items()
            if isinstance(kind, type) and issubclass(kind, Record)}

DEFAULT_CONFIG: Dict[str, Any] = {
    **vars(Header()),
    **{name: vars(record()) for name, record in SECTIONS.items()},
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


def parse(cfg: Dict[str, Any]) -> Config:
    """Build the document's records, or raise ConfigError listing every
    "key.path: problem" found.

    A section whose keys all pass is built as its record, so checks that
    span keys (`WorkloadConfig`'s) run too. Once every section is built,
    a dense workload's layers must fit the SPM, and a layer's segments,
    or the embedding tables a strategy maps, must be disjoint.
    """
    errors = check(Header, {k: v for k, v in cfg.items() if k not in SECTIONS})
    records = {}
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
            records[name] = record(**section)
        except ValueError as exc:
            errors.append(f"{name}: {exc}")
    if errors:
        raise ConfigError(errors)
    npu, wl = records["npu"], records["workload"]
    layers: Tuple[LayerConfig, ...] = ()
    try:
        if wl.kind == "dense":
            layers = tuple(dense_suite(wl.suite, wl.batch, npu.element_bytes))
            for layer in layers:
                tile_fit(layer, npu)
                check_disjoint(layer_segments(layer, npu))
        elif wl.strategy != "baseline_copy":  # the one strategy that maps none
            check_disjoint(embedding_segments(wl))
    except ValueError as exc:
        where = "npu" if wl.kind == "dense" else "workload"
        raise ConfigError([f"{where}: {exc}"]) from None
    return Config(config_id=cfg["config_id"], layers=layers, **records)


def validate(cfg: Dict[str, Any]) -> List[str]:
    """`parse`'s errors as a list; empty means valid."""
    try:
        parse(cfg)
    except ConfigError as exc:
        return exc.errors
    return []


def dump_effective(cfg: Dict[str, Any]) -> str:
    """Canonical YAML of the effective config; reloads to an identical run."""
    import yaml  # here, so start-up does not load it
    return yaml.safe_dump(cfg, sort_keys=True)


def seed_for(master: int, tag: str) -> int:
    import hashlib  # here, so a run that draws no seeded stream skips it
    digest = hashlib.sha256(f"{master}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1
