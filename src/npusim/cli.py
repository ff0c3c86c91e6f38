"""Command-line entry point: run / sweep / report / validate."""

from __future__ import annotations

import argparse
import sys
from typing import Any, List, Optional, Sequence, Tuple

import yaml

from . import config as cfgmod
from . import harness


def _parse_set(specs: Sequence[str]) -> List[Tuple[str, List[Any]]]:
    items = []
    for spec in specs:
        if "=" not in spec:
            raise ValueError(f"--set expects key=v1,v2,... got {spec!r}")
        key, _, values = spec.partition("=")
        items.append((key, [yaml.safe_load(v) for v in values.split(",")]))
    return items


def _load(args) -> dict:
    """Config file, then env overrides, then --seed: each checked by the
    schema when the run validates the config."""
    cfg = cfgmod.load_config(args.config)
    cfg = cfgmod.apply_env_overrides(cfg)
    if args.seed is not None:
        cfgmod.set_by_path(cfg, "seeds.master", args.seed)
    return cfg


def _emit(rows, out: Optional[str]) -> None:
    if out:
        with open(out, "w", newline="") as fh:
            harness.write_csv(rows, fh)
    else:
        harness.write_csv(rows, sys.stdout)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="npusim",
        description="Cycle-level NPU + address-translation simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="YAML config (merged over defaults)")
        p.add_argument("--out", help="output CSV path (default: stdout)")
        p.add_argument("--seed", type=int, help="override the master seed")

    common(sub.add_parser("run", help="run one configuration"))
    sw = sub.add_parser("sweep", help="cross-product parameter sweep")
    common(sw)
    sw.add_argument("--jobs", type=int, default=1,
                    help="worker processes (>= 1)")
    sw.add_argument("--set", action="append", default=[], metavar="KEY=V1,V2",
                    help="sweep axis, values parsed as YAML scalars; "
                         "repeatable, order defines nesting")

    rp = sub.add_parser("report", help="summarize result CSVs")
    rp.add_argument("csvs", nargs="+", help="CSV files from run/sweep")

    va = sub.add_parser("validate", help="check a config and print it resolved")
    va.add_argument("--config", help="YAML config (merged over defaults)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            rows = harness.run_single(_load(args))
            _emit(rows, args.out)
        elif args.command == "sweep":
            cfg = _load(args)
            rows = harness.sweep(cfg, _parse_set(args.set), jobs=args.jobs)
            _emit(rows, args.out)
        elif args.command == "report":
            sys.stdout.write(harness.report(args.csvs))
        elif args.command == "validate":
            cfg = cfgmod.apply_env_overrides(cfgmod.load_config(args.config))
            errors = cfgmod.validate(cfg)
            if errors:
                for err in errors:
                    print(f"error: {err}", file=sys.stderr)
                return 1
            sys.stdout.write(cfgmod.dump_effective(cfg))
    except (ValueError, OSError, yaml.YAMLError) as exc:  # ConfigError too
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
