"""Correctness of a workload's CSV rows: expected output and invariants.

A row fails when its CSV line differs from the committed expected output
(where one applies), differs from the same row of the run's first
iteration, or breaks an invariant. The expected CSVs were made by the
simulator at the default seed. The model is not validated against
hardware, so they are regression references that pin current behaviour
(known modelling slips included), not accuracy references.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from npusim import config as cfgmod
from npusim import harness

from suite import Rows, Workload

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
DEFAULT_SEED = cfgmod.DEFAULT_CONFIG["seeds"]["master"]

# Bytes migrated per fault for each demand-paging strategy; others never fault.
PAGE_BYTES = {"demand_4k": 4096, "demand_2m": 2 * 1024 * 1024}


def expected_path(workload: Workload) -> Path:
    return EXPECTED_DIR / f"{workload.name}.csv"


def expected_lines(workload: Workload, seed: int) -> List[str]:
    """Expected CSV lines, header first, for `seed`.

    Dense rows do not depend on the seed apart from the ``seed`` column, so
    their reference holds for every seed. The embedding reference holds
    only at the default seed; at other seeds only its row count is used.
    """
    text = expected_path(workload).read_text()
    if workload.dense:
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        col = header.index("seed")
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for line in reader:
            line[col] = str(seed)
            writer.writerow(line)
        text = buf.getvalue()
    return text.splitlines()


def gathered_bytes(cfg: Dict[str, Any]) -> int:
    """Payload of NPU 0: its share of the batch, one lookup set per table."""
    wl = cfg["workload"]
    return ((wl["batch_samples"] // wl["num_npus"]) * wl["tables"]
            * wl["lookups_per_sample"] * wl["embedding_bytes"])


def invariant_failures(rows: Rows, cfg: Dict[str, Any]) -> List[Tuple[int, str]]:
    """(row index, reason) for every row that breaks an invariant."""
    out: List[Tuple[int, str]] = []
    payloads = {r["payload_bytes"] for r in rows if r["strategy"]}
    for i, r in enumerate(rows):
        if not r["strategy"]:
            if r["mode"] == "modeled" and r["total_cycles"] < r["oracle_cycles"]:
                out.append((i, "total_cycles below oracle_cycles"))
            continue
        if len(payloads) > 1:
            out.append((i, "strategies report different payload_bytes"))
        elif r["payload_bytes"] != gathered_bytes(cfg):
            out.append((i, "payload_bytes differs from the gathered bytes"))
        if r["migration_bytes"] != r["faults"] * PAGE_BYTES.get(r["strategy"], 0):
            out.append((i, "migration_bytes != faults x page bytes"))
    return out


def csv_lines(rows: Rows) -> List[str]:
    return harness.rows_to_csv(rows).splitlines()


def _line_failures(lines: List[str], ref: List[str], label: str,
                   bad: Dict[int, str]) -> None:
    header_ok = lines[:1] == ref[:1]
    for i in range(max(len(lines), len(ref)) - 1):
        got = lines[i + 1] if i + 1 < len(lines) else None
        want = ref[i + 1] if i + 1 < len(ref) else None
        if not header_ok or got != want:
            bad.setdefault(i, f"differs from {label}")


def check_rows(
    rows: Rows,
    cfg: Dict[str, Any],
    expected: List[str],
    compare_expected: bool,
    first: Optional[List[str]] = None,
) -> Tuple[int, Dict[int, str]]:
    """Check one iteration's rows.

    Returns (rows attempted, {row index: reason} for the failed rows). The
    expected row count always applies; its text only if `compare_expected`.
    `first` is the first iteration's CSV lines of the same run.
    """
    lines = csv_lines(rows)
    bad: Dict[int, str] = {}
    if compare_expected:
        _line_failures(lines, expected, "expected output", bad)
    n_expected = len(expected) - 1
    for i in range(min(len(rows), n_expected), max(len(rows), n_expected)):
        bad.setdefault(i, "row count differs from expected output")
    if first is not None:
        _line_failures(lines, first, "first iteration", bad)
    for i, reason in invariant_failures(rows, cfg):
        bad.setdefault(i, reason)
    return max(len(rows), n_expected), bad
