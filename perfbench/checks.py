"""Output checks for one CLI run of a benchmark workload.

A CSV passes when its SHA-256 equals the digest recorded in digests.json
for that workload and seed.  Every CSV, with or without a recorded digest,
must also satisfy invariants that hold for any seed: the expected row
count, the trials column equal to the trials asked for, the union bound
at or above the simulated SER wherever that SER rests on at least 100
errors, and average bits non-decreasing in SNR.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent / "digests.json"
MIN_ERRORS_FOR_BOUND = 100


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_digests() -> dict[str, dict[str, str]]:
    return json.loads(DIGESTS.read_text())


def check_csv(path, workload: str, seed: int, kind: str, rows: int,
              trials: int, union_bound=(), digests=None) -> list[str]:
    """Problems found in one output CSV; an empty list means it passed.

    kind is "ser" or "rate"; union_bound is the engine's bound column (empty
    when the scheme has none).
    """
    digests = load_digests() if digests is None else digests
    problems = []
    expected = digests.get(workload, {}).get(str(seed))
    if expected is not None and sha256(path) != expected:
        problems.append(f"CSV digest differs from the one recorded for "
                        f"seed {seed} ({expected[:12]}...)")
    with open(path, newline="") as f:
        table = list(csv.DictReader(f))
    if len(table) != rows:
        problems.append(f"{len(table)} CSV rows, expected {rows}")
        return problems
    if kind == "ser":
        for i, row in enumerate(table):
            errors = int(row["errors"])
            if int(row["trials"]) != trials or not 0 <= errors <= trials:
                problems.append(f"row {i}: trials {row['trials']}, errors {errors}")
            if (union_bound and errors >= MIN_ERRORS_FOR_BOUND
                    and union_bound[i] < float(row["ser"])):
                problems.append(f"row {i}: union bound {union_bound[i]:.4g} "
                                f"below SER {row['ser']}")
    else:
        bits = [float(row["avg_bits"]) for row in table]
        if any(b < a for a, b in zip(bits, bits[1:])):
            problems.append("avg_bits decreases with SNR")
    return problems
