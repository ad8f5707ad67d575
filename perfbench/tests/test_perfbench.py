"""Tests for the benchmark's own code: span accounting, wrapper restore,
output checks, and the metric catalogue in BENCHMARK.json.

    python3 -m pytest perfbench/tests
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, ns):
        self.now += ns


def _fake_package(clock):
    """Two modules sharing one function object, plus a class method."""
    lib = types.ModuleType("fakepkg.lib")
    alias = types.ModuleType("fakepkg.alias")

    def inner(x):
        clock.advance(5)
        return x

    def outer(x):
        clock.advance(10)
        lib.inner(x)
        clock.advance(3)
        return x

    class Table:
        def lookup(self, rows):
            clock.advance(7)
            return rows

    lib.inner, lib.outer, lib.Table = inner, outer, Table
    alias.outer = outer              # the same object bound a second time
    return lib, alias


def test_self_time_of_nested_calls():
    clock = FakeClock()
    lib, alias = _fake_package(clock)
    tr = tracer.Tracer(clock=clock)
    targets = [("lib.outer", lib, "outer"), ("lib.inner", lib, "inner"),
               ("lib.Table.lookup", lib.Table, "lookup")]
    with tr.installed(targets, [lib, alias]):
        alias.outer([1, 2, 3])       # reached through the second binding
        lib.Table().lookup(np.zeros(4))
    by_name = {s["name"]: s for s in tr.spans}
    assert by_name["lib.inner"]["parent"] == by_name["lib.outer"]["id"]
    agg = tracer.aggregate(tr.spans)
    assert agg["lib.outer"] == {"calls": 1, "rows": 0, "self_ns": 13, "total_ns": 18}
    assert agg["lib.inner"]["self_ns"] == 5
    assert agg["lib.Table.lookup"] == {"calls": 1, "rows": 4, "self_ns": 7,
                                       "total_ns": 7}
    assert tracer.accounting_error(tr.spans, {"lib.outer"}) == 0.0


def test_accounting_error_flags_overlapping_children():
    spans = [{"id": 0, "name": "engine", "parent": None, "rows": 0, "start": 0, "end": 100},
             {"id": 1, "name": "a", "parent": 0, "rows": 0, "start": 10, "end": 60},
             {"id": 2, "name": "b", "parent": 0, "rows": 0, "start": 40, "end": 90}]
    assert tracer.self_times(spans)[0] == 20        # 100 - union [10, 90]
    assert tracer.accounting_error(spans, {"engine"}) == pytest.approx(0.2)


def test_wrappers_restored_even_when_the_run_raises():
    clock = FakeClock()
    lib, alias = _fake_package(clock)
    originals = (lib.outer, lib.inner, lib.Table.__dict__["lookup"])
    tr = tracer.Tracer(clock=clock)
    targets = [("lib.outer", lib, "outer"), ("lib.inner", lib, "inner"),
               ("lib.Table.lookup", lib.Table, "lookup")]
    with pytest.raises(RuntimeError):
        with tr.installed(targets, [lib, alias]):
            assert tracer.leftover_wrappers([lib, alias])
            raise RuntimeError("engine failed")
    assert (lib.outer, lib.inner, lib.Table.__dict__["lookup"]) == originals
    assert alias.outer is originals[0]
    assert tracer.leftover_wrappers([lib, alias]) == []


def _ser_csv(path, errors=(5000, 120), trials=1000000):
    rows = ["snr_db,ser,errors,trials"]
    for snr, e in zip((10, 11), errors):
        rows.append(f"{snr},{e / trials:.10e},{e},{trials}")
    path.write_text("\n".join(rows) + "\n")


def test_digest_check_rejects_a_one_byte_change(tmp_path):
    csv_path = tmp_path / "ser.csv"
    _ser_csv(csv_path)
    digests = {"ser-apsk16-m2": {"5": checks.sha256(csv_path)}}
    args = ("ser-apsk16-m2", 5, "ser", 2, 1000000, [0.01, 0.001])
    assert checks.check_csv(csv_path, *args, digests=digests) == []
    text = csv_path.read_text()
    altered = text.replace("5.0000000000e-03", "5.0000000001e-03")
    assert sum(a != b for a, b in zip(text, altered)) == 1
    csv_path.write_text(altered)
    problems = checks.check_csv(csv_path, *args, digests=digests)
    assert len(problems) == 1 and "digest" in problems[0]


def test_invariants_apply_without_a_digest(tmp_path):
    csv_path = tmp_path / "ser.csv"
    _ser_csv(csv_path)
    # bound below the SER of a row with >= 100 errors
    problems = checks.check_csv(csv_path, "ser-apsk16-m2", 99, "ser", 2,
                                1000000, [0.01, 1e-5], digests={})
    assert len(problems) == 1 and "union bound" in problems[0]
    assert checks.check_csv(csv_path, "ser-apsk16-m2", 99, "ser", 2, 999,
                            [], digests={})
    rate_csv = tmp_path / "rate.csv"
    rate_csv.write_text("snr_db,avg_bits,no_tx_fraction\n0,1.0,0.5\n1,0.9,0.5\n")
    assert checks.check_csv(rate_csv, "rate-apsk-m2", 99, "rate", 2, 1000,
                            digests={}) == ["avg_bits decreases with SNR"]


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    as_rows = lambda entries: [(e["name"], e["unit"], e["better"]) for e in entries]
    assert as_rows(spec["end_to_end"]) == run.end_to_end_spec()
    assert as_rows(spec["per_layer"]) == run.per_layer_spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
