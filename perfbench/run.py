"""ceapsk benchmark: paper-scale CLI runs, timed end to end and per layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the repository root (or any copy of it holding src/ and this
directory).  With --trace 0, each workload's CLI command runs as fresh
single-threaded processes, one after another, for about --seconds seconds
(at least MIN_SAMPLES runs); the end-to-end metrics are medians over those
runs.  With --trace 1, every workload runs once untraced and once with
spans around each public layer function, then the layer microbenchmarks,
the engine decomposition and a two-thread run follow; the per-layer
metrics come from those.  Every CLI output is checked (see checks.py).
The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  See README.md for why each workload was chosen.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import layers
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
LAUNCH = HERE / "launch.py"
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 60
ACCOUNTING_TOLERANCE = 0.01


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]
    kind: str                  # "ser" or "rate": which CSV invariants apply
    trials: int
    rows: int                  # CSV rows = points per trial
    engine: str                # span name of the engine the command runs
    layers: tuple[str, ...]    # layer functions the engine calls


_SER_LAYERS = ("precoder.phases_for_targets", "precoder.reconstruct",
               "channel.annulus_arrays", "optimizer.params_at")

WORKLOADS = {w.name: w for w in (
    Workload("ser-apsk16-m2",
             ("ser", "--scheme", "proposed-optimal", "--m", "2",
              "--snr", "10:24:1", "--trials", "1e6"),
             "ser", 10**6, 15, "sim.run_fixed_rate_ser",
             _SER_LAYERS + ("optimizer.d_min_at", "constellation.qfunc",
                            "constellation.qam_family")),
    Workload("csit-apsk16-m4",
             ("ser", "--scheme", "proposed-optimal", "--m", "4",
              "--snr", "20", "--csit-sweep", "0:30:2", "--trials", "2e5"),
             "ser", 2 * 10**5, 17, "sim.run_csit_sweep",
             _SER_LAYERS + ("constellation.qam_family",)),
    Workload("rate-apsk-m2",
             ("rate", "--scheme", "variable-apsk", "--m", "2",
              "--snr", "0:30:1", "--trials", "1e6", "--pe", "1e-3"),
             "rate", 10**6, 31, "sim.run_variable_rate",
             ("channel.annulus_arrays", "optimizer.d_min_at")),
)}
THREADS2_WORKLOAD = "ser-apsk16-m2"

# functions timed per call only (no meaningful rows of work)
_CALLS_ONLY = ("constellation.qfunc", "constellation.qam_family")


def _throughput_name(fn: str) -> str:
    return "targets_per_s" if fn.startswith("precoder.") else "rows_per_s"


# ---------------------------------------------------------------------------
# Metric catalogue (BENCHMARK.json lists exactly these)


def end_to_end_spec() -> list[tuple[str, str, str]]:
    return [("wall_s", "s", "lower"),
            ("setup_s", "s", "lower"),
            ("trial_points_per_s", "1/s", "higher"),
            ("peak_rss_mb", "MB", "lower")]


def per_layer_spec() -> list[tuple[str, str, str]]:
    spec = []
    for w in WORKLOADS.values():
        p = w.name + "."
        spec.append((p + w.engine + ".self_s", "s", "lower"))
        for fn in w.layers:
            spec += [(p + fn + ".calls", "count", "lower"),
                     (p + fn + ".self_s", "s", "lower")]
            if fn not in _CALLS_ONLY:
                spec.append((p + fn + "." + _throughput_name(fn), "1/s", "higher"))
        spec += [(p + "optimizer.build_region_table.calls", "count", "lower"),
                 (p + "optimizer.build_region_table.self_s", "s", "lower"),
                 (p + "optimizer.build_region_table.total_s", "s", "lower"),
                 (p + "cli.load_or_build_table.self_s", "s", "lower"),
                 (p + "cli.import_s", "s", "lower"),
                 (p + "cli.parse_s", "s", "lower"),
                 (p + "cli.write_s", "s", "lower"),
                 (p + "rng.stream.calls", "count", "lower"),
                 (p + "trace.overhead_frac", "ratio", "lower")]
    for m in layers.ANTENNAS:
        spec += [(f"channel.sample_rayleigh.rows_per_s.m{m}", "1/s", "higher"),
                 (f"channel.annulus_arrays.rows_per_s.m{m}", "1/s", "higher"),
                 (f"precoder.phases_for_targets.targets_per_s.m{m}", "1/s", "higher"),
                 (f"precoder.reconstruct.targets_per_s.m{m}", "1/s", "higher")]
    spec += [(f"optimizer.build_region_table.time_s.n{n}", "s", "lower")
             for n in layers.BUILD_SIZES]
    for n in layers.LOOKUP_SIZES:
        spec += [(f"optimizer.params_at.rows_per_s.n{n}", "1/s", "higher"),
                 (f"optimizer.d_min_at.rows_per_s.n{n}", "1/s", "higher")]
    spec += [("sim.per_point_ns_per_trial", "ns", "lower"),
             ("sim.per_trial_ns", "ns", "lower"),
             ("sim.threads2_speedup", "ratio", "higher")]
    return spec


# ---------------------------------------------------------------------------
# One CLI process


@dataclass
class Sample:
    wall_s: float = 0.0
    setup_s: float = 0.0
    engine_s: float = 0.0
    rss_mb: float = 0.0
    csv_digest: str = ""
    timing: dict | None = None
    problems: list | None = None


def run_cli(w: Workload, seed: int, mode: str, threads: int, tag: str) -> Sample:
    """Spawn the workload's CLI command; time it and check its output."""
    work = RUNS / f"{w.name}-seed{seed}-{tag}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    timing_path = work / "timing.json"
    cmd = [sys.executable, str(LAUNCH), mode, str(timing_path), "--", *w.args,
           "--seed", str(seed), "--threads", str(threads),
           "--out-dir", str(work / "out")]
    sample = Sample(problems=[])
    with open(work / "stderr.txt", "wb") as err:
        start = time.monotonic_ns()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err,
                                cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        end = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    sample.wall_s = (end - start) / 1e9
    sample.rss_mb = usage.ru_maxrss / 1024.0
    if proc.returncode != 0 or not timing_path.exists():
        tail = (work / "stderr.txt").read_text(errors="replace")[-400:]
        sample.problems.append(f"exited {proc.returncode}: {tail}")
        return sample
    sample.timing = json.loads(timing_path.read_text())
    engines = [s for s in sample.timing["spans"] if s["name"] == w.engine]
    if len(engines) != 1:
        sample.problems.append(f"expected one {w.engine} span, got {len(engines)}")
        return sample
    sample.setup_s = (engines[0]["start"] - start) / 1e9
    sample.engine_s = (engines[0]["end"] - engines[0]["start"]) / 1e9
    if sample.timing["leftover_wrappers"]:
        sample.problems.append(
            f"wrappers not restored: {sample.timing['leftover_wrappers']}")
    csvs = sorted((work / "out").glob("*.csv"))
    if len(csvs) != 1:
        sample.problems.append(f"expected one CSV, found {len(csvs)}")
        return sample
    sample.csv_digest = checks.sha256(csvs[0])
    sample.problems += checks.check_csv(
        csvs[0], w.name, seed, w.kind, w.rows, w.trials,
        sample.timing["union_bound"])
    shutil.rmtree(work)
    return sample


# ---------------------------------------------------------------------------
# Modes


class Run:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, dict] = {}

    def record(self, sample: Sample, label: str) -> None:
        self.attempted += 1
        if sample.problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in sample.problems]

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}


def end_to_end(run: Run, w: Workload, seed: int, seconds: float,
               prefix: str) -> None:
    samples = []
    begin = time.monotonic()
    while True:
        samples.append(run_cli(w, seed, "engines", 1, "e2e"))
        elapsed = time.monotonic() - begin
        typical = statistics.median(s.wall_s for s in samples)
        if len(samples) >= MIN_SAMPLES and elapsed + typical > seconds:
            break
    reference = next((s.csv_digest for s in samples if not s.problems), None)
    for s in samples:
        if not s.problems and s.csv_digest != reference:
            s.problems.append("CSV differs from an identical run's")
        run.record(s, w.name)
    good = [s for s in samples if not s.problems]
    if not good:
        return
    n = len(good)
    values = {
        "wall_s": statistics.median(s.wall_s for s in good),
        "setup_s": statistics.median(s.setup_s for s in good),
        "trial_points_per_s": statistics.median(
            w.trials * w.rows / s.engine_s for s in good),
        "peak_rss_mb": statistics.median(s.rss_mb for s in good),
    }
    for name, unit, _ in end_to_end_spec():
        run.put(prefix + name, values[name], unit)
        print(f"{w.name:16s} {name:20s} {values[name]:14.6g} {unit:5s} "
              f"(median of {n})")
    print(f"{w.name:16s} {'failed_frac':20s} {(len(samples) - n) / len(samples):14.6g} "
          f"      ({len(samples) - n} of {len(samples)} runs)")


def traced_problems(plain: Sample, traced: Sample) -> list[str]:
    """Span accounting and output identity of a traced run."""
    problems = []
    worst = tracer.accounting_error(traced.timing["spans"], tracer.ENGINES)
    if worst > ACCOUNTING_TOLERANCE:
        problems.append(f"engine self + children off by {worst:.2%}")
    if traced.csv_digest != plain.csv_digest:
        problems.append("tracing changed the CSV")
    return problems


def traced_layers(run: Run, w: Workload, plain: Sample, traced: Sample) -> None:
    spans = traced.timing["spans"]
    agg = tracer.aggregate(spans)
    zero = {"calls": 0, "rows": 0, "self_ns": 0, "total_ns": 0}
    p = w.name + "."
    run.put(p + w.engine + ".self_s", agg[w.engine]["self_ns"] / 1e9, "s")
    for fn in w.layers:
        a = agg.get(fn, zero)
        run.put(p + fn + ".calls", a["calls"], "count")
        run.put(p + fn + ".self_s", a["self_ns"] / 1e9, "s")
        if fn not in _CALLS_ONLY:
            rate = a["rows"] / (a["self_ns"] / 1e9) if a["self_ns"] else 0.0
            run.put(p + fn + "." + _throughput_name(fn), rate, "1/s")
    build = agg.get("optimizer.build_region_table", zero)
    run.put(p + "optimizer.build_region_table.calls", build["calls"], "count")
    run.put(p + "optimizer.build_region_table.self_s", build["self_ns"] / 1e9, "s")
    run.put(p + "optimizer.build_region_table.total_s", build["total_ns"] / 1e9, "s")
    run.put(p + "cli.load_or_build_table.self_s",
            agg.get("cli.load_or_build_table", zero)["self_ns"] / 1e9, "s")
    imp = traced.timing["import_ns"]
    run.put(p + "cli.import_s", (imp[1] - imp[0]) / 1e9, "s")
    first = {}
    for s in spans:
        first.setdefault(s["name"], s)
    command = first.get("cli.cmd_ser") or first.get("cli.cmd_rate")
    run.put(p + "cli.parse_s",
            (command["start"] - first["cli.main"]["start"]) / 1e9, "s")
    write_ns = sum(agg.get(n, zero)["total_ns"] for n in
                   ("sim.SerCurve.write_csv", "sim.RateCurve.write_csv",
                    "cli.write_manifest"))
    run.put(p + "cli.write_s", write_ns / 1e9, "s")
    run.put(p + "rng.stream.calls", agg.get("rng.stream", zero)["calls"], "count")
    run.put(p + "trace.overhead_frac", traced.wall_s / plain.wall_s - 1.0, "ratio")


def per_layer(run: Run, seed: int) -> None:
    plain = {}
    for w in WORKLOADS.values():
        plain[w.name] = run_cli(w, seed, "engines", 1, "plain")
        traced = run_cli(w, seed, "layers", 1, "traced")
        if not (plain[w.name].problems or traced.problems):
            traced.problems += traced_problems(plain[w.name], traced)
        run.record(plain[w.name], w.name)
        run.record(traced, w.name + " traced")
        if not (plain[w.name].problems or traced.problems):
            traced_layers(run, w, plain[w.name], traced)
    w = WORKLOADS[THREADS2_WORKLOAD]
    two = run_cli(w, seed, "engines", 2, "threads2")
    one = plain[w.name]
    if not (two.problems or one.problems):
        if two.csv_digest != one.csv_digest:
            two.problems.append("--threads 2 changed the CSV")
        else:
            run.put("sim.threads2_speedup", one.engine_s / two.engine_s, "ratio")
    run.record(two, w.name + " --threads 2")

    sys.path.insert(0, str(SRC))
    import ceapsk
    run.attempted += 1
    try:
        for name, (value, unit) in {**layers.layer_microbenchmarks(ceapsk, seed),
                                    **layers.engine_decomposition(ceapsk, seed)}.items():
            run.put(name, value, unit)
    except layers.CheckFailed as e:
        run.failed += 1
        run.problems.append(f"layer microbenchmarks: {e}")
    for name, metric in run.metrics.items():
        print(f"{name:64s} {metric['value']:14.6g} {metric['unit']}")


# ---------------------------------------------------------------------------
# Provenance


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.exists() else None


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (d / "level").read_text().strip()
            kind = (d / "type").read_text().strip()
            sizes[f"L{level}{kind[0].lower()}"] = (d / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def provenance(seed: int) -> dict:
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode())
        src_hash.update(path.read_bytes())
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"git_commit": _git_commit(), "src_sha256": src_hash.hexdigest(),
            "seed": seed, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), **versions,
            "cpu_caches": _cache_sizes()}


# ---------------------------------------------------------------------------


def prepare() -> None:
    """Byte-compile the package and warm the import path once."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "ceapsk")],
                   check=True, stdout=subprocess.DEVNULL)
    subprocess.run([sys.executable, "-c",
                    f"import sys; sys.path.insert(0, {str(SRC)!r}); import ceapsk.cli"],
                   check=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ceapsk" / "cli.py").is_file():
        print(f"error: no ceapsk sources under {SRC}", file=sys.stderr)
        return 2
    prepare()
    print("provenance " + json.dumps(provenance(args.seed)))
    run = Run()
    if args.trace:
        per_layer(run, args.seed)
    else:
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        for name in names:
            prefix = name + "." if len(names) > 1 else ""
            end_to_end(run, WORKLOADS[name], args.seed, args.seconds, prefix)
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": run.failed == 0,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": run.metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
