"""Command-line frontend: design | table | ser | rate | cdf.

Every run writes its outputs plus a JSON manifest describing the exact
parameters and seed; re-running with the same parameters reproduces the
CSV outputs byte for byte regardless of --threads.

Exit codes: 0 success, 2 bad arguments, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .channel import ratio_cdf_m2, sample_rayleigh, annulus_arrays
from .constellation import apsk_points
from .optimizer import (TABLE_ALGO_VERSION, RegionTable, build_region_table,
                        build_suboptimal_table)
from .sim import (SCHEMES, SimConfig, run_csit_sweep, run_fixed_rate_ser,
                  run_variable_rate)

EXIT_BAD_ARGS = 2
EXIT_RUNTIME = 3

FIXED_RATE_SCHEMES = ("proposed-optimal", "proposed-suboptimal",
                      "fixed-qam16", "adaptive-qam-psk", "egt-qam16")
VARIABLE_RATE_SCHEMES = ("variable-apsk", "variable-qam")


def parse_range(text: str) -> tuple[float, ...]:
    """Parse lo:hi:step (dB) into an inclusive grid; a bare number is a
    single point."""
    parts = text.split(":")
    if len(parts) == 1:
        return (float(parts[0]),)
    if len(parts) != 3:
        raise ValueError(f"bad range {text!r}; expected lo:hi:step")
    lo, hi, step = (float(p) for p in parts)
    if step <= 0 or hi < lo:
        raise ValueError(f"bad range {text!r}")
    n = int(round((hi - lo) / step))
    return tuple(lo + i * step for i in range(n + 1))


def write_manifest(path: Path, command: str, params: dict, outputs: list,
                   started: float) -> None:
    manifest = {
        "command": command,
        "parameters": params,
        "seed": params.get("seed"),
        "tool_version": __version__,
        "started_unix": started,
        "finished_unix": time.time(),
        "outputs": [str(o) for o in outputs],
    }
    path.write_text(json.dumps(manifest, indent=2))


def table_cache_path(cache_dir: Path, n: int, grid_step: float) -> Path:
    return cache_dir / f"regions_n{n}_step{grid_step:g}_v{TABLE_ALGO_VERSION}.json"


def load_or_build_table(n: int, grid_step: float, cache_dir: Path) -> RegionTable:
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = table_cache_path(cache_dir, n, grid_step)
    if path.exists():
        return RegionTable.from_json(path.read_text())
    table = build_region_table(n, grid_step)
    path.write_text(table.to_json())
    return table


# ---------------------------------------------------------------------------
# Subcommands


def cmd_design(args) -> int:
    from .optimizer import solve_p2
    res = solve_p2(args.n, args.ratio)
    out = {
        "constellation": json.loads(res.constellation.to_json()),
        "d_min": res.d_min,
        "n2": res.n2,
        "omega2_over_pi": res.omega2 / np.pi,
        "rho2": res.rho2,
    }
    print(json.dumps(out, indent=2))
    return 0


def cmd_table(args) -> int:
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    table = load_or_build_table(args.n, args.grid_step, outdir / "cache")
    outputs = []
    base = outdir / f"table_n{args.n}"
    (base.with_suffix(".json")).write_text(table.to_json())
    table.write_csv(base.with_suffix(".csv"))
    outputs += [base.with_suffix(".json"), base.with_suffix(".csv")]
    if args.suboptimal:
        sub = build_suboptimal_table(table)
        sbase = outdir / f"table_n{args.n}_suboptimal"
        sbase.with_suffix(".json").write_text(sub.to_json())
        sub.write_csv(sbase.with_suffix(".csv"))
        outputs += [sbase.with_suffix(".json"), sbase.with_suffix(".csv")]
    write_manifest(outdir / f"table_n{args.n}.manifest.json", "table",
                   {"n": args.n, "grid_step": args.grid_step,
                    "suboptimal": args.suboptimal,
                    "out_dir": args.out_dir}, outputs, started)
    for o in outputs:
        print(f"wrote {o}")
    return 0


def _sim_config(args, scheme_group) -> SimConfig:
    if args.scheme not in scheme_group:
        raise ValueError(f"unknown scheme {args.scheme!r}; "
                         f"valid: {', '.join(scheme_group)}")
    return SimConfig(m=args.m, snr_db=parse_range(args.snr),
                     trials=int(float(args.trials)), scheme=args.scheme,
                     target_ser=args.pe, seed=args.seed, threads=args.threads)


def cmd_ser(args) -> int:
    cfg = _sim_config(args, FIXED_RATE_SCHEMES)
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    table = None
    if cfg.scheme == "proposed-optimal":
        table = load_or_build_table(16, args.grid_step, outdir / "cache")
    elif cfg.scheme == "proposed-suboptimal":
        table = build_suboptimal_table(
            load_or_build_table(16, args.grid_step, outdir / "cache"))
    if args.csit_sweep:
        tr_grid = parse_range(args.csit_sweep)
        curve = run_csit_sweep(cfg, table, tr_grid)
        name = f"ser_{cfg.scheme}_m{cfg.m}_csit"
    else:
        curve = run_fixed_rate_ser(cfg, table)
        name = f"ser_{cfg.scheme}_m{cfg.m}"
    out = outdir / f"{name}.csv"
    curve.write_csv(out)
    write_manifest(outdir / f"{name}.manifest.json", "ser",
                   {"scheme": cfg.scheme, "m": cfg.m, "snr": args.snr,
                    "trials": cfg.trials, "seed": cfg.seed,
                    "csit_sweep": args.csit_sweep, "grid_step": args.grid_step,
                    "threads": args.threads, "out_dir": args.out_dir},
                   [out], started)
    print(f"wrote {out}")
    return 0


def cmd_rate(args) -> int:
    cfg = _sim_config(args, VARIABLE_RATE_SCHEMES)
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    tables = None
    if cfg.scheme == "variable-apsk":
        tables = {n: load_or_build_table(n, args.grid_step, outdir / "cache")
                  for n in cfg.sizes}
    curve = run_variable_rate(cfg, tables)
    name = f"rate_{cfg.scheme}_m{cfg.m}"
    out = outdir / f"{name}.csv"
    curve.write_csv(out)
    write_manifest(outdir / f"{name}.manifest.json", "rate",
                   {"scheme": cfg.scheme, "m": cfg.m, "snr": args.snr,
                    "trials": cfg.trials, "pe": cfg.target_ser,
                    "seed": cfg.seed, "grid_step": args.grid_step,
                    "threads": args.threads, "out_dir": args.out_dir},
                   [out], started)
    print(f"wrote {out}")
    return 0


def cmd_cdf(args) -> int:
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    h = sample_rayleigh(2, 1.0, args.seed, trials=int(float(args.trials)))
    inner, outer = annulus_arrays(h, 1.0)
    ratio = np.sort(inner / outer)
    grid = np.linspace(0.0, 1.0, args.points)
    emp = np.searchsorted(ratio, grid, side="right") / ratio.size
    ana = ratio_cdf_m2(grid)
    out = outdir / "ratio_cdf_m2.csv"
    with open(out, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["x", "empirical_cdf", "analytic_cdf"])
        for x, e, a in zip(grid, emp, ana):
            w.writerow([f"{x:.6f}", f"{e:.8f}", f"{a:.8f}"])
    write_manifest(outdir / "ratio_cdf_m2.manifest.json", "cdf",
                   {"trials": int(float(args.trials)), "points": args.points,
                    "seed": args.seed, "out_dir": args.out_dir}, [out], started)
    print(f"wrote {out}; max deviation "
          f"{np.abs(emp - ana).max():.5f}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ceapsk",
        description="Adaptive APSK constellation design and link simulation "
                    "for constant-envelope MISO precoding.")
    p.add_argument("--config", help="JSON file supplying defaults for any flag")
    sub = p.add_subparsers(dest="cmd", required=True)

    d = sub.add_parser("design", help="optimal two-ring APSK for one (N, r/R)")
    d.add_argument("--n", type=int, required=True)
    d.add_argument("--ratio", type=float, required=True)
    d.set_defaults(func=cmd_design)

    t = sub.add_parser("table", help="build and store a region table")
    t.add_argument("--n", type=int, required=True)
    t.add_argument("--grid-step", type=float, default=1e-4)
    t.add_argument("--suboptimal", action="store_true")
    t.add_argument("--out-dir", default="out")
    t.set_defaults(func=cmd_table)

    s = sub.add_parser("ser", help="fixed-rate SER sweep (or CSIT sweep)",
                       formatter_class=argparse.RawTextHelpFormatter)
    s.add_argument("--scheme", required=True,
                   help="one of:\n" + "\n".join(FIXED_RATE_SCHEMES))
    s.add_argument("--m", type=int, default=2)
    s.add_argument("--snr", default="10:40:1", help="dB range lo:hi:step")
    s.add_argument("--trials", default="1e6")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--pe", type=float, default=1e-3)
    s.add_argument("--csit-sweep", default=None,
                   help="training-SNR dB range; data SNR then comes from --snr")
    s.add_argument("--grid-step", type=float, default=1e-4)
    s.add_argument("--threads", type=int, default=1)
    s.add_argument("--out-dir", default="out")
    s.set_defaults(func=cmd_ser)

    r = sub.add_parser("rate", help="variable-rate spectral efficiency sweep",
                       formatter_class=argparse.RawTextHelpFormatter)
    r.add_argument("--scheme", required=True,
                   help="one of:\n" + "\n".join(VARIABLE_RATE_SCHEMES))
    r.add_argument("--m", type=int, default=2)
    r.add_argument("--snr", default="0:30:1")
    r.add_argument("--trials", default="1e6")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--pe", type=float, default=1e-3)
    r.add_argument("--grid-step", type=float, default=1e-4)
    r.add_argument("--threads", type=int, default=1)
    r.add_argument("--out-dir", default="out")
    r.set_defaults(func=cmd_rate)

    c = sub.add_parser("cdf", help="empirical vs analytic r/R CDF for M=2")
    c.add_argument("--trials", default="1e6")
    c.add_argument("--points", type=int, default=101)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out-dir", default="out")
    c.set_defaults(func=cmd_cdf)
    return p


def _apply_config_file(argv):
    """Config-file values become defaults; explicit flags win.

    A run manifest is also accepted as a config file (its "parameters"
    block is used), so any command can be replayed from its manifest.
    """
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 == len(argv):
        raise ValueError("--config needs a path")
    path = argv[i + 1]
    with open(path) as f:
        conf = json.load(f)
    if isinstance(conf, dict) and "parameters" in conf:
        conf = conf["parameters"]
    if not isinstance(conf, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    rest = argv[:i] + argv[i + 2:]
    extra = []
    for key, val in conf.items():
        flag = "--" + key.replace("_", "-")
        if flag in rest or val is None:
            continue
        if isinstance(val, bool):
            if val:
                extra.append(flag)
        else:
            extra += [flag, str(val)]
    # flags must follow the subcommand
    return rest + extra


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(argv)
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_BAD_ARGS if e.code not in (0, None) else 0
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_ARGS
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            return args.func(args)
    except (ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as e:  # a fault in the command: one line, no traceback
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
