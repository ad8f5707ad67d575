"""Command-line frontend: design | table | ser | rate | cdf.

Every run writes its outputs plus a JSON manifest, and nothing else.  The
manifest's parameters are the run's parsed flags; replaying it (--config
MANIFEST) reproduces the outputs byte for byte regardless of --threads.

Exit codes: 0 success, 2 bad arguments, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .channel import annulus_arrays, ratio_cdf_m2, sample_rayleigh
from .constellation import _special
from .optimizer import build_region_table, build_suboptimal_table, solve_p2
from .sim import (ENGINE_SCHEMES, SIZES, TABLE_SIZE, SimConfig, check_scheme,
                  run_csit_sweep, run_fixed_rate_ser, run_variable_rate)

EXIT_BAD_ARGS = 2
EXIT_RUNTIME = 3


def parse_range(text: str) -> tuple[float, ...]:
    """Parse lo:hi:step (dB) into an inclusive grid; a bare number is a
    single point."""
    parts = text.split(":")
    if len(parts) == 1:
        return (float(parts[0]),)
    if len(parts) != 3:
        raise ValueError(f"bad range {text!r}; expected lo:hi:step")
    lo, hi, step = (float(p) for p in parts)
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ValueError(f"bad range {text!r}; lo, hi and step must be finite")
    if step <= 0 or hi < lo:
        raise ValueError(f"bad range {text!r}")
    # never past hi; 1e-9 keeps a hi that rounding puts a hair short (0:0.9:0.3)
    n = math.floor((hi - lo) / step + 1e-9)
    return tuple(lo + i * step for i in range(n + 1))


def parse_trials(text: str) -> int:
    """Parse a trial count such as 1e6."""
    value = float(text)
    if not (math.isfinite(value) and value >= 1 and value.is_integer()):
        raise ValueError(f"bad trial count {text!r}; expected a whole "
                         "number >= 1")
    return int(value)


def write_manifest(path: Path, args, outputs: list, started: float) -> None:
    """Record the run: its parameters are every parsed flag of its command."""
    params = {k: v for k, v in vars(args).items()
              if k not in ("cmd", "func", "config")}
    if "trials" in params:
        params["trials"] = parse_trials(params["trials"])
    manifest = {
        "command": args.cmd,
        "parameters": params,
        "seed": params.get("seed"),
        "tool_version": __version__,
        "started_unix": started,
        "finished_unix": time.time(),
        "outputs": [str(o) for o in outputs],
    }
    path.write_text(json.dumps(manifest, indent=2))


# ---------------------------------------------------------------------------
# Subcommands


def cmd_design(args) -> int:
    res = solve_p2(args.n, args.ratio)
    out = {
        "constellation": {"rings": [
            {"count": args.n - res.n2, "radius": 1.0, "offset": 0.0},
            {"count": res.n2, "radius": res.rho2, "offset": res.omega2}]},
        "d_min": res.d_min,
        "n2": res.n2,
        "omega2_over_pi": res.omega2 / np.pi,
        "rho2": res.rho2,
    }
    print(json.dumps(out, indent=2))
    return 0


def cmd_table(args) -> int:
    started = time.time()
    table = build_region_table(args.n)  # a bad N exits before any write
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = {f"table_n{args.n}": table}
    if args.suboptimal:
        written[f"table_n{args.n}_suboptimal"] = build_suboptimal_table(table)
    outputs = []
    for name, tab in written.items():
        base = outdir / name
        base.with_suffix(".json").write_text(tab.to_json())
        tab.write_csv(base.with_suffix(".csv"))
        outputs += [base.with_suffix(".json"), base.with_suffix(".csv")]
    write_manifest(outdir / f"table_n{args.n}.manifest.json", args, outputs,
                   started)
    for o in outputs:
        print(f"wrote {o}")
    return 0


def _sim_config(args, engine: str, **kw):
    """The run's SimConfig and its scheme's facts, from check_scheme."""
    cfg = SimConfig(m=args.m, snr_db=parse_range(args.snr),
                    trials=parse_trials(args.trials), scheme=args.scheme,
                    seed=args.seed, threads=args.threads, **kw)
    return cfg, check_scheme(cfg, engine)


def load_or_build_table(need: str | None):
    """The region table(s) of a scheme's table fact, or None, built in the
    run that uses them.  The name stays because perfbench's tracer times
    this step as `cli.load_or_build_table`."""
    if need == "per-size":
        return {n: build_region_table(n) for n in SIZES}
    if need is None:
        return None
    table = build_region_table(TABLE_SIZE)
    return build_suboptimal_table(table) if need == "suboptimal" else table


def cmd_ser(args) -> int:
    cfg, facts = _sim_config(args, "csit" if args.csit_sweep else "ser")
    tr_grid = parse_range(args.csit_sweep) if args.csit_sweep else None
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    table = load_or_build_table(facts.table)
    if tr_grid is not None:
        curve = run_csit_sweep(cfg, table, tr_grid)
        name = f"ser_{cfg.scheme}_m{cfg.m}_csit"
    else:
        curve = run_fixed_rate_ser(cfg, table)
        name = f"ser_{cfg.scheme}_m{cfg.m}"
    out = outdir / f"{name}.csv"
    curve.write_csv(out)
    write_manifest(outdir / f"{name}.manifest.json", args, [out], started)
    print(f"wrote {out}")
    return 0


def cmd_rate(args) -> int:
    cfg, facts = _sim_config(args, "rate", target_ser=args.pe)
    # the engine's rate thresholds need scipy: import it here, in set-up
    _special()
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    curve = run_variable_rate(cfg, load_or_build_table(facts.table))
    name = f"rate_{cfg.scheme}_m{cfg.m}"
    out = outdir / f"{name}.csv"
    curve.write_csv(out)
    write_manifest(outdir / f"{name}.manifest.json", args, [out], started)
    print(f"wrote {out}")
    return 0


def cmd_cdf(args) -> int:
    trials = parse_trials(args.trials)
    if args.points < 1:
        raise ValueError("--points must be at least 1")
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    h = sample_rayleigh(2, 1.0, args.seed, trials=trials)
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
    write_manifest(outdir / "ratio_cdf_m2.manifest.json", args, [out], started)
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
    t.add_argument("--suboptimal", action="store_true")
    t.add_argument("--out-dir", default="out")
    t.set_defaults(func=cmd_table)

    s = sub.add_parser("ser", help="fixed-rate SER sweep (or CSIT sweep)",
                       formatter_class=argparse.RawTextHelpFormatter)
    s.add_argument("--scheme", required=True,
                   help="one of:\n" + "\n".join(ENGINE_SCHEMES["ser"]))
    s.add_argument("--m", type=int, default=2)
    s.add_argument("--snr", default="10:40:1", help="dB range lo:hi:step")
    s.add_argument("--trials", default="1e6")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--csit-sweep", default=None,
                   help="training-SNR dB range; data SNR then comes from --snr")
    s.add_argument("--threads", type=int, default=1)
    s.add_argument("--out-dir", default="out")
    s.set_defaults(func=cmd_ser)

    r = sub.add_parser("rate", help="variable-rate spectral efficiency sweep",
                       formatter_class=argparse.RawTextHelpFormatter)
    r.add_argument("--scheme", required=True,
                   help="one of:\n" + "\n".join(ENGINE_SCHEMES["rate"]))
    r.add_argument("--m", type=int, default=2)
    r.add_argument("--snr", default="0:30:1")
    r.add_argument("--trials", default="1e6")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--pe", type=float, default=1e-3)
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

    The config's flags go right after the subcommand, ahead of the explicit
    ones, so argparse's last-one-wins rule lets an explicit flag override
    them in any form it accepts: full, `--flag=value` or a unique prefix.
    A run manifest is also accepted as a config file (its "parameters"
    block is used), so any command can be replayed from its manifest.
    Both `--config PATH` and `--config=PATH` are accepted.
    """
    argv = [part for tok in argv for part in (
        tok.split("=", 1) if tok.startswith("--config=") else [tok])]
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 == len(argv):
        raise ValueError("--config needs a path")
    path, rest = argv[i + 1], argv[:i] + argv[i + 2:]
    with open(path) as f:
        conf = json.load(f)
    if isinstance(conf, dict) and "parameters" in conf:
        conf = conf["parameters"]
    if not isinstance(conf, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    extra = []
    for key, val in conf.items():
        flag = "--" + key.replace("_", "-")
        if val is True:
            extra.append(flag)
        elif val is not None and val is not False:
            # one token, so a value such as "-5:10:1" is not read as a flag
            extra.append(f"{flag}={val}")
    cmd = next((i for i, tok in enumerate(rest) if not tok.startswith("-")),
               len(rest) - 1)
    return rest[:cmd + 1] + extra + rest[cmd + 1:]


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
