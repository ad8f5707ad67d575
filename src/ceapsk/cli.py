"""Command-line frontend: design | table | ser | rate | cdf.

Every run writes its outputs plus a JSON manifest, and nothing else, all in
_write_run once the run has succeeded.  The manifest's parameters are the
run's parsed flags; replaying it (--config MANIFEST) reproduces the outputs
byte for byte regardless of --threads.

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
from .optimizer import build_region_table, build_suboptimal_table, solve_p2
from .sim import (DRAW_LAW, ENGINE_SCHEMES, SIZES, TABLE_SIZE, SimConfig,
                  check_scheme, check_training, run_csit_sweep,
                  run_fixed_rate_ser, run_variable_rate)

EXIT_BAD_ARGS = 2
EXIT_RUNTIME = 3
MAX_POINTS = 10**4  # most points of an SNR range or of `cdf --points`
# most `cdf --trials`: cdf draws them all at once, about 80 B a trial
# (76 MiB at 10^6, by tracemalloc), so about 0.8 GB at the bound
MAX_CDF_TRIALS = 10**7
# the spellings argparse takes for a flag: the flag or a prefix, "--x" up
_CONFIG_SPELLINGS = {"--config"[:k] for k in range(3, 9)}
_RANGE_SPELLINGS = {flag[:k] for flag in ("--snr", "--csit-sweep")
                    for k in range(3, 13)}


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
    span = (hi - lo) / step + 1e-9
    if not span < MAX_POINTS:  # counted before any grid is built
        raise ValueError(f"bad range {text!r}; more than {MAX_POINTS} points")
    return tuple(lo + i * step for i in range(math.floor(span) + 1))


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
        "draw_law": DRAW_LAW,
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


def _write_run(args, stem: str, outputs: dict, started: float) -> None:
    """Make --out-dir, call each write(path) of outputs (file name -> write)
    in order, write stem.manifest.json and print the paths.  Called once a
    run has succeeded, so a failed run writes nothing, not even its out dir."""
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = [outdir / name for name in outputs]
    for path, write in zip(paths, outputs.values()):
        write(path)
    write_manifest(outdir / f"{stem}.manifest.json", args, paths, started)
    for path in paths:
        print(f"wrote {path}")


def cmd_table(args) -> int:
    started = time.time()
    table = build_region_table(args.n)
    tables = {f"table_n{args.n}": table}
    if args.suboptimal:
        tables[f"table_n{args.n}_suboptimal"] = build_suboptimal_table(table)
    outputs = {}
    for name, tab in tables.items():
        outputs[f"{name}.json"] = lambda p, t=tab: p.write_text(t.to_json())
        outputs[f"{name}.csv"] = tab.write_csv
    _write_run(args, f"table_n{args.n}", outputs, started)
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
    started = time.time()
    cfg, facts = _sim_config(args, "csit" if args.csit_sweep else "ser")
    tr_grid = (check_training(parse_range(args.csit_sweep))
               if args.csit_sweep else None)
    table = load_or_build_table(facts.table)
    curve = (run_fixed_rate_ser(cfg, table) if tr_grid is None
             else run_csit_sweep(cfg, table, tr_grid))
    name = f"ser_{cfg.scheme}_m{cfg.m}" + ("" if tr_grid is None else "_csit")
    _write_run(args, name, {f"{name}.csv": curve.write_csv}, started)
    return 0


def cmd_rate(args) -> int:
    started = time.time()
    cfg, facts = _sim_config(args, "rate", target_ser=args.pe)
    curve = run_variable_rate(cfg, load_or_build_table(facts.table))
    name = f"rate_{cfg.scheme}_m{cfg.m}"
    _write_run(args, name, {f"{name}.csv": curve.write_csv}, started)
    return 0


def cmd_cdf(args) -> int:
    started = time.time()
    trials = parse_trials(args.trials)
    if trials > MAX_CDF_TRIALS:
        raise ValueError(f"cdf --trials must be at most {MAX_CDF_TRIALS}")
    if not 1 <= args.points <= MAX_POINTS:
        raise ValueError(f"--points must lie in [1, {MAX_POINTS}]")
    h = sample_rayleigh(2, 1.0, args.seed, trials=trials)
    inner, outer = annulus_arrays(h, 1.0)
    ratio = np.sort(inner / outer)
    grid = np.linspace(0.0, 1.0, args.points)
    emp = np.searchsorted(ratio, grid, side="right") / ratio.size
    ana = ratio_cdf_m2(grid)

    def write(path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["x", "empirical_cdf", "analytic_cdf"])
            for x, e, a in zip(grid, emp, ana):
                w.writerow([f"{x:.6f}", f"{e:.8f}", f"{a:.8f}"])
    _write_run(args, "ratio_cdf_m2", {"ratio_cdf_m2.csv": write}, started)
    print(f"max deviation {np.abs(emp - ana).max():.5f}")
    return 0


# ---------------------------------------------------------------------------


def _engine_parser(sub, cmd: str, func, snr: str, help: str):
    """The `ser` or `rate` subparser with the flags the two share."""
    e = sub.add_parser(cmd, help=help,
                       formatter_class=argparse.RawTextHelpFormatter)
    e.add_argument("--scheme", required=True,
                   help="one of:\n" + "\n".join(ENGINE_SCHEMES[cmd]))
    e.add_argument("--m", type=int, default=2)
    e.add_argument("--snr", default=snr, help="dB range lo:hi:step")
    e.add_argument("--trials", default="1e6")
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--threads", type=int, default=1)
    e.add_argument("--out-dir", default="out")
    e.set_defaults(func=func)
    return e


class _Parser(argparse.ArgumentParser):  # subparsers are _Parsers too
    def error(self, message):  # one line, as for every other bad input
        self.exit(EXIT_BAD_ARGS, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
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

    s = _engine_parser(sub, "ser", cmd_ser, "10:40:1",
                       "fixed-rate SER sweep (or CSIT sweep)")
    s.add_argument("--csit-sweep", default=None,
                   help="training-SNR dB range; data SNR then comes from --snr")

    r = _engine_parser(sub, "rate", cmd_rate, "0:30:1",
                       "variable-rate spectral efficiency sweep")
    r.add_argument("--pe", type=float, default=1e-3)

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
    A run manifest of this DRAW_LAW is also accepted as a config file (its
    "parameters" block is used), so any command replays from its manifest.
    `--config PATH` and `=PATH` are read anywhere; a prefix only ahead of the
    subcommand. Any spelling of a range flag takes "-10:0:5" (not "--n").
    """
    rest, path, cmd = [], None, -1  # cmd: the subcommand's index in rest
    toks = iter(argv)
    for tok in toks:
        flag, eq, value = tok.partition("=")
        if flag == "--config" or cmd < 0 and flag in _CONFIG_SPELLINGS:
            path = value if eq else next(toks, None)
            if path is None:
                raise ValueError("--config needs a path")
        elif (tok[:1] == "-" and tok[1:2] != "-" and rest
              and rest[-1] in _RANGE_SPELLINGS):
            rest[-1] += "=" + tok
        else:
            cmd = len(rest) if cmd < 0 and tok[:1] != "-" else cmd
            rest.append(tok)
    if path is None:
        return rest
    with open(path) as f:
        conf = json.load(f)
    if isinstance(conf, dict) and "parameters" in conf:
        if conf.get("draw_law", 1) != DRAW_LAW:  # no key: an older law-1 run
            raise ValueError(f"manifest {path} names draw law {conf['draw_law']}"
                             f"; this version draws under law {DRAW_LAW}")
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
    return rest[:cmd + 1] + extra + rest[cmd + 1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(argv)
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_BAD_ARGS if e.code not in (0, None) else 0
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_ARGS
    fmt = warnings.formatwarning
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            warnings.formatwarning = lambda msg, *_, **__: f"warning: {msg}\n"
            return args.func(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as e:  # a fault in the command: one line, no traceback
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    finally:  # catch_warnings does not restore formatwarning
        warnings.formatwarning = fmt


if __name__ == "__main__":
    sys.exit(main())
