import argparse
import functools
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import ceapsk.sim as sim
from ceapsk import channel, cli, optimizer
from ceapsk.cli import main, parse_range, parse_trials
from ceapsk.optimizer import build_region_table, build_suboptimal_table


def test_parse_range():
    assert parse_range("10:40:10") == (10.0, 20.0, 30.0, 40.0)
    assert parse_range("20") == (20.0,)
    with pytest.raises(ValueError):
        parse_range("10:5:1")
    with pytest.raises(ValueError):
        parse_range("1:2:3:4")
    # a span that is not a whole number of steps stops short of hi
    assert parse_range("10:11:0.6") == (10.0, 10.6)
    # (hi - lo) / step is 2.9999999999999996 here; hi is still reached
    grid = parse_range("0:0.9:0.3")
    assert len(grid) == 4 and grid[-1] == pytest.approx(0.9)


def test_parse_range_counts_points_before_building_the_grid():
    assert len(parse_range("0:9999:1")) == cli.MAX_POINTS == 10**4
    # one point too many; were the bound gone, this grid would still be small
    with pytest.raises(ValueError, match="more than 10000 points"):
        parse_range("0:10000:1")
    # so these are refused before any grid is built: 1e9 points, 1e300
    # points, and a span that overflows to inf
    tracemalloc.start()
    try:
        for text in ("0:1e9:1", "0:1:1e-300", "-1e308:1e308:1"):
            with pytest.raises(ValueError, match="more than 10000 points"):
                parse_range(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


_CDF_BOUND = "error: cdf --trials must be at most 10000000"
_N_BOUND = "error: N must be at most 256"
_TRAINING = "error: training SNRs must be finite and lie in [-300, 300]"
# the runs that every engine bound below is tried on
_ENGINE_RUNS = {
    "ser": ["ser", "--scheme", "proposed-optimal", "--snr", "10:20:5"],
    "csit": ["ser", "--scheme", "egt-qam16", "--snr", "20",
             "--csit-sweep", "0:30:10"],
    "rate": ["rate", "--scheme", "variable-qam", "--snr", "10:20:5"]}
_ENGINE_BOUNDS = {
    "threads": ["--threads", "257"],
    "threads-and-chunks": ["--threads", "10000", "--trials", "1e9"],
    "trials": ["--trials", "1000000001"], "trials-huge": ["--trials", "1e300"],
    "antennas": ["--m", "65"], "snr-high": ["--snr", "4000"],
    "snr-low": ["--snr=-4000"]}
# every bad input, under the name of the test it runs in: (id, argv, None or
# (name, JSON) of a file the row writes first, the stderr line or the
# fragments it holds).  A test whose rows have no id is one case that runs
# each of its rows.
_BAD_INPUTS = {
    # 1e12 cdf trials would need about 80 TB; the bound + 1 would be drawn
    "test_cdf_trials_bounded_before_the_draw": [
        (None, ["cdf", "--trials", "1e12"], None, _CDF_BOUND),
        (None, ["cdf", "--trials", str(cli.MAX_CDF_TRIALS + 1)], None,
         _CDF_BOUND)],
    "test_constellation_size_bounded_before_the_solve": [
        ("table-258", ["table", "--n", "258"], None, _N_BOUND),
        ("table-512", ["table", "--n", "512", "--suboptimal"], None, _N_BOUND),
        ("design-1e9", ["design", "--n", str(10**9), "--ratio", "0.5"], None,
         _N_BOUND)],
    # argparse's own errors read like every other bad input: one line
    "test_flags_argparse_rejects_get_one_line": [
        ("not-an-int", ["design", "--n", "1e9"], None, ()),
        ("bad-m", ["ser", "--m", "x", "--scheme", "proposed-optimal"], None,
         ()),
        ("no-scheme", ["ser", "--m", "2"], None, ()),
        ("no-command", ["bogus"], None, ()),
        ("unknown-flag", ["ser", "--scheme", "proposed-optimal", "--nope",
                          "1"], None, ())],
    "test_unknown_flag": [
        (None, ["design", "--n", "16", "--ratio", "0.4", "--bogus"], None,
         ())],
    "test_point_counts_are_bounded": [
        ("ser-snr", ["ser", "--scheme", "fixed-qam16", "--snr", "0:1e5:1",
                     "--trials", "1e3"], None, ("10000",)),
        ("csit-sweep", ["ser", "--scheme", "proposed-optimal", "--snr", "20",
                        "--csit-sweep", "0:1e5:1", "--trials", "1e3"], None,
         ("10000",)),
        ("rate-snr", ["rate", "--scheme", "variable-qam", "--snr", "0:1e5:1",
                      "--trials", "1e3"], None, ("10000",)),
        ("cdf-points", ["cdf", "--points", "10001", "--trials", "1e3"], None,
         ("10000",))],
    # 4000 dB overflows the MMSE error variance; -4000 would run
    "test_training_snrs_are_bounded": [
        (tr, ["ser", "--scheme", "proposed-optimal", "--snr", "20",
              "--trials", "1e3", f"--csit-sweep={tr}"], None, _TRAINING)
        for tr in ("4000", "-4000", "0:400:100", "inf")],
    "test_design_bad_ratio": [
        (None, ["design", "--n", "16", "--ratio", "1.5"], None, ())],
    "test_table_bad_n_writes_nothing": [
        (None, ["table", "--n", "7"], None, ())],
    "test_ser_unknown_scheme": [
        (None, ["ser", "--scheme", "nope", "--snr", "20", "--trials", "1e3"],
         None, ("proposed-optimal", "egt-qam16"))],
    "test_csit_sweep_scheme_rejected_before_any_write": [
        (scheme, ["ser", "--scheme", scheme, "--snr", "20", "--trials", "1e3",
                  "--csit-sweep", "0:10:5"], None,
         ("proposed-optimal", "proposed-suboptimal", "egt-qam16"))
        for scheme in ("fixed-qam16", "adaptive-qam-psk", "variable-apsk")],
    "test_csit_sweep_several_snrs_rejected_before_any_build": [
        (None, ["ser", "--scheme", "proposed-optimal", "--snr", "20:24:2",
                "--trials", "1e3", "--csit-sweep", "0:10:5"], None,
         "error: csit sweep uses a single data SNR")],
    "test_rate_bad_pe": [
        (None, ["rate", "--scheme", "variable-qam", "--pe", "0", "--snr", "10",
                "--trials", "1e3"], None, ())],
    # --config or a prefix that argparse takes for it, with no path
    "test_config_without_path": [
        (None, [flag], None, "error: --config needs a path")
        for flag in ("--config", "--conf", "--c")],
    "test_ser_rejects_counts_below_one": [
        (f"{flag}-{value}", ["ser", "--scheme", "fixed-qam16", flag, value,
                             "--snr", "20", "--trials", "1e3"], None, ())
        for flag, value in (("--m", "0"), ("--threads", "0"))],
    # a manifest that names the old table grid step is refused, not
    # replayed at whatever step tables are now built
    "test_grid_step_manifest_exits_2": [
        (cmd, ["--config", "m.json", cmd],
         ("m.json", {"command": cmd, "parameters": params}), ("--grid-step",))
        for cmd, params in (
            ("rate", {"scheme": "variable-apsk", "m": 2, "snr": "10",
                      "trials": 1000, "seed": 0, "pe": 0.001,
                      "grid_step": 0.0001, "threads": 1}),
            ("ser", {"scheme": "proposed-optimal", "m": 2, "snr": "20",
                     "trials": 1000, "seed": 0, "csit_sweep": None,
                     "grid_step": 0.0001, "threads": 1}),
            ("table", {"n": 8, "grid_step": 0.0001, "suboptimal": False}))],
    # a manifest of another draw law would replay into other bytes
    "test_manifest_of_another_draw_law_exits_2": [
        (None, ["--config", "m.json", "ser"],
         ("m.json", {"command": "ser", "draw_law": 2, "parameters": {
             "scheme": "fixed-qam16", "snr": "20", "trials": 1000}}),
         "error: manifest m.json names draw law 2; this version draws under "
         "law 1")],
    "test_config_not_an_object": [
        (name, ["--config", "f.json", "rate", "--scheme", "variable-qam"],
         ("f.json", conf), "error: config file f.json must hold a JSON object")
        for name, conf in (("conf0", [1, 2]), ("rate", "rate"),
                           ("conf2", {"parameters": [1, 2]}))],
    "test_rate_rejects_non_finite_snr": [
        (None, ["rate", "--scheme", "variable-qam", "--snr", "nan", "--trials",
                "1e3"], None, "error: snr_db must be finite")],
    "test_bad_numeric_input_exits_2": [
        *[(f"csit-nan-{name}", ["ser", "--scheme", scheme, "--snr", "20",
                                "--trials", "1e3", "--csit-sweep", "nan"],
           None, _TRAINING) for name, scheme in (("proposed",
                                                  "proposed-optimal"),
                                                 ("egt", "egt-qam16"))],
        *[(name, args, None, ()) for name, args in (
            ("trials-inf", ["ser", "--scheme", "fixed-qam16", "--snr", "20",
                            "--trials", "inf"]),
            ("trials-fractional", ["ser", "--scheme", "fixed-qam16", "--snr",
                                   "20", "--trials", "1000.7"]),
            ("snr-range-inf", ["ser", "--scheme", "fixed-qam16", "--snr",
                               "0:inf:1", "--trials", "1e3"]),
            ("csit-range-inf", ["ser", "--scheme", "proposed-optimal",
                                "--snr", "20", "--trials", "1e3",
                                "--csit-sweep", "0:inf:2"]),
            ("cdf-trials-0", ["cdf", "--trials", "0"]),
            ("cdf-points-0", ["cdf", "--trials", "1e3", "--points", "0"]))]],
    # the seed is checked before any region table is built
    "test_negative_seed_exits_2": [
        (name, [*args, "--trials", "1e3", "--seed", "-1"], None,
         "error: seed must be a non-negative integer") for name, args in (
            ("ser", ["ser", "--scheme", "fixed-qam16", "--snr", "20"]),
            ("rate", ["rate", "--scheme", "variable-qam", "--snr", "20"]),
            ("cdf", ["cdf"]),
            ("ser-table", ["ser", "--scheme", "proposed-optimal", "--snr",
                           "20"]),
            ("rate-table", ["rate", "--scheme", "variable-apsk", "--snr",
                            "20"]))],
    "test_cli_bounds_threads_and_trials": [
        (f"{run}-{bound}", [*args, "--trials", "1e3", *flags], None, ())
        for run, args in _ENGINE_RUNS.items()
        for bound, flags in _ENGINE_BOUNDS.items()],
}


def _reached(name, *args, **kwargs):
    raise AssertionError(f"{name} was called")


def _check_bad_input(argv, file, want, monkeypatch, cwd, capsys):
    # refused with one line before any engine chunk runs (so before any
    # thread starts), any normal is drawn or any design is solved: were a
    # bound gone, the row would fail fast, not run, hang or swap
    assert (cli.MAX_CDF_TRIALS, optimizer.MAX_N) == (10**7, 256)
    for module, name in ((sim, "_reduce_chunks"),
                         (channel, "_complex_normal_blocks"),
                         (optimizer, "_solve_grid")):
        monkeypatch.setattr(module, name, functools.partial(_reached, name))
    monkeypatch.chdir(cwd)  # so the default out dir lies in cwd
    if file:
        (cwd / file[0]).write_text(json.dumps(file[1]))
    before = sorted(cwd.rglob("*"))
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.find("\n") == len(err) - 1, err
    assert (err == want + "\n" if isinstance(want, str)
            else all(part in err for part in want)), err
    assert sorted(cwd.rglob("*")) == before  # not even the out dir
    assert peak < 2**20


def _row_test(rows, check):
    """The test of rows, each checked by check(*row[1:], monkeypatch, cwd,
    capsys) in a fresh cwd: one case per row id, or one case for every
    row."""
    if rows[0][0] is None:
        def test(monkeypatch, tmp_path, capsys):
            for i, row in enumerate(rows):
                (tmp_path / str(i)).mkdir()
                check(*row[1:], monkeypatch, tmp_path / str(i), capsys)
        return test

    @pytest.mark.parametrize("row", [row[1:] for row in rows],
                             ids=[row[0] for row in rows])
    def test(row, monkeypatch, tmp_path, capsys):
        check(*row, monkeypatch, tmp_path, capsys)
    return test


for _name, _rows in _BAD_INPUTS.items():
    globals()[_name] = _row_test(_rows, _check_bad_input)


def test_parse_trials():
    # whole counts in float notation parse; fractional ones exit 2 (a row
    # of _BAD_INPUTS)
    assert parse_trials("1e6") == 10 ** 6
    assert parse_trials("2.5e3") == 2500


def test_design_ok(capsys):
    assert main(["design", "--n", "16", "--ratio", "0.4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["n2"] == 5
    assert out["d_min"] == pytest.approx(0.5411, abs=1e-4)
    assert out["omega2_over_pi"] == pytest.approx(0.0182, abs=1e-4)


def test_design_qpsk(capsys):
    assert main(["design", "--n", "4", "--ratio", "0.7"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["d_min"] == pytest.approx(1.4142, abs=1e-4)


# `design` stdout per (N, ratio), recorded while the output was still built
# from a general ring-list constellation object; (16, 0.9), added later, pins
# the n2 = 8 that the config-override rows of _SPELLINGS reach
_DESIGN_STDOUT = {
    (2, 0.5): {"constellation": {"rings": [
        {"count": 1, "radius": 1.0, "offset": 0.0},
        {"count": 1, "radius": 1.0, "offset": 3.141592653589793}]},
        "d_min": 2.0, "n2": 1, "omega2_over_pi": 1.0, "rho2": 1.0},
    (4, 0.7): {"constellation": {"rings": [
        {"count": 2, "radius": 1.0, "offset": 0.0},
        {"count": 2, "radius": 1.0, "offset": 1.5707963267948966}]},
        "d_min": 1.414213562373095, "n2": 2, "omega2_over_pi": 0.5,
        "rho2": 1.0},
    (8, 0.2): {"constellation": {"rings": [
        {"count": 7, "radius": 1.0, "offset": 0.0},
        {"count": 1, "radius": 0.2, "offset": 0.4487989505128276}]},
        "d_min": 0.824386106650902, "n2": 1,
        "omega2_over_pi": 0.14285714285714285, "rho2": 0.2},
    (16, 0.4): {"constellation": {"rings": [
        {"count": 11, "radius": 1.0, "offset": 0.0},
        {"count": 5, "radius": 0.46028805042118337,
         "offset": 0.057119866428905326}]},
        "d_min": 0.5411010556880518, "n2": 5,
        "omega2_over_pi": 0.01818181818181818, "rho2": 0.46028805042118337},
    (16, 0.9): {"constellation": {"rings": [
        {"count": 8, "radius": 1.0, "offset": 0.0},
        {"count": 8, "radius": 1.0, "offset": 0.39269908169872414}]},
        "d_min": 0.3901806440322566, "n2": 8, "omega2_over_pi": 0.125,
        "rho2": 1.0},
    (64, 0.9): {"constellation": {"rings": [
        {"count": 32, "radius": 1.0, "offset": 0.0},
        {"count": 32, "radius": 0.9, "offset": 0.09817477042468103}]},
        "d_min": 0.1366290305537062, "n2": 32, "omega2_over_pi": 0.03125,
        "rho2": 0.9},
}


@pytest.mark.parametrize("n,ratio", sorted(_DESIGN_STDOUT))
def test_design_output_pinned(n, ratio, capsys):
    assert main(["design", "--n", str(n), "--ratio", str(ratio)]) == 0
    want = json.dumps(_DESIGN_STDOUT[n, ratio], indent=2) + "\n"
    assert capsys.readouterr().out == want


def test_table_n8(tmp_path, capsys):
    assert main(["table", "--n", "8", "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "table_n8.csv").read_text().strip().splitlines()
    assert len(lines) == 4  # header + 3 regions
    row1 = lines[1].split(",")
    assert float(row1[2]) == pytest.approx(0.1495, abs=1e-4)
    assert (tmp_path / "table_n8.manifest.json").exists()


def test_suboptimal_table_csv(tmp_path):
    # header + 2 regions; its abbreviated spellings are rows of _SPELLINGS
    assert main(["table", "--n", "16", "--suboptimal",
                 "--out-dir", str(tmp_path)]) == 0
    csv = (tmp_path / "table_n16_suboptimal.csv").read_text()
    assert len(csv.strip().splitlines()) == 3


def test_table_non_power_of_two_warns(tmp_path):
    with pytest.warns(UserWarning):
        assert main(["table", "--n", "6", "--out-dir", str(tmp_path)]) == 0


def test_warning_prints_as_one_line(tmp_path):
    # in a child process: under pytest the warning would be recorded, not
    # printed
    for args in (("design", "--n", "6", "--ratio", "0.5"),
                 ("table", "--n", "6", "--out-dir", str(tmp_path))):
        run = _child_cli(*args)
        assert run.returncode == 0, run.stderr
        assert run.stderr == ("warning: N=6 is not a power of two; "
                              "the design is best-effort\n")
    formatwarning = warnings.formatwarning
    with pytest.warns(UserWarning):
        assert main(["design", "--n", "6", "--ratio", "0.5"]) == 0
    assert warnings.formatwarning is formatwarning  # put back after the run


def test_ser_help_lists_schemes(capsys):
    assert main(["ser", "--help"]) == 0
    out = capsys.readouterr().out
    for s in ("proposed-optimal", "proposed-suboptimal", "fixed-qam16",
              "adaptive-qam-psk", "egt-qam16"):
        assert s in out


def test_rate_help_lists_schemes(capsys):
    assert main(["rate", "--help"]) == 0
    out = capsys.readouterr().out
    assert "variable-apsk" in out and "variable-qam" in out


def test_cdf_output(tmp_path, capsys):
    assert main(["cdf", "--trials", "5e4", "--points", "11",
                 "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "ratio_cdf_m2.csv").read_text().strip().splitlines()
    assert lines[0] == "x,empirical_cdf,analytic_cdf"
    assert len(lines) == 12


def test_rate_run(tmp_path):
    assert main(["rate", "--scheme", "variable-qam", "--m", "2",
                 "--snr", "10:14:2", "--trials", "2e4",
                 "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "rate_variable-qam_m2.csv").read_text().strip().splitlines()
    assert lines[0] == "snr_db,avg_bits,no_tx_fraction"
    assert len(lines) == 4


def test_fine_snr_grid_keeps_its_labels(tmp_path):
    # :g labelled all five points of this grid "100"
    assert main(["rate", "--scheme", "variable-qam", "--snr",
                 "100:100.0004:0.0001", "--trials", "1e3",
                 "--out-dir", str(tmp_path)]) == 0
    rows = (tmp_path / "rate_variable-qam_m2.csv").read_text().split()[1:]
    assert len({row.split(",")[0] for row in rows}) == len(rows) == 5


def test_rate_run_with_an_underflowed_tail(tmp_path):
    # 5e-324 / (N - 1) rounds to 0.0 for every N >= 3: those sizes are
    # never feasible, only BPSK can be chosen, and the run still succeeds
    assert main(["rate", "--scheme", "variable-apsk", "--m", "2",
                 "--trials", "1e4", "--pe", "5e-324",
                 "--out-dir", str(tmp_path)]) == 0
    csv = (tmp_path / "rate_variable-apsk_m2.csv").read_bytes()
    assert hashlib.sha256(csv).hexdigest() == (
        "90f6272398558f1ce23af85680b6183ea3e8e2eb88b27fdc1010a2314ebeadff")


def _child_cli(*args):
    """`python -m ceapsk.cli args` in a child process, on this src."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-m", "ceapsk.cli", *args],
                          env=env, capture_output=True, text=True, timeout=30)


def test_rate_with_an_underflowed_tail_at_high_snr(tmp_path):
    # above about 34 dB sqrt(p) > 1, where the search for an infinite
    # threshold's least feasible R d_min once walked down one ulp at a
    # time; in a child process, so a hang fails here instead of stalling
    for snr, bits in (("30:40:5", [0.805, 0.969, 0.997]), ("300", [1.0])):
        out = tmp_path / snr.replace(":", "_")
        run = _child_cli("rate", "--scheme", "variable-apsk", "--m", "2",
                         "--snr", snr, "--trials", "1000", "--pe", "5e-324",
                         "--out-dir", str(out))
        assert run.returncode == 0, run.stderr
        rows = (out / "rate_variable-apsk_m2.csv").read_text().split()[1:]
        got = [[float(v) for v in row.split(",")[1:]] for row in rows]
        # only BPSK is ever sent: 1 bit on every trial that transmits
        assert [b for b, _ in got] == bits
        assert all(b + q == 1.0 for b, q in got)


# a command, and the engine or draw of cli that it runs
_FAULTS = {
    "rate": (["rate", "--scheme", "variable-qam", "--snr", "10",
              "--trials", "1e3"], "run_variable_rate"),
    "ser": (["ser", "--scheme", "fixed-qam16", "--snr", "10",
             "--trials", "1e3"], "run_fixed_rate_ser"),
    "cdf": (["cdf", "--trials", "1e3"], "sample_rayleigh"),
}


@pytest.mark.parametrize("exc", [ZeroDivisionError("float division by zero"),
                                 AttributeError("no attribute 'items'"),
                                 KeyError("x")])
def test_command_fault_exits_runtime(exc, monkeypatch, tmp_path, capsys):
    def fault(*args, **kwargs):
        raise exc
    for cmd, (args, step) in _FAULTS.items():
        monkeypatch.setattr(cli, step, fault)
        out = tmp_path / cmd
        assert main(args + ["--out-dir", str(out)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {type(exc).__name__}: {exc}"]
        # a failed run writes nothing, not even its out dir
        assert not out.exists()


def test_out_dir_that_is_a_file_exits_runtime(tmp_path, capsys):
    out = tmp_path / "out"
    out.write_text("keep")
    assert main(["table", "--n", "8", "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert out.read_text() == "keep"


# one run of each command; --threads 2 shows the replay keeps it too
_RUNS = {
    "ser": ["ser", "--scheme", "proposed-suboptimal", "--snr", "20:22:2",
            "--trials", "2e3", "--seed", "3", "--threads", "2"],
    "ser-csit": ["ser", "--scheme", "proposed-optimal", "--m", "4",
                 "--snr", "20", "--csit-sweep", "0:10:5", "--trials", "2e3"],
    "rate": ["rate", "--scheme", "variable-apsk", "--snr", "10:14:2",
             "--trials", "2e3", "--pe", "1e-2"],
    "table": ["table", "--n", "8", "--suboptimal"],
    "cdf": ["cdf", "--trials", "5e3", "--points", "11", "--seed", "3"],
}


def _flags() -> dict:
    """The parsed-flag names of each subcommand."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {cmd: {a.dest for a in parser._actions} - {"help"}
            for cmd, parser in sub.choices.items()}


# every flag of every subcommand; a new one has to earn its place here
_FLAGS = {
    "design": {"n", "ratio"},
    "table": {"n", "suboptimal", "out_dir"},
    "ser": {"scheme", "m", "snr", "trials", "seed", "csit_sweep", "threads",
            "out_dir"},
    "rate": {"scheme", "m", "snr", "trials", "seed", "pe", "threads",
             "out_dir"},
    "cdf": {"trials", "points", "seed", "out_dir"},
}


def test_flag_sets_pinned():
    assert _flags() == _FLAGS


@pytest.mark.parametrize("run", sorted(_RUNS))
def test_manifest_parameters_are_the_flags(run, tmp_path, capsys):
    assert main(_RUNS[run] + ["--out-dir", str(tmp_path)]) == 0
    (manifest,) = tmp_path.glob("*.manifest.json")
    params = json.loads(manifest.read_text())["parameters"]
    assert set(params) == _flags()[_RUNS[run][0]]
    assert type(params.get("trials", 0)) is int


def _law1(manifest):
    """The manifest as a run wrote it before manifests named their draw law:
    with no draw_law, which reads as law 1."""
    manifest = dict(manifest)
    assert manifest.pop("draw_law") == sim.DRAW_LAW == 1
    return manifest


def _stale_table(_):
    """The N=16 table with every constant d_min altered, as an older
    version might have left it in out/cache."""
    stale = json.loads(build_region_table(16).to_json())
    for reg in stale["regions"]:
        if reg["d_min"] is not None:
            reg["d_min"] *= 1.5
    return stale


_OPT, _FIXED = "ser --scheme proposed-optimal", "ser --scheme fixed-qam16"
_N16 = {"c.json": {"n": 16, "ratio": 0.4}}
_SEED9 = {"c.json": {"seed": 9, "snr": "20:22:1"}}
_STALE = "ser --scheme proposed-optimal --snr 10:14:2 --trials 2e4 --seed 4"
# every accepted spelling of a run, under the name of the test it runs in:
# (id, canonical argv, variant argv, {path: JSON, or a function of the
# canonical run's manifest giving it, dict for the manifest as it is} of the
# files the variant's directory holds first).  Rows are grouped and run as in
# _BAD_INPUTS.
_SPELLINGS = {
    # "-10:30:20" is no plain negative number, so argparse alone takes it
    # for a flag; after any spelling of a range flag it is that flag's value
    "test_negative_range_after_its_flag": [
        (name, f"{run} --trials 1e3 {flag}=-10:30:20",
         f"{run} --trials 1e3 {flag} -10:30:20", {})
        for name, run, flag in (
            ("ser-snr", _OPT, "--snr"), ("ser-sn", _OPT, "--sn"),
            ("ser-csit-sweep", f"{_OPT} --snr 20", "--csit-sweep"),
            ("ser-csit", f"{_OPT} --snr 20", "--csit"),
            ("rate-snr", "rate --scheme variable-apsk", "--snr"))],
    # config values are defaults; an explicit flag wins, in either form
    "test_config_file_defaults_and_override": [
        (None, "design --n 16 --ratio 0.4", "--config c.json design", _N16),
        *[(None, "design --n 16 --ratio 0.9", f"{conf} design {ratio}", _N16)
          for conf in ("--config c.json", "--config=c.json")
          for ratio in ("--ratio 0.9", "--ratio=0.9")]],
    # argparse accepts a unique prefix of a flag; it must win as well
    "test_config_loses_to_abbreviated_flag": [
        (f"ratio{i}", "design --n 16 --ratio 0.9",
         f"--config c.json design {ratio}", _N16)
        for i, ratio in enumerate(("--rat 0.9", "--rat=0.9", "--ra 0.9"))],
    # a replayed manifest may hold a grid such as -4:0:2
    "test_config_value_starting_with_dash": [
        (None, f"{_FIXED} --snr=-4:0:2 --trials 1000",
         f"--config c.json {_FIXED}",
         {"c.json": {"snr": "-4:0:2", "trials": 1000}})],
    "test_config_equals_form": [
        (None, f"{_FIXED} --snr 20:22:2 --m 3 --trials 2e3",
         f"{conf} {_FIXED} --snr 20:22:2", {"c.json": {"m": 3, "trials": 2e3}})
        for conf in ("--config c.json", "--config=c.json")],
    # argparse takes a unique prefix of --config before the subcommand, so
    # each spelling must apply the file as --config does; after the
    # subcommand --c abbreviates ser's --csit-sweep instead
    "test_config_in_any_prefix_ahead_of_the_subcommand": [
        *[(None, f"{_FIXED} --trials 2e3 --seed 9 --snr 20:22:1",
           f"{conf} {_FIXED} --trials 2e3", _SEED9)
          for conf in ("--config c.json", "--conf c.json", "--conf=c.json",
                       "--c c.json")],
        (None, f"{_OPT} --snr 20 --trials 1e3 --csit-sweep 0:30:10 --seed 9",
         f"--c c.json {_OPT} --snr 20 --trials 1e3 --c 0:30:10", _SEED9)],
    # `--s` is `--suboptimal` here, not a range flag waiting for its value
    "test_table_suboptimal": [
        (None, "table --n 16 --suboptimal", f"table {args}", {})
        for args in ("--s --n 16", "--n 16 --s")],
    # a table file left in out/cache by an older version must not change a
    # run in that directory
    "test_stale_table_cache_ignored": [
        (None, _STALE, _STALE,
         {"out/cache/regions_n16_v1.json": _stale_table})],
    "test_ser_run_and_manifest_replay": [
        (None, "ser --scheme adaptive-qam-psk --snr 20:24:2 --trials 2e4",
         "--config m.json ser", {"m.json": read}) for read in (dict, _law1)],
    # every command replays from its manifest, and from a law-1 manifest
    # that does not name its draw law
    "test_manifest_replays_every_output": [
        (run + tag, " ".join(_RUNS[run]), f"--config m.json {_RUNS[run][0]}",
         {"m.json": read}) for run in sorted(_RUNS)
        for tag, read in (("", dict), ("-law1", _law1))],
}


def _spelled_run(argv, cwd, monkeypatch, capsys):
    """Run argv through main in cwd, so into out dir `out`: (stdout, every
    file it wrote but its manifest, by path, its manifest or {})."""
    cwd.mkdir(exist_ok=True)
    before = set(cwd.rglob("*"))
    monkeypatch.chdir(cwd)
    capsys.readouterr()
    assert main(argv.split()) == 0
    written = {p.relative_to(cwd).as_posix(): p.read_bytes()
               for p in set(cwd.rglob("*")) - before if p.is_file()}
    names = [p for p in written if p.endswith(".manifest.json")]
    manifest = json.loads(written.pop(names[0])) if names else {}
    # one manifest at most, listing exactly the other files written; a run
    # writes outputs exactly when it writes a manifest
    assert len(names) <= 1 and set(written) == set(manifest.get("outputs", ()))
    assert bool(written) == bool(manifest)
    return capsys.readouterr().out, written, manifest


def _check_spelling(canonical, variant, files, monkeypatch, cwd, capsys):
    # the variant is the canonical run: the same stdout, the same bytes in
    # every output and the same manifest but for its clock
    want = _spelled_run(canonical, cwd / "a", monkeypatch, capsys)
    assert want[0]  # every command prints what it made
    for name, value in files.items():
        (cwd / "b" / name).parent.mkdir(parents=True, exist_ok=True)
        (cwd / "b" / name).write_text(json.dumps(
            value(want[2]) if callable(value) else value))
    got = _spelled_run(variant, cwd / "b", monkeypatch, capsys)
    for manifest in (want[2], got[2]):
        manifest.pop("started_unix", None)
        manifest.pop("finished_unix", None)
    assert got == want


for _name, _rows in _SPELLINGS.items():
    globals()[_name] = _row_test(_rows, _check_spelling)


# the region tables each run uses, in the order its manifest names them
_RUN_TABLES = {
    "ser": lambda: [build_suboptimal_table(build_region_table(16))],
    "ser-csit": lambda: [build_region_table(16)],
    "rate": lambda: [build_region_table(n) for n in sim.SIZES],
    "table": lambda: [build_region_table(8),
                      build_suboptimal_table(build_region_table(8))],
}


@pytest.mark.parametrize("run", sorted(_RUN_TABLES))
def test_manifest_names_its_provenance(run, tmp_path, capsys):
    # beside the parameters: what the run's bits rest on, down to the
    # SHA-256 of each region table it used
    assert main(_RUNS[run] + ["--out-dir", str(tmp_path)]) == 0
    (manifest,) = tmp_path.glob("*.manifest.json")
    assert json.loads(manifest.read_text())["provenance"] == {
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
        "chunk_size": sim.CHUNK_SIZE,
        "stream_key": "(seed, streams[engine], chunk)",
        "streams": {"ser": 1, "rate": 2, "csit": 3},
        "region_table_sha256": [
            hashlib.sha256(t.to_json().encode()).hexdigest()
            for t in _RUN_TABLES[run]()],
    }
