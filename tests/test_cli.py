import argparse
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

import ceapsk.sim as sim
from ceapsk import cli, optimizer
from ceapsk.cli import main, parse_range, parse_trials
from ceapsk.optimizer import build_region_table


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


def test_cdf_trials_bounded_before_the_draw(monkeypatch, tmp_path, capsys):
    assert cli.MAX_CDF_TRIALS == 10**7
    monkeypatch.setattr(cli, "sample_rayleigh", _no_draw)
    # 1e12 trials would need about 80 TB; bound + 1 would still be drawn
    # without the bound.  Both are refused before any draw or write.
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        for trials in ("1e12", str(cli.MAX_CDF_TRIALS + 1)):
            assert main(["cdf", "--trials", trials, "--out-dir", str(out)]) == 2
            err = capsys.readouterr().err.strip().splitlines()
            assert err == ["error: cdf --trials must be at most 10000000"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert not out.exists()


def _no_draw(*args, **kwargs):
    raise AssertionError("cdf drew its trials")


@pytest.mark.parametrize("args", [
    ["table", "--n", "258"], ["table", "--n", "512", "--suboptimal"],
    ["design", "--n", str(10**9), "--ratio", "0.5"]],
    ids=["table-258", "table-512", "design-1e9"])
def test_constellation_size_bounded_before_the_solve(args, monkeypatch,
                                                     tmp_path, capsys):
    assert optimizer.MAX_N == 256
    # were the bound gone, the solve would fail the run, not hang or swap
    monkeypatch.setattr(optimizer, "_solve_grid", _no_solve)
    out = tmp_path / "out"
    assert main(args + (["--out-dir", str(out)] if args[0] == "table"
                        else [])) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: N must be at most 256"]
    assert not out.exists()


def _no_solve(*args, **kwargs):
    raise AssertionError("the design was solved")


@pytest.mark.parametrize("args", [
    ["design", "--n", "1e9"], ["ser", "--m", "x", "--scheme",
                               "proposed-optimal"],
    ["ser", "--m", "2"], ["bogus"],
    ["ser", "--scheme", "proposed-optimal", "--nope", "1"]],
    ids=["not-an-int", "bad-m", "no-scheme", "no-command", "unknown-flag"])
def test_flags_argparse_rejects_get_one_line(args, monkeypatch, tmp_path,
                                             capsys):
    # argparse's own errors read like every other bad input: one line
    monkeypatch.chdir(tmp_path)
    assert main(args) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not any(tmp_path.iterdir())  # not even the default out dir


def _no_engine_run(cfg, engine, one_chunk):
    raise AssertionError("an engine ran")


@pytest.mark.parametrize("args", [
    ["ser", "--scheme", "fixed-qam16", "--snr", "0:1e5:1"],
    ["ser", "--scheme", "proposed-optimal", "--snr", "20",
     "--csit-sweep", "0:1e5:1"],
    ["rate", "--scheme", "variable-qam", "--snr", "0:1e5:1"],
    ["cdf", "--points", "10001"],
], ids=["ser-snr", "csit-sweep", "rate-snr", "cdf-points"])
def test_point_counts_are_bounded(args, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(sim, "_reduce_chunks", _no_engine_run)
    out = tmp_path / "out"
    assert main(args + ["--trials", "1e3", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "10000" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("training", ["4000", "-4000", "0:400:100"])
def test_training_snrs_are_bounded(training, monkeypatch, tmp_path, capsys):
    # 4000 dB overflows the MMSE error variance; -4000 would run
    monkeypatch.setattr(sim, "_reduce_chunks", _no_engine_run)
    out = tmp_path / "out"
    assert main(["ser", "--scheme", "proposed-optimal", "--snr", "20",
                 "--trials", "1e3", f"--csit-sweep={training}",
                 "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: training SNRs must be finite and lie in "
                   "[-300, 300]"]
    assert not out.exists()


def test_parse_trials():
    # whole counts in float notation parse; fractional ones exit 2 (below)
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
# from a general ring-list constellation object
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


def test_design_bad_ratio(capsys):
    assert main(["design", "--n", "16", "--ratio", "1.5"]) == 2


def test_unknown_flag():
    assert main(["design", "--n", "16", "--ratio", "0.4", "--bogus"]) == 2


def test_table_n8(tmp_path, capsys):
    assert main(["table", "--n", "8", "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "table_n8.csv").read_text().strip().splitlines()
    assert len(lines) == 4  # header + 3 regions
    row1 = lines[1].split(",")
    assert float(row1[2]) == pytest.approx(0.1495, abs=1e-4)
    assert (tmp_path / "table_n8.manifest.json").exists()


def test_table_suboptimal(tmp_path):
    assert main(["table", "--n", "16", "--suboptimal",
                 "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "table_n16_suboptimal.csv").read_text().strip().splitlines()
    assert len(lines) == 3  # header + 2 regions


def test_stale_table_cache_ignored(tmp_path):
    # a table file left in out/cache by an older version, with every
    # constant d_min altered, must not change a run in that directory
    stale = json.loads(build_region_table(16).to_json())
    for reg in stale["regions"]:
        if reg["d_min"] is not None:
            reg["d_min"] *= 1.5
    (tmp_path / "old" / "cache").mkdir(parents=True)
    (tmp_path / "old" / "cache" / "regions_n16_v1.json").write_text(
        json.dumps(stale))
    args = ["ser", "--scheme", "proposed-optimal", "--snr", "10:14:2",
            "--trials", "2e4", "--seed", "4"]
    got = {}
    for out in ("old", "new"):
        assert main(args + ["--out-dir", str(tmp_path / out)]) == 0
        got[out] = (tmp_path / out / "ser_proposed-optimal_m2.csv").read_bytes()
    assert got["old"] == got["new"]


def test_table_bad_n_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["table", "--n", "7", "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


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


@pytest.mark.parametrize("cmd, flag, extra", [
    ("ser", "--snr", ("--scheme", "proposed-optimal")),
    ("ser", "--csit-sweep", ("--scheme", "proposed-optimal", "--snr", "20")),
    ("rate", "--snr", ("--scheme", "variable-apsk"))],
    ids=["ser-snr", "ser-csit-sweep", "rate-snr"])
def test_negative_range_after_its_flag(cmd, flag, extra, tmp_path):
    # "-10:30:20" is no plain negative number, so argparse alone takes it
    # for a flag; it is the range flag's value, as in "--snr=-10:30:20"
    common = [cmd, *extra, "--m", "2", "--trials", "1e3"]
    split, joined = tmp_path / "split", tmp_path / "joined"
    assert main([*common, flag, "-10:30:20", "--out-dir", str(split)]) == 0
    assert main([*common, f"{flag}=-10:30:20", "--out-dir", str(joined)]) == 0
    csv, = split.glob("*.csv")
    assert csv.read_bytes() == (joined / csv.name).read_bytes()


def test_ser_unknown_scheme(capsys):
    code = main(["ser", "--scheme", "nope", "--snr", "20",
                 "--trials", "1e3"])
    assert code == 2
    err = capsys.readouterr().err
    assert "proposed-optimal" in err and "egt-qam16" in err


@pytest.mark.parametrize("scheme", ["fixed-qam16", "adaptive-qam-psk",
                                    "variable-apsk"])
def test_csit_sweep_scheme_rejected_before_any_write(scheme, tmp_path,
                                                     capsys):
    out = tmp_path / "X"
    assert main(["ser", "--scheme", scheme, "--snr", "20", "--trials", "1e3",
                 "--csit-sweep", "0:10:5", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    for csit_scheme in ("proposed-optimal", "proposed-suboptimal",
                        "egt-qam16"):
        assert csit_scheme in err[0]
    assert not out.exists()


def test_csit_sweep_several_snrs_rejected_before_any_build(monkeypatch,
                                                           tmp_path, capsys):
    built = []
    monkeypatch.setattr(cli, "build_region_table",
                        lambda n: built.append(n))
    out = tmp_path / "X"
    assert main(["ser", "--scheme", "proposed-optimal", "--snr", "20:24:2",
                 "--trials", "1e3", "--csit-sweep", "0:10:5",
                 "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: csit sweep uses a single data SNR"]
    assert not out.exists() and not built


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


def test_rate_bad_pe():
    assert main(["rate", "--scheme", "variable-qam", "--pe", "0",
                 "--snr", "10", "--trials", "1e3"]) == 2


def test_ser_run_and_manifest_replay(tmp_path, capsys):
    args = ["ser", "--scheme", "adaptive-qam-psk", "--m", "2",
            "--snr", "20:24:2", "--trials", "2e4",
            "--out-dir", str(tmp_path / "a")]
    assert main(args) == 0
    csv_a = (tmp_path / "a" / "ser_adaptive-qam-psk_m2.csv").read_bytes()
    manifest = tmp_path / "a" / "ser_adaptive-qam-psk_m2.manifest.json"
    # replay from the manifest into a fresh directory; explicit flag wins
    assert main(["--config", str(manifest), "ser",
                 "--out-dir", str(tmp_path / "b")]) == 0
    csv_b = (tmp_path / "b" / "ser_adaptive-qam-psk_m2.csv").read_bytes()
    assert csv_a == csv_b


def test_config_file_defaults_and_override(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"n": 16, "ratio": 0.4}))
    assert main(["--config", str(conf), "design"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["n2"] == 5
    # explicit flag overrides the config value, in either flag form
    for flags in (["--config", str(conf)], [f"--config={conf}"]):
        for ratio in (["--ratio", "0.9"], ["--ratio=0.9"]):
            assert main(flags + ["design"] + ratio) == 0
            out = json.loads(capsys.readouterr().out)
            assert out["n2"] == 8


@pytest.mark.parametrize("ratio", [["--rat", "0.9"], ["--rat=0.9"],
                                   ["--ra", "0.9"]])
def test_config_loses_to_abbreviated_flag(ratio, tmp_path, capsys):
    # argparse accepts a unique prefix of a flag; it must win as well
    conf = tmp_path / "c.json"
    conf.write_text(json.dumps({"n": 16, "ratio": 0.4}))
    assert main(["--config", str(conf), "design"] + ratio) == 0
    assert json.loads(capsys.readouterr().out)["n2"] == 8


def test_config_value_starting_with_dash(tmp_path, capsys):
    # a replayed manifest may hold a grid such as -4:0:2
    conf = tmp_path / "c.json"
    conf.write_text(json.dumps({"snr": "-4:0:2", "trials": 1000}))
    assert main(["--config", str(conf), "ser", "--scheme", "fixed-qam16",
                 "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "ser_fixed-qam16_m2.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in lines[1:]] == ["-4", "-2", "0"]


def test_config_equals_form(tmp_path, capsys):
    conf = tmp_path / "c.json"
    conf.write_text(json.dumps({"m": 3, "trials": 2e3}))
    name = "ser_fixed-qam16_m3"
    runs = {}
    for form, flags in (("split", ["--config", str(conf)]),
                        ("equals", [f"--config={conf}"])):
        out = tmp_path / form
        assert main(flags + ["ser", "--scheme", "fixed-qam16", "--snr", "20:22:2",
                             "--out-dir", str(out)]) == 0
        params = json.loads((out / f"{name}.manifest.json").read_text())[
            "parameters"]
        assert (params.pop("out_dir"), params["m"], params["trials"]) == (
            str(out), 3, 2000)
        runs[form] = ((out / f"{name}.csv").read_bytes(), params)
    assert runs["split"] == runs["equals"]


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


def test_config_without_path(capsys):
    assert main(["--config"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: --config needs a path"]


@pytest.mark.parametrize("flag,value", [("--m", "0"), ("--threads", "0")])
def test_ser_rejects_counts_below_one(flag, value, tmp_path, capsys):
    assert main(["ser", "--scheme", "fixed-qam16", flag, value,
                 "--snr", "20", "--trials", "1e3",
                 "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# parameters of manifests written while the table grid step was a flag
_GRID_STEP_MANIFESTS = {
    "ser": {"scheme": "proposed-optimal", "m": 2, "snr": "20", "trials": 1000,
            "seed": 0, "csit_sweep": None, "grid_step": 0.0001, "threads": 1},
    "rate": {"scheme": "variable-apsk", "m": 2, "snr": "10", "trials": 1000,
             "seed": 0, "pe": 0.001, "grid_step": 0.0001, "threads": 1},
    "table": {"n": 8, "grid_step": 0.0001, "suboptimal": False},
}


@pytest.mark.parametrize("cmd", sorted(_GRID_STEP_MANIFESTS))
def test_grid_step_manifest_exits_2(cmd, tmp_path, capsys):
    # a run whose manifest names a grid step is refused, not replayed at
    # whatever step tables are now built
    out = tmp_path / "out"
    manifest = tmp_path / f"{cmd}.manifest.json"
    manifest.write_text(json.dumps({"command": cmd, "parameters": {
        **_GRID_STEP_MANIFESTS[cmd], "out_dir": str(out)}}))
    assert main(["--config", str(manifest), cmd]) == 2
    assert "--grid-step" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("conf", [[1, 2], "rate", {"parameters": [1, 2]}])
def test_config_not_an_object(conf, tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(conf))
    assert main(["--config", str(path), "rate", "--scheme", "variable-qam",
                 "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: config file {path} must hold a JSON object"]


# a command, and the engine or draw of cli that it runs
_FAULTS = {
    "rate": (["rate", "--scheme", "variable-qam", "--snr", "10",
              "--trials", "1e3"], "run_variable_rate"),
    "ser": (["ser", "--scheme", "fixed-qam16", "--snr", "10",
             "--trials", "1e3"], "run_fixed_rate_ser"),
    "cdf": (["cdf", "--trials", "1e3"], "sample_rayleigh"),
}


@pytest.mark.parametrize("exc", [ZeroDivisionError("float division by zero"),
                                 AttributeError("no attribute 'items'")])
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


def test_rate_rejects_non_finite_snr(tmp_path, capsys):
    assert main(["rate", "--scheme", "variable-qam", "--snr", "nan",
                 "--trials", "1e3", "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.strip() == "error: snr_db must be finite"


@pytest.mark.parametrize("args", [
    ["ser", "--scheme", "proposed-optimal", "--snr", "20", "--trials", "1e3",
     "--csit-sweep", "nan"],
    ["ser", "--scheme", "egt-qam16", "--snr", "20", "--trials", "1e3",
     "--csit-sweep", "nan"],
    ["ser", "--scheme", "fixed-qam16", "--snr", "20", "--trials", "inf"],
    ["ser", "--scheme", "fixed-qam16", "--snr", "20", "--trials", "1000.7"],
    ["ser", "--scheme", "fixed-qam16", "--snr", "0:inf:1", "--trials", "1e3"],
    ["ser", "--scheme", "proposed-optimal", "--snr", "20", "--trials", "1e3",
     "--csit-sweep", "0:inf:2"],
    ["cdf", "--trials", "0"],
    ["cdf", "--trials", "1e3", "--points", "0"],
], ids=["csit-nan-proposed", "csit-nan-egt", "trials-inf",
        "trials-fractional", "snr-range-inf",
        "csit-range-inf", "cdf-trials-0", "cdf-points-0"])
def test_bad_numeric_input_exits_2(args, tmp_path, capsys):
    assert main(args + ["--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("args", [
    ["ser", "--scheme", "fixed-qam16", "--snr", "20"],
    ["rate", "--scheme", "variable-qam", "--snr", "20"],
    ["cdf"],
    ["ser", "--scheme", "proposed-optimal", "--snr", "20"],
    ["rate", "--scheme", "variable-apsk", "--snr", "20"]],
    ids=["ser", "rate", "cdf", "ser-table", "rate-table"])
def test_negative_seed_exits_2(args, tmp_path, capsys, monkeypatch):
    # the seed is checked before any region table is built
    built = []
    monkeypatch.setattr(cli, "build_region_table", built.append)
    out = tmp_path / "out"
    assert main(args + ["--trials", "1e3", "--seed", "-1",
                        "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: seed must be a non-negative integer"]
    assert not out.exists() and built == []


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


def _run(run, out) -> dict:
    """Run _RUNS[run] into out; its manifest's parameters."""
    assert main(_RUNS[run] + ["--out-dir", str(out)]) == 0
    (manifest,) = out.glob("*.manifest.json")
    return json.loads(manifest.read_text())["parameters"]


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
    params = _run(run, tmp_path)
    assert set(params) == _flags()[_RUNS[run][0]]
    assert type(params.get("trials", 0)) is int


@pytest.mark.parametrize("run", sorted(_RUNS))
def test_manifest_replays_every_output(run, tmp_path, capsys):
    _run(run, tmp_path / "a")
    (manifest,) = (tmp_path / "a").glob("*.manifest.json")
    assert main(["--config", str(manifest), _RUNS[run][0],
                 "--out-dir", str(tmp_path / "b")]) == 0

    def outputs(out):
        """Every file the run left under out, but its manifest, by path;
        they must be exactly the outputs its manifest lists."""
        (man,) = out.glob("*.manifest.json")
        files = {p for p in out.rglob("*") if p.is_file()}
        listed = json.loads(man.read_text())["outputs"]
        assert files == {man} | {Path(o) for o in listed}
        return {p.relative_to(out): p.read_bytes() for p in files - {man}}
    assert outputs(tmp_path / "a")
    assert outputs(tmp_path / "a") == outputs(tmp_path / "b")
