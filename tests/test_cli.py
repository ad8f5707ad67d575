import json

import pytest

from ceapsk import cli
from ceapsk.cli import main, parse_range


def test_parse_range():
    assert parse_range("10:40:10") == (10.0, 20.0, 30.0, 40.0)
    assert parse_range("20") == (20.0,)
    with pytest.raises(ValueError):
        parse_range("10:5:1")
    with pytest.raises(ValueError):
        parse_range("1:2:3:4")


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


def test_table_cache_reused(tmp_path):
    assert main(["table", "--n", "8", "--out-dir", str(tmp_path)]) == 0
    cache = list((tmp_path / "cache").glob("regions_n8_*.json"))
    assert len(cache) == 1
    stamp = cache[0].stat().st_mtime_ns
    assert main(["table", "--n", "8", "--out-dir", str(tmp_path)]) == 0
    assert cache[0].stat().st_mtime_ns == stamp


def test_table_non_power_of_two_warns(tmp_path):
    with pytest.warns(UserWarning):
        assert main(["table", "--n", "6", "--out-dir", str(tmp_path)]) == 0


def test_ser_unknown_scheme(capsys):
    code = main(["ser", "--scheme", "nope", "--snr", "20",
                 "--trials", "1e3"])
    assert code == 2
    err = capsys.readouterr().err
    assert "proposed-optimal" in err and "egt-qam16" in err


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


def test_ser_manifest_replays_grid_step(tmp_path, capsys):
    args = ["ser", "--scheme", "proposed-optimal", "--m", "2",
            "--snr", "20:24:2", "--trials", "2e4", "--grid-step", "5e-5",
            "--out-dir", str(tmp_path / "a")]
    assert main(args) == 0
    name = "ser_proposed-optimal_m2"
    manifest = tmp_path / "a" / f"{name}.manifest.json"
    assert json.loads(manifest.read_text())["parameters"]["grid_step"] == 5e-5
    assert main(["--config", str(manifest), "ser",
                 "--out-dir", str(tmp_path / "b")]) == 0
    # the replay built its table at the recorded step, not the default
    assert [p.name for p in (tmp_path / "b" / "cache").iterdir()] == [
        p.name for p in (tmp_path / "a" / "cache").iterdir()]
    assert "step5e-05" in next((tmp_path / "b" / "cache").iterdir()).name
    assert ((tmp_path / "a" / f"{name}.csv").read_bytes()
            == (tmp_path / "b" / f"{name}.csv").read_bytes())


def test_rate_manifest_records_grid_step(tmp_path, capsys):
    assert main(["rate", "--scheme", "variable-qam", "--snr", "10",
                 "--trials", "1e3", "--grid-step", "5e-5",
                 "--out-dir", str(tmp_path)]) == 0
    manifest = json.loads(
        (tmp_path / "rate_variable-qam_m2.manifest.json").read_text())
    assert manifest["parameters"]["grid_step"] == 5e-5


@pytest.mark.parametrize("conf", [[1, 2], "rate", {"parameters": [1, 2]}])
def test_config_not_an_object(conf, tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(conf))
    assert main(["--config", str(path), "rate", "--scheme", "variable-qam",
                 "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: config file {path} must hold a JSON object"]


@pytest.mark.parametrize("exc", [ZeroDivisionError("float division by zero"),
                                 AttributeError("no attribute 'items'")])
def test_command_fault_exits_runtime(exc, monkeypatch, tmp_path, capsys):
    def fault(cfg, tables):
        raise exc
    monkeypatch.setattr(cli, "run_variable_rate", fault)
    assert main(["rate", "--scheme", "variable-qam", "--snr", "10",
                 "--trials", "1e3", "--out-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {type(exc).__name__}: {exc}"]


def test_rate_rejects_non_finite_snr(tmp_path, capsys):
    assert main(["rate", "--scheme", "variable-qam", "--snr", "nan",
                 "--trials", "1e3", "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.strip() == "error: snr_db must be finite"
